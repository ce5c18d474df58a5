"""Unit tests for the engine registry, EngineConfig and the batched= deprecation."""

from __future__ import annotations

import pytest

from repro.core import triangle_survey, triangle_survey_push, triangle_survey_push_pull
from repro.core.callbacks import LocalTriangleCounter
from repro.core.engine import (
    EngineConfig,
    EngineSpec,
    SurveyRequest,
    default_engine,
    engine_names,
    execute_survey,
    incremental_engine_names,
    register_engine,
    registered_engines,
    resolve_engine,
    resolve_incremental_engine,
    split_engine_selector,
)
from repro.core.engine import registry as registry_module
from repro.graph import DODGraph, community_host_graph
from repro.graph.generators import erdos_renyi
from repro.runtime import World


def build_dodgr(generated, nranks):
    world = World(nranks)
    return world, DODGraph.build(generated.to_distributed(world), mode="bulk")


class TestRegistry:
    def test_builtin_engines_registered_in_order(self):
        assert engine_names()[:3] == ("legacy", "batched", "columnar")
        assert [spec.name for spec in registered_engines()[:3]] == list(engine_names()[:3])

    def test_resolve_defaults(self):
        assert resolve_engine(None).name == "legacy"
        assert resolve_engine(None, batched=True).name == "batched"
        assert resolve_engine("columnar").name == "columnar"
        assert resolve_engine(resolve_engine("batched")).name == "batched"
        assert resolve_engine(EngineConfig(engine="columnar")).name == "columnar"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown survey engine"):
            resolve_engine("bogus")

    def test_unknown_engine_error_lists_names_and_suggests(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_engine("colunmar")
        message = str(excinfo.value)
        for name in engine_names():
            assert name in message
        assert "did you mean 'columnar'?" in message

    def test_unknown_incremental_engine_suggests(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_incremental_engine("legcay")
        assert "did you mean 'legacy'?" in str(excinfo.value)

    def test_no_suggestion_for_genuinely_foreign_names(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_engine("warp-drive-9000")
        assert "did you mean" not in str(excinfo.value)

    def test_suggest_name_helper(self):
        known = ("legacy", "batched", "columnar")
        assert (
            registry_module.suggest_name("colummar", known)
            == "; did you mean 'columnar'?"
        )
        assert registry_module.suggest_name("zzzz", known) == ""
        # Non-string inputs are coerced, never raise.
        assert registry_module.suggest_name(None, known) == ""

    def test_unregistered_spec_rejected(self):
        foreign = EngineSpec(name="legacy", description="an impostor spec")
        with pytest.raises(ValueError, match="not the registered spec"):
            resolve_engine(foreign)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine(EngineSpec(name="legacy", description="dup"))

    def test_incremental_engine_names(self):
        names = incremental_engine_names()
        assert "legacy" in names and "columnar" in names
        assert "batched" not in names  # no incremental form
        with pytest.raises(ValueError, match="unknown incremental engine"):
            resolve_incremental_engine("batched")
        assert resolve_incremental_engine("columnar").incremental_style == "columnar"

    def test_incremental_numpy_downgrade_goes_to_legacy(self, monkeypatch):
        """Without NumPy the delta survey falls back to its scalar reference,
        not along the full-survey fallback chain (batched has no incremental
        form) — the pre-refactor behaviour."""
        monkeypatch.setattr(registry_module, "_np", None)
        assert resolve_incremental_engine(None).name == "legacy"
        assert resolve_incremental_engine("columnar").name == "legacy"
        # Full surveys still follow the declared fallback chain.
        assert resolve_engine("columnar").name == "batched"

    def test_production_engine_is_columnar_in_every_phase(self):
        spec = resolve_engine("columnar")
        assert spec.push_style == "columnar"
        assert spec.pull_style == "columnar"
        assert spec.proposal_style == "columnar"
        assert spec.fallback == "batched"

    @pytest.mark.parametrize(
        "styles, named",
        [
            (
                dict(push_style="batched", pull_style="columnar", proposal_style="batched"),
                ("pull_style", "proposal_style"),
            ),
            (
                dict(push_style="columnar", pull_style="columnar", proposal_style="legacy"),
                ("pull_style", "proposal_style"),
            ),
            (
                dict(push_style="batched", pull_style="batched", proposal_style="columnar"),
                ("proposal_style", "push_style"),
            ),
        ],
    )
    def test_columnar_styles_need_the_columnar_dry_run(self, styles, named):
        """The one legality rule of the style table: a columnar pull needs the
        columnar dry run's array pull lists, which needs the columnar push's
        mask — rejected at registration, naming both fields."""
        with pytest.raises(ValueError) as excinfo:
            register_engine(EngineSpec(name="test-illegal", description="x", **styles))
        assert all(field in str(excinfo.value) for field in named)
        assert "test-illegal" not in engine_names()

    def test_user_registered_engine_runs(self, small_er):
        """A new composition registered through the public API is selectable
        from the normal entry points and stays on the equivalence contract."""
        name = "test-legacy-pull"
        register_engine(
            EngineSpec(
                name=name,
                description="columnar pushes, legacy pull (test-only)",
                push_style="columnar",
                pull_style="legacy",
                proposal_style="batched",
                requires_numpy=True,
                fallback="batched",
            )
        )
        try:
            _, dodgr = build_dodgr(small_er, 4)
            oracle = triangle_survey_push_pull(dodgr, engine="legacy")
            report = triangle_survey_push_pull(dodgr, engine=name)
            assert report.triangles == oracle.triangles
            assert report.communication_bytes == oracle.communication_bytes
        finally:
            registry_module._REGISTRY.pop(name)


class TestSurveyRequest:
    def test_execute_survey_dispatch(self, small_er):
        _, dodgr = build_dodgr(small_er, 4)
        expected = triangle_survey_push(dodgr, engine="legacy").triangles
        for algorithm in ("push", "push_pull"):
            result = execute_survey(
                SurveyRequest(dodgr=dodgr, algorithm=algorithm), engine="columnar"
            )
            assert result.engine == "columnar"
            assert result.report.triangles == expected
        with pytest.raises(ValueError, match="unknown survey algorithm"):
            execute_survey(SurveyRequest(dodgr=dodgr, algorithm="sideways"))


class TestEngineConfig:
    def test_coerce(self):
        assert EngineConfig.coerce(None) == EngineConfig()
        assert EngineConfig.coerce("columnar").engine == "columnar"
        config = EngineConfig(engine="batched", kernel="hash")
        assert EngineConfig.coerce(config) is config
        assert EngineConfig.coerce(resolve_engine("batched")).engine == "batched"
        with pytest.raises(TypeError):
            EngineConfig.coerce(42)

        class Impostor:  # duck-typed .name must NOT pass as an EngineSpec
            name = "legacy"

        with pytest.raises(TypeError):
            EngineConfig.coerce(Impostor())

    def test_split_engine_selector_config_wins(self):
        config = EngineConfig(engine="columnar", kernel="hash", callback_compute_units=3)
        assert split_engine_selector(config, "merge_path", 10) == ("columnar", "hash", 3)
        # Unset compute units keep the entry point's value.
        config = EngineConfig(engine="columnar", kernel="binary_search")
        assert split_engine_selector(config, "merge_path", 10) == (
            "columnar",
            "binary_search",
            10,
        )
        # Plain strings / None pass straight through.
        assert split_engine_selector("batched", "merge_path", 10) == (
            "batched",
            "merge_path",
            10,
        )
        assert split_engine_selector(None, "hash", 0) == (None, "hash", 0)
        # A config (or spec) that does NOT pin the kernel must preserve the
        # caller's explicit kernel= argument, never reset it to merge_path.
        assert split_engine_selector(EngineConfig(engine="columnar"), "hash", 7) == (
            "columnar",
            "hash",
            7,
        )
        assert split_engine_selector(resolve_engine("columnar"), "hash", 7) == (
            "columnar",
            "hash",
            7,
        )

    def test_default_engine_fills_unset_name_only(self):
        assert default_engine(None, "columnar") == "columnar"
        filled = default_engine(EngineConfig(kernel="hash"), "columnar")
        assert filled.engine == "columnar" and filled.kernel == "hash"
        # Pinned selectors pass through untouched.
        assert default_engine("legacy", "columnar") == "legacy"
        pinned = EngineConfig(engine="batched")
        assert default_engine(pinned, "columnar") is pinned

    def test_incremental_default_survives_kernel_only_config(self):
        """EngineConfig(kernel=...) with engine unset keeps the incremental
        layer's columnar default instead of falling through to legacy."""
        assert resolve_incremental_engine(EngineConfig(kernel="hash")).name == "columnar"

    def test_analysis_keeps_columnar_default_with_kernel_only_config(
        self, small_er, monkeypatch
    ):
        """The analysis layer's documented columnar default survives a
        kernel-only EngineConfig (the 'pin just the kernel' use)."""
        import repro.core.push_pull as push_pull_module
        from repro.analysis import run_clustering_coefficients

        resolved = []
        real = push_pull_module.resolve_engine

        def recording_resolve(engine=None, batched=False):
            spec = real(engine, batched)
            resolved.append(spec.name)
            return spec

        monkeypatch.setattr(push_pull_module, "resolve_engine", recording_resolve)
        world = World(4)
        graph = small_er.to_distributed(world)
        run_clustering_coefficients(graph, engine=EngineConfig(kernel="hash"))
        assert resolved == ["columnar"]

    def test_config_selects_engine_end_to_end(self, small_er):
        """One EngineConfig drives the survey exactly like loose keywords."""
        _, dodgr = build_dodgr(small_er, 4)
        loose = triangle_survey_push(dodgr, kernel="hash", engine="columnar")
        config = triangle_survey_push(
            dodgr, engine=EngineConfig(engine="columnar", kernel="hash")
        )
        assert config.triangles == loose.triangles
        assert config.communication_bytes == loose.communication_bytes
        assert config.wire_messages == loose.wire_messages


class TestBatchedDeprecation:
    @pytest.mark.parametrize("survey", [triangle_survey_push, triangle_survey_push_pull])
    def test_batched_true_warns_and_maps(self, small_er, survey):
        _, dodgr = build_dodgr(small_er, 4)
        oracle = survey(dodgr, engine="batched")
        with pytest.warns(DeprecationWarning, match="batched= boolean is deprecated"):
            report = survey(dodgr, batched=True)
        assert report.triangles == oracle.triangles
        assert report.communication_bytes == oracle.communication_bytes
        assert report.wire_messages == oracle.wire_messages

    def test_dispatcher_warning_attributed_to_caller(self, small_er):
        """The deprecation notice through triangle_survey() must point at the
        user's call site, not at library frames (Python's default filters
        only show DeprecationWarning attributed to the caller's module)."""
        _, dodgr = build_dodgr(small_er, 4)
        with pytest.warns(DeprecationWarning) as record:
            triangle_survey(dodgr, algorithm="push", batched=True)
        assert record[0].filename == __file__

    def test_batched_false_warns_and_maps_to_legacy(self, small_er):
        _, dodgr = build_dodgr(small_er, 4)
        oracle = triangle_survey_push(dodgr, engine="legacy")
        with pytest.warns(DeprecationWarning):
            report = triangle_survey_push(dodgr, batched=False)
        assert report.communication_bytes == oracle.communication_bytes

    def test_default_emits_no_warning(self, small_er, recwarn):
        _, dodgr = build_dodgr(small_er, 4)
        triangle_survey_push(dodgr)
        assert not [w for w in recwarn.list if issubclass(w.category, DeprecationWarning)]

    def test_explicit_engine_wins_over_batched(self, small_er):
        _, dodgr = build_dodgr(small_er, 4)
        oracle = triangle_survey_push(dodgr, engine="columnar")
        with pytest.warns(DeprecationWarning):
            report = triangle_survey_push(dodgr, batched=True, engine="columnar")
        assert report.communication_bytes == oracle.communication_bytes

    def test_batched_true_panel_parity(self, small_er):
        """The shim must route through the real batched engine: the reducer
        panel a ``batched=True`` run produces is bit-identical to an
        explicit ``engine="batched"`` run, not just the counters."""
        panels = {}
        for kwargs in ({"engine": "batched"}, {"batched": True}):
            world, dodgr = build_dodgr(small_er, 4)
            reducer = LocalTriangleCounter(world)
            if "batched" in kwargs:
                with pytest.warns(DeprecationWarning):
                    triangle_survey_push(dodgr, reducer.callback, **kwargs)
            else:
                triangle_survey_push(dodgr, reducer.callback, **kwargs)
            reducer.finalize()
            panels[tuple(kwargs)] = reducer.snapshot()
        assert panels[("engine",)] == panels[("batched",)]


class TestColumnarPullPath:
    def test_pull_path_parity_with_real_pulls(self):
        """columnar on a pull-heavy graph: panels and wire totals match
        legacy exactly, and the graph actually pulls."""
        generated = community_host_graph(
            300,
            community_size=100,
            intra_probability=0.3,
            cross_links_per_vertex=0.5,
            seed=4,
        )
        panels = {}
        reports = {}
        for engine in ("legacy", "columnar"):
            world = World(4)
            dodgr = DODGraph.build(generated.to_distributed(world), mode="bulk")
            reducer = LocalTriangleCounter(world)
            reports[engine] = triangle_survey_push_pull(
                dodgr, reducer.callback, engine=engine
            )
            reducer.finalize()
            panels[engine] = reducer.snapshot()
        assert reports["legacy"].vertices_pulled > 0
        assert panels["columnar"] == panels["legacy"]
        for field in (
            "triangles",
            "communication_bytes",
            "wire_messages",
            "wedge_checks",
            "vertices_pulled",
        ):
            assert getattr(reports["columnar"], field) == getattr(
                reports["legacy"], field
            ), field
