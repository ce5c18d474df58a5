"""Unit tests for the engine registry, EngineConfig and the one selector resolver."""

from __future__ import annotations

import multiprocessing
from itertools import product
from types import SimpleNamespace

import pytest

from repro.core import triangle_survey_push, triangle_survey_push_pull
from repro.core.callbacks import LocalTriangleCounter
from repro.core.engine import (
    BACKENDS,
    DEFAULT_ENGINE,
    EngineConfig,
    EngineSpec,
    SurveyRequest,
    engine_names,
    execute_survey,
    resolve_engine,
    resolve_execution,
)
from repro.core.engine import registry as registry_module
from repro.core.engine.registry import (
    UNSUPPORTED,
    check_supported,
    selector_features,
    survey_features,
)
from repro.core.intersection import KERNEL_TIERS
from repro.graph import DODGraph, community_host_graph
from repro.graph.ooc import STORAGES, StorageConfig, active_segment_paths
from repro.runtime import FaultPlan, UnsupportedBackendError, World, active_segment_names
from repro.runtime.backend import shm


def build_dodgr(generated, nranks):
    world = World(nranks)
    return world, DODGraph.build(generated.to_distributed(world), mode="bulk")


class TestRegistry:
    def test_builtin_engines_registered_in_order(self):
        assert engine_names()[:2] == ("legacy", "columnar")

    def test_resolve_defaults(self):
        assert DEFAULT_ENGINE == "columnar"
        assert resolve_engine(None).name == DEFAULT_ENGINE
        assert resolve_execution(None, incremental=True)[0].name == DEFAULT_ENGINE
        assert resolve_engine("legacy").name == "legacy"
        assert resolve_engine(resolve_engine("legacy")).name == "legacy"
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
            resolve_execution("legcay", incremental=True)
        assert "did you mean 'legacy'?" in str(excinfo.value)

    def test_no_suggestion_for_genuinely_foreign_names(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_engine("warp-drive-9000")
        assert "did you mean" not in str(excinfo.value)

    def test_suggest_name_helper(self):
        known = ("legacy", "columnar")
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

    def test_every_engine_has_an_incremental_form(self):
        for name in engine_names():
            assert resolve_execution(name, incremental=True)[0].name == name
        with pytest.raises(ValueError, match="unknown survey engine"):
            resolve_execution("bogus", incremental=True)


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


#: (selector, resolved (spec.name, kernel, backend, workers, kernel_tier,
#: storage)): every selector form, and an EngineConfig with each single
#: field set.  ``None`` for workers / kernel_tier / storage means "decided
#: at run time" (host cores, best available tier, the DODGr's policy).
MMAP = StorageConfig(mode="mmap")
MERGE, SIM = "merge_path", "simulated"
RESOLVED = [
    (None, ("columnar", MERGE, SIM, None, None, None)),
    ("legacy", ("legacy", MERGE, SIM, None, None, None)),
    (EngineConfig(), ("columnar", MERGE, SIM, None, None, None)),
    (EngineConfig(engine="legacy"), ("legacy", MERGE, SIM, None, None, None)),
    (EngineConfig(kernel="hash"), ("columnar", "hash", SIM, None, None, None)),
    (EngineConfig(backend="process"), ("columnar", MERGE, "process", None, None, None)),
    (EngineConfig(workers=3), ("columnar", MERGE, SIM, 3, None, None)),
    (EngineConfig(kernel_tier="scalar"), ("columnar", MERGE, SIM, None, "scalar", None)),
    (EngineConfig(kernel_tier="auto"), ("columnar", MERGE, SIM, None, "auto", None)),
    (EngineConfig(storage="mmap"), ("columnar", MERGE, SIM, None, None, "mmap")),
    (EngineConfig(storage=MMAP), ("columnar", MERGE, SIM, None, None, MMAP)),
]

class _NeverExpires:
    def check(self):
        pass


class Recorder:
    """A callback with the worker-state protocol that records every call."""

    def __init__(self):
        self.seen = []

    def callback(self, ctx, tri):
        self.seen.append(tri)

    def worker_rank_state(self, rank):
        return None

    def absorb_rank_state(self, rank, state):
        pass


#: (world or callback cell, message fragment): what the process backend
#: rejects beyond the selector — an installed fault plan or deadline, node
#: aggregation, and a callback without the worker-state protocol.
WORLD_STATE_REJECTED = [
    ("fault_plan", "FaultPlan"),
    ("deadline", "deadline"),
    ("ranks_per_node", "ranks_per_node"),
    ("lambda", "worker_rank_state"),
]

#: (selector, error type, message fragment) — all raised by the resolver,
#: i.e. before an entry point has registered a handler.
REJECTED = [
    ("colummar", ValueError, "did you mean 'columnar'?"),
    (EngineConfig(engine="legcay"), ValueError, "did you mean 'legacy'?"),
    (EngineConfig(backend="proces"), ValueError, "did you mean 'process'?"),
    (EngineConfig(kernel_tier="compild"), ValueError, "did you mean 'compiled'?"),
    (EngineConfig(storage="mmpa"), ValueError, "did you mean 'mmap'?"),
    (EngineConfig(storage=StorageConfig(mode="mmpa")), ValueError, "did you mean 'mmap'?"),
    (
        EngineConfig(engine="legacy", kernel_tier="columnar"),
        UnsupportedBackendError,
        "engine=legacy × kernel_tier=columnar is not supported",
    ),
    (EngineConfig(engine="legacy", kernel_tier="compiled"), UnsupportedBackendError, "scalar"),
    (42, TypeError, "engine selector must be"),
    (EngineConfig(kernel="mergepath"), ValueError, "did you mean 'merge_path'?"),
]


class TestResolveExecution:
    @pytest.mark.parametrize("selector, expected", RESOLVED)
    def test_resolves_every_selector_form(self, selector, expected):
        spec, config = resolve_execution(selector)
        assert spec is resolve_engine(expected[0])
        assert (
            config.engine,
            config.kernel,
            config.backend,
            config.workers,
            config.kernel_tier,
            config.storage,
        ) == expected

    def test_registered_spec_is_a_selector(self):
        spec, config = resolve_execution(resolve_engine("legacy"))
        assert spec.name == config.engine == "legacy"

    def test_duck_typed_spec_is_not_a_selector(self):
        class Impostor:  # a .name attribute must NOT pass as an EngineSpec
            name = "legacy"

        with pytest.raises(TypeError):
            resolve_execution(Impostor())

    @pytest.mark.parametrize("selector, error, fragment", REJECTED)
    @pytest.mark.parametrize("survey", [triangle_survey_push, triangle_survey_push_pull])
    def test_rejected_before_any_handler_is_registered(
        self, small_er, survey, selector, error, fragment
    ):
        world, dodgr = build_dodgr(small_er, 2)
        handlers = len(world.registry)
        with pytest.raises(error, match=fragment):
            survey(dodgr, engine=selector)
        assert len(world.registry) == handlers

    @pytest.mark.parametrize("storage", [None, "mmap"])
    @pytest.mark.parametrize("cell, fragment", WORLD_STATE_REJECTED)
    @pytest.mark.parametrize("survey", [triangle_survey_push, triangle_survey_push_pull])
    def test_world_state_rejected_before_any_handler_is_registered(
        self, small_er, tmp_path, survey, cell, fragment, storage
    ):
        """The selector is legal; the world or the callback is not.  The
        runner's check still comes first: no handler, no segment file, no
        shared-memory segment, no callback run."""
        world = World(2, ranks_per_node=2 if cell == "ranks_per_node" else 1)
        dodgr = DODGraph.build(small_er.to_distributed(world), mode="bulk")
        if cell == "fault_plan":
            world.install_fault_plan(FaultPlan(name="armed", reliable=True))
        elif cell == "deadline":
            world.install_deadline(_NeverExpires())
        recorder = Recorder()
        callback = recorder.callback
        if cell == "lambda":
            callback = lambda ctx, tri: recorder.seen.append(tri)  # noqa: E731
        if storage is not None:
            storage = StorageConfig(mode=storage, chunk_candidates=256, directory=str(tmp_path))
        config = EngineConfig(backend="process", workers=2, storage=storage)
        handlers, segments = len(world.registry), active_segment_paths()
        with pytest.raises(UnsupportedBackendError, match=fragment):
            survey(dodgr, callback, engine=config)
        assert len(world.registry) == handlers
        assert dodgr.storage_config().mode == "resident"
        assert active_segment_paths() == segments and list(tmp_path.iterdir()) == []
        assert active_segment_names() == frozenset()
        assert recorder.seen == []

    @pytest.mark.parametrize("engine", ["legacy", "columnar"])
    @pytest.mark.parametrize("algorithm", ["push", "push_pull"])
    def test_directly_built_request_rejects_unknown_kernel(self, small_er, algorithm, engine):
        """A request built by hand skips the resolver; the runner's own check
        still raises before the first handler registers."""
        world, dodgr = build_dodgr(small_er, 2)
        handlers = len(world.registry)
        request = SurveyRequest(dodgr=dodgr, algorithm=algorithm, kernel="mergepath")
        with pytest.raises(ValueError, match="unknown intersection kernel"):
            execute_survey(request, engine=engine)
        assert len(world.registry) == handlers

    @pytest.mark.parametrize(
        "selector",
        [
            EngineConfig(backend="process"),
            EngineConfig(workers=2),
            EngineConfig(storage="mmap"),
            EngineConfig(storage=MMAP),
        ],
    )
    def test_incremental_rejects_axes_the_delta_path_cannot_honour(self, selector):
        with pytest.raises(UnsupportedBackendError, match="backend='simulated' only"):
            resolve_execution(selector, incremental=True)
        # The same selector is fine for a full survey.
        resolve_execution(selector)

    def test_incremental_accepts_kernel_and_tier(self):
        spec, config = resolve_execution(
            EngineConfig(kernel="hash", kernel_tier="scalar", storage="resident"),
            incremental=True,
        )
        assert (spec.name, config.kernel, config.kernel_tier) == ("columnar", "hash", "scalar")


class TestEngineConfig:
    def test_incremental_default_survives_kernel_only_config(self):
        """EngineConfig(kernel=...) with engine unset resolves to the same
        default engine on the incremental path as everywhere else."""
        assert resolve_execution(EngineConfig(kernel="hash"), incremental=True)[0].name == DEFAULT_ENGINE

    def test_analysis_keeps_columnar_default_with_kernel_only_config(
        self, small_er, monkeypatch
    ):
        """A kernel-only EngineConfig (the 'pin just the kernel' use) reaches
        the entry point intact and resolves to the default engine."""
        import repro.core.push_pull as push_pull_module
        from repro.analysis import run_clustering_coefficients

        resolved = []
        real = push_pull_module.resolve_execution

        def recording_resolve(engine=None):
            spec, config = real(engine)
            resolved.append((spec.name, config.kernel))
            return spec, config

        monkeypatch.setattr(push_pull_module, "resolve_execution", recording_resolve)
        world = World(4)
        graph = small_er.to_distributed(world)
        run_clustering_coefficients(graph, engine=EngineConfig(kernel="hash"))
        assert resolved == [(DEFAULT_ENGINE, "hash")]

    def test_config_selects_engine_end_to_end(self, small_er):
        """The config's kernel reaches the handlers on every engine: hash
        charges a different compute total than merge-path, identically on
        the oracle and the production engine."""
        reports = {}
        for engine in ("legacy", "columnar"):
            for kernel in ("merge_path", "hash"):
                _, dodgr = build_dodgr(small_er, 4)
                reports[engine, kernel] = triangle_survey_push(
                    dodgr, engine=EngineConfig(engine=engine, kernel=kernel)
                )
        for kernel in ("merge_path", "hash"):
            oracle, report = reports["legacy", kernel], reports["columnar", kernel]
            assert report.triangles == oracle.triangles
            assert report.communication_bytes == oracle.communication_bytes
            assert report.wire_messages == oracle.wire_messages
            assert report.simulated_seconds == oracle.simulated_seconds
        assert (
            reports["columnar", "hash"].simulated_seconds
            != reports["columnar", "merge_path"].simulated_seconds
        )

    def test_execute_survey_applies_a_configs_set_fields(self, small_er):
        """A name picks the engine for the request's own axes; an
        EngineConfig's set fields replace them, its unset ones do not."""
        _, dodgr = build_dodgr(small_er, 4)
        request = SurveyRequest(dodgr=dodgr, algorithm="push", kernel="hash")
        by_name = execute_survey(request, engine="columnar")
        assert by_name.request.kernel == "hash"
        by_config = execute_survey(
            request, engine=EngineConfig(engine="legacy", kernel_tier="scalar")
        )
        assert by_config.engine == "legacy"
        assert (by_config.request.kernel, by_config.request.kernel_tier) == ("hash", "scalar")
        assert request.kernel_tier is None  # the caller's request is not mutated


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


#: Every selector-axis cell: (engine, backend, tier, storage, workers pinned).
TIERS = KERNEL_TIERS + ("auto", None)
SELECTOR_CELLS = list(
    product(("legacy", "columnar"), BACKENDS, TIERS, STORAGES + (None,), (None, 2))
)


def cell_features(engine, backend, tier, storage, workers):
    request = SurveyRequest(
        dodgr=None, backend=backend, kernel_tier=tier, storage=storage, workers=workers
    )
    return selector_features(request, resolve_engine(engine))


class TestUnsupportedTable:
    def test_every_row_is_reachable_and_rejects(self, monkeypatch):
        """Every row names only features the feature functions emit, and
        is the first row to reject a request with exactly its features."""
        produced = {"incremental"}  # resolve_execution(..., incremental=True)
        for cell in SELECTOR_CELLS:
            produced |= cell_features(*cell)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(shm, "shared_memory_available", lambda: False)
        world = World(2, ranks_per_node=2)
        world.install_fault_plan(FaultPlan(name="armed", reliable=True))
        world.install_deadline(_NeverExpires())
        request = SurveyRequest(dodgr=SimpleNamespace(world=world), callback=lambda c, t: None)
        produced |= survey_features(request, resolve_engine("columnar"))
        for row, reason in UNSUPPORTED:
            assert set(row) <= produced, f"row {row} names a feature nothing emits"
            with pytest.raises(UnsupportedBackendError) as excinfo:
                check_supported(row)
            assert str(excinfo.value) == f"{' × '.join(row)} is not supported: {reason}"

    @pytest.mark.parametrize("incremental", [False, True])
    def test_the_table_implies_the_legal_matrix(self, incremental):
        """Stated independently: legacy runs only the scalar tier, and a
        delta survey runs on the simulated backend, resident, workers unset.
        Every other selector cell passes the checker."""
        legal_cells = 0
        for engine, backend, tier, storage, workers in SELECTOR_CELLS:
            features = cell_features(engine, backend, tier, storage, workers)
            legal = (engine == "columnar" or tier in ("scalar", "auto", None)) and not (
                incremental and (backend == "process" or workers or storage == "mmap")
            )
            if incremental:
                features.add("incremental")
            if legal:
                check_supported(features)
                legal_cells += 1
            else:
                with pytest.raises(UnsupportedBackendError):
                    check_supported(features)
        assert legal_cells == (16 if incremental else 96)

    def test_a_legal_survey_passes_on_this_platform(self, small_er):
        world, dodgr = build_dodgr(small_er, 2)
        request = SurveyRequest(dodgr=dodgr, backend="process", storage="mmap", workers=2)
        features = survey_features(request, resolve_engine("columnar"))
        assert features == {"engine=columnar", "backend=process", "storage=mmap", "workers"}
        check_supported(features)
