"""The docs CI job, runnable locally: doctests and markdown link hygiene.

Mirrors the `docs` job of `.github/workflows/ci.yml` so documentation rot
fails tier-1 before it ever reaches CI.
"""

from __future__ import annotations

import doctest
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import linkcheck  # noqa: E402  (repo tool, imported from tools/)


def test_required_documents_exist():
    for name in (
        "README.md",
        "docs/architecture.md",
        "docs/reducers.md",
        "docs/benchmarks.md",
        "docs/sweeps.md",
        "docs/faults.md",
        "docs/kernels.md",
    ):
        path = REPO_ROOT / name
        assert path.is_file() and path.stat().st_size > 0, name


def test_reducers_cookbook_doctests():
    pytest.importorskip("numpy")
    results = doctest.testfile(
        str(REPO_ROOT / "docs" / "reducers.md"),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.attempted > 0, "cookbook lost its executable examples"
    assert results.failed == 0


def test_markdown_links_and_anchors():
    errors = []
    for path in linkcheck.markdown_files(REPO_ROOT):
        errors.extend(linkcheck.check_file(path))
    assert not errors, "\n".join(errors)


def test_every_benchmark_named_in_readme():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    missing = [
        path.name
        for path in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        if path.name not in readme
    ]
    assert not missing, f"benchmarks absent from README.md: {missing}"


def test_linkcheck_catches_broken_links(tmp_path):
    """The checker itself works: broken file links and anchors are reported."""
    good = tmp_path / "good.md"
    good.write_text("# A Heading\n\nsee [self](#a-heading)\n", encoding="utf-8")
    assert linkcheck.check_file(good) == []
    bad = tmp_path / "bad.md"
    bad.write_text(
        "[gone](missing.md) and [no anchor](good.md#nope)\n", encoding="utf-8"
    )
    errors = linkcheck.check_file(bad)
    assert len(errors) == 2
    assert "missing.md" in errors[0] and "nope" in errors[1]


def test_engine_registry_matches_readme_table():
    """Mirror of tools/check_engines.py check 1: docs and registry agree."""
    import check_engines

    from repro.core.engine import engine_names

    documented = check_engines.documented_engines(REPO_ROOT / "README.md")
    assert documented == engine_names(), (
        "README engine-selector table and the engine registry disagree; "
        "update the table in README.md (or the registrations in "
        "src/repro/core/engine/registry.py)"
    )


def test_backend_axis_matches_readme_table():
    """Mirror of tools/check_engines.py check 1 for the backend axis: the
    README's backend-selector table and the registry's backend names agree."""
    import check_engines

    from repro.core.engine import backend_names

    documented = check_engines.documented_backends(REPO_ROOT / "README.md")
    assert documented == backend_names(), (
        "README backend-selector table and the backend axis disagree; "
        "update the table in README.md (or BACKENDS in "
        "src/repro/core/engine/registry.py)"
    )


def test_kernel_tier_table_matches_registry():
    """Mirror of tools/check_engines.py check 5: the README's kernel-tier
    table and the tier registry agree."""
    import check_engines

    from repro.core.intersection import KERNEL_TIERS

    documented = check_engines.documented_kernel_tiers(REPO_ROOT / "README.md")
    assert documented == KERNEL_TIERS, (
        "README kernel-tier table and KERNEL_TIERS disagree; update the "
        "table in README.md (or KERNEL_TIERS in src/repro/core/intersection.py)"
    )


def test_storage_table_matches_registry():
    """Mirror of tools/check_engines.py check 5 for the storage axis."""
    import check_engines

    from repro.graph.ooc import STORAGES

    documented = check_engines.documented_storages(REPO_ROOT / "README.md")
    assert documented == STORAGES, (
        "README storage table and STORAGES disagree; update the table in "
        "README.md (or STORAGES in src/repro/graph/ooc.py)"
    )


def test_sweep_engine_axis_matches_registry():
    """Mirror of tools/check_engines.py check 3: the scenario sweep's engine
    axis is the live registry, so the coverage map can't drop an engine."""
    from repro.core.engine import engine_names
    from repro.sweep import sweep_engine_axis

    assert sweep_engine_axis() == engine_names()


def test_selector_surface_stays_collapsed():
    """Mirror of tools/check_engines.py check 6: ``engine=`` is the only
    execution selector on the survey entry points, full, incremental and
    service surveys share the one default the README table states, and the
    registry stays two engines with no batch kernels."""
    import dataclasses

    import check_engines
    from repro.core import intersection
    from repro.core.engine import EngineSpec, engine_names

    assert check_engines.check_selector_surface() == []
    assert engine_names() == ("legacy", "columnar")
    assert tuple(f.name for f in dataclasses.fields(EngineSpec)) == ("name", "description")
    assert not [name for name in vars(intersection) if check_engines._BATCH_WORD.search(name)]


def test_write_path_stays_on_the_arrays():
    """Mirror of tools/check_engines.py check 7: a columnar stream and a
    service ingest + exact query leave the live graph as columns and build
    no DODGr object view, and a stream step delivers once per rank."""
    import check_engines

    assert check_engines.check_write_path() == []


def test_write_path_check_flags_per_message_delivery(monkeypatch):
    """The check 7 delivery count trips: a delta survey whose stage hands
    each message straight to the reducer is reported."""
    import check_engines
    import repro.core.engine.delta as delta_engine

    handlers = delta_engine.make_columnar_delta_handlers

    def per_message(*args):
        full_check, new_check, stage = handlers(*args)
        stage.staged = False
        return full_check, new_check, stage

    monkeypatch.setattr(delta_engine, "make_columnar_delta_handlers", per_message)
    errors = check_engines.check_write_path()
    assert len(errors) == 1 and "batch deliveries" in errors[0]


def test_reducers_survey_without_a_codec_call():
    """Mirror of tools/check_engines.py check 4: every stock reducer honours
    the contract, and a columnar survey plus ``finalize()`` with it makes
    zero ``encode_call`` / ``decode_call`` invocations — so a reducer that
    regrows a per-key RPC fails tier-1 before the docs CI job."""
    import check_engines
    from repro.core.callbacks import LocalTriangleCounter

    assert check_engines.check_reducer_contract() == []

    class PerKeyRpc(LocalTriangleCounter):
        """What the gate exists to catch: one real RPC per counted key."""

        def finalize(self):
            def sink(ctx, item, amount):
                pass

            for ctx in self.world.ranks:
                for item, amount in self.counts._cache(ctx).items():
                    ctx.async_call(0, sink, item, amount)
            super().finalize()

    assert check_engines.survey_codec_calls(PerKeyRpc) > 0


def test_engine_smoke_tool_passes():
    """Mirror of tools/check_engines.py checks 2+3: every engine
    parity-clean and on the sweep axis."""
    import check_engines

    assert check_engines.main() == 0


def test_one_table_says_what_may_run():
    """Mirror of tools/check_engines.py check 8: ``check_supported`` holds
    the only ``raise UnsupportedBackendError`` in ``src/repro``, and
    docs/architecture.md renders its table row for row."""
    import check_engines

    assert check_engines.check_unsupported_table() == []


def test_unsupported_raise_scan_flags_a_stray_raise(tmp_path):
    """The check 8 scan trips: a raise in another module, or in the
    registry outside the checker, is reported with its line."""
    import check_engines

    registry = tmp_path / "core" / "engine" / "registry.py"
    registry.parent.mkdir(parents=True)
    source = (REPO_ROOT / "src" / "repro" / "core" / "engine" / "registry.py").read_text(
        encoding="utf-8"
    )
    registry.write_text(source, encoding="utf-8")
    assert check_engines.stray_unsupported_raises(tmp_path) == []
    registry.write_text(source + "\n\ndef g():\n    raise UnsupportedBackendError\n", encoding="utf-8")
    (tmp_path / "stray.py").write_text(
        "def f():\n    raise backend.UnsupportedBackendError('x')\n", encoding="utf-8"
    )
    assert check_engines.stray_unsupported_raises(tmp_path) == [
        f"core/engine/registry.py:{len(source.splitlines()) + 4}",
        "stray.py:2",
    ]


def test_one_loop_runs_every_survey_phase():
    """Mirror of tools/check_engines.py check 9: no ``begin_phase(`` call in
    ``src/repro/core`` outside ``program.run_simulated_phases``."""
    import check_engines

    assert check_engines.check_one_survey_loop() == []


def test_survey_loop_scan_flags_a_stray_phase(tmp_path):
    """The check 9 scan trips: a hand-written phase loop in another module,
    or in program.py outside the loop, is reported with its line."""
    import check_engines

    program = tmp_path / "engine" / "program.py"
    program.parent.mkdir(parents=True)
    source = (REPO_ROOT / "src" / "repro" / "core" / "engine" / "program.py").read_text(
        encoding="utf-8"
    )
    program.write_text(source, encoding="utf-8")
    assert check_engines.stray_phase_loops(tmp_path) == []
    program.write_text(source + "\n\ndef g(world):\n    world.begin_phase('x')\n", encoding="utf-8")
    (tmp_path / "incremental.py").write_text(
        "def f(world, phase):\n    world.begin_phase(phase)\n    world.barrier()\n",
        encoding="utf-8",
    )
    assert check_engines.stray_phase_loops(tmp_path) == [
        f"engine/program.py:{len(source.splitlines()) + 4}",
        "incremental.py:2",
    ]


def test_oracle_stays_out_of_production():
    """Mirror of tools/check_engines.py check 10: only the registry's one
    lazy site imports ``repro.oracle``, and the production engine modules
    neither read the record store nor take a ``style``."""
    import check_engines

    assert check_engines.check_oracle_fence() == []


def test_oracle_fence_flags_a_planted_leak(tmp_path):
    """The check 10 scan trips: an oracle import outside the gate (in the
    registry or anywhere else), a record-store read and a ``style``
    parameter in a production engine module are each reported."""
    import check_engines

    src = REPO_ROOT / "src" / "repro"
    engine = tmp_path / "core" / "engine"
    engine.mkdir(parents=True)
    (tmp_path / "oracle").mkdir()
    registry = (src / "core" / "engine" / "registry.py").read_text(encoding="utf-8")
    (engine / "registry.py").write_text(registry, encoding="utf-8")
    (tmp_path / "oracle" / "__init__.py").write_text("from . import oracle\n", encoding="utf-8")
    assert check_engines.oracle_leaks(tmp_path) == []
    (engine / "registry.py").write_text(registry + "\nfrom ...oracle import X\n", encoding="utf-8")
    (tmp_path / "stray.py").write_text("import repro.oracle\n", encoding="utf-8")
    (engine / "push.py").write_text(
        "def drive(ctx, style):\n    return dodgr.local_store(ctx)\n", encoding="utf-8"
    )
    leaks = check_engines.oracle_leaks(tmp_path)
    assert [leak.rsplit(": ", 1)[1] for leak in leaks] == [
        f"core/engine/registry.py:{len(registry.splitlines()) + 2}",
        "stray.py:1",
        "core/engine/push.py:1",
        "core/engine/push.py:2",
    ]
