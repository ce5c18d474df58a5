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


def test_sweep_covers_the_registry():
    """Mirror of tools/check_engines.py check 3: a one-config sweep has a
    parity-clean cell for every registered engine."""
    import check_engines

    from repro.core.engine import engine_names

    assert check_engines.check_sweep_coverage(engine_names()) == []


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
    service ingest + exact query leave the live graph as columns, and a
    stream step delivers once per rank."""
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
        stage_message = stage.stage

        def deliver_each(*message):
            stage_message(*message)
            stage.drain()

        stage.stage = deliver_each
        return full_check, new_check, stage

    monkeypatch.setattr(delta_engine, "make_columnar_delta_handlers", per_message)
    errors = check_engines.check_write_path()
    assert len(errors) == 1 and "batch deliveries" in errors[0]


def test_reducers_survey_without_a_per_message_send():
    """Mirror of tools/check_engines.py check 4: every stock reducer honours
    the contract, and a columnar survey plus ``finalize()`` with it makes
    zero per-message ``async_call`` sends — so a reducer that regrows a
    per-key RPC fails tier-1 before the docs CI job."""
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

    assert check_engines.survey_per_message_sends(PerKeyRpc) > 0


def test_reducer_check_flags_a_per_key_send_in_callback_batch():
    """Check 4's planted stray on the delivery path: a reducer whose
    ``callback_batch`` sends one ``async_call`` per counted vertex makes
    one send per key, and the check names it."""
    import check_engines
    from repro.core.callbacks import LocalTriangleCounter

    class PerKeySend(LocalTriangleCounter):
        def callback_batch(self, ctx, batch):
            def sink(ctx, vertex):
                pass

            for vertex in set(batch.p) | set(batch.q) | set(batch.r):
                ctx.async_call(self.world.owner_of(vertex), sink, vertex)
            super().callback_batch(ctx, batch)

    assert check_engines.survey_per_message_sends(PerKeySend) > 0


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
    registry or anywhere else), a record-store read or definition in any
    module outside the oracle, and a ``style`` parameter in a production
    engine module are each reported."""
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
    (tmp_path / "graph").mkdir()
    (tmp_path / "graph" / "store.py").write_text(
        "class Graph:\n    def local_store(self, rank):\n        return {}\n\n\n"
        "def read(graph):\n    return graph.local_store(0)\n",
        encoding="utf-8",
    )
    (tmp_path / "oracle" / "records.py").write_text(
        "def local_store(rank):\n    return local_store(rank)\n", encoding="utf-8"
    )
    leaks = check_engines.oracle_leaks(tmp_path)
    assert [leak.rsplit(": ", 1)[1] for leak in leaks] == [
        f"core/engine/registry.py:{len(registry.splitlines()) + 2}",
        "stray.py:1",
        "core/engine/push.py:2",
        "graph/store.py:2",
        "graph/store.py:7",
        "core/engine/push.py:1",
    ]


def test_one_primitive_owns_every_stable_sort():
    """Mirror of tools/check_engines.py check 11: no ``argsort(...,
    kind="stable")`` in ``src/repro`` outside ``world.stable_key_order``,
    the oracle package aside."""
    import check_engines

    assert check_engines.check_one_stable_sort() == []


def test_stable_sort_scan_flags_a_stray_sort(tmp_path):
    """The check 11 scan trips: a stable argsort in another module, or in
    world.py outside the primitive, is reported with its line; the oracle
    package and the default-kind argsort are not."""
    import check_engines

    world = tmp_path / "runtime" / "world.py"
    world.parent.mkdir(parents=True)
    (tmp_path / "oracle").mkdir()
    source = (REPO_ROOT / "src" / "repro" / "runtime" / "world.py").read_text(encoding="utf-8")
    world.write_text(source, encoding="utf-8")
    (tmp_path / "oracle" / "legacy.py").write_text(
        "order = np.argsort(keys, kind='stable')\n", encoding="utf-8"
    )
    assert check_engines.stray_stable_sorts(tmp_path) == []
    world.write_text(
        source + "\n\ndef g(keys):\n    return _np.argsort(keys, kind=\"stable\")\n",
        encoding="utf-8",
    )
    (tmp_path / "stray.py").write_text(
        "a = np.argsort(keys)\nb = np.argsort(keys, kind='stable')\n", encoding="utf-8"
    )
    assert check_engines.stray_stable_sorts(tmp_path) == [
        f"runtime/world.py:{len(source.splitlines()) + 4}",
        "stray.py:2",
    ]


def test_every_import_in_src_is_read():
    """Mirror of tools/check_engines.py check 17: no unused import in
    ``src/repro``."""
    import check_engines

    assert check_engines.check_no_unused_imports() == []


def test_unused_import_scan_flags_a_planted_stray(tmp_path):
    """The check 17 scan trips on a planted stray import, with its line;
    a read name, a string annotation, an ``__all__`` entry, a package
    ``__init__`` and ``from __future__`` are not reported."""
    import check_engines

    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("from .mod import unread\n", encoding="utf-8")
    (tmp_path / "pkg" / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Tuple\n"
        "from .other import exported, Callback\n"
        "__all__ = ['exported']\n\n\n"
        "def f(x: Optional['Callback']) -> 'np.ndarray':\n"
        "    return os.path.join(x)\n",
        encoding="utf-8",
    )
    assert check_engines.unused_imports(tmp_path) == ["pkg/mod.py:4 Tuple"]


def test_array_path_reducers_stay_on_the_arrays():
    """Mirror of tools/check_engines.py check 13: on a numeric rmat-8 graph
    every array-path reducer hands each large batch to
    ``increment_grouped_run`` without decoding an object column."""
    import check_engines

    assert check_engines.check_array_paths() == []


def test_array_path_check_flags_a_planted_fallback():
    """The check 13 probe trips: an edge label that answers ``str`` has no
    array form, so every large batch takes the object loop — correct, and
    invisible to every parity suite, but reported here."""
    import check_engines
    from repro.core.callbacks import MaxEdgeLabelDistribution

    misses = check_engines.array_path_misses(
        "max-edge-label", lambda world: MaxEdgeLabelDistribution(world, edge_label=str)
    )
    assert misses
    assert any("never reached increment_grouped_run" in miss for miss in misses)
    assert any("decoded object columns" in miss and "meta_pq" in miss for miss in misses)


def test_counts_count_in_place():
    """Mirror of tools/check_engines.py check 14: ``callback=None`` surveys
    ask every row-kernel call for no match columns; a reducer's asks for
    them on every call."""
    import check_engines

    assert check_engines.check_count_only() == []


def test_count_only_check_flags_a_planted_regrowth(monkeypatch):
    """The check 14 probe trips: a pull handler whose kernel always writes
    the match columns counts the same triangles, only slower — and is
    reported here, for the Push-Pull count alone."""
    import check_engines
    from repro.core.engine import push_pull

    make_handler = push_pull.make_columnar_pull_handler

    def regrown(stage):
        row_kernel = stage.row_kernel

        def always_matches(*args, matches):
            return row_kernel(*args, matches=True)

        stage.row_kernel = always_matches
        return make_handler(stage)

    monkeypatch.setattr(push_pull, "make_columnar_pull_handler", regrown)
    errors = check_engines.check_count_only()
    assert len(errors) == 1
    assert errors[0].startswith("push_pull survey with callback=None: ")
    assert errors[0].endswith("row-kernel calls had matches=True")


def test_surveys_deliver_once_per_rank_per_phase():
    """Mirror of tools/check_engines.py check 15: resident Push-Only and
    Push-Pull closure-time surveys make at most one row-kernel call and one
    ``callback_batch`` delivery per rank in every phase."""
    import check_engines

    assert check_engines.check_staged_delivery() == []
    counts = check_engines.staged_delivery_counts("push_pull")
    assert {"push", "pull"} <= set(counts)


def test_staged_delivery_check_flags_per_message_delivery(monkeypatch):
    """The check 15 probe trips: a stage that intersects and delivers each
    message as it arrives finds the same triangles, only slower — and is
    reported here, for both algorithms."""
    import check_engines
    from repro.core.engine.driver import CandidateStage

    stage_message = CandidateStage.stage

    def deliver_each(self, ctx, *message):
        stage_message(self, ctx, *message)
        self.drain()

    monkeypatch.setattr(CandidateStage, "stage", deliver_each)
    errors = check_engines.check_staged_delivery()
    assert {error.split(" survey")[0] for error in errors} == {"push", "push_pull"}
    assert all(error.endswith("(one per rank)") for error in errors)


def test_vertex_labels_are_extracted_once_per_stream():
    """Check 16 mirrored in tier-1: a three-batch labels stream, and a
    service answering exact queries at two pinned epochs, run their
    vertex-label extractor at most once per (vertex, metadata) pair."""
    import check_engines

    assert check_engines.check_vertex_label_extractions() == []
    runs, extra = check_engines.vertex_label_extractions()
    assert runs > 0 and extra == 0
    runs, extra, outcomes = check_engines.pinned_epoch_extractions()
    assert runs > 0 and extra == 0 and outcomes == ["exact", "exact"]


def test_vertex_label_check_flags_a_per_edge_target_memo(monkeypatch):
    """The check 16 probe trips: a build that gives the target column its
    own memo, one slot per edge, reads the same labels — and is reported."""
    import check_engines
    from repro.graph.columnar import ValueColumn, ValueMemo
    from repro.graph.dodgr import DODGraph

    adopt = DODGraph._adopt_half_edges

    def per_edge_target(self, graph):
        adopt(self, graph)
        metas = self._global["tgt_meta"]
        memo = ValueMemo(len(metas))
        self._global["values"]["target"] = ValueColumn(memo, metas)
        for csr in self._csr:
            csr.value_columns["target"] = ValueColumn(memo, metas, None, csr.edge_base)

    monkeypatch.setattr(DODGraph, "_adopt_half_edges", per_edge_target)
    errors = check_engines.check_vertex_label_extractions()
    assert [error.split(":")[0] for error in errors] == [
        "3-batch StreamingSurvey of MaxEdgeLabelDistribution",
        "SurveyService querying two pinned epochs",
    ]
    assert all("pair it had already run on" in error for error in errors)


def test_vertex_label_check_flags_a_move_that_empties_the_old_memo(monkeypatch):
    """The check 16 service probe trips: a move that empties the previous
    image's memo, so the older pinned epoch re-extracts what the stream had
    already extracted."""
    import check_engines
    from repro.graph.columnar import ValueMemo

    moved = ValueMemo.moved

    def emptying_move(self, *args, **kwargs):
        memo = moved(self, *args, **kwargs)
        self._by_extract = {}
        return memo

    monkeypatch.setattr(ValueMemo, "moved", emptying_move)
    errors = check_engines.check_vertex_label_extractions()
    assert len(errors) == 1 and errors[0].startswith("SurveyService querying two pinned epochs")


def test_every_export_has_a_caller():
    """Mirror of tools/check_engines.py check 12: every name in a
    ``repro.*`` ``__all__`` is used outside tests/ and its module, or sits
    on the allowlist with a reason; every allowlist entry matches."""
    import check_engines

    assert check_engines.check_public_surface() == []


def test_public_surface_scan_flags_a_planted_export(tmp_path, monkeypatch):
    """The check 12 scan trips on a planted export that only a test and a
    package re-export use; a used export, one named in the docs and an
    allowlisted one are not reported."""
    import check_engines

    graph = tmp_path / "src" / "repro" / "graph"
    graph.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("", encoding="utf-8")
    (graph / "__init__.py").write_text(
        "from .io import write_edge_file\n"
        "from .shapes import dead_shape, documented_shape, live_shape\n"
        '__all__ = ["write_edge_file", "dead_shape", "documented_shape", "live_shape"]\n',
        encoding="utf-8",
    )
    (graph / "shapes.py").write_text(
        '__all__ = ["dead_shape", "documented_shape", "live_shape"]\n\n\n'
        "def dead_shape():\n    return live_shape()\n\n\n"
        "def documented_shape():\n    return 1\n\n\n"
        "def live_shape():\n    return 2\n",
        encoding="utf-8",
    )
    (graph / "io.py").write_text(
        '__all__ = ["write_edge_file"]\n\n\ndef write_edge_file(path):\n    pass\n',
        encoding="utf-8",
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.graph import live_shape\n\nprint(live_shape())\n", encoding="utf-8"
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "shapes.md").write_text(
        "`documented_shape()` returns one.\n", encoding="utf-8"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_shapes.py").write_text(
        "from repro.graph import dead_shape, write_edge_file\n\n"
        "def test_it():\n    assert dead_shape() == 2\n    write_edge_file('x')\n",
        encoding="utf-8",
    )
    assert "repro.graph.io.*" in check_engines.PUBLIC_SURFACE_ALLOWLIST
    assert check_engines.stray_public_names(tmp_path) == ["repro.graph.shapes.dead_shape"]
    monkeypatch.setattr(check_engines, "REPO_ROOT", tmp_path)
    errors = check_engines.check_public_surface()
    assert [error for error in errors if "is exported" in error] == [
        "repro.graph.shapes.dead_shape is exported but nothing outside tests/ and its "
        "module uses it: delete it, drop it from __all__, or give "
        "PUBLIC_SURFACE_ALLOWLIST a reason"
    ]
    # Every other entry names a module the planted tree does not have.
    assert len(errors) == len(check_engines.PUBLIC_SURFACE_ALLOWLIST)
