"""Out-of-core CSR segments — bounded survey memory, zero leaks (ISSUE 10).

Not a figure from the paper: this benchmark gates the beyond-RAM storage
axis.  ``storage="mmap"`` spills every edge-sized CSR column (target ids,
owners, wire sizes, candidate cumsums, the row-kernel composite) to tracked
``np.memmap`` segment files and streams candidate pushes in budget-sized
chunks through the unchanged ``TriangleBatch`` delivery path, so a survey's
transient footprint is set by the configured budget, not the graph.

Three gates:

1. **Scale**: the spilled segment files must total at least
   ``SPILL_FACTOR_GATE``x the configured budget — the workload genuinely
   exceeds the memory the survey is allowed.
2. **Bounded memory**: the survey phase's Python allocation high-water mark
   (:class:`repro.bench.reporting.AllocationTracker`, started *after* the
   build+spill so only survey-phase transients count) stays within the
   budget, and results match a fully resident run exactly.
3. **Zero leaks**: :func:`repro.graph.ooc.active_segment_paths` is empty
   and every segment file is unlinked after release on the normal path,
   after a callback exception aborts the survey mid-phase, and after a
   :class:`~repro.runtime.world.LivelockError` abort — the three exit
   paths the out-of-core contract covers.
"""

from __future__ import annotations

import os

import pytest

from _artifacts import emit
from repro.bench import format_kv, human_bytes
from repro.bench.reporting import AllocationTracker, memory_snapshot
from repro.core.survey import triangle_survey_push
from repro.graph.dodgr import DODGraph
from repro.graph.generators import rmat
from repro.graph.ooc import StorageConfig, active_segment_paths
from repro.runtime.world import LivelockError, World

NODES = 24
#: Survey-phase transient allocation budget (also the spill chunk driver).
BUDGET_BYTES = 2 << 20  # 2 MiB
#: The spilled segments must total at least this many budgets.
SPILL_FACTOR_GATE = 4.0
#: R-MAT scale chosen so the spilled columns clear the factor gate.
GRAPH_SCALE = 15
#: Smaller graph for the leak gates: cleanup must hold at any size, and the
#: exception/livelock paths abort mid-survey anyway.
LEAK_GRAPH_SCALE = 12


def build_spilled(world, budget=BUDGET_BYTES, scale=GRAPH_SCALE):
    """Build the R-MAT graph, configure mmap storage, and force the spill.

    Materialising every rank's CSR snapshot up front keeps the (unavoidably
    resident) build out of the survey-phase allocation measurement, and
    returns the segment paths so the leak gates can check the actual files.
    """
    dataset = rmat(scale, edge_factor=8, seed=10, name="ooc-bench")
    graph = dataset.to_distributed(world)
    dodgr = DODGraph.build(graph, mode="bulk")
    dodgr.configure_storage(StorageConfig(mode="mmap", budget_bytes=budget))
    paths = []
    for ctx in world.ranks:
        snapshot = dodgr.csr(ctx)
        assert snapshot.storage == "mmap"
        paths.extend(snapshot.segment_paths)
    return dodgr, paths


def segment_bytes(paths):
    return sum(os.path.getsize(path) for path in paths if os.path.exists(path))


def assert_released(dodgr, paths):
    """Release the graph and require every segment gone from disk + registry."""
    dodgr.release()
    leaked = active_segment_paths() & frozenset(paths)
    assert not leaked, f"leaked segment registrations: {sorted(leaked)}"
    on_disk = [path for path in paths if os.path.exists(path)]
    assert not on_disk, f"leaked segment files: {on_disk}"


def test_out_of_core_survey_bounded_memory(benchmark):
    """A survey over a graph >= 4x the budget stays within the budget."""
    world = World(NODES)
    dodgr, paths = build_spilled(world)
    spilled = segment_bytes(paths)
    assert spilled >= SPILL_FACTOR_GATE * BUDGET_BYTES, (
        f"spilled only {human_bytes(spilled)} — below "
        f"{SPILL_FACTOR_GATE}x the {human_bytes(BUDGET_BYTES)} budget; "
        f"grow GRAPH_SCALE"
    )

    def run_survey():
        with AllocationTracker() as tracker:
            report = triangle_survey_push(dodgr, None, engine="columnar")
            snapshot = memory_snapshot()
        return report, tracker, snapshot

    report, tracker, snapshot = benchmark.pedantic(run_survey, rounds=1, iterations=1)

    # Resident oracle: identical triangles and wire accounting.
    oracle_world = World(NODES)
    oracle_graph = rmat(GRAPH_SCALE, edge_factor=8, seed=10, name="ooc-bench")
    oracle = DODGraph.build(oracle_graph.to_distributed(oracle_world), mode="bulk")
    oracle_report = triangle_survey_push(oracle, None, engine="columnar")
    assert report.triangles == oracle_report.triangles
    assert report.wedge_checks == oracle_report.wedge_checks
    assert report.communication_bytes == oracle_report.communication_bytes
    assert report.wire_messages == oracle_report.wire_messages

    assert_released(dodgr, paths)

    trajectory = {
        "graph_scale": GRAPH_SCALE,
        "nodes": NODES,
        "budget_bytes": BUDGET_BYTES,
        "spilled_segment_bytes": spilled,
        "spill_over_budget": spilled / BUDGET_BYTES,
        "survey_peak_alloc_bytes": tracker.peak_bytes,
        "peak_over_budget": tracker.peak_bytes / BUDGET_BYTES,
        "triangles": report.triangles,
        "segments": len(paths),
        **{f"snapshot_{key}": value for key, value in snapshot.items()},
    }
    emit(
        format_kv(
            {
                "budget": human_bytes(BUDGET_BYTES),
                "spilled segments": f"{len(paths)} files, {human_bytes(spilled)}",
                "spill / budget": f"{spilled / BUDGET_BYTES:.1f}x",
                "survey peak alloc": human_bytes(tracker.peak_bytes),
                "peak / budget": f"{tracker.peak_bytes / BUDGET_BYTES:.2f}x",
                "triangles": report.triangles,
            },
            title="Out-of-core survey — bounded transient memory",
        )
    )
    benchmark.extra_info.update(
        {k: v for k, v in trajectory.items() if not k.startswith("snapshot_")}
    )
    assert tracker.peak_bytes <= BUDGET_BYTES, (
        f"survey-phase allocations peaked at {human_bytes(tracker.peak_bytes)}, "
        f"over the {human_bytes(BUDGET_BYTES)} budget"
    )


def test_segments_released_after_callback_exception(benchmark):
    """A callback exception aborts the survey; release still unlinks all."""
    world = World(NODES)
    dodgr, paths = build_spilled(world, scale=LEAK_GRAPH_SCALE)

    class Boom(RuntimeError):
        pass

    state = {"seen": 0}

    def exploding_callback(ctx, tri):
        state["seen"] += 1
        if state["seen"] >= 3:
            raise Boom("mid-survey callback failure")

    def run_aborted():
        with pytest.raises(Boom):
            triangle_survey_push(dodgr, exploding_callback, engine="columnar")

    benchmark.pedantic(run_aborted, rounds=1, iterations=1)
    assert state["seen"] >= 3
    assert_released(dodgr, paths)


def test_segments_released_after_livelock_abort(benchmark):
    """A LivelockError abort mid-barrier leaks no segments either."""
    world = World(NODES, max_drain_sweeps=1)
    dodgr, paths = build_spilled(world, scale=LEAK_GRAPH_SCALE)

    # Messages the barrier cannot drain within one sweep: a callback that
    # keeps forwarding work to the next rank trips the livelock guard.
    noop_handler = world.register_handler(lambda ctx: None, name="ooc-bench-noop")

    def chatty_callback(ctx, tri):
        ctx.async_call((ctx.rank + 1) % NODES, noop_handler)

    def run_livelocked():
        with pytest.raises(LivelockError):
            triangle_survey_push(dodgr, chatty_callback, engine="columnar")

    benchmark.pedantic(run_livelocked, rounds=1, iterations=1)
    assert_released(dodgr, paths)
