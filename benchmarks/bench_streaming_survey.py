"""Incremental streaming surveys — delta delivery vs full recompute (ISSUE 4).

Not a figure from the paper: this benchmark validates the
incremental survey subsystem (``graph/delta.py`` + ``core/incremental.py``).
Replaying an edge stream in batches through
:func:`~repro.core.incremental.incremental_triangle_survey` surveys only the
triangles each batch completes; merging the per-batch reducer panels must be
**bit-identical** to recomputing the whole survey from scratch after every
batch.

Contract, pinned by the parity tests below:

* **replay parity** — at every step of a randomized batch schedule, the
  merged incremental reducer output equals the full-recompute reducer
  output, and the cumulative incremental triangle count equals the full
  count;
* **engine parity** — the scalar reference engine and the columnar engine
  report identical per-step communication counters (bytes, wire messages,
  wedge checks, simulated seconds) and reducer panels;
* **cold-start golden** — the first batch of a stream (everything new)
  degenerates to exactly the full push survey, counters included.

The timing table: on a survey-dominated R-MAT stream (fixed scale 14 —
deliberately *not* scaled by ``REPRO_BENCH_SCALE``, which would leave rebuild
cost dominating both sides) each ~1% delta batch is timed end to end against
a full recompute of the same graph state (merge + bulk DODGr rebuild + delta
survey vs rebuild + full survey), after asserting their panels equal.  The
ratio is informational, not a gate: its numerator is a full
``ClosureTimeSurvey`` recompute, an in-repo path whose speed moves the ratio
while the delta step stands still (typed value arrays in the reducers halved
it: 3.1x -> 1.2x).  The delta path's absolute cost is what the repo
benchmark's ``stream_delta`` workload measures and bounds (``perf/``).
"""

from __future__ import annotations

import math

from _artifacts import emit
from repro.bench import format_table, human_bytes, load_dataset
from repro.bench.streaming import full_recompute_survey, make_streaming_schedule
from repro.core.callbacks import ClosureTimeSurvey, TriangleCounter
from repro.core.incremental import StreamingSurvey, incremental_triangle_survey
from repro.core.survey import triangle_survey_push
from repro.graph.delta import DeltaBuffer
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dodgr import DODGraph
from repro.graph.generators import rmat
from repro.runtime.world import World

NODES = 8
TIMED_BATCHES = 3
TIMED_DELTA_FRACTION = 0.01


def timestamped_edges(generated):
    """Attach deterministic synthetic timestamps (seconds) to every edge."""
    return [
        (u, v, float(i % 9973) + 1.0) for i, (u, v, _m) in enumerate(generated.edges)
    ]


def replay(edges, schedule, engine, nranks=NODES):
    """Replay a schedule through StreamingSurvey; one record per step."""
    world = World(nranks)
    survey = StreamingSurvey(
        world, lambda w: ClosureTimeSurvey(w), engine=engine, graph_name="bench_stream"
    )
    steps = []
    for batch in [schedule.base] + schedule.batches:
        step = survey.ingest(batch)
        steps.append(step)
    return survey, steps


def counters_of(report):
    return (
        report.triangles,
        report.wedge_checks,
        report.communication_bytes,
        report.wire_messages,
        report.simulated_seconds,
    )


def first_wins(records, seen):
    """The records whose unordered pair ``seen`` does not hold yet (added to
    it), self loops dropped: what a first-write-wins merge accepts."""
    kept = []
    for u, v, meta in records:
        pair = frozenset((u, v))
        if u != v and pair not in seen:
            seen.add(pair)
            kept.append((u, v, meta))
    return kept


def test_streaming_replay_parity(benchmark):
    """Replay parity + engine parity on a randomized schedule (scaled stand-in)."""
    dataset = load_dataset("rmat-weak")
    edges = timestamped_edges(dataset)
    schedule = make_streaming_schedule(edges, num_batches=3, delta_fraction=0.04, seed=7)

    def run_all():
        legacy_survey, legacy_steps = replay(edges, schedule, "legacy")
        columnar_survey, columnar_steps = replay(edges, schedule, "columnar")
        # Full recompute oracle at every step, over the first-wins prefix
        # loaded from scratch.
        seen, prefix, oracles = set(), [], []
        for batch in [schedule.base] + schedule.batches:
            prefix.extend(first_wins(batch, seen))
            oracle_graph = DistributedGraph.from_edges(World(NODES), prefix, name="oracle")
            oracles.append(
                full_recompute_survey(oracle_graph, lambda w: ClosureTimeSurvey(w))
            )
        return legacy_steps, columnar_steps, oracles

    legacy_steps, columnar_steps, oracles = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    cumulative_triangles = 0
    for k, (legacy, columnar, oracle) in enumerate(
        zip(legacy_steps, columnar_steps, oracles)
    ):
        context = f"step {k}"
        # Engine parity: identical counters and panels per step.
        assert counters_of(columnar.report) == counters_of(legacy.report), context
        assert columnar.snapshot == legacy.snapshot, context
        # Replay parity: merged panels == full recompute, bit for bit.
        assert columnar.cumulative == oracle.result, context
        cumulative_triangles += columnar.report.triangles
        assert cumulative_triangles == oracle.report.triangles, context


def test_streaming_cold_start_golden(benchmark):
    """Batch 0 (everything new) is exactly the full push survey, counters included."""
    dataset = load_dataset("rmat-weak")
    edges = timestamped_edges(dataset)

    def run_all():
        world = World(NODES)
        graph = DistributedGraph(world, name="cold")
        buffer = DeltaBuffer(world)
        buffer.stage_edges(edges)
        applied = buffer.apply(graph)
        counter = TriangleCounter(world)
        incremental = incremental_triangle_survey(
            applied.dodgr, applied, counter.callback, engine="columnar"
        )
        full_world = World(NODES)
        full_graph = DistributedGraph.from_edges(full_world, first_wins(edges, set()), name="cold")
        full_counter = TriangleCounter(full_world)
        full = triangle_survey_push(
            DODGraph.build(full_graph, mode="bulk"), full_counter.callback, engine="columnar"
        )
        return incremental, full, counter.result(), full_counter.result()

    incremental, full, inc_count, full_count = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    assert inc_count == full_count
    assert counters_of(incremental) == counters_of(full)


def test_streaming_delta_vs_recompute(benchmark):
    """~1% delta batches vs full recompute: parity asserted, ratio reported."""
    generated = rmat(14, edge_factor=8, seed=19, name="rmat-streaming")
    edges = timestamped_edges(generated)
    schedule = make_streaming_schedule(
        edges, num_batches=TIMED_BATCHES, delta_fraction=TIMED_DELTA_FRACTION, seed=1
    )

    def run_all():
        world = World(NODES)
        survey = StreamingSurvey(
            world, lambda w: ClosureTimeSurvey(w), engine="columnar", graph_name="gate"
        )
        survey.ingest(schedule.base)  # cold start, not measured
        records = []
        for batch in schedule.batches:
            step = survey.ingest(batch)
            recompute = full_recompute_survey(
                survey.graph, lambda w: ClosureTimeSurvey(w)
            )
            assert step.cumulative == recompute.result, "parity before timing"
            records.append((step, recompute))
        return records

    records = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    speedups = []
    trajectory = {
        "dataset": "rmat(14, edge_factor=8)",
        "nodes": NODES,
        "delta_fraction": TIMED_DELTA_FRACTION,
        "steps": [],
    }
    for step, recompute in records:
        speedup = recompute.host_seconds / step.host_seconds
        speedups.append(speedup)
        trajectory["steps"].append(
            {
                "batch": step.batch_index,
                "new_edges": step.new_edges,
                "delta_triangles": step.report.triangles,
                "full_triangles": recompute.report.triangles,
                "incremental_host_seconds": step.host_seconds,
                "recompute_host_seconds": recompute.host_seconds,
                "speedup": speedup,
                "parity": True,
            }
        )
        rows.append(
            {
                "batch": step.batch_index,
                "new edges": step.new_edges,
                "delta triangles": step.report.triangles,
                "full triangles": recompute.report.triangles,
                "delta comm": human_bytes(step.report.communication_bytes),
                "inc seconds": round(step.host_seconds, 3),
                "full seconds": round(recompute.host_seconds, 3),
                "speedup": f"{speedup:.2f}x",
            }
        )
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    trajectory["geomean_speedup"] = geomean
    rows.append({"batch": f"geomean {geomean:.2f}x (informational)"})
    emit(
        format_table(
            rows, title="Incremental streaming survey — delta delivery vs full recompute"
        )
    )
    benchmark.extra_info.update(
        {"nodes": NODES, "geomean_speedup": geomean, "speedups": speedups}
    )
