"""Golden parity suite of the incremental survey subsystem (ISSUE 4).

Three layers of contract, each pinned here:

* **replay parity** — merging per-batch reducer panels over a randomized
  edge-batch schedule is bit-identical to a full recompute at every step,
  for every role-order-invariant stock reducer;
* **engine parity** — the scalar reference engine and the columnar engine
  report identical communication counters and reducer panels per step;
* **cold-start golden** — a first batch (everything new) degenerates to the
  full push survey, every counter included.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest

np = pytest.importorskip("numpy")

import repro.core.engine.delta as delta_engine
import repro.core.engine.driver as driver_module
import repro.graph.metadata as metadata_module
from repro.core.callbacks import (
    ClosureTimeSurvey,
    EdgeSupportCounter,
    LocalTriangleCounter,
    TriangleCounter,
)
from repro.containers.counting_set import DistributedCountingSet
from repro.core.engine import EngineConfig
from repro.core.incremental import StreamingSurvey, incremental_triangle_survey
from repro.core.survey import triangle_survey_push
from repro.graph.delta import DeltaBuffer
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dodgr import DODGraph
from repro.graph.generators import erdos_renyi, rmat
from repro.runtime import UnsupportedBackendError
from repro.runtime.faults import FaultPlan
from repro.runtime.rpc import RpcError
from repro.runtime.world import World
from repro.service.deadline import Deadline, DeadlineExceeded

NRANKS = 4


def timestamped(edges):
    return [(u, v, float(i % 97) + 1.0) for i, (u, v, _m) in enumerate(edges)]


def shuffled(edges, seed):
    rng = np.random.default_rng(seed)
    return [edges[i] for i in rng.permutation(len(edges))]


def random_schedule(edges, seed, num_batches):
    """Randomized batch boundaries (every batch non-empty)."""
    rng = np.random.default_rng(seed)
    cuts = sorted(rng.choice(range(1, len(edges)), size=num_batches - 1, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [len(edges)]
    return [edges[bounds[k] : bounds[k + 1]] for k in range(num_batches)]


def full_recompute(edges, reducer_factory, nranks=NRANKS):
    world = World(nranks)
    seen, first_seen = set(), []
    for u, v, meta in edges:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            first_seen.append((u, v, meta))
    graph = DistributedGraph.from_edges(world, first_seen, name="oracle")
    dodgr = DODGraph.build(graph, mode="bulk")
    reducer = reducer_factory(world)
    report = triangle_survey_push(dodgr, reducer.callback, engine="columnar")
    if hasattr(reducer, "finalize"):
        reducer.finalize()
    return report, reducer.result()


def counters_of(report):
    return (
        report.triangles,
        report.wedge_checks,
        report.communication_bytes,
        report.wire_messages,
        report.simulated_seconds,
    )


REDUCERS = {
    "triangle_count": TriangleCounter,
    "closure_times": ClosureTimeSurvey,
    "local_counts": LocalTriangleCounter,
    "edge_support": EdgeSupportCounter,
}


@pytest.mark.parametrize("graph_seed,schedule_seed", [(3, 11), (5, 23)])
@pytest.mark.parametrize("generator", ["erdos", "rmat"])
def test_replay_parity_randomized_schedules(generator, graph_seed, schedule_seed):
    """Merged panels == full recompute at every step of a random schedule."""
    if generator == "erdos":
        generated = erdos_renyi(90, 0.09, seed=graph_seed)
    else:
        generated = rmat(8, edge_factor=5, seed=graph_seed)
    edges = shuffled(timestamped(generated.edges), schedule_seed)
    batches = random_schedule(edges, schedule_seed, num_batches=4)

    world = World(NRANKS)
    surveys = {
        name: StreamingSurvey(world, cls, graph_name=f"stream_{name}")
        for name, cls in REDUCERS.items()
    }
    prefix: list = []
    previous_triangles = 0
    for batch in batches:
        prefix = prefix + list(batch)
        steps = {name: survey.ingest(batch) for name, survey in surveys.items()}
        report, oracle_result = full_recompute(prefix, TriangleCounter)
        for name, step in steps.items():
            _oracle_report, expected = full_recompute(prefix, REDUCERS[name])
            assert step.cumulative == expected, name
        # Delta triangles are exactly the full-count increase of this step.
        assert steps["triangle_count"].report.triangles == (
            report.triangles - previous_triangles
        )
        previous_triangles = report.triangles


def test_engine_parity_counters_and_panels():
    """Legacy and columnar engines: identical counters and panels per step."""
    generated = rmat(8, edge_factor=6, seed=7)
    edges = shuffled(timestamped(generated.edges), 13)
    batches = random_schedule(edges, 17, num_batches=3)

    def replay(engine):
        world = World(NRANKS)
        survey = StreamingSurvey(
            world, ClosureTimeSurvey, engine=engine, graph_name="parity"
        )
        return [survey.ingest(batch) for batch in batches]

    legacy = replay("legacy")
    columnar = replay("columnar")
    for k, (a, b) in enumerate(zip(legacy, columnar)):
        assert counters_of(a.report) == counters_of(b.report), f"step {k}"
        assert a.snapshot == b.snapshot, f"step {k}"
        assert a.cumulative == b.cumulative, f"step {k}"


def test_engine_parity_with_every_delta_batch_on_the_array_path(monkeypatch, grouped_runs):
    """The delta engine builds its batches with the same constructor as the
    full one: typed ``edge_values`` (here forced on for every batch length)
    leave counters and panels identical to the legacy engine's."""
    generated = rmat(8, edge_factor=6, seed=7)
    edges = shuffled(timestamped(generated.edges), 13)
    batches = random_schedule(edges, 17, num_batches=3)

    def replay(engine):
        world = World(NRANKS)
        survey = StreamingSurvey(
            world, ClosureTimeSurvey, engine=engine, graph_name="parity"
        )
        return [survey.ingest(batch) for batch in batches]

    legacy = replay("legacy")
    assert not grouped_runs
    monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", 0)
    columnar = replay("columnar")
    assert grouped_runs, "no delta batch took the array path"
    for k, (a, b) in enumerate(zip(legacy, columnar)):
        assert counters_of(a.report) == counters_of(b.report), f"step {k}"
        assert a.snapshot == b.snapshot, f"step {k}"
        assert a.cumulative == b.cumulative, f"step {k}"


def test_engine_parity_deterministic_across_runs():
    """Counters are a pure function of the schedule (golden determinism)."""
    generated = erdos_renyi(70, 0.1, seed=2)
    edges = shuffled(timestamped(generated.edges), 5)
    batches = random_schedule(edges, 5, num_batches=3)

    def replay():
        world = World(NRANKS)
        survey = StreamingSurvey(world, ClosureTimeSurvey, graph_name="det")
        return [counters_of(survey.ingest(batch).report) for batch in batches]

    assert replay() == replay()


def counted_reducer(factory, calls):
    """``factory`` whose reducers count their ``callback_batch`` deliveries
    into ``calls[-1]``."""

    def make(world):
        reducer = factory(world)
        deliver = reducer.callback_batch

        def callback_batch(ctx, batch):
            calls[-1] += 1
            deliver(ctx, batch)

        reducer.callback_batch = callback_batch
        return reducer

    return make


STAGED_REDUCERS = {
    "closure_times": ClosureTimeSurvey,
    # A four-entry cache flushes the counting set mid-phase, many times.
    "edge_support_small_cache": lambda world: EdgeSupportCounter(
        world, cache_capacity=4, name="support"
    ),
}


@pytest.mark.parametrize("reducer", sorted(STAGED_REDUCERS))
def test_staged_delivery_is_one_batch_per_rank(monkeypatch, reducer):
    """A delta step intersects and delivers once per rank, not once per
    message, and observably changes nothing: per-phase counters, wire
    bytes, simulated seconds, panels and the counting set's increment
    stream equal per-message delivery (the stage handing each message to
    the reducer as it arrives); panels equal the legacy engine's too."""
    factory = STAGED_REDUCERS[reducer]
    generated = rmat(8, edge_factor=6, seed=7)
    edges = shuffled(timestamped(generated.edges), 13)
    batches = random_schedule(edges, 17, num_batches=4)
    kernel_calls = []
    select = driver_module.select_row_kernel

    def counted_kernel(*args):
        kernel = select(*args)

        def row_kernel(*kernel_args, matches):
            # Every staged reducer survey asks for the match columns.
            assert matches is True
            kernel_calls[-1] += 1
            return kernel(*kernel_args, matches=matches)

        return row_kernel

    monkeypatch.setattr(driver_module, "select_row_kernel", counted_kernel)
    evictions = []
    flush = DistributedCountingSet.flush_cache

    def flush_spy(self, ctx):
        evictions.append((ctx.rank, list(self._cache(ctx).items())))
        flush(self, ctx)

    monkeypatch.setattr(DistributedCountingSet, "flush_cache", flush_spy)

    def replay(engine):
        del evictions[:]
        calls = []
        world = World(NRANKS)
        survey = StreamingSurvey(world, counted_reducer(factory, calls), engine=engine)
        steps = []
        for batch in batches:
            calls.append(0)
            kernel_calls.append(0)
            step = survey.ingest(batch)
            phases = {name: world.stats.phase_total(name) for name in world.phase_order}
            steps.append(
                (step.snapshot, step.cumulative, step.report.communication_bytes,
                 step.report.simulated_seconds, phases)
            )
        return steps, calls, list(evictions)

    staged, deliveries, staged_evictions = replay("columnar")
    assert max(deliveries[1:]) <= NRANKS, deliveries
    assert max(kernel_calls[-len(batches) + 1 :]) <= 2 * NRANKS, kernel_calls
    assert sum(step[0] != {} for step in staged) == len(batches)

    handlers = delta_engine.make_columnar_delta_handlers

    def per_message(*args):
        full_check, new_check, stage = handlers(*args)
        if stage is not None:
            stage_message = stage.stage

            def deliver_each(*message):
                stage_message(*message)
                stage.drain()

            stage.stage = deliver_each
        return full_check, new_check, stage

    monkeypatch.setattr(delta_engine, "make_columnar_delta_handlers", per_message)
    per_message_steps, per_message_deliveries, per_message_evictions = replay("columnar")
    assert staged == per_message_steps
    assert staged_evictions == per_message_evictions
    assert sum(per_message_deliveries[1:]) > sum(deliveries[1:])
    legacy, _calls, _evictions = replay("legacy")
    for k, (a, b) in enumerate(zip(legacy, staged)):
        assert a[:2] == b[:2], f"step {k}"
        if reducer == "closure_times":  # no mid-phase flush: every counter too
            assert a == b, f"step {k}"


def test_cold_start_equals_full_survey():
    """Batch 0 (everything new) replays the full push survey bit for bit."""
    generated = rmat(8, edge_factor=6, seed=9)
    edges = timestamped(generated.edges)

    world = World(NRANKS)
    graph = DistributedGraph(world, name="cold")
    buffer = DeltaBuffer(world)
    buffer.stage_edges(edges)
    applied = buffer.apply(graph)
    counter = TriangleCounter(world)
    incremental = incremental_triangle_survey(
        applied.dodgr, applied, counter.callback, engine="columnar"
    )
    full_report, full_count = full_recompute(edges, TriangleCounter)
    assert counter.result() == full_count
    assert counters_of(incremental) == counters_of(full_report)


def test_quiet_batch_costs_nothing():
    """A batch adding no triangle-closing edges sends no candidate bytes."""
    world = World(NRANKS)
    graph = DistributedGraph(world, name="quiet")
    buffer = DeltaBuffer(world)
    buffer.stage_edges([(1, 2, 1.0), (2, 3, 2.0), (3, 1, 3.0)])
    survey = StreamingSurvey(world, TriangleCounter, graph_name="quiet")
    survey.ingest([(1, 2, 1.0), (2, 3, 2.0), (3, 1, 3.0)])
    # An edge to a brand-new pendant vertex closes nothing.
    step = survey.ingest([(3, 99, 4.0)])
    assert step.report.triangles == 0
    assert step.report.wedge_checks == 0
    assert step.report.communication_bytes == 0


def test_window_retirement_algebra():
    """Window = merge of the last N panels; retired panels leave exactly."""
    generated = erdos_renyi(60, 0.12, seed=8)
    edges = shuffled(timestamped(generated.edges), 3)
    batches = random_schedule(edges, 9, num_batches=5)
    world = World(NRANKS)
    survey = StreamingSurvey(
        world, ClosureTimeSurvey, window_batches=2, graph_name="window"
    )
    panels = []
    for k, batch in enumerate(batches):
        step = survey.ingest(batch)
        panels.append(step.snapshot)
        expected_window = ClosureTimeSurvey.merge(panels[-2:])
        assert step.window == expected_window, f"step {k}"
        assert step.cumulative == ClosureTimeSurvey.merge(panels), f"step {k}"
        if k >= 2:
            assert step.retired == panels[-3], f"step {k}"
        else:
            assert step.retired is None


def test_mismatched_delta_rejected():
    world = World(NRANKS)
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    buffer.stage_edge(1, 2)
    first = buffer.apply(graph)
    buffer.stage_edge(2, 3)
    second = buffer.apply(graph)
    with pytest.raises(ValueError):
        incremental_triangle_survey(first.dodgr, second, None)
    with pytest.raises(ValueError):
        incremental_triangle_survey(second.dodgr, second, None, engine="bogus")


#: Axis values the delta drive cannot honour (it runs resident, on the
#: simulated backend); each used to be dropped silently except ``backend``.
UNHONOURED = [
    EngineConfig(engine="columnar", storage="mmap"),
    EngineConfig(engine="legacy", workers=3),
    EngineConfig(backend="process"),
    EngineConfig(backend="process", workers=2),
]


@pytest.mark.parametrize("selector", UNHONOURED)
def test_unhonoured_axes_rejected_before_any_handler(selector):
    world = World(NRANKS)
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    buffer.stage_edges([(1, 2, 1.0), (2, 3, 2.0), (3, 1, 3.0)])
    applied = buffer.apply(graph)
    handlers = len(world.registry)
    with pytest.raises(UnsupportedBackendError, match="backend='simulated' only"):
        incremental_triangle_survey(applied.dodgr, applied, None, engine=selector)
    assert len(world.registry) == handlers


@pytest.mark.parametrize("selector", UNHONOURED)
def test_streaming_survey_rejects_unhonoured_axes_at_construction(selector):
    """Not at the first ingest, which would already have merged the batch."""
    world = World(NRANKS)
    handlers = len(world.registry)
    with pytest.raises(UnsupportedBackendError):
        StreamingSurvey(world, TriangleCounter, engine=selector)
    assert len(world.registry) == handlers


def test_kernel_and_tier_are_honoured_on_the_delta_path():
    """The two axes the delta drive does run: identical panels and counters
    for every (kernel, tier) on both incremental engines."""
    edges = timestamped(erdos_renyi(40, 0.2, seed=6).edges)
    batches = random_schedule(edges, 5, num_batches=3)
    outcomes = set()
    for selector in (
        "legacy",
        EngineConfig(engine="legacy", kernel="hash"),
        EngineConfig(kernel="hash", kernel_tier="compiled"),
        EngineConfig(kernel="binary_search", kernel_tier="columnar"),
    ):
        survey = StreamingSurvey(World(NRANKS), ClosureTimeSurvey, engine=selector)
        steps = [survey.ingest(batch) for batch in batches]
        outcomes.add(
            tuple(
                (repr(sorted(step.snapshot.items())), step.report.triangles,
                 step.report.communication_bytes, step.report.wire_messages)
                for step in steps
            )
        )
    assert len(outcomes) == 1


def test_superseded_rebuilds_are_released():
    """A long stream keeps one live DODGr, not one per batch."""
    generated = erdos_renyi(40, 0.15, seed=4)
    edges = timestamped(generated.edges)
    batches = random_schedule(edges, 21, num_batches=4)
    world = World(NRANKS)
    survey = StreamingSurvey(world, TriangleCounter, graph_name="release")
    rebuilds = []
    for batch in batches:
        survey.ingest(batch)
        rebuilds.append(survey.dodgr)
    # Only the latest rebuild still answers...
    for dodgr in rebuilds[:-1]:
        with pytest.raises(RuntimeError, match="released"):
            dodgr.num_vertices()
    assert rebuilds[-1].num_vertices() > 0
    # ...and every superseded handler slot is tombstoned (latest not).
    for dodgr in rebuilds[:-1]:
        with pytest.raises(RpcError):
            world.registry.handler(dodgr._h_offer_edge.handler_id)
    assert world.registry.handler(rebuilds[-1]._h_offer_edge.handler_id) is not None


def test_the_superseded_rebuild_goes_before_the_next_build(monkeypatch):
    """ingest releases the previous DODGr before it merges and rebuilds, so
    the two rebuilds and their value memos are never resident together."""
    edges = timestamped(erdos_renyi(30, 0.2, seed=5).edges)
    batches = random_schedule(edges, 9, num_batches=2)
    survey = StreamingSurvey(World(NRANKS), TriangleCounter, graph_name="order")
    survey.ingest(batches[0])
    previous, apply, seen = survey.dodgr, DeltaBuffer.apply, []

    def recording_apply(self, graph, name=None):
        with pytest.raises(RuntimeError, match="released"):
            previous.num_vertices()
        seen.append(survey.dodgr)
        return apply(self, graph, name)

    monkeypatch.setattr(DeltaBuffer, "apply", recording_apply)
    survey.ingest(batches[1])
    assert seen == [None] and survey.dodgr.num_vertices() > 0
    survey.close()


def test_ingest_after_close_raises():
    """close() is terminal: the stream neither rebuilds nor answers again."""
    edges = timestamped(erdos_renyi(30, 0.2, seed=5).edges)
    batches = random_schedule(edges, 9, num_batches=2)
    world = World(NRANKS)
    survey = StreamingSurvey(world, TriangleCounter, graph_name="closed")
    survey.ingest(batches[0])
    live = survey.dodgr
    survey.close()
    handlers = len(world.registry)
    with pytest.raises(RuntimeError, match="closed"):
        survey.ingest(batches[1])
    assert len(world.registry) == handlers and survey.batches_ingested == 1
    with pytest.raises(RuntimeError, match="released"):
        live.num_vertices()


def test_release_frees_a_retained_epochs_arrays():
    """A released DODGr lets its per-edge arrays go — CSR columns, the
    global views, the edge -> half edge and edge -> vertex maps and the
    value memos, both what they held when the next batch moved past them
    and what they filled after — while its AppliedDelta is still
    referenced."""
    edges = timestamped(erdos_renyi(60, 0.15, seed=4).edges)
    world = World(NRANKS)
    graph = DistributedGraph(world, name="epochs")
    buffer = DeltaBuffer(world)
    applied = []
    for batch in random_schedule(edges, 5, num_batches=2):
        buffer.stage_edges(batch)
        applied.append(buffer.apply(graph))
        reducer = ClosureTimeSurvey(world)
        incremental_triangle_survey(applied[-1].dodgr, applied[-1], reducer.callback)
        if len(applied) == 1:  # a vertex memo filled before the next batch
            first = applied[0].dodgr.csr(0)
            first.extracted_values(vertex_stamp, "row", np.arange(first.num_rows))
            del first
    old = applied[0]
    csr = old.dodgr.csr(0)
    columns = old.dodgr.global_columns()
    values = columns["values"]
    assert values["row"].memo is values["target"].memo  # one vertex memo
    assert values["edge"].memo.extractors() == []
    assert values["row"].memo.extractors() == [vertex_stamp]  # kept across the move
    csr.extracted_values(vertex_stamp, "target", np.arange(csr.num_edges))
    csr.extracted_values(vertex_stamp, "row", np.arange(csr.num_rows))
    arrays = [csr.tgt_ids, csr.edge_meta, columns["edge_meta"]]
    arrays += [values["edge"].slots, values["target"].slots]
    arrays += list(values["row"].memo._by_extract.values())
    assert len(arrays) == 6
    refs = [weakref.ref(array) for array in arrays]
    del csr, columns, values, arrays
    old.dodgr.release()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert old.num_edges() > 0


class CountedLabel:
    """A vertex label extractor that counts its runs."""

    def __init__(self):
        self.runs = 0

    def __call__(self, meta):
        self.runs += 1
        return -1 if meta is None else meta


def read_rows(dodgr, extract):
    """``extract`` over every row of every rank, with the rows' vertices and
    metadata."""
    read, vertices, metas = [], [], []
    for rank in range(dodgr.world.nranks):
        csr = dodgr.csr(rank)
        read += csr.extracted_values(extract, "row", np.arange(csr.num_rows)).tolist()
        vertices += csr.row_vertices.tolist()
        metas += csr.row_meta.tolist()
    return read, dict(zip(vertices, metas))


def test_a_retained_epoch_keeps_the_values_it_held():
    """An older epoch whose image a batch moved past still reads the values
    its memo held — the old label where the batch rewrote a vertex —
    without running the extractor again; the later epoch runs it only on
    the vertices the batch brought or rewrote."""
    edges = timestamped(erdos_renyi(40, 0.2, seed=3).edges)
    vertices = sorted({u for u, _v, _m in edges} | {v for _u, v, _m in edges})
    world = World(NRANKS)
    graph = DistributedGraph(world, name="epochs")
    buffer = DeltaBuffer(world)
    applied = []
    label = CountedLabel()
    for half, batch in enumerate(random_schedule(edges, 6, num_batches=2)):
        buffer.stage_edges(batch)
        for vertex in vertices[half::2]:
            buffer.stage_vertex_meta(vertex, 100 + vertex)
        applied.append(buffer.apply(graph))
        if not half:
            read_rows(applied[0].dodgr, label)  # filled before the move
    label.runs = 0
    read, old = read_rows(applied[0].dodgr, label)
    assert read == [-1 if meta is None else meta for meta in old.values()]
    assert label.runs == 0
    read, new = read_rows(applied[1].dodgr, label)
    assert read == [-1 if meta is None else meta for meta in new.values()]
    fresh = [v for v, meta in new.items() if v not in old or old[v] != meta]
    assert fresh and label.runs == len(fresh)


def vertex_stamp(meta):
    return 0.0 if meta is None else float(meta)


def record_delta_handlers(monkeypatch, world):
    """Every delta-survey handler ``world`` registers from now on — the push
    survey's intersect handlers, full check and new check — and every
    columnar stage they share, with how many messages each held when the
    survey cleared it."""
    handles, stages = [], []
    register = world.register_handler

    def spy(func, name=None):
        handle = register(func, name)
        if func.__qualname__.endswith("intersect_handler"):
            handles.append(handle)
        return handle

    handlers = delta_engine.make_columnar_delta_handlers

    def stage_spy(*args):
        full_check, new_check, stage = handlers(*args)
        if stage is not None:
            record = [stage, None]
            clear = stage.clear

            def clear_spy():
                record[1] = sum(map(len, stage.pending))
                clear()

            stage.clear = clear_spy
            stages.append(record)
        return full_check, new_check, stage

    monkeypatch.setattr(world, "register_handler", spy)
    monkeypatch.setattr(delta_engine, "make_columnar_delta_handlers", stage_spy)
    return handles, stages


def assert_released(world, handles, stages):
    for handle in handles:
        with pytest.raises(RpcError):
            world.registry.handler(handle.handler_id)
    for stage, _held in stages:
        assert not any(stage.pending)


def ticking_deadline(ticks):
    """A deadline that expires at its ``ticks``-th check (a fake clock)."""
    clock = itertools.count()
    return Deadline(ticks, clock=lambda: next(clock))


@pytest.mark.parametrize("engine", ["columnar", "legacy"])
@pytest.mark.parametrize("expiry", ["before_any_drive", "mid_barrier"])
def test_delta_handlers_released_when_the_deadline_expires(monkeypatch, engine, expiry):
    """An aborted delta survey pins neither its DODGr nor its AppliedDelta,
    and leaves nothing staged — also when it expires mid-barrier, with the
    first sweep's messages staged."""
    world = World(NRANKS)
    buffer = DeltaBuffer(world)
    buffer.stage_edges(timestamped(erdos_renyi(40, 0.15, seed=4).edges))
    applied = buffer.apply(DistributedGraph(world, name="g"))
    handles, stages = record_delta_handlers(monkeypatch, world)
    # One check per rank drive, then one per delivery sweep.
    deadline = Deadline(0.0) if expiry == "before_any_drive" else ticking_deadline(NRANKS + 1)
    with pytest.raises(DeadlineExceeded):
        with world.deadline_scope(deadline):
            incremental_triangle_survey(
                applied.dodgr, applied, ClosureTimeSurvey(world).callback, engine=engine
            )
    assert len(handles) == 2
    assert len(stages) == (engine == "columnar")
    if engine == "columnar" and expiry == "mid_barrier":
        assert stages[0][1] > 0, "the deadline fired before anything was staged"
    assert_released(world, handles, stages)


def test_delta_handlers_released_after_crash_recovery(monkeypatch):
    """A rank crashing after its k-th delta message, with messages staged,
    recovers bit-identical panels; the crashed attempt's handlers go too,
    not only the retry's, and nothing it staged reaches the retry."""
    edges = timestamped(erdos_renyi(40, 0.25, seed=11).edges)
    batches = random_schedule(edges, 7, num_batches=3)
    world = World(NRANKS)
    handles, stages = record_delta_handlers(monkeypatch, world)
    plan = FaultPlan(
        name="delta-crash", seed=3, crash_rank=1, crash_phase="delta_push",
        crash_after_executions=2,
    )
    survey = StreamingSurvey(world, ClosureTimeSurvey, plan=plan)
    steps = [survey.ingest(batch) for batch in batches]
    assert sum(step.restarts for step in steps) == 1
    assert len(handles) == 2 * (len(steps) + 1)
    assert_released(world, handles, stages)
    # The crash hit with messages staged: the crashed attempt's stage was
    # cleared holding them, and every retry ran on a fresh stage.
    crashed = [stage for stage, held in stages if held]
    assert len(crashed) == 1 and len({id(stage) for stage, _ in stages}) == len(stages)
    fault_free = StreamingSurvey(World(NRANKS), ClosureTimeSurvey)
    for step, batch in zip(steps, batches):
        expected = fault_free.ingest(batch)
        assert step.snapshot == expected.snapshot
        assert step.cumulative == expected.cumulative


def test_new_check_join_probes_only_old_edges(monkeypatch):
    """The old-old-new join reads no new edge of the inverted target index:
    nothing at all on a cold start (every edge is new)."""
    probes = []
    rank = [None]
    drive = delta_engine.drive_columnar_delta
    lookup = delta_engine.positions_of_ids

    def drive_spy(ctx, *args):
        rank[0] = ctx.rank
        return drive(ctx, *args)

    def lookup_spy(inv_ids, inv_pos, ids):
        owner, positions = lookup(inv_ids, inv_pos, ids)
        probes.append((rank[0], positions))
        return owner, positions

    monkeypatch.setattr(delta_engine, "drive_columnar_delta", drive_spy)
    monkeypatch.setattr(delta_engine, "positions_of_ids", lookup_spy)
    edges = shuffled(timestamped(rmat(8, edge_factor=6, seed=7).edges), 13)
    world = World(NRANKS)
    graph = DistributedGraph(world, name="probe")
    buffer = DeltaBuffer(world)
    probed_old = 0
    for index, batch in enumerate(random_schedule(edges, 17, num_batches=3)):
        buffer.stage_edges(batch)
        applied = buffer.apply(graph)
        probes.clear()
        incremental_triangle_survey(applied.dodgr, applied, None, engine="columnar")
        assert len(probes) == 2 * NRANKS
        if index == 0:
            assert sum(positions.size for _rank, positions in probes) == 0
        for probe_rank, positions in probes:
            assert not applied.edge_mask(probe_rank)[positions].any()
            probed_old += positions.size
    assert probed_old > 0


def test_merge_snapshot_contract_all_reducers():
    """snapshot()/merge() round-trips for every stock reducer shape."""
    world = World(2)
    counter = TriangleCounter(world)
    counter._per_rank[0] = 3
    assert TriangleCounter.merge([counter.snapshot(), 4]) == 7
    support = EdgeSupportCounter(world)
    snap = support.snapshot()
    assert snap == {}
    merged = EdgeSupportCounter.merge([{("a", "b"): 1}, {("a", "b"): 2, ("b", "c"): 5}])
    assert merged == {("a", "b"): 3, ("b", "c"): 5}
