"""Fault injection, at-least-once delivery, crash triggers, livelock guard.

The contract under test (see ``docs/faults.md``):

* fault plans are frozen, validated, serializable and deterministically
  sampled;
* under any drop/duplicate/delay plan, every engine's reducer panel is
  **bit-identical** to the fault-free run — the transport's retries and
  dedupe absorb the weather, and only wire counters (honestly) grow;
* an *armed* transport with zero fault rates (``reliable=True``) changes
  nothing observable, byte for byte;
* the crash trigger fires deterministically and
  :meth:`World.recover_from_crash` restores a usable world;
* runaway barriers die with a diagnostic :class:`LivelockError` instead of
  spinning forever.
"""

import random

import pytest

from repro.core.callbacks import LocalTriangleCounter
from repro.core.engine import SurveyRequest, engine_names, execute_survey
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dodgr import DODGraph
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    LivelockError,
    RankCrashError,
    World,
    sample_fault_plans,
)
from repro.runtime.faults import Envelope, ReliableTransport
from repro.runtime.message_buffer import WIRE_ENVELOPE_BYTES
from repro.runtime.world import DEFAULT_MAX_DRAIN_SWEEPS, WorldError

NRANKS = 4


def small_edges(seed=7, vertices=40, count=160):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < count:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def run_survey(engine, plan=None, algorithm="push"):
    """One survey on a fresh world; returns (panel, triangles, bytes, msgs)."""
    world = World(NRANKS)
    if plan is not None:
        world.install_fault_plan(plan)
    graph = DistributedGraph.from_edges(world, small_edges(), name="faults")
    dodgr = DODGraph.build(graph, mode="bulk")
    reducer = LocalTriangleCounter(world)
    request = SurveyRequest(
        dodgr=dodgr, callback=reducer.callback, algorithm=algorithm
    )
    report = execute_survey(request, engine=engine).report
    reducer.finalize()
    return (
        reducer.snapshot(),
        report.triangles,
        report.communication_bytes,
        report.wire_messages,
        world,
    )


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(delay_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(max_delay_ticks=0)
        with pytest.raises(ValueError):
            FaultPlan(crash_after_executions=0)
        with pytest.raises(ValueError):
            FaultPlan(slow_ranks=((0, 0.5),))

    def test_has_delivery_faults(self):
        assert not FaultPlan().has_delivery_faults()
        assert FaultPlan(drop_rate=0.1).has_delivery_faults()
        assert FaultPlan(reliable=True).has_delivery_faults()
        assert FaultPlan(crash_rank=1).has_crash()
        assert not FaultPlan(crash_rank=1).has_delivery_faults()

    def test_describe_round_trips(self):
        plan = FaultPlan(
            name="rt", seed=9, drop_rate=0.2, crash_rank=3, slow_ranks=((1, 2.0),)
        )
        assert FaultPlan.from_dict(plan.describe()) == plan

    def test_sample_fault_plans_deterministic_and_covering(self):
        plans = sample_fault_plans(14, seed=5)
        assert plans == sample_fault_plans(14, seed=5)
        assert plans != sample_fault_plans(14, seed=6)
        kinds = {plan.name.rsplit("-", 1)[0] for plan in plans}
        assert kinds == {
            "drop", "duplicate", "delay", "mixed", "crash", "crash+drop", "permanent"
        }
        assert any(not plan.crash_recoverable for plan in plans)


# ---------------------------------------------------------------------------
# FaultInjector / ReliableTransport units
# ---------------------------------------------------------------------------


class _Msg:
    def __init__(self, source, dest, nbytes=10):
        self.source = source
        self.dest = dest
        self.nbytes = nbytes
        self.seq = None


class TestInjector:
    def test_fates_deterministic(self):
        plan = FaultPlan(seed=3, drop_rate=0.2, duplicate_rate=0.2, delay_rate=0.2)

        def fates():
            injector = FaultInjector(plan, NRANKS)
            return [
                injector.delivery_fate(Envelope(message=None))
                for _ in range(200)
            ]

        first = fates()
        assert first == fates()
        assert {"drop", "duplicate", "delay", "deliver"} == set(first)

    def test_fault_budget_forces_delivery(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, max_faults_per_message=2)
        injector = FaultInjector(plan, NRANKS)
        envelope = Envelope(message=None)
        assert injector.delivery_fate(envelope) == "drop"
        assert injector.delivery_fate(envelope) == "drop"
        assert injector.delivery_fate(envelope) == "deliver"

    def test_crash_trigger_counts_only_matching_phase(self):
        plan = FaultPlan(crash_rank=1, crash_phase="push", crash_after_executions=2)
        injector = FaultInjector(plan, NRANKS)
        injector.note_execution(1, "build", 1)  # wrong phase: ignored
        injector.note_execution(0, "push", 1)  # wrong rank: ignored
        injector.note_execution(1, "push", 1)
        with pytest.raises(RankCrashError) as info:
            injector.note_execution(1, "push", 1)
        assert info.value.rank == 1
        assert info.value.phase == "push"
        assert injector.stats.crashes == 1
        # one-shot: no re-fire after restart
        injector.mark_restarted()
        assert not injector.crashed_ranks
        injector.note_execution(1, "push", 1)

    def test_a_message_counts_every_rpc_it_carries(self):
        """The threshold is an RPC count: a coalesced message of several
        RPCs advances it by all of them and crosses it whole."""
        plan = FaultPlan(crash_rank=1, crash_phase="push", crash_after_executions=5)
        injector = FaultInjector(plan, NRANKS)
        injector.note_execution(1, "push", 3)
        assert injector.crash_pending
        with pytest.raises(RankCrashError) as info:
            injector.note_execution(1, "push", 3)
        assert info.value.executions == 6
        assert "after executing 6 RPCs" in str(info.value)

    def test_crash_rank_resolved_modulo_world(self):
        plan = FaultPlan(crash_rank=7)
        assert FaultInjector(plan, NRANKS).crash_rank == 7 % NRANKS

    def test_scaled_compute(self):
        plan = FaultPlan(slow_ranks=((1, 3.0),))
        injector = FaultInjector(plan, NRANKS)
        assert injector.scaled_compute(1, 10) == 30
        assert injector.scaled_compute(0, 10) == 10


class TestTransport:
    def test_sequence_ids_monotonic_per_stream(self):
        transport = ReliableTransport(FaultPlan(reliable=True))
        seqs = [transport.register(_Msg(0, 1)).message.seq for _ in range(3)]
        assert seqs == [0, 1, 2]
        assert transport.register(_Msg(1, 0)).message.seq == 0

    def test_dedupe_and_ack(self):
        transport = ReliableTransport(FaultPlan(reliable=True))
        transport.register(_Msg(0, 1))
        assert transport.mark_delivered(0, 1, 0) is True
        assert transport.mark_delivered(0, 1, 0) is False  # duplicate
        assert not transport.pending

    def test_retry_backoff(self):
        plan = FaultPlan(reliable=True, retry_timeout_ticks=2)
        transport = ReliableTransport(plan)
        envelope = transport.register(_Msg(0, 1))
        assert transport.due_retries() == []
        transport.clock += 2
        assert transport.due_retries() == [envelope]
        transport.schedule_retry(envelope)
        assert envelope.attempts == 1
        assert envelope.next_retry == transport.clock + 2 * 2  # timeout * 2**1

    def test_abandon_keeps_seq_and_dedup(self):
        transport = ReliableTransport(FaultPlan(reliable=True))
        transport.register(_Msg(0, 1))
        transport.mark_delivered(0, 1, 0)
        transport.register(_Msg(0, 1))
        transport.abandon_in_flight()
        assert not transport.pending
        # stream continues at seq 2; pre-crash delivery still deduped
        assert transport.register(_Msg(0, 1)).message.seq == 2
        assert transport.mark_delivered(0, 1, 0) is False

    def test_retransmit_books_the_message_size(self):
        """A retransmission is one more RPC of the message's ``nbytes``,
        flushed alone: the envelope reads the size off the message."""
        world = World(2)
        world.install_fault_plan(
            FaultPlan(name="drop-once", drop_rate=1.0, max_faults_per_message=1)
        )
        seen = []
        handle = world.register_handler(lambda ctx, values: seen.append(values))
        world.begin_phase("p")
        world.ranks[0].async_call(1, handle, [1, 2, 3])
        nbytes = world.registry.call_size(handle, ([1, 2, 3],))
        world.barrier()
        assert seen == [[1, 2, 3]]
        sender = world.stats.ranks[0].phases["p"]
        assert sender.rpcs_sent == 2
        assert sender.bytes_sent_remote == 2 * nbytes
        assert sender.wire_messages == 2
        assert sender.wire_bytes == 2 * (nbytes + WIRE_ENVELOPE_BYTES)
        assert world.fault_injector.stats.retries == 1
        assert world.stats.ranks[1].phases["p"].bytes_received == nbytes


# ---------------------------------------------------------------------------
# World integration: parity under fault plans
# ---------------------------------------------------------------------------


LOSSY_PLANS = [
    FaultPlan(name="drop", seed=3, drop_rate=0.2),
    FaultPlan(name="duplicate", seed=4, duplicate_rate=0.2),
    FaultPlan(name="delay", seed=5, delay_rate=0.2, max_delay_ticks=4),
    FaultPlan(
        name="mixed", seed=6, drop_rate=0.1, duplicate_rate=0.1, delay_rate=0.1
    ),
]


class TestWorldUnderFaults:
    @pytest.mark.parametrize("plan", LOSSY_PLANS, ids=lambda plan: plan.name)
    @pytest.mark.parametrize("engine", engine_names())
    def test_lossy_plans_keep_panels_bit_identical(self, engine, plan):
        baseline = run_survey(engine)
        faulty = run_survey(engine, plan=plan)
        assert faulty[0] == baseline[0]  # panel
        assert faulty[1] == baseline[1]  # triangles (exactly-once execution)
        injector = faulty[4].fault_injector
        assert injector.stats.total_injected() > 0
        # retry traffic is honest: lossy runs never shrink the wire
        assert faulty[2] >= baseline[2]

    @pytest.mark.parametrize("engine", engine_names())
    def test_armed_reliable_transport_is_byte_identical(self, engine):
        baseline = run_survey(engine)
        armed = run_survey(engine, plan=FaultPlan(name="armed", reliable=True))
        assert armed[:4] == baseline[:4]

    def test_fault_free_has_no_transport(self):
        world = World(NRANKS)
        assert world.fault_injector is None
        world.install_fault_plan(FaultPlan(crash_rank=1))
        assert world.fault_injector is not None
        assert world._transport is None  # crash-only plan needs no transport
        world.clear_fault_plan()
        assert world.fault_injector is None

    def test_crash_fires_and_world_recovers(self):
        plan = FaultPlan(
            name="crash", seed=3, crash_rank=2, crash_phase="push",
            crash_after_executions=3,
        )
        world = World(NRANKS)
        graph = DistributedGraph.from_edges(world, small_edges(), name="crash")
        dodgr = DODGraph.build(graph, mode="bulk")
        world.install_fault_plan(plan)
        reducer = LocalTriangleCounter(world)
        request = SurveyRequest(dodgr=dodgr, callback=reducer.callback)
        with pytest.raises(RankCrashError) as info:
            execute_survey(request)
        assert info.value.rank == 2
        world.recover_from_crash()
        # the recovered world runs a clean survey matching the baseline
        fresh = LocalTriangleCounter(world)
        execute_survey(
            SurveyRequest(dodgr=dodgr, callback=fresh.callback, reset_stats=False)
        )
        fresh.finalize()
        assert fresh.snapshot() == run_survey("legacy")[0]

    def test_faults_suspended_context(self):
        world = World(NRANKS)
        world.install_fault_plan(FaultPlan(drop_rate=0.5, seed=1))
        with world.faults_suspended():
            assert world.fault_injector is None
            assert world._transport is None
        assert world.fault_injector is not None
        assert world._transport is not None


# ---------------------------------------------------------------------------
# Livelock guard
# ---------------------------------------------------------------------------


class TestLivelockGuard:
    def test_max_drain_sweeps_validated(self):
        with pytest.raises(WorldError):
            World(2, max_drain_sweeps=0)
        World(2, max_drain_sweeps=None).barrier()  # disabled guard is fine

    def test_default_limit_is_generous(self):
        assert World(2).max_drain_sweeps == DEFAULT_MAX_DRAIN_SWEEPS

    def test_livelock_raises_with_diagnostics(self):
        world = World(2, max_drain_sweeps=200)
        world.begin_phase("ping-pong")
        state = {"n": 0}

        def ping(ctx, hop):
            state["n"] += 1
            ctx.async_call((ctx.rank + 1) % 2, handle, hop + 1)

        handle = world.register_handler(ping, "livelock.ping")
        world.rank(0).async_call(1, handle, 0)
        with pytest.raises(LivelockError) as info:
            world.barrier()
        err = info.value
        assert err.sweeps == 200
        assert err.phase == "ping-pong"
        assert "ping" in str(err)  # hottest handler named by qualname
        # Pending is a snapshot at the raise instant; a ping-pong livelock
        # may catch it empty (the message executes, then re-sends), so only
        # the shape is guaranteed.
        assert isinstance(err.pending, dict)

    def test_normal_surveys_stay_far_below_limit(self):
        # a regular survey must not come anywhere near the default cap
        world = World(NRANKS, max_drain_sweeps=1000)
        graph = DistributedGraph.from_edges(world, small_edges(), name="ok")
        dodgr = DODGraph.build(graph, mode="bulk")
        reducer = LocalTriangleCounter(world)
        execute_survey(SurveyRequest(dodgr=dodgr, callback=reducer.callback))
        reducer.finalize()
        assert reducer.snapshot() == run_survey("legacy")[0]


# ---------------------------------------------------------------------------
# Fault plans x process backend (pinned contract)
# ---------------------------------------------------------------------------


class TestFaultPlansVsProcessBackend:
    """Fault injection is a simulated-backend feature, by contract.

    Fault fates (drops, delays, duplicates, crash-after-k-executions) are
    defined over the simulated transport's delivery sweeps, which the
    process backend's exchange rounds do not reproduce one-for-one — so an
    installed plan must be rejected loudly before any worker forks, never
    silently ignored.
    """

    def test_installed_fault_plan_rejected(self):
        from repro.runtime import UnsupportedBackendError

        world = World(NRANKS)
        world.install_fault_plan(FaultPlan(name="armed", reliable=True))
        graph = DistributedGraph.from_edges(world, small_edges(), name="faults")
        dodgr = DODGraph.build(graph, mode="bulk")
        reducer = LocalTriangleCounter(world)
        request = SurveyRequest(
            dodgr=dodgr, callback=reducer.callback, backend="process", workers=2
        )
        with pytest.raises(UnsupportedBackendError, match="FaultPlan"):
            execute_survey(request)

    def test_cleared_plan_runs_on_process_backend(self):
        """The rejection is about *installed* machinery, not history: after
        clear_fault_plan() the same world runs on the process backend and
        matches the fault-free oracle."""
        oracle_panel, oracle_triangles = run_survey("legacy")[:2]
        world = World(NRANKS)
        world.install_fault_plan(FaultPlan(name="armed", reliable=True))
        world.clear_fault_plan()
        graph = DistributedGraph.from_edges(world, small_edges(), name="faults")
        dodgr = DODGraph.build(graph, mode="bulk")
        reducer = LocalTriangleCounter(world)
        request = SurveyRequest(
            dodgr=dodgr, callback=reducer.callback, backend="process", workers=2
        )
        report = execute_survey(request).report
        reducer.finalize()
        assert reducer.snapshot() == oracle_panel
        assert report.triangles == oracle_triangles
