"""Checkpoint/restart layer: recovery parity, bounded replay, degradation.

The contract under test (``core/engine/checkpoint.py``):

* fault-free, the wrappers are transparent — identical panels and
  triangle counts to an undecorated survey, for every registered engine;
* through a recoverable crash, the recovered panels are bit-identical to
  the fault-free run's (reports honestly accumulate the wasted attempt);
* streaming recovery in :class:`~repro.core.incremental.StreamingSurvey`
  replays at most ``checkpoint_interval`` batches and still matches, step
  for step, a plain stream hand-rolled from public calls outside the class
  (``DeltaBuffer.apply`` + ``incremental_triangle_survey`` + ``merge``);
* permanent loss degrades to a survivor estimate with error bounds
  instead of raising.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from repro.core.approximate import survivor_triangle_estimate
from repro.core.callbacks import LocalTriangleCounter, TriangleCounter
from repro.core.engine import (
    CheckpointPolicy,
    StaleCheckpointError,
    engine_names,
    run_survey_with_recovery,
)
from repro.core.incremental import StreamingSurvey, incremental_triangle_survey
from repro.core.survey import triangle_survey_push
from repro.graph.delta import DeltaBuffer
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dodgr import DODGraph
from repro.graph.generators import erdos_renyi
from repro.runtime.faults import FaultPlan, RankCrashError, fault_plan_digest
from repro.runtime.world import World

NRANKS = 4
GRAPH = dict(num_vertices=40, edge_probability=0.25, seed=11)

#: Fires once on rank 1, early in the push phase — recoverable by default.
CRASH_PLAN = FaultPlan(
    name="crash", seed=3, crash_rank=1, crash_phase="push", crash_after_executions=2
)


def build_graph(world, seed=11):
    spec = dict(GRAPH)
    spec["seed"] = seed
    return erdos_renyi(**spec).to_distributed(world)


def direct_survey(engine=None):
    """Undecorated fault-free survey: (panel, triangles)."""
    world = World(NRANKS)
    dodgr = DODGraph.build(build_graph(world), mode="bulk")
    reducer = LocalTriangleCounter(world)
    report = triangle_survey_push(dodgr, reducer.callback, engine=engine)
    reducer.finalize()
    return reducer.snapshot(), report.triangles


def recovery_survey(plan=None, policy=None, with_graph=False, engine=None):
    world = World(NRANKS)
    graph = build_graph(world)
    dodgr = DODGraph.build(graph, mode="bulk")
    return run_survey_with_recovery(
        dodgr,
        LocalTriangleCounter,
        engine=engine,
        plan=plan,
        policy=policy,
        graph=graph if with_graph else None,
    )


class TestPolicy:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(checkpoint_interval=0)

    def test_restarts_validated(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(max_restarts=-1)

    def test_defaults(self):
        policy = CheckpointPolicy()
        assert policy.checkpoint_interval == 1
        assert policy.max_restarts == 3
        assert policy.degrade_on_permanent_loss


class TestFullSurveyRecovery:
    @pytest.mark.parametrize("engine", engine_names())
    def test_fault_free_wrapper_is_transparent(self, engine):
        panel, triangles = direct_survey(engine=engine)
        res = recovery_survey(engine=engine)
        assert not res.degraded
        assert res.recovery.restarts == 0
        assert res.panel == panel
        assert res.report.triangles == triangles

    @pytest.mark.parametrize("engine", engine_names())
    def test_crash_recovery_panels_bit_identical(self, engine):
        baseline = recovery_survey(engine=engine)
        crashed = recovery_survey(plan=CRASH_PLAN, engine=engine)
        assert crashed.recovery.restarts == 1
        # The crash counts RPCs: rank 1 dies once its push-phase count
        # reaches 2, having run the whole message that got it there — a
        # legacy message carries one RPC, the columnar engine's first
        # coalesced call into rank 1 carries 13.
        assert crashed.recovery.crashes == [
            {"rank": 1, "phase": "push", "executions": {"legacy": 2, "columnar": 13}[engine]}
        ]
        # Panels are rebuilt from scratch on the rerun: bit-identical.
        assert crashed.panel == baseline.panel
        # Reports accumulate the crashed attempt's partial work by design.
        assert crashed.report.triangles >= baseline.report.triangles

    def test_unrecoverable_crash_degrades(self):
        plan = FaultPlan(
            name="permanent",
            crash_rank=1,
            crash_phase="push",
            crash_after_executions=2,
            crash_recoverable=False,
        )
        res = recovery_survey(plan=plan, with_graph=True)
        assert res.degraded
        assert res.panel is None
        est = res.estimate
        assert est.lost_ranks == (1,)
        assert est.estimate >= 0.0
        assert np.isfinite(est.estimate) and np.isfinite(est.stderr)
        assert 0.0 < est.survival_probability < 1.0
        lo, hi = est.confidence_interval()
        assert lo <= est.estimate <= hi

    def test_unrecoverable_without_graph_raises(self):
        plan = FaultPlan(
            name="permanent",
            crash_rank=1,
            crash_phase="push",
            crash_after_executions=2,
            crash_recoverable=False,
        )
        with pytest.raises(RankCrashError):
            recovery_survey(plan=plan, with_graph=False)

    def test_restart_budget_exhaustion_degrades(self):
        res = recovery_survey(
            plan=CRASH_PLAN,
            policy=CheckpointPolicy(max_restarts=0),
            with_graph=True,
        )
        assert res.degraded
        assert res.recovery.restarts == 1

    def test_plan_cleared_after_run(self):
        world = World(NRANKS)
        dodgr = DODGraph.build(build_graph(world), mode="bulk")
        run_survey_with_recovery(dodgr, LocalTriangleCounter, plan=CRASH_PLAN)
        assert world.fault_injector is None

    def test_preinstalled_plan_left_alone(self):
        """With ``plan=None`` the wrapper never touches an installed plan."""
        world = World(NRANKS)
        dodgr = DODGraph.build(build_graph(world), mode="bulk")
        world.install_fault_plan(FaultPlan(name="ambient", drop_rate=0.05, seed=9))
        res = run_survey_with_recovery(dodgr, LocalTriangleCounter)
        assert world.fault_injector is not None
        assert not res.degraded
        world.clear_fault_plan()


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------


def edge_batches(seed=5, num_batches=4, count=120):
    """Deterministic timestamped edge stream split into even batches."""
    rng = np.random.default_rng(seed)
    edges, seen = [], set()
    while len(edges) < count:
        u, v = (int(x) for x in rng.integers(0, 48, size=2))
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        edges.append((u, v, float(len(edges) % 97) + 1.0))
    step = count // num_batches
    return [edges[k * step : (k + 1) * step] for k in range(num_batches)]


def plain_stream(batches, window_batches=None):
    """The fault-free oracle, hand-rolled from public calls outside the
    class under test — the loop ``perf``'s stream trace replays: per batch
    ``DeltaBuffer.apply``, ``incremental_triangle_survey`` with a fresh
    reducer, and the window / cumulative ``merge``."""
    world = World(NRANKS)
    graph = DistributedGraph(world, name="plain")
    buffer = DeltaBuffer(world)
    panels = deque()
    cumulative = None
    steps = []
    for batch in batches:
        buffer.stage_edges(batch)
        applied = buffer.apply(graph)
        counter = TriangleCounter(world)
        report = incremental_triangle_survey(applied.dodgr, applied, counter.callback)
        panel = counter.snapshot()
        panels.append(panel)
        retired = None
        if window_batches is not None and len(panels) > window_batches:
            retired = panels.popleft()
        cumulative = panel if cumulative is None else TriangleCounter.merge([cumulative, panel])
        window = cumulative if window_batches is None else TriangleCounter.merge(list(panels))
        steps.append(
            SimpleNamespace(
                report=report, snapshot=panel, window=window, cumulative=cumulative, retired=retired
            )
        )
    return steps


def checkpointed_stream(batches, plan=None, policy=None, window_batches=None):
    world = World(NRANKS)
    survey = StreamingSurvey(
        world,
        TriangleCounter,
        plan=plan,
        policy=policy,
        window_batches=window_batches,
        graph_name="plain",
    )
    return survey, [survey.ingest(batch) for batch in batches]


#: Streaming surveys execute deltas in the ``delta_push`` phase.
STREAM_CRASH = FaultPlan(
    name="stream-crash",
    seed=3,
    crash_rank=1,
    crash_phase="delta_push",
    crash_after_executions=1,
)


class TestStreamingCheckpoint:
    def test_fault_free_matches_plain_streaming(self):
        batches = edge_batches()
        plain = plain_stream(batches)
        _, steps = checkpointed_stream(batches)
        for base, step in zip(plain, steps):
            assert step.snapshot == base.snapshot
            assert step.cumulative == base.cumulative
            # Fault-free, the stream's bookkeeping adds no traffic.
            assert step.report.phase_stats == base.report.phase_stats
            assert step.report.simulated_seconds == base.report.simulated_seconds
            assert step.restarts == 0
            assert step.replayed_batches == 0
            assert not step.degraded

    def test_crash_recovery_interval_1(self):
        batches = edge_batches()
        plain = plain_stream(batches)
        _, steps = checkpointed_stream(batches, plan=STREAM_CRASH)
        assert sum(step.restarts for step in steps) == 1
        # interval=1 keeps only the live batch in the replay log.
        assert sum(step.replayed_batches for step in steps) == 0
        for base, step in zip(plain, steps):
            assert step.snapshot == base.snapshot
            assert step.cumulative == base.cumulative

    def test_crash_recovery_interval_2_replays(self):
        """A crash between checkpoints replays the retained batch exactly.

        The crash threshold is scanned upward until the one-shot crash
        fires on a batch that is *not* the first of its epoch (so the
        replay log is non-empty at crash time); parity must hold there.
        """
        batches = edge_batches()
        plain = plain_stream(batches)
        policy = CheckpointPolicy(checkpoint_interval=2)
        for threshold in range(1, 40):
            plan = FaultPlan(
                name="stream-crash",
                seed=3,
                crash_rank=1,
                crash_phase="delta_push",
                crash_after_executions=threshold,
            )
            _, steps = checkpointed_stream(batches, plan=plan, policy=policy)
            if sum(step.replayed_batches for step in steps) >= 1:
                assert sum(step.restarts for step in steps) == 1
                for base, step in zip(plain, steps):
                    assert step.snapshot == base.snapshot
                    assert step.cumulative == base.cumulative
                return
        pytest.fail("no crash threshold produced a mid-epoch replay")

    def test_windowed_parity_under_crash(self):
        batches = edge_batches()
        plain = plain_stream(batches, window_batches=2)
        _, steps = checkpointed_stream(
            batches, plan=STREAM_CRASH, window_batches=2
        )
        for base, step in zip(plain, steps):
            assert step.window == base.window
            assert step.retired == base.retired

    def test_degraded_streaming_step(self):
        plan = FaultPlan(
            name="stream-permanent",
            crash_rank=1,
            crash_phase="delta_push",
            crash_after_executions=1,
            crash_recoverable=False,
        )
        batches = edge_batches()
        _, steps = checkpointed_stream(batches, plan=plan)
        degraded = [step for step in steps if step.degraded]
        assert degraded
        step = degraded[0]
        assert step.snapshot is None
        assert step.estimate is not None
        assert np.isfinite(step.estimate.estimate)
        assert step.estimate.estimate >= 0.0

    def test_checkpoint_truncates_replay_log(self):
        batches = edge_batches()
        world = World(NRANKS)
        survey = StreamingSurvey(
            world,
            TriangleCounter,
            policy=CheckpointPolicy(checkpoint_interval=2),
        )
        survey.ingest(batches[0])
        assert survey.pending_replay_batches == 1
        assert survey.last_checkpoint is None
        survey.ingest(batches[1])
        assert survey.pending_replay_batches == 0
        assert survey.last_checkpoint is not None
        assert survey.last_checkpoint.epoch == 1

    def test_checkpoint_persists_wire_totals(self):
        batches = edge_batches()
        survey, _ = checkpointed_stream(batches)
        checkpoint = survey.last_checkpoint
        assert checkpoint is not None
        totals = checkpoint.wire_totals
        assert set(totals) == set(range(NRANKS))
        assert all(v >= 0 for t in totals.values() for v in t.values())
        assert sum(t["wire_messages"] for t in totals.values()) > 0

    def test_window_batches_validated(self):
        with pytest.raises(ValueError):
            StreamingSurvey(
                World(NRANKS), TriangleCounter, window_batches=0
            )


class TestStaleCheckpointGuard:
    """Resume must re-validate the armed fault plan against the checkpoint's."""

    def test_digest_is_stable_and_discriminating(self):
        assert fault_plan_digest(None) is None
        twin = FaultPlan(**{
            field: getattr(STREAM_CRASH, field)
            for field in ("name", "seed", "crash_rank", "crash_phase",
                          "crash_after_executions")
        })
        assert fault_plan_digest(twin) == fault_plan_digest(STREAM_CRASH)
        other = FaultPlan(name="stream-crash", seed=4, crash_rank=1,
                          crash_phase="delta_push", crash_after_executions=1)
        assert fault_plan_digest(other) != fault_plan_digest(STREAM_CRASH)

    def test_resume_under_a_different_plan_is_rejected(self):
        """A checkpoint taken under plan A must not silently replay under B."""
        batches = edge_batches()
        world = World(NRANKS)
        plan_a = FaultPlan(name="benign", seed=1, drop_rate=0.01)
        survey = StreamingSurvey(
            world,
            TriangleCounter,
            plan=plan_a,
            policy=CheckpointPolicy(checkpoint_interval=1),
        )
        survey.ingest(batches[0])  # checkpoint stamped with plan A's digest
        world.clear_fault_plan()
        world.install_fault_plan(STREAM_CRASH)  # crashes the next batch
        with pytest.raises(StaleCheckpointError, match="stale checkpoint"):
            survey.ingest(batches[1])

    def test_error_carries_both_digests(self):
        error = StaleCheckpointError("aaaa", "bbbb")
        assert error.checkpoint_digest == "aaaa"
        assert error.armed_digest == "bbbb"
        assert "re-arm the original plan" in str(error)

    def test_resume_under_the_same_plan_still_works(self):
        """The guard keys on plan *contents*: an equal copy passes."""
        batches = edge_batches()
        world = World(NRANKS)
        survey = StreamingSurvey(
            world,
            TriangleCounter,
            plan=STREAM_CRASH,
            policy=CheckpointPolicy(checkpoint_interval=1),
        )
        steps = [survey.ingest(batch) for batch in batches]
        assert sum(step.restarts for step in steps) == 1
        plain = plain_stream(batches)
        assert steps[-1].cumulative == plain[-1].cumulative


class TestSurvivorEstimate:
    def test_requires_a_lost_rank(self):
        world = World(NRANKS)
        graph = build_graph(world)
        with pytest.raises(ValueError):
            survivor_triangle_estimate(graph, lost_ranks=[])

    def test_requires_a_survivor(self):
        world = World(NRANKS)
        graph = build_graph(world)
        with pytest.raises(ValueError):
            survivor_triangle_estimate(graph, lost_ranks=range(NRANKS))

    def test_estimate_shape(self):
        world = World(NRANKS)
        graph = build_graph(world)
        est = survivor_triangle_estimate(graph, lost_ranks=[1])
        assert est.lost_ranks == (1,)
        assert 0.0 < est.survival_probability < 1.0
        assert est.estimate == pytest.approx(
            est.surviving_triangles * est.scale_factor
        )
        assert est.stderr >= 0.0
        lo, hi = est.confidence_interval()
        assert lo <= est.estimate <= hi
