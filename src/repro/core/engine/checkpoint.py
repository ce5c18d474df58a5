"""Checkpoint/restart survey execution on top of the fault-injection layer.

Drop, duplicate and delayed deliveries are absorbed *inside*
:meth:`World.barrier` by the at-least-once transport — no driver is aware
of them.  Rank crashes cannot be: the dead rank's reducer shards and
in-flight work are gone, so a :class:`~repro.runtime.faults.RankCrashError`
aborts the survey and some layer above must decide what to do.  This module
is that layer.

Two wrappers share one recovery contract:

* :func:`run_survey_with_recovery` — full surveys.  A full survey is its own
  epoch: on a recoverable crash the world is reset
  (:meth:`World.recover_from_crash`), a *fresh* reducer is built, and the
  whole survey reruns deterministically from scratch.  The wrapper owns the
  single stats reset, so the crashed attempt's traffic and the rerun
  accumulate in the same phase — the final report carries the honest extra
  bytes of recovery.
* :class:`CheckpointedStreamingSurvey` — the streaming driver with real
  epochs.  Every ``checkpoint_interval`` batches it persists the reducer
  panels, the cumulative merge and per-rank wire totals; the applied deltas
  since the last checkpoint are retained (graph snapshots included) as the
  replay log.  On a crash the panels roll back to the checkpoint and the
  retained batches are re-surveyed — bounded replay, the classic
  checkpoint-interval trade between replay time and retained memory.

Both degrade gracefully when a crash is unrecoverable (the plan says so, or
the restart budget is spent): instead of raising, they route to
:func:`~repro.core.approximate.survivor_triangle_estimate`, returning a
scaled triangle estimate with an error bound computed from the partitions
that survived.

Recovery correctness rests on two invariants the test suite pins:

* reducer panels are order-independent sums, and the transport executes
  every logical message exactly once, so a recovered run's panels are
  bit-identical to the fault-free run's;
* ``snapshot()/merge()`` round-trips losslessly over arbitrary shardings
  (``tests/properties/test_property_reducers.py``), so restoring panels
  from a checkpoint and merging replayed ones equals the uninterrupted
  stream.

The fault domain is scoped to survey execution: graph ingest and DODGr
builds run under :meth:`World.faults_suspended`, so a crash can never leave
a half-built graph behind — matching a deployment where ingest is durable
upstream (a log) and only survey workers are expendable.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from ...graph.delta import AppliedDelta, DeltaBuffer
from ...graph.distributed_graph import DistributedGraph
from ...graph.dodgr import DODGraph
from ...runtime.faults import FaultPlan, RankCrashError, fault_plan_digest
from .registry import resolve_execution
from .request import DEFAULT_CALLBACK_COMPUTE_UNITS, SurveyRequest

__all__ = [
    "CheckpointPolicy",
    "RecoveryLog",
    "ResilientSurveyResult",
    "StaleCheckpointError",
    "StreamingCheckpoint",
    "ResilientStreamingStep",
    "CheckpointedStreamingSurvey",
    "run_survey_with_recovery",
]


class StaleCheckpointError(RuntimeError):
    """A resume tried to replay against a different fault schedule.

    Replay correctness relies on determinism: the retained batches must
    re-survey under the *same* seeded :class:`~repro.runtime.faults.FaultPlan`
    the checkpoint was taken under, or the recovered panels could silently
    diverge from the fault-free stream.  Each checkpoint therefore stamps
    :func:`~repro.runtime.faults.fault_plan_digest` of the armed plan, and
    :meth:`CheckpointedStreamingSurvey._restore_checkpoint` re-validates it
    before rolling back.
    """

    def __init__(
        self, checkpoint_digest: Optional[str], armed_digest: Optional[str]
    ) -> None:
        self.checkpoint_digest = checkpoint_digest
        self.armed_digest = armed_digest
        super().__init__(
            "stale checkpoint: taken under fault plan digest "
            f"{checkpoint_digest!r} but the armed plan digests to "
            f"{armed_digest!r}; re-arm the original plan (or discard the "
            "checkpoint) before resuming"
        )


@dataclass(frozen=True)
class CheckpointPolicy:
    """How much failure to tolerate, and at what cost."""

    #: Streaming: batches between checkpoints.  Smaller = less replay on
    #: crash, more retained memory (the replay log keeps each batch's graph
    #: snapshot until the next checkpoint).
    checkpoint_interval: int = 1
    #: Recoverable crashes tolerated per survey (full) or per ingest
    #: (streaming) before degrading.
    max_restarts: int = 3
    #: When a crash is unrecoverable (or the budget is spent), return a
    #: survivor estimate instead of raising — requires the caller to supply
    #: the source graph.
    degrade_on_permanent_loss: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")


@dataclass
class RecoveryLog:
    """What recovery actually did, for artifacts and assertions."""

    restarts: int = 0
    replayed_batches: int = 0
    crashes: List[Dict[str, Any]] = field(default_factory=list)
    fault_stats: Dict[str, int] = field(default_factory=dict)

    def record_crash(self, crash: RankCrashError) -> None:
        self.crashes.append(
            {
                "rank": crash.rank,
                "phase": crash.phase,
                "executions": crash.executions,
            }
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "restarts": self.restarts,
            "replayed_batches": self.replayed_batches,
            "crashes": list(self.crashes),
            "fault_stats": dict(self.fault_stats),
        }


@dataclass
class ResilientSurveyResult:
    """A survey result that survived (or gracefully degraded under) faults."""

    #: telemetry of all work this survey did, wasted attempts included
    report: Any
    #: the reducer panel; None when degraded
    panel: Any
    engine: str
    recovery: RecoveryLog
    degraded: bool = False
    #: survivor estimate with error bounds, set only when degraded
    estimate: Any = None


def run_survey_with_recovery(
    dodgr: DODGraph,
    reducer_factory: Callable[[Any], Any],
    engine: Any = None,
    algorithm: str = "push",
    plan: Optional[FaultPlan] = None,
    policy: Optional[CheckpointPolicy] = None,
    graph: Optional[DistributedGraph] = None,
    graph_name: Optional[str] = None,
    callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
) -> ResilientSurveyResult:
    """Run a full survey under ``plan``, restarting through rank crashes.

    Every attempt uses a fresh reducer from ``reducer_factory`` (the crashed
    attempt's partial panel is discarded wholesale, like the dead rank's
    memory); the world's stats are reset once up front and never again, so
    the final report accumulates the wasted attempts' traffic — recovery
    cost is visible in every wire counter.  With ``plan=None`` (or a plan
    whose crash never fires) this is an ordinary survey plus one dict of
    bookkeeping.

    ``graph`` enables the degradation path: on permanent loss the source
    graph is re-surveyed from its surviving partitions
    (:func:`~repro.core.approximate.survivor_triangle_estimate`).
    """
    from . import execute_survey  # runtime import: this module is part of the package

    spec, config = resolve_execution(engine)
    world = dodgr.world
    policy = policy or CheckpointPolicy()
    log = RecoveryLog()
    installed = plan is not None
    if installed:
        world.install_fault_plan(plan)
    try:
        world.reset_stats()
        while True:
            reducer = reducer_factory(world)
            request = SurveyRequest(
                dodgr=dodgr,
                callback=reducer.callback,
                algorithm=algorithm,
                reset_stats=False,
                graph_name=graph_name,
                callback_compute_units=callback_compute_units,
                **config.axes(),
            )
            try:
                result = execute_survey(request, engine=spec)
                if hasattr(reducer, "finalize"):
                    reducer.finalize()
                panel = reducer.snapshot()
                _snapshot_fault_stats(world, log)
                return ResilientSurveyResult(
                    report=result.report,
                    panel=panel,
                    engine=result.engine,
                    recovery=log,
                )
            except RankCrashError as crash:
                log.record_crash(crash)
                world.recover_from_crash()
                log.restarts += 1
                injector = world.fault_injector
                recoverable = (
                    injector is not None and injector.plan.crash_recoverable
                )
                if recoverable and log.restarts <= policy.max_restarts:
                    continue
                _snapshot_fault_stats(world, log)
                if policy.degrade_on_permanent_loss and graph is not None:
                    estimate = _degraded_estimate(graph, crash, algorithm)
                    return ResilientSurveyResult(
                        report=estimate.report,
                        panel=None,
                        engine=spec.name,
                        recovery=log,
                        degraded=True,
                        estimate=estimate,
                    )
                raise
    finally:
        if installed:
            world.clear_fault_plan()


def _snapshot_fault_stats(world: Any, log: RecoveryLog) -> None:
    injector = world.fault_injector
    if injector is not None:
        log.fault_stats = injector.stats.as_dict()


def _degraded_estimate(
    graph: DistributedGraph, crash: RankCrashError, algorithm: str = "push"
) -> Any:
    from ..approximate import survivor_triangle_estimate  # avoid import cycle

    # The survivor survey runs on a fresh world of the surviving size, so
    # the estimate itself cannot be re-faulted by the installed plan.
    return survivor_triangle_estimate(
        graph, lost_ranks=[crash.rank], algorithm=algorithm
    )


# ---------------------------------------------------------------------------
# Streaming: real epochs, bounded replay
# ---------------------------------------------------------------------------


@dataclass
class StreamingCheckpoint:
    """Persisted epoch state: panels + merges + per-rank wire totals."""

    #: last batch index covered by this checkpoint
    epoch: int
    #: sliding-window panels at the epoch (copies, oldest first)
    panels: List[Any]
    #: cumulative merge at the epoch
    cumulative: Any
    #: per-rank wire totals accumulated since the stream started —
    #: ``{rank: {"wire_bytes": ..., "wire_messages": ..., "bytes_sent_remote": ...}}``
    wire_totals: Dict[int, Dict[str, int]]
    #: digest of the fault plan armed when the checkpoint was taken
    #: (``None`` = fault-free); validated on restore (stale-checkpoint guard)
    plan_digest: Optional[str] = None


class ResilientStreamingStep:
    """One :meth:`CheckpointedStreamingSurvey.ingest` result.

    Mirrors :class:`~repro.core.incremental.StreamingStep` (``snapshot`` /
    ``window`` / ``cumulative`` / ``report``) and adds the recovery story:
    how many restarts this step survived, how many checkpointed batches it
    replayed, and — when the step degraded — the survivor estimate.  The
    report's counters cover *all* work the step did (crashed attempts and
    replays included), which is exactly the honest recovery overhead.
    """

    __slots__ = (
        "batch_index",
        "new_edges",
        "report",
        "snapshot",
        "window",
        "cumulative",
        "retired",
        "host_seconds",
        "restarts",
        "replayed_batches",
        "degraded",
        "estimate",
    )

    def __init__(
        self,
        batch_index: int,
        new_edges: int,
        report: Any,
        snapshot: Any,
        window: Any,
        cumulative: Any,
        retired: Any = None,
        host_seconds: float = 0.0,
        restarts: int = 0,
        replayed_batches: int = 0,
        degraded: bool = False,
        estimate: Any = None,
    ) -> None:
        self.batch_index = batch_index
        self.new_edges = new_edges
        self.report = report
        self.snapshot = snapshot
        self.window = window
        self.cumulative = cumulative
        self.retired = retired
        self.host_seconds = host_seconds
        self.restarts = restarts
        self.replayed_batches = replayed_batches
        self.degraded = degraded
        self.estimate = estimate


class CheckpointedStreamingSurvey:
    """A :class:`~repro.core.incremental.StreamingSurvey` that survives crashes.

    Owns the same live graph + :class:`~repro.graph.delta.DeltaBuffer` +
    panel window, but runs every batch survey under the installed fault
    plan with checkpoint/restart semantics:

    * every ``policy.checkpoint_interval`` successful batches, the panel
      window, cumulative merge and per-rank wire totals are persisted and
      the replay log is truncated (releasing the retained graph snapshots);
    * on a recoverable crash, panels roll back to the last checkpoint and
      the retained batches replay with fresh reducers — deterministic, so
      the recovered panels are bit-identical to the fault-free stream;
    * on permanent loss the step degrades to a survivor estimate over the
      merged graph instead of raising.

    Ingest and DODGr rebuilds run with faults suspended (the fault domain
    is survey execution — see the module docstring).
    """

    def __init__(
        self,
        world: Any,
        reducer_factory: Callable[[Any], Any],
        plan: Optional[FaultPlan] = None,
        policy: Optional[CheckpointPolicy] = None,
        window_batches: Optional[int] = None,
        engine: Any = None,
        callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
        partitioner: Any = None,
        graph_name: Optional[str] = None,
    ) -> None:
        if window_batches is not None and window_batches < 1:
            raise ValueError("window_batches must be at least 1")
        # Fail before the first batch mutates the graph.
        resolve_execution(engine, incremental=True)
        self.world = world
        self.reducer_factory = reducer_factory
        self.policy = policy or CheckpointPolicy()
        self.window_batches = window_batches
        self.engine = engine
        self.callback_compute_units = callback_compute_units
        self.graph = DistributedGraph(
            world, partitioner=partitioner, name=graph_name or "ckpt-streaming"
        )
        self.delta_buffer = DeltaBuffer(world)
        self.dodgr: Optional[DODGraph] = None
        self.plan = plan
        if plan is not None:
            world.install_fault_plan(plan)
        self._panels: Deque[Any] = deque()
        self._merge: Optional[Callable[[Any], Any]] = None
        self._cumulative: Any = None
        self._checkpoint: Optional[StreamingCheckpoint] = None
        #: replay log: applied batches since the last checkpoint
        self._pending: List[AppliedDelta] = []
        self._wire_totals: Dict[int, Dict[str, int]] = {
            rank: {"wire_bytes": 0, "wire_messages": 0, "bytes_sent_remote": 0}
            for rank in range(world.nranks)
        }

    # ------------------------------------------------------------------
    @property
    def last_checkpoint(self) -> Optional[StreamingCheckpoint]:
        return self._checkpoint

    @property
    def pending_replay_batches(self) -> int:
        """Batches that would replay if a rank crashed right now."""
        return len(self._pending)

    def window_panels(self) -> List[Any]:
        return list(self._panels)

    # ------------------------------------------------------------------
    def ingest(
        self,
        edges: Any,
        vertex_meta: Optional[Dict[Any, Any]] = None,
    ) -> ResilientStreamingStep:
        """Merge one batch, survey it under faults, checkpoint on schedule."""
        host_start = time.perf_counter()
        world = self.world
        world.reset_stats()
        with world.faults_suspended():
            self.delta_buffer.stage_edges(edges)
            if vertex_meta:
                for vertex, meta in vertex_meta.items():
                    self.delta_buffer.stage_vertex_meta(vertex, meta)
            applied = self.delta_buffer.apply(self.graph)
        superseded = self.dodgr
        self.dodgr = applied.dodgr
        if superseded is not None and all(
            delta.dodgr is not superseded for delta in self._pending
        ):
            # Not in the replay log (a checkpoint retired it): safe to free.
            superseded.release()
        self._pending.append(applied)

        restarts = 0
        replayed = 0
        need_replay = False
        while True:
            try:
                if need_replay:
                    self._restore_checkpoint()
                    for delta in self._pending[:-1]:
                        panel, _ = self._survey_batch(delta)
                        self._absorb(panel)
                        replayed += 1
                    need_replay = False
                panel, report = self._survey_batch(applied)
                retired = self._absorb(panel)
                break
            except RankCrashError as crash:
                world.recover_from_crash()
                restarts += 1
                injector = world.fault_injector
                recoverable = (
                    injector is not None and injector.plan.crash_recoverable
                )
                if recoverable and restarts <= self.policy.max_restarts:
                    need_replay = True
                    continue
                if self.policy.degrade_on_permanent_loss:
                    return self._degraded_step(
                        applied, crash, restarts, replayed, host_start
                    )
                raise

        self._accumulate_wire_totals()
        if len(self._pending) >= self.policy.checkpoint_interval:
            self._take_checkpoint(applied.batch_index)
        window = (
            self._cumulative
            if self.window_batches is None
            else self._merge(list(self._panels))
        )
        return ResilientStreamingStep(
            batch_index=applied.batch_index,
            new_edges=applied.num_edges(),
            report=report,
            snapshot=panel,
            window=window,
            cumulative=self._cumulative,
            retired=retired,
            host_seconds=time.perf_counter() - host_start,
            restarts=restarts,
            replayed_batches=replayed,
        )

    def close(self) -> None:
        """Release the live DODGr and the replay log's, once each."""
        retained = [delta.dodgr for delta in self._pending]
        if self.dodgr is not None and all(dodgr is not self.dodgr for dodgr in retained):
            retained.append(self.dodgr)
        for dodgr in retained:
            dodgr.release()
        self.dodgr = None
        self._pending = []

    # ------------------------------------------------------------------
    def _survey_batch(self, applied: AppliedDelta) -> Any:
        from ..incremental import incremental_triangle_survey  # import cycle guard

        reducer = self.reducer_factory(self.world)
        if self._merge is None:
            self._merge = type(reducer).merge
        report = incremental_triangle_survey(
            applied.dodgr,
            applied,
            reducer.callback,
            engine=self.engine,
            reset_stats=False,
            callback_compute_units=self.callback_compute_units,
            graph_name=f"{self.graph.name}@{applied.batch_index}",
        )
        if hasattr(reducer, "finalize"):
            reducer.finalize()
        return reducer.snapshot(), report

    def _absorb(self, panel: Any) -> Any:
        self._panels.append(panel)
        retired = None
        if self.window_batches is not None and len(self._panels) > self.window_batches:
            retired = self._panels.popleft()
        self._cumulative = (
            panel
            if self._cumulative is None
            else self._merge([self._cumulative, panel])
        )
        return retired

    def _armed_plan_digest(self) -> Optional[str]:
        injector = self.world.fault_injector
        return fault_plan_digest(injector.plan if injector is not None else None)

    def _restore_checkpoint(self) -> None:
        """Roll panel state back to the last epoch (or the empty stream)."""
        if self._checkpoint is None:
            self._panels = deque()
            self._cumulative = None
            return
        armed = self._armed_plan_digest()
        if armed != self._checkpoint.plan_digest:
            # Replaying retained batches under a different fault schedule
            # would silently break recovery parity; fail loudly instead.
            raise StaleCheckpointError(self._checkpoint.plan_digest, armed)
        self._panels = deque(self._checkpoint.panels)
        self._cumulative = self._checkpoint.cumulative

    def _take_checkpoint(self, epoch: int) -> None:
        self._checkpoint = StreamingCheckpoint(
            epoch=epoch,
            panels=list(self._panels),
            cumulative=self._cumulative,
            wire_totals={rank: dict(t) for rank, t in self._wire_totals.items()},
            plan_digest=self._armed_plan_digest(),
        )
        # Truncate the replay log; retained graph snapshots (each batch's
        # DODGr) are only needed for replay, so all but the live one free.
        for delta in self._pending[:-1]:
            delta.dodgr.release()
        self._pending = []

    def _accumulate_wire_totals(self) -> None:
        for rank, rank_stats in enumerate(self.world.stats.ranks):
            totals = self._wire_totals[rank]
            for phase in rank_stats.phases.values():
                totals["wire_bytes"] += phase.wire_bytes
                totals["wire_messages"] += phase.wire_messages
                totals["bytes_sent_remote"] += phase.bytes_sent_remote

    def _degraded_step(
        self,
        applied: AppliedDelta,
        crash: RankCrashError,
        restarts: int,
        replayed: int,
        host_start: float,
    ) -> ResilientStreamingStep:
        estimate = _degraded_estimate(self.graph, crash)
        return ResilientStreamingStep(
            batch_index=applied.batch_index,
            new_edges=applied.num_edges(),
            report=estimate.report,
            snapshot=None,
            window=None,
            cumulative=None,
            retired=None,
            host_seconds=time.perf_counter() - host_start,
            restarts=restarts,
            replayed_batches=replayed,
            degraded=True,
            estimate=estimate,
        )
