"""Checkpoint/restart survey execution on top of the fault-injection layer.

Drop, duplicate and delayed deliveries are absorbed *inside*
:meth:`World.barrier` by the at-least-once transport — no driver is aware
of them.  Rank crashes cannot be: the dead rank's reducer shards and
in-flight work are gone, so a :class:`~repro.runtime.faults.RankCrashError`
aborts the survey and some layer above must decide what to do.  Two
drivers share one recovery contract, and this module holds it:

* :func:`run_survey_with_recovery` — full surveys.  A full survey is its own
  epoch: on a recoverable crash the world is reset
  (:meth:`World.recover_from_crash`), a *fresh* reducer is built, and the
  whole survey reruns deterministically from scratch.  The wrapper owns the
  single stats reset, so the crashed attempt's traffic and the rerun
  accumulate in the same phase — the final report carries the honest extra
  bytes of recovery.
* :class:`~repro.core.incremental.StreamingSurvey` — the streaming driver
  with real epochs.  Every ``checkpoint_interval`` batches it persists a
  :class:`StreamingCheckpoint` (the reducer panels, the cumulative merge
  and per-rank wire totals); the applied deltas since the last checkpoint
  are retained (graph snapshots included) as the replay log.  On a crash
  the panels roll back to the checkpoint and the retained batches are
  re-surveyed — bounded replay, the classic checkpoint-interval trade
  between replay time and retained memory.

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

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ...graph.distributed_graph import DistributedGraph
from ...graph.dodgr import DODGraph
from ...runtime.faults import FaultPlan, RankCrashError
from .registry import resolve_execution
from .request import DEFAULT_CALLBACK_COMPUTE_UNITS, SurveyRequest

__all__ = [
    "CheckpointPolicy",
    "RecoveryLog",
    "StaleCheckpointError",
    "StreamingCheckpoint",
    "run_survey_with_recovery",
]


class StaleCheckpointError(RuntimeError):
    """A resume tried to replay against a different fault schedule.

    Replay correctness relies on determinism: the retained batches must
    re-survey under the *same* seeded :class:`~repro.runtime.faults.FaultPlan`
    the checkpoint was taken under, or the recovered panels could silently
    diverge from the fault-free stream.  Each checkpoint therefore stamps
    :func:`~repro.runtime.faults.fault_plan_digest` of the armed plan, and
    :class:`~repro.core.incremental.StreamingSurvey` re-validates it before
    rolling back.
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
    (:func:`~repro.core.approximate.survivor_triangle_estimate`); when no
    surviving rank owns a vertex, the crash propagates instead.
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
                    estimate = degraded_estimate(graph, crash, algorithm)
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


def degraded_estimate(
    graph: DistributedGraph, crash: RankCrashError, algorithm: str = "push"
) -> Any:
    """The survivor triangle estimate once ``crash.rank`` is lost for good:
    the degradation path of both recovery drivers.  When no other rank owns
    a vertex (a one-rank world) there is nothing to estimate from, and the
    crash itself propagates."""
    from ..approximate import survivor_triangle_estimate  # avoid import cycle

    counts = graph.rank_vertex_counts()
    if sum(counts) == counts[crash.rank % graph.world.nranks]:
        raise crash
    # The survivor survey runs on a fresh world of the surviving size, so
    # the estimate itself cannot be re-faulted by the installed plan.
    return survivor_triangle_estimate(
        graph, lost_ranks=[crash.rank], algorithm=algorithm
    )


# ---------------------------------------------------------------------------
# Streaming epochs (taken by repro.core.incremental.StreamingSurvey)
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
