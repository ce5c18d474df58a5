"""Incremental triangle surveys: delta-only enumeration over edge batches.

A full survey re-enumerates every triangle of the graph.  When a batch of
edges arrives on an already-surveyed graph, only the triangles *containing at
least one new edge* are unseen — on a large graph with a small batch that is
a vanishing fraction of the wedge work.  This module surveys exactly those
delta triangles, each exactly once, reusing the engine layer's shared driver
core (:mod:`repro.core.engine`), the columnar row kernels and the
:class:`~repro.graph.metadata.TriangleBatch` delivery path.

Delta wedge decomposition
-------------------------

The push algorithm identifies each triangle Δpqr (``p <+ q <+ r``) through
its unique wedge: pivot ``p`` pushes candidate ``r`` at the owner of ``q``.
A triangle is a *delta* triangle when at least one of its three edges is
new.  The wedge sees the (p, q) and (p, r) edges on the pivot side and the
(q, r) edge on the owner side, which splits every candidate into exactly one
of three outcomes:

* ``new(p,q) or new(p,r)`` — the candidate is checked against the **full**
  ``Adj^m_+(q)``: any match is a delta triangle (new-new-new, new-new-old
  and most new-old-old cases);
* otherwise, if the directed pair ``(q, r)`` is itself a new edge — the
  candidate closes the old-old-new case.  The pivot holds both endpoints of
  the closing pair in its own adjacency and the applied batch
  (:class:`~repro.graph.delta.AppliedDelta`) is global knowledge (in a real
  deployment it was just broadcast through the ingest path), so this test
  runs *sender-side*; only the closing candidates are shipped, and the owner
  of ``q`` resolves them against its **new entries only** for the (q, r)
  metadata;
* otherwise the candidate is dropped: no edge of any triangle it could
  close is new.

Each delta triangle is reached by exactly one candidate in exactly one of
the first two streams, so the enumeration is exact — no misses, no double
counting.

Engines and accounting
----------------------

The ``engine=`` selector resolves through the same function as the full
surveys (:func:`~repro.core.engine.resolve_execution`), and the survey is a
one-phase :class:`~repro.core.engine.program.SurveyProgram`
(:func:`~repro.core.engine.delta.build_delta_program`) run by the push
survey's loop (:func:`~repro.core.engine.program.execute_program`) with the
push survey's intersect handlers — the new-check one over the batch's new
entries.  The production (``columnar``) program selects candidates as
boolean array masks over the CSR edge positions (via
:meth:`~repro.graph.delta.AppliedDelta.edge_mask`), sends one coalesced RPC
per (source rank, destination rank, stream), and makes per rank one
:data:`~repro.core.intersection.ROW_KERNELS` call per stream over every
message it staged, once the phase's inboxes drain
(:class:`~repro.core.engine.driver.CandidateStage`), its triangles
delivered as one lazy :class:`~repro.graph.metadata.TriangleBatch` to
``callback_batch`` reducers, in handled order.  The ``legacy`` oracle
(:func:`repro.oracle.build_legacy_delta_program`) sends one sized RPC per
(wedge, stream) carrying the filtered candidate tuples, intersected per
message with the scalar kernels.  Every replaced oracle message is
accounted — in the oracle's send order, through the real buffer bank — at
its exact serialized size, so the two engines report identical
communication counters (same bound as the full engines when callbacks send
RPCs).

On the first batch of a stream every edge is new, every candidate lands in
the full-check stream, and the incremental survey degenerates to exactly the
full push survey — counters included (pinned in
``tests/core/test_incremental.py``).

Replay parity
-------------

Because ingestion is first-write-wins (edge and vertex metadata never
mutate), replaying a batch schedule through incremental surveys and merging
the per-batch reducer snapshots is bit-identical to a full recompute on the
merged graph at every step, for every reducer whose keys do not depend on
the p/q/r *role order* (all seven stock reducers except
:class:`~repro.core.callbacks.DegreeTripleSurvey`, whose triple is
role-ordered and whose degree decoration is itself a snapshot in time).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..graph.delta import AppliedDelta, DeltaBuffer
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..runtime.faults import FaultPlan, RankCrashError, fault_plan_digest
from .engine import (
    DEFAULT_CALLBACK_COMPUTE_UNITS,
    DELTA_PUSH_PHASE,
    EngineSelector,
    SurveyRequest,
    TriangleCallback,
    execute_program,
    resolve_execution,
)
from .engine.checkpoint import (
    CheckpointPolicy,
    StaleCheckpointError,
    StreamingCheckpoint,
    degraded_estimate,
)
from .engine.delta import build_delta_program
from .results import SurveyReport

__all__ = [
    "incremental_triangle_survey",
    "DELTA_PUSH_PHASE",
    "StreamingSurvey",
    "StreamingStep",
]


def incremental_triangle_survey(
    dodgr: DODGraph,
    delta: AppliedDelta,
    callback: Optional[TriangleCallback] = None,
    reset_stats: bool = True,
    graph_name: Optional[str] = None,
    phase_name: str = DELTA_PUSH_PHASE,
    callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
    engine: EngineSelector = None,
) -> SurveyReport:
    """Survey exactly the triangles that contain at least one edge of ``delta``.

    Parameters
    ----------
    dodgr:
        The rebuilt degree-ordered graph, i.e. ``delta.dodgr``.
    delta:
        The applied edge batch (:meth:`~repro.graph.delta.DeltaBuffer.apply`).
    callback:
        ``callback(ctx, tri)`` executed once per *delta* triangle on the rank
        where it is identified; reducers with a ``callback_batch``
        counterpart receive columnar :class:`TriangleBatch` deliveries under
        the columnar engine.  ``None`` counts delta triangles only.
    engine:
        The execution selector (name or
        :class:`~repro.core.engine.EngineConfig`): ``"columnar"`` (the
        default) or ``"legacy"`` (the scalar oracle).  Both produce
        identical triangles, reducer deliveries and communication counters —
        see the module docstring.  A config's ``kernel`` and
        ``kernel_tier`` apply as in the full surveys; the delta drive runs
        resident on the simulated backend only, so a config pinning
        ``backend="process"``, ``workers`` or ``storage="mmap"`` raises
        :class:`~repro.runtime.backend.UnsupportedBackendError` before any
        handler is registered.

    Remaining parameters match :func:`~repro.core.survey.triangle_survey_push`.
    Returns a :class:`~repro.core.results.SurveyReport` whose ``triangles``/
    ``wedge_checks`` count only the delta work of this batch.
    """
    if delta.dodgr is not dodgr:
        raise ValueError("delta was applied against a different DODGraph")
    spec, config = resolve_execution(engine, incremental=True)
    request = SurveyRequest(
        dodgr=dodgr,
        callback=callback,
        algorithm="incremental_push",
        reset_stats=reset_stats,
        graph_name=graph_name,
        phase_name=phase_name,
        callback_compute_units=callback_compute_units,
        **config.axes(),
    )
    program, release = build_delta_program(request, spec, delta)
    if reset_stats:
        dodgr.world.reset_stats()
    try:
        return execute_program(program).report
    finally:
        # Per-batch closures capture the rebuilt DODGr and the delta; release
        # their registry slots and anything still staged on every exit — an
        # expired deadline, a rank crash a recovery layer retries, a
        # livelock — or a long stream pins every rebuild forever.
        release()


# ---------------------------------------------------------------------------
# Streaming driver: batches in, windowed reducer results out
# ---------------------------------------------------------------------------


class StreamingStep:
    """Result of ingesting one edge batch through a :class:`StreamingSurvey`.

    ``snapshot`` is the batch's own reducer output (the *panel*),
    ``window`` the merge of the panels currently inside the sliding window,
    and ``cumulative`` the merge of every panel since the stream started —
    which equals a full recompute's reducer output at this step for
    role-order-invariant reducers (see the module docstring).  The report's
    counters cover *all* work the step did, crashed attempts and replays
    included: the honest recovery overhead.
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
        #: the panel that left the window this step (None while it fills up)
        self.retired = retired
        #: wall-clock seconds of the whole step (merge + rebuild + delta survey)
        self.host_seconds = host_seconds
        #: rank crashes this step recovered from
        self.restarts = restarts
        #: checkpointed batches it re-surveyed to recover
        self.replayed_batches = replayed_batches
        #: True when a permanent loss turned the step into ``estimate``
        #: (a survivor triangle estimate; the panels are then None)
        self.degraded = degraded
        self.estimate = estimate


class StreamingSurvey:
    """Sliding-window streaming survey driver with checkpoint/restart.

    Owns a live :class:`~repro.graph.distributed_graph.DistributedGraph`, a
    :class:`~repro.graph.delta.DeltaBuffer`, and a deque of per-batch reducer
    snapshots.  Each :meth:`ingest` call merges one edge batch, runs
    :func:`incremental_triangle_survey` with a *fresh* reducer from
    ``reducer_factory`` (so the batch's panel is isolated), snapshots it, and
    maintains the windowed and cumulative merges through the reducer class's
    ``snapshot``/``merge`` contract (see ``docs/reducers.md``).

    Every batch survey runs under the world's fault plan (``plan`` installs
    one) with checkpoint/restart semantics:

    * every ``policy.checkpoint_interval`` successful batches, the panel
      window, cumulative merge and per-rank wire totals are persisted and
      the replay log is truncated (releasing the retained graph snapshots);
    * on a recoverable rank crash, panels roll back to the last checkpoint
      and the retained batches replay with fresh reducers — deterministic,
      so the recovered panels are bit-identical to the fault-free stream;
    * on permanent loss the step degrades to a survivor estimate over the
      merged graph instead of raising.

    Ingest and DODGr rebuilds run with faults suspended: the fault domain is
    survey execution (see :mod:`repro.core.engine.checkpoint`).  Fault-free,
    all of this is bookkeeping beside the plain stream.

    Parameters
    ----------
    world:
        The simulated cluster.
    reducer_factory:
        ``reducer_factory(world) -> reducer``; the reducer class must
        provide ``callback``, ``snapshot()`` and ``merge(snapshots)`` (all
        stock reducers do), plus optionally ``finalize()`` and
        ``callback_batch``.
    window_batches:
        Size of the sliding window in batches; ``None`` keeps every panel
        (the window equals the cumulative result).
    engine / callback_compute_units:
        Forwarded to :func:`incremental_triangle_survey`; ``engine`` may be
        a registered engine name or an
        :class:`~repro.core.engine.EngineConfig` (the one selector threaded
        through every layer).
    plan / policy:
        A :class:`~repro.runtime.faults.FaultPlan` to install on ``world``
        (``None`` leaves the world's own, if any) and the
        :class:`~repro.core.engine.checkpoint.CheckpointPolicy` (checkpoint
        interval, restart budget, degradation).
    """

    def __init__(
        self,
        world,
        reducer_factory: Callable[[Any], Any],
        window_batches: Optional[int] = None,
        engine: EngineSelector = None,
        callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
        partitioner=None,
        graph_name: Optional[str] = None,
        plan: Optional[FaultPlan] = None,
        policy: Optional[CheckpointPolicy] = None,
    ) -> None:
        if window_batches is not None and window_batches < 1:
            raise ValueError("window_batches must be at least 1")
        # Fail before the first batch mutates the graph.
        resolve_execution(engine, incremental=True)
        self.world = world
        self.reducer_factory = reducer_factory
        self.window_batches = window_batches
        self.engine = engine
        self.callback_compute_units = callback_compute_units
        self.policy = policy or CheckpointPolicy()
        self.graph = DistributedGraph(
            world, partitioner=partitioner, name=graph_name or "streaming"
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
    def ingest(
        self,
        edges,
        vertex_meta: Optional[Dict[Any, Any]] = None,
    ) -> StreamingStep:
        """Merge one edge batch, survey its delta triangles, slide the window."""
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
            # The rebuilt DODGr replaces the previous one wholesale; unless
            # the replay log still holds it, release the old rebuild's
            # handler slot and rank stores so a long stream's memory stays
            # O(graph), not O(graph x batches).
            superseded.release()
        self._pending.append(applied)

        restarts = 0
        replayed = 0
        while True:
            try:
                if restarts:
                    self._restore_checkpoint()
                    for delta in self._pending[:-1]:
                        self._absorb(self._survey_batch(delta)[0])
                        replayed += 1
                panel, report = self._survey_batch(applied)
                retired = self._absorb(panel)
                break
            except RankCrashError as crash:
                world.recover_from_crash()
                restarts += 1
                injector = world.fault_injector
                recoverable = injector is not None and injector.plan.crash_recoverable
                if recoverable and restarts <= self.policy.max_restarts:
                    continue
                if self.policy.degrade_on_permanent_loss:
                    estimate = degraded_estimate(self.graph, crash)
                    return StreamingStep(
                        batch_index=applied.batch_index,
                        new_edges=applied.num_edges(),
                        report=estimate.report,
                        snapshot=None,
                        window=None,
                        cumulative=None,
                        host_seconds=time.perf_counter() - host_start,
                        restarts=restarts,
                        replayed_batches=replayed,
                        degraded=True,
                        estimate=estimate,
                    )
                raise

        self._accumulate_wire_totals()
        if len(self._pending) >= self.policy.checkpoint_interval:
            self._take_checkpoint(applied.batch_index)
        # With no window bound the window IS the cumulative merge — reuse it
        # instead of re-merging every panel (O(K^2) over a K-batch stream).
        window = (
            self._cumulative
            if self.window_batches is None
            else self._merge(list(self._panels))
        )
        return StreamingStep(
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
    @property
    def batches_ingested(self) -> int:
        return self.delta_buffer.applied_batches

    def window_panels(self) -> List[Any]:
        """The reducer panels currently inside the window (oldest first)."""
        return list(self._panels)

    @property
    def last_checkpoint(self) -> Optional[StreamingCheckpoint]:
        return self._checkpoint

    @property
    def pending_replay_batches(self) -> int:
        """Batches that would replay if a rank crashed right now."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def _survey_batch(self, applied: AppliedDelta) -> Any:
        reducer = self.reducer_factory(self.world)
        if self._merge is None:
            self._merge = type(reducer).merge
        report = incremental_triangle_survey(
            applied.dodgr,
            applied,
            reducer.callback,
            reset_stats=False,
            graph_name=f"{self.graph.name}@{applied.batch_index}",
            callback_compute_units=self.callback_compute_units,
            engine=self.engine,
        )
        if hasattr(reducer, "finalize"):
            reducer.finalize()
        return reducer.snapshot(), report

    def _absorb(self, panel: Any) -> Any:
        """Slide ``panel`` into the window and the cumulative merge; returns
        the panel that left the window (None while it fills up)."""
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
