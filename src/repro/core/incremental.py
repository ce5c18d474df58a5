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
surveys (:func:`~repro.core.engine.resolve_execution`); an
engine's ``style`` picks the implementation in
:mod:`repro.core.engine.delta`:

* ``legacy`` — the scalar reference: one sized RPC per (wedge, stream)
  carrying the filtered candidate tuples, intersected per message with the
  scalar kernels.  This is the parity oracle.
* ``columnar`` — the fast path: candidate selection as boolean array masks
  over the CSR edge positions (via
  :meth:`~repro.graph.delta.AppliedDelta.edge_mask`), one coalesced RPC per
  (source rank, destination rank, stream), intersection through
  :data:`~repro.core.intersection.ROW_KERNELS`, and triangles delivered as
  lazy :class:`~repro.graph.metadata.TriangleBatch` columns to
  ``callback_batch`` reducers.  Every replaced legacy message is accounted —
  in legacy send order, through the real buffer bank — at its exact
  serialized size, so the two engines report identical communication
  counters (same bound as the full engines when callbacks send RPCs).

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
from .engine import (
    DEFAULT_CALLBACK_COMPUTE_UNITS,
    DELTA_PUSH_PHASE,
    EngineSelector,
    TriangleCallback,
    resolve_batch_callback,
    resolve_execution,
)
from .engine.delta import (
    drive_columnar_delta,
    drive_legacy_delta,
    make_delta_columnar_handler,
    make_delta_legacy_handlers,
    new_source_vertices,
)
from .engine.driver import legacy_push_payload_overhead
from .intersection import INTERSECTION_KERNELS, row_kernel as select_row_kernel
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
        :class:`~repro.core.engine.EngineConfig`); the engine's
        ``style`` — ``"columnar"`` (the default engine's) or
        ``"legacy"`` (scalar reference) — picks the implementation.  Both
        produce identical triangles, reducer deliveries and communication
        counters — see the module docstring.  A config's ``kernel`` and
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
    world = dodgr.world
    spec, config = resolve_execution(engine, incremental=True)
    style, kernel, kernel_tier = spec.style, config.kernel, config.kernel_tier
    per_triangle_compute = callback_compute_units if callback is not None else 0
    if reset_stats:
        world.reset_stats()

    # Handler registration order is fixed (full first, new second) in both
    # engines, so handler ids — and every accounted message size — match.
    if style == "columnar":
        row_kernel = select_row_kernel(kernel, kernel_tier)
        batch_callback = resolve_batch_callback(callback)
        h_full = world.register_handler(
            make_delta_columnar_handler(
                dodgr, delta, row_kernel, callback, batch_callback,
                per_triangle_compute, new_only=False,
            )
        )
        h_new = world.register_handler(
            make_delta_columnar_handler(
                dodgr, delta, row_kernel, callback, batch_callback,
                per_triangle_compute, new_only=True,
            )
        )
    else:
        # Owner-side new-entry views of the scalar engine, precomputed so
        # mid-drive buffer flushes (which execute handlers) never observe a
        # partially built cache.  The columnar engine derives its filtered
        # RowAdjacency from the edge masks instead.
        new_adj_by_rank = [delta.new_adjacency(r) for r in range(world.nranks)]
        full_handler, new_handler = make_delta_legacy_handlers(
            dodgr,
            INTERSECTION_KERNELS[kernel],
            callback,
            per_triangle_compute,
            new_adj_by_rank,
        )
        h_full = world.register_handler(full_handler)
        h_new = world.register_handler(new_handler)

    host_start = time.perf_counter()
    try:
        world.begin_phase(phase_name)
        if style == "columnar":
            overhead_full = legacy_push_payload_overhead(h_full.handler_id)
            overhead_new = legacy_push_payload_overhead(h_new.handler_id)
            for ctx in world.ranks:
                # Cooperative cancellation checkpoint (see engine/push.py).
                world.check_deadline()
                drive_columnar_delta(
                    ctx, dodgr, delta, h_full, h_new, overhead_full, overhead_new
                )
        else:
            new_sources = new_source_vertices(delta)
            for ctx in world.ranks:
                world.check_deadline()
                drive_legacy_delta(ctx, dodgr, delta, h_full, h_new, new_sources)
        world.barrier()
    finally:
        # Per-batch closures capture the rebuilt DODGr and the delta; release
        # their registry slots on every exit — an expired deadline, a rank
        # crash a recovery layer retries, a livelock — or a long stream pins
        # every rebuild forever (ids stay allocated, so later accounted
        # message sizes are unchanged).
        world.registry.release(h_full)
        world.registry.release(h_new)
    host_seconds = time.perf_counter() - host_start

    simulated = world.simulated_time(phases=[phase_name])
    return SurveyReport.from_world_stats(
        algorithm="incremental_push",
        graph_name=graph_name or dodgr.name,
        world_stats=world.stats,
        simulated=simulated,
        phases=[phase_name],
        host_seconds=host_seconds,
    )


# ---------------------------------------------------------------------------
# Streaming driver: batches in, windowed reducer results out
# ---------------------------------------------------------------------------


class StreamingStep:
    """Result of ingesting one edge batch through a :class:`StreamingSurvey`.

    ``snapshot`` is the batch's own reducer output (the *panel*),
    ``window`` the merge of the panels currently inside the sliding window,
    and ``cumulative`` the merge of every panel since the stream started —
    which equals a full recompute's reducer output at this step for
    role-order-invariant reducers (see the module docstring).
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
    )

    def __init__(
        self,
        batch_index,
        new_edges,
        report,
        snapshot,
        window,
        cumulative,
        retired,
        host_seconds=0.0,
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


class StreamingSurvey:
    """Sliding-window streaming survey driver.

    Owns a live :class:`~repro.graph.distributed_graph.DistributedGraph`, a
    :class:`~repro.graph.delta.DeltaBuffer`, and a deque of per-batch reducer
    snapshots.  Each :meth:`ingest` call merges one edge batch, runs
    :func:`incremental_triangle_survey` with a *fresh* reducer from
    ``reducer_factory`` (so the batch's panel is isolated), snapshots it, and
    maintains the windowed and cumulative merges through the reducer class's
    ``snapshot``/``merge`` contract (see ``docs/reducers.md``).

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
        self.graph = DistributedGraph(
            world, partitioner=partitioner, name=graph_name or "streaming"
        )
        self.delta_buffer = DeltaBuffer(world)
        self.dodgr: Optional[DODGraph] = None
        self._panels: Deque[Any] = deque()
        self._merge: Optional[Callable[[Any], Any]] = None
        self._cumulative: Any = None

    # ------------------------------------------------------------------
    def ingest(
        self,
        edges,
        vertex_meta: Optional[Dict[Any, Any]] = None,
    ) -> StreamingStep:
        """Merge one edge batch, survey its delta triangles, slide the window."""
        host_start = time.perf_counter()
        self.delta_buffer.stage_edges(edges)
        if vertex_meta:
            for vertex, meta in vertex_meta.items():
                self.delta_buffer.stage_vertex_meta(vertex, meta)
        applied = self.delta_buffer.apply(self.graph)
        superseded = self.dodgr
        self.dodgr = applied.dodgr
        if superseded is not None:
            # The rebuilt DODGr replaces the previous one wholesale; release
            # the old rebuild's handler slot and rank stores so a long
            # stream's memory stays O(graph), not O(graph x batches).
            superseded.release()
        reducer = self.reducer_factory(self.world)
        if self._merge is None:
            self._merge = type(reducer).merge
        report = incremental_triangle_survey(
            applied.dodgr,
            applied,
            reducer.callback,
            engine=self.engine,
            callback_compute_units=self.callback_compute_units,
            graph_name=f"{self.graph.name}@{applied.batch_index}",
        )
        if hasattr(reducer, "finalize"):
            reducer.finalize()
        panel = reducer.snapshot()
        self._panels.append(panel)
        retired = None
        if self.window_batches is not None and len(self._panels) > self.window_batches:
            retired = self._panels.popleft()
        self._cumulative = (
            panel
            if self._cumulative is None
            else self._merge([self._cumulative, panel])
        )
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
        )

    # ------------------------------------------------------------------
    @property
    def batches_ingested(self) -> int:
        return self.delta_buffer.applied_batches

    def window_panels(self) -> List[Any]:
        """The reducer panels currently inside the window (oldest first)."""
        return list(self._panels)
