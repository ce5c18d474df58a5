"""Shared driver core: the push-side machinery of the production engine.

One survey algorithm, interchangeable communication strategies — this
module holds the columnar strategy every production program composes (the
scalar ``legacy`` oracle lives apart, in :mod:`repro.oracle`):

* :class:`CandidateStage`, the one intersect-and-deliver path: the push
  and pull handlers hold each rank's candidate streams there until the
  barrier's inboxes run dry, then each rank intersects them against
  ``Adj^m_+(q)`` in one row-kernel call and delivers the closing
  triangles to the reducer's ``callback_batch`` as one
  :class:`~repro.graph.metadata.TriangleBatch` (or its scalar ``callback``,
  one triangle at a time) — a large phase in parts of bounded size;
* **drivers** walk one rank's pivots and generate its candidate stream as
  one RPC per (source rank, destination rank) pair, accounting every
  *replaced* per-wedge message at its exact serialized size
  (``account_rpc_bulk`` against the real buffer bank), which is what keeps
  Table 4 byte-identical with the oracle.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ...graph.dodgr import CSRAdjacency, DODGraph
from ...graph.ooc import stage_send_columns
from ...graph.metadata import TriangleBatch
from ...runtime.serialization import (
    int_size_array,
    serialized_size,
    uvarint_size_array,
)
from ..intersection import RowAdjacency, row_kernel as select_row_kernel
from .request import TriangleCallback
from .segments import positions_of_ids, ragged_gather, stable_key_order

import numpy as _np

__all__ = [
    "legacy_push_payload_overhead",
    "resolve_batch_callback",
    "columnar_push_batch",
    "CandidateStage",
    "make_columnar_delta_handlers",
    "drive_columnar_push",
    "drive_columnar_dry_run",
    "send_wedges",
]


def resolve_batch_callback(callback: Optional["TriangleCallback"]):
    """The batch counterpart of ``callback``, or None for scalar-only callbacks.

    Two spellings engage columnar delivery: a ``callback_batch`` attribute on
    the callable itself, or — the reducer convention of
    :mod:`repro.core.callbacks` — passing a bound ``reducer.callback`` whose
    owner also defines ``callback_batch``.  Anything else (plain lambdas,
    wrapped callables) runs through the scalar fallback, one
    :class:`~repro.graph.metadata.TriangleMetadata` at a time.

    A subclass that overrides ``callback`` without overriding
    ``callback_batch`` does NOT engage the inherited batch method: the two
    entry points are a contract pair, and silently running the base class's
    batch aggregation against a specialised scalar callback would change
    results.  The walk below finds whichever of the pair is defined closest
    to the instance's class; a scalar override at or below the batch
    definition forces the scalar fallback.
    """
    if callback is None:
        return None
    batch = getattr(callback, "callback_batch", None)
    if callable(batch):
        return batch
    owner = getattr(callback, "__self__", None)
    if owner is not None and getattr(owner, "callback", None) == callback:
        for klass in type(owner).__mro__:
            if "callback_batch" in klass.__dict__:
                batch = getattr(owner, "callback_batch", None)
                return batch if callable(batch) else None
            if "callback" in klass.__dict__:
                return None
    return None


def legacy_push_payload_overhead(handler_id: int) -> int:
    """Fixed serialized bytes of a legacy push RPC around its variable parts.

    A legacy wedge message is ``dumps((handler_id, [q, p, meta_p, meta_pq,
    candidates]))``: 2 framing bytes for the outer pair, the handler id, 2
    framing bytes for the argument list, and 1 tag byte for the candidate
    list (whose length prefix and entries are accounted per wedge).
    """
    return 5 + serialized_size(handler_id)


# ---------------------------------------------------------------------------
# Columnar engine internals
# ---------------------------------------------------------------------------


def columnar_push_batch(
    dodgr: DODGraph, p_rows, q_rows, pq, pr, qr, local_meta_r: bool = False
) -> TriangleBatch:
    """Wrap one intersect result as a lazy :class:`TriangleBatch`.

    Every argument after ``dodgr`` is a per-triangle index array into the
    DODGr's global columns (:meth:`~repro.graph.dodgr.DODGraph.global_columns`):
    the rows of ``p`` and ``q`` and the edges ``(p, q)``, ``(p, r)`` and
    ``(q, r)``.  Only these arrays are gathered eagerly; each metadata
    column is gathered on first read, each typed value array from the
    value memos, so a batch spanning several source ranks reads every
    column with one gather.  ``local_meta_r`` reads ``meta(r)`` beside the
    ``(p, r)`` edge: the pull phase, where the shipped ``Adj^m_+(q)`` omits
    it.
    """
    columns = dodgr.global_columns()
    vertices, row_meta, tgt_vertex, edge_meta, tgt_meta = (
        columns[name] for name in ("row_vertices", "row_meta", "tgt_vertex", "edge_meta", "tgt_meta")
    )
    r_at = pr if local_meta_r else qr
    builders = {
        "p": lambda: vertices[p_rows].tolist(),
        "meta_p": lambda: row_meta[p_rows].tolist(),
        "q": lambda: vertices[q_rows].tolist(),
        "meta_q": lambda: row_meta[q_rows].tolist(),
        "meta_pq": lambda: edge_meta[pq].tolist(),
        "r": lambda: tgt_vertex[pr].tolist(),
        "meta_pr": lambda: edge_meta[pr].tolist(),
        "meta_qr": lambda: edge_meta[qr].tolist(),
        "meta_r": lambda: tgt_meta[r_at].tolist(),
    }
    # Where the typed value arrays read each memo and the id arrays the ids.
    values = columns["values"]
    reads = {
        "ids": ((vertices, p_rows), (vertices, q_rows), (tgt_vertex, pr)),
        "edge": ((values["edge"], pq), (values["edge"], pr), (values["edge"], qr)),
        "vertex": ((values["row"], p_rows), (values["row"], q_rows), (values["target"], r_at)),
    }
    return TriangleBatch(len(p_rows), builders, reads)


def deliver_batch(ctx, batch, callback, batch_callback) -> None:
    """Hand a triangle batch to the reducer: columnar when it can, scalar else."""
    if batch_callback is not None:
        batch_callback(ctx, batch)
    else:
        for tri in batch.triangles():
            callback(ctx, tri)


class _Message(NamedTuple):
    """One staged message of ``checks`` candidates: wedge ``w`` pivots at row
    ``rows[w]`` of ``src`` on edge ``qpositions[w]`` and closes against row
    ``q_rows[w]`` of ``dest`` (None: ``q``'s own) or of ``new_entries``'
    ``(RowAdjacency, edge map)``; its candidates are the rest of its ``src``
    row after ``qpositions[w]`` or a delta stream's
    ``positions[offsets[w]:offsets[w + 1]]``.  A pull message is ``dest``'s
    pulled rows ``q_rows`` alone (``rows`` None) until its wedges are found.
    A message holds only what it was sent, so a stage that holds a phase
    until the drain keeps no array of its own alive."""

    checks: int
    src: CSRAdjacency
    dest: CSRAdjacency
    rows: Any
    qpositions: Any
    q_rows: Any
    positions: Any = None
    offsets: Any = None
    new_entries: Any = None


def _cat(arrays):
    return arrays[0] if len(arrays) == 1 else _np.concatenate(arrays)


def _shifted(values, shifts, counts):
    """``values`` (concatenated per message) plus each message's shift."""
    if len(set(shifts)) == 1:
        return values + shifts[0] if shifts[0] else values
    return values + _np.repeat(_np.asarray(shifts, dtype=_np.int64), counts)


#: A resident stage that feeds a reducer delivers at most this many
#: candidates at a time (up to ~100 B of transient each: match columns,
#: batch gathers, reducer arrays).  Smaller parts cost time: 2^16 read +3 %
#: on a rmat-13, 8-rank closure-time survey, 2^15 +8 %.
RESIDENT_PART_CANDIDATES = 1 << 16


class CandidateStage:
    """Every columnar survey's one intersect-and-deliver path.

    A push handler books its ``wedge_checks`` and hands its message to
    :meth:`stage`; a pull handler hands over the rows it was sent.  When the
    inboxes run dry the world runs :meth:`drain`
    (:meth:`~repro.runtime.world.World.on_drained`): each rank finds the
    wedges waiting on its pulled rows, makes one row-kernel call per
    :meth:`~repro.graph.dodgr.DODGraph.row_frame` over what it holds — one
    per phase when resident, one per source when spilled — and delivers
    **one** :class:`TriangleBatch`, in handled order.  A large phase is
    delivered in parts of at most ``chunk_candidates()`` candidates when
    spilled, :data:`RESIDENT_PART_CANDIDATES` when resident (a count is not
    cut), in calls of at most that many.  Counters are booked per call, so
    their per-rank totals are the per-message ones.
    """

    def __init__(
        self,
        dodgr: DODGraph,
        row_kernel,
        callback: Optional["TriangleCallback"],
        batch_callback,
        per_triangle_compute: int,
        local_meta_r: bool = False,
    ) -> None:
        self.dodgr = dodgr
        self.row_kernel = row_kernel
        self.callback = callback
        self.batch_callback = batch_callback
        self.per_triangle_compute = per_triangle_compute
        #: the pull phase's batches read meta(r) beside the (p, r) edge
        self.local_meta_r = local_meta_r
        self.chunk = dodgr.chunk_candidates() or (
            None if callback is None else RESIDENT_PART_CANDIDATES
        )
        self.pending: List[List[_Message]] = [[] for _ in range(dodgr.world.nranks)]
        self.scheduled = False

    def handler(self, new_entries: Optional[Callable[[int], Tuple[RowAdjacency, Any]]] = None):
        """The owner-side push handler of one candidate stream.

        It receives *every* wedge a source rank generated for targets this
        rank owns — one RPC per (source, destination) pair — as index arrays
        into the source's :class:`CSRAdjacency`.  A delta stream ships its
        (filtered) candidates explicitly, as source edge positions
        ``flat_src_pos`` segmented per wedge by ``offsets``.
        ``new_entries(rank)`` — a ``(RowAdjacency, position map)`` pair over
        a batch's new entries only (:func:`new_row_adjacency`) — replaces
        the full rows: the delta survey's new-check stream.
        """
        dodgr = self.dodgr

        def _columnar_intersect_handler(
            ctx, src_csr: CSRAdjacency, rows, qpositions, flat_src_pos=None, offsets=None
        ) -> None:
            if flat_src_pos is None:
                checks = int(src_csr.indptr[rows + 1].sum() - qpositions.sum()) - len(rows)
            else:
                checks = len(flat_src_pos)
            entries = None if new_entries is None else new_entries(ctx.rank)
            message = (src_csr, dodgr.csr(ctx), rows, qpositions, None)
            self.stage(ctx, checks, *message, flat_src_pos, offsets, entries)

        return _columnar_intersect_handler

    def stage(self, ctx, checks: int, *fields) -> None:
        """Book ``wedge_checks``; hold the message (the other
        :class:`_Message` fields) for the drain."""
        ctx.add_counter("wedge_checks", checks)
        message = _Message(checks, *fields)
        if message.rows is not None and not len(message.rows):
            return
        self.pending[ctx.rank].append(message)
        if not self.scheduled:
            self.scheduled = True
            ctx.world.on_drained(self.drain)

    def drain(self) -> None:
        """Intersect and deliver what every rank holds (the world's drain hook)."""
        self.scheduled = False
        for ctx in self.dodgr.world.ranks:
            if self.pending[ctx.rank]:
                self.deliver(ctx)

    def clear(self) -> None:
        """Drop every held message (an aborted or crashed phase)."""
        self.pending = [[] for _ in self.pending]
        self.scheduled = False

    def deliver(self, ctx) -> None:
        """Deliver what the rank holds, one batch per part; a part's messages
        and framed arrays die before its reducer runs."""
        messages, self.pending[ctx.rank] = self.pending[ctx.rank], []
        if messages[0].rows is None:
            messages = self._pulled(ctx, messages)
        while messages:
            size = self._part(messages)
            matches, columns = self._matched(ctx, messages[:size])
            del messages[:size]
            if not matches:
                continue
            ctx.add_counter("triangles_found", matches)
            if self.callback is None:
                continue
            ctx.add_compute(self.per_triangle_compute * matches)
            batch = columnar_push_batch(self.dodgr, *columns, local_meta_r=self.local_meta_r)
            deliver_batch(ctx, batch, self.callback, self.batch_callback)

    def _part(self, messages: Sequence[_Message]) -> int:
        """How many leading messages make the next part: all, or at most a
        chunk of candidates (an oversize message alone)."""
        if self.chunk is None:
            return len(messages)
        size, held = 1, messages[0].checks
        while size < len(messages) and held + messages[size].checks <= self.chunk:
            held += messages[size].checks
            size += 1
        return size

    def _pulled(self, ctx, messages: Sequence[_Message]) -> List[_Message]:
        """Pull messages as the local wedges waiting on their rows, in the
        order the oracle's dry run records them: one inverted-target-index
        lookup over every owner's rows, one message per owner."""
        dodgr = self.dodgr
        csr = messages[0].src
        offsets, inv_pos, row_of_edge = csr.inverted_target_index(dodgr.order_count())
        ids = _cat([m.dest.row_order_ids[m.q_rows] for m in messages])
        which, qpositions = positions_of_ids(offsets, inv_pos, ids)
        rows = row_of_edge[qpositions]
        ends = csr.indptr[rows + 1]
        # A q that closes its row has no candidate suffix; the scalar dry runs
        # never record such a pivot.  Its empty span must not reach the
        # kernel: the hash count books a table build for it (see
        # intersection.COMPARISON_COUNTS).
        waiting = qpositions + 1 < ends
        which, rows, qpositions, ends = (a[waiting] for a in (which, rows, qpositions, ends))
        bounds = _np.cumsum([0] + [len(m.q_rows) for m in messages])
        cuts = which.searchsorted(bounds).tolist()
        found = []
        for k, m in enumerate(messages):
            at = slice(cuts[k], cuts[k + 1])
            checks = int(ends[at].sum() - qpositions[at].sum()) - (cuts[k + 1] - cuts[k])
            ctx.add_counter("wedge_checks", checks)
            if cuts[k] < cuts[k + 1]:
                q_rows = m.q_rows[which[at] - bounds[k]]
                found.append(_Message(checks, csr, m.dest, rows[at], qpositions[at], q_rows))
        return found

    def _runs(self, starts, ends) -> List[Tuple[int, int]]:
        """One frame's kernel calls: all segments, or runs of at most a chunk
        of candidates (an oversize segment alone)."""
        if self.chunk is None:
            return [(0, len(starts))]
        csum = _np.cumsum(ends - starts)
        runs, lo = [], 0
        while lo < len(starts):
            base = int(csum[lo - 1]) if lo else 0
            hi = max(int(csum.searchsorted(base + self.chunk, side="right")), lo + 1)
            runs.append((lo, hi))
            lo = hi
        return runs

    def _framed(self, group: Sequence[_Message], srcs, dsts):
        """One frame's messages (``srcs`` / ``dsts``: their source and
        destination :meth:`~repro.graph.dodgr.DODGraph.row_frame`) as
        ``(keys, starts, ends, q_rows, rows, qpositions, positions)`` in frame
        positions, plus the ``(source row, source edge, destination row,
        destination edge)`` lift onto the global columns (zeros if resident)."""
        first = group[0]
        keys = srcs[0][0]
        counts = [len(m.rows) for m in group]
        edge_shifts = [src[3] for src in srcs]
        qpositions = _shifted(_cat([m.qpositions for m in group]), edge_shifts, counts)
        rows = _shifted(_cat([m.rows for m in group]), [src[2] for src in srcs], counts)
        if first.positions is None:
            starts = qpositions + 1
            ends = srcs[0][1].indptr[rows + 1]
            positions = None
        else:
            # A delta stream: its explicit candidates' keys, end to end.
            sizes = [len(m.positions) for m in group]
            positions = _shifted(_cat([m.positions for m in group]), edge_shifts, sizes)
            bases = _np.cumsum([0] + sizes[:-1]).tolist()
            starts = _shifted(_cat([m.offsets[:-1] for m in group]), bases, counts)
            ends = _np.append(starts[1:], positions.size)
            keys = keys[positions]
        if first.q_rows is None:
            q_local = self.dodgr.rows_by_order_id()[srcs[0][0][qpositions]]
        else:
            q_local = _cat([m.q_rows for m in group])
        q_rows = _shifted(q_local, [dst[2] for dst in dsts], counts)
        lift = (
            first.src.row_base - srcs[0][2],
            first.src.edge_base - edge_shifts[0],
            first.dest.row_base - dsts[0][2],
            first.dest.edge_base - dsts[0][3],
        )
        return (keys, starts, ends, q_rows, rows, qpositions, positions), lift

    def _matched(self, ctx, messages: Sequence[_Message]):
        """One kernel call per frame over ``messages``: (matches, columns)."""
        dodgr = self.dodgr
        frame_of: Dict[int, Any] = {}
        groups: Dict[Any, List[Tuple[int, Any, Any]]] = {}
        for index, m in enumerate(messages):
            for csr in (m.src, m.dest):
                if id(csr) not in frame_of:
                    frame_of[id(csr)] = dodgr.row_frame(csr)
            src = frame_of[id(m.src)]
            dst = frame_of[id(m.dest)] if m.new_entries is None else (None, m.new_entries[0], 0, 0)
            key = (id(src[0]), id(dst[1]), m.positions is None)
            groups.setdefault(key, []).append((index, src, dst))
        matched = []
        matches = 0
        for entries in groups.values():
            members, srcs, dsts = zip(*entries)
            group = [messages[i] for i in members]
            arrays, lift = self._framed(group, srcs, dsts)
            for lo, hi in self._runs(*arrays[1:3]):
                found, columns = self._intersect(ctx, arrays, lo, hi, dsts[0][1], group, lift)
                matches += found
                if columns is not None:
                    if len(groups) > 1:
                        # Each match's message, to restore handled order across frames.
                        counts = [len(m.rows) for m in group]
                        message = _np.repeat(_np.asarray(members, dtype=_np.int64), counts)
                        columns = (message[columns[0]],) + columns[1:]
                    matched.append(columns)
        if not matched:
            return matches, None
        columns = [_cat(column) for column in list(zip(*matched))[1:]]
        if len(groups) > 1:
            # Handled order: a stable sort on message sequence across frames.
            order = stable_key_order(_cat([m[0] for m in matched]))
            columns = [column[order] for column in columns]
        return matches, columns

    def _intersect(self, ctx, arrays, lo, hi, adjacency, group, lift):
        """One kernel call over a frame's segments ``[lo, hi)``: its match count
        and (None in a count) ``(seg, p, q, pq, pr, qr)`` as global positions."""
        keys, starts, ends, q_rows, rows, qpositions, positions = arrays
        want = self.callback is not None
        result = self.row_kernel(
            keys, starts[lo:hi], ends[lo:hi], q_rows[lo:hi], adjacency, matches=want
        )
        ctx.add_compute(int(result.comparisons))
        if not want or not len(result):
            return len(result), None
        seg, cand, adj = result.seg + lo, result.cand_pos, result.adj_pos
        if positions is not None:
            cand = positions[cand]
        if group[0].new_entries is not None:
            adj = group[0].new_entries[1][adj]
        src_row, src_edge, dst_row, dst_edge = lift
        return len(result), (
            seg,
            rows[seg] + src_row,
            q_rows[seg] + dst_row,
            qpositions[seg] + src_edge,
            cand + src_edge,
            adj + dst_edge,
        )


def make_columnar_delta_handlers(
    dodgr: DODGraph,
    kernel: str,
    callback: Optional["TriangleCallback"],
    per_triangle_compute: int,
    kernel_tier: Optional[str],
    delta,
):
    """The delta survey's push intersect handlers and the stage they share.

    Returns ``(full check, new check, stage)``: the new-check handler
    intersects against ``delta``'s (an
    :class:`~repro.graph.delta.AppliedDelta`) new entries of
    ``Adj^m_+(q)`` only.  Both stage into one :class:`CandidateStage`.
    """
    stage = CandidateStage(
        dodgr,
        select_row_kernel(kernel, kernel_tier),
        callback,
        resolve_batch_callback(callback),
        per_triangle_compute,
    )
    # The new-entries view is built once per rank, on its first use.
    new_entries = lru_cache(maxsize=None)(partial(new_row_adjacency, delta))
    return stage.handler(), stage.handler(new_entries), stage


def new_row_adjacency(delta, rank: int) -> Tuple[RowAdjacency, Any]:
    """Rank ``rank``'s new-entries-only :class:`RowAdjacency` plus position map.

    ``delta`` is an :class:`~repro.graph.delta.AppliedDelta`.  The view
    shares the destination CSR's row indexing (row ``i`` is the same vertex)
    but keeps only the batch's new directed edges, so the row kernels can
    intersect old-old candidate streams against "what changed at q" in one
    call.  The second element maps filtered edge positions back to
    positions in the full CSR edge arrays (for metadata lookup).
    """
    dodgr = delta.dodgr
    csr = dodgr.csr(rank)
    mask = delta.edge_mask(rank)
    new_to_orig = _np.flatnonzero(mask)
    edge_rows = csr.inverted_target_index(dodgr.order_count())[2]
    new_counts = _np.bincount(edge_rows[mask], minlength=csr.num_rows)
    new_indptr = _np.concatenate(([0], _np.cumsum(new_counts))).astype(_np.int64)
    adjacency = RowAdjacency(csr.tgt_ids[new_to_orig], new_indptr, dodgr.order_count())
    return adjacency, new_to_orig


def wedge_stream(csr: CSRAdjacency):
    """One rank's wedge stream as ``(rows, qpositions)`` arrays, or ``None``.

    Every entry but the last of every row, in legacy iteration order
    (row-major): the columnar push drive's prologue.
    """
    indptr = csr.indptr
    wedge_counts = _np.maximum(indptr[1:] - indptr[:-1] - 1, 0)
    if not wedge_counts.any():
        return None
    rows = _np.repeat(_np.arange(csr.num_rows, dtype=_np.int64), wedge_counts)
    return rows, ragged_gather(indptr[:-1], wedge_counts)[0]


def drive_columnar_dry_run(ctx, dodgr, h_propose, h_propose_columnar, push_mask) -> None:
    """One rank's dry-run drive as array expressions over its CSR.

    Local targets set their bit in ``push_mask`` (always pushed, no wire
    cost).  Remote targets reduce to one ``(q, Σ suffix length)`` proposal
    each, in first-appearance order (the scalar drive's ``candidate_totals``
    dict order), sized as the ``(q, rank, total)`` message each replaces and
    shipped as CSR positions + totals, one batched RPC per destination rank.
    The caller flushes the proposal buffers afterwards.
    """
    rank = ctx.rank
    csr = dodgr.csr(rank)
    indptr = csr.indptr
    # Every edge but the last of its row pivots a wedge, in row-major order;
    # its suffix is the rest of the row.
    suffix = _np.repeat(indptr[1:], _np.diff(indptr)) - 1 - _np.arange(csr.num_edges)
    wedge = suffix > 0
    remote = csr.tgt_owner != rank
    push_mask[csr.tgt_ids[wedge & ~remote]] = True
    qpositions = _np.flatnonzero(wedge & remote)
    if not qpositions.size:
        return
    # Per target id: its first wedge, then its total (one pass each).
    q_ids = csr.tgt_ids[qpositions]
    firsts = _np.full(dodgr.order_count(), q_ids.size, dtype=_np.int64)
    _np.minimum.at(firsts, q_ids, _np.arange(q_ids.size))
    targets = _np.flatnonzero(firsts < q_ids.size)
    # First positions are distinct, so any sort of them is the stable one.
    targets = targets[_np.argsort(firsts[targets])]
    totals = _np.zeros(firsts.size, dtype=_np.int64)
    _np.add.at(totals, q_ids, suffix[qpositions])
    totals = totals[targets]
    first_pos = qpositions[firsts[targets]]
    sizes = (
        ctx.world.registry.call_size(h_propose, (rank,))
        + csr.tgt_vertex_wire[first_pos]
        + int_size_array(totals)
    )
    dests = csr.tgt_owner[first_pos]
    ctx.send_coalesced(h_propose_columnar, dests, sizes, (rank, csr), (first_pos, totals))


def drive_columnar_push(
    ctx,
    dodgr: DODGraph,
    csr: CSRAdjacency,
    handler,
    payload_overhead: int,
    allowed_mask=None,
) -> None:
    """Array-native driver: account and coalesce one rank's candidate pushes.

    Takes the rank's full wedge stream (:func:`wedge_stream`), computes every
    replaced message's exact serialized size columnar-wise, accounts the
    stream through :meth:`~repro.runtime.world.RankContext.account_rpc_bulk`
    (same counters and buffer flush boundaries as the per-wedge walk), and
    fires one batched RPC per destination rank.  ``allowed_mask`` — a boolean
    array over dense order-ids — restricts targets (the Push-Pull push
    phase); ``None`` pushes to every target.
    """
    stream = wedge_stream(csr)
    if stream is None:
        return
    rows, qpositions = stream
    indptr = csr.indptr
    if allowed_mask is not None:
        keep = allowed_mask[csr.tgt_ids[qpositions]]
        rows = rows[keep]
        qpositions = qpositions[keep]
        if rows.size == 0:
            return
    row_end = indptr[rows + 1]
    suffix_lengths = row_end - 1 - qpositions
    dests = csr.tgt_owner[qpositions]
    sizes = (
        payload_overhead
        + csr.row_wire_sizes[rows]
        + csr.tgt_wire_sizes[qpositions]
        + uvarint_size_array(suffix_lengths)
        + csr.cand_size_cumsum[row_end]
        - csr.cand_size_cumsum[qpositions + 1]
    )
    ctx.account_rpc_bulk(dests, sizes)
    send_wedges(ctx, dodgr, csr, handler, rows, qpositions, dests, sizes, suffix_lengths)


def send_wedges(
    ctx,
    dodgr: DODGraph,
    csr: CSRAdjacency,
    handler,
    rows,
    qpositions,
    dests,
    sizes,
    counts,
    candidates=None,
) -> None:
    """Ship one rank's accounted wedges: batched RPCs per destination rank.

    Wedge ``w`` sits at ``csr`` edge position ``qpositions[w]`` of row
    ``rows[w]``, goes to rank ``dests[w]``, carries ``counts[w]``
    candidates and replaces one legacy message of ``sizes[w]`` bytes (the
    caller has accounted it already).  ``candidates=None`` ships the suffix
    form — each wedge's candidates are the rest of its row; otherwise
    ``candidates`` are the wedges' source edge positions, concatenated in
    wedge order, and ship beside them with per-payload segment offsets (a
    delta stream).  Wedges keep their relative order within a destination.
    """
    order = stable_key_order(dests)
    dests_sorted = dests[order]
    heads = _np.ones(dests_sorted.size, dtype=bool)
    _np.not_equal(dests_sorted[1:], dests_sorted[:-1], out=heads[1:])
    group_starts = _np.flatnonzero(heads)
    bounds = group_starts.tolist() + [dests_sorted.size]
    rows_sorted = rows[order]
    qpos_sorted = qpositions[order]
    sizes_sorted = sizes[order]
    counts_sorted = counts[order]
    if candidates is not None:
        # Regroup the candidate sub-stream by destination rank.
        gather, cand_offsets = ragged_gather(
            (_np.cumsum(counts) - counts)[order], counts_sorted
        )
        cand_sorted = candidates[gather]
    # Candidate-stream chunking (out-of-core storage): cap the number of
    # candidates any single batched delivery carries, so the owner-side
    # handler's transient arrays stay within the configured memory budget
    # while the spilled CSR columns page in from disk.  Chunks are cut at
    # wedge boundaries in the same stable destination order, so per-dest
    # FIFO delivery, every counter, and the virtual rpc/byte sums are
    # identical to the single-call form (``chunk=None`` — resident storage
    # — reproduces it exactly).
    chunk = dodgr.chunk_candidates()
    cand_cumsum = None
    if chunk is not None:
        cand_cumsum = _np.cumsum(counts_sorted)
        # The payload slices below stay enqueued until the barrier delivers
        # them; staging the sorted columns in the snapshot's disk-backed
        # scratch keeps that retained set out of process memory (the
        # in-memory arrays die when this drive returns).
        rows_sorted, qpos_sorted = stage_send_columns(csr, rows_sorted, qpos_sorted)
    for g, dest in enumerate(dests_sorted[group_starts].tolist()):
        lo, hi = bounds[g], bounds[g + 1]
        start = lo
        while start < hi:
            if chunk is None:
                stop = hi
            else:
                base = int(cand_cumsum[start - 1]) if start else 0
                stop = int(_np.searchsorted(cand_cumsum, base + chunk, side="right"))
                stop = max(stop, start + 1)  # an oversize wedge still ships
                stop = min(stop, hi)
            columns = (rows_sorted[start:stop], qpos_sorted[start:stop])
            if candidates is not None:
                lo_c, hi_c = cand_offsets[start], cand_offsets[stop]
                columns += (cand_sorted[lo_c:hi_c], cand_offsets[start : stop + 1] - lo_c)
            ctx.async_call_batched(
                dest,
                handler,
                csr,
                *columns,
                virtual_rpcs=stop - start,
                virtual_bytes=int(sizes_sorted[start:stop].sum()),
            )
            start = stop
