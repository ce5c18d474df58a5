"""Shared driver core: the push-side machinery of the production engine.

One survey algorithm, interchangeable communication strategies — this
module holds the columnar strategy every production program composes (the
scalar ``legacy`` oracle lives apart, in :mod:`repro.oracle`):

* **handler factories** build the owner-side RPC handler that intersects a
  candidate stream against ``Adj^m_+(q)`` and delivers the closing
  triangles to the reducer's ``callback_batch`` as one
  :class:`~repro.graph.metadata.TriangleBatch` (or its scalar ``callback``,
  one triangle at a time), through the one intersect-and-deliver path of
  :class:`CandidateStage`;
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
from .segments import first_appearance_groups, ragged_gather, stable_key_order

import numpy as _np

__all__ = [
    "row_adjacency",
    "legacy_push_payload_overhead",
    "resolve_batch_callback",
    "deliver_batch",
    "columnar_push_batch",
    "wedge_stream",
    "CandidateStage",
    "make_columnar_intersect_handler",
    "make_columnar_delta_handlers",
    "new_row_adjacency",
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


def row_adjacency(csr: CSRAdjacency, order_count: int) -> RowAdjacency:
    """The CSR's cached :class:`RowAdjacency` view for the row kernels."""
    cached = csr.row_adj_cache
    if cached is None:
        cached = RowAdjacency(csr.tgt_ids, csr.indptr, order_count)
        csr.row_adj_cache = cached
    return cached


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


class _Candidates(NamedTuple):
    """One received columnar push: wedges of ``src`` and their candidates.

    Wedge ``w``'s candidates are the span ``[starts[w], ends[w])`` of
    ``src.tgt_ids`` itself when ``flat_src_pos`` is None (the suffix form),
    else of ``src.tgt_ids[flat_src_pos]``, the explicit source edge
    positions of a delta stream.
    """

    #: None (intersect the full rows) or the new-check stream's view maker
    new_entries: Any
    src: CSRAdjacency
    rows: Any
    qpositions: Any
    starts: Any
    ends: Any
    flat_src_pos: Any


def _cat(arrays):
    return arrays[0] if len(arrays) == 1 else _np.concatenate(arrays)


def _spans(parts: Sequence[_Candidates]):
    """One row-kernel call's ``(source keys, starts, ends, positions)``.

    A full survey delivers each suffix-form message alone: it hands its
    source's ``tgt_ids`` over in place, and ``positions`` is None (a
    match's candidate position is its source edge position).  Staged
    messages are the delta stream's, which ship explicit positions with
    per-wedge ``offsets`` (spans end to end): their gathered keys and
    offsets are concatenated, and ``positions[cand_pos]`` is the source
    edge position.
    """
    if parts[0].flat_src_pos is None:
        (part,) = parts
        return part.src.tgt_ids, part.starts, part.ends, None
    if len(parts) == 1:
        starts, ends = parts[0].starts, parts[0].ends
    else:
        counts = [len(part.flat_src_pos) for part in parts]
        shifts = _np.cumsum([0] + counts[:-1]).tolist()
        offsets = _np.concatenate(
            [part.starts + shift for part, shift in zip(parts, shifts)] + [[sum(counts)]]
        )
        starts, ends = offsets[:-1], offsets[1:]
    return (
        _cat([part.src.tgt_ids[part.flat_src_pos] for part in parts]),
        starts,
        ends,
        _cat([part.flat_src_pos for part in parts]),
    )


class CandidateStage:
    """The columnar push handlers' one intersect-and-deliver path.

    A handler books its ``wedge_checks`` and hands its message here.  A full
    survey (``staged=False``) intersects and delivers each message as it
    arrives, its candidate suffixes read in place from the source CSR.  The
    delta survey stages them: :meth:`drain` — the phase's
    ``on_drained`` hook, which :meth:`~repro.runtime.world.World.barrier`
    calls whenever the inboxes run dry — then makes one row-kernel call per
    (rank, stream) over the concatenated candidate streams and delivers
    **one** :class:`TriangleBatch` per rank, holding every message's matches
    in handled order.  Counters are booked per call, so their per-rank
    totals are the per-message ones.
    """

    def __init__(
        self,
        dodgr: DODGraph,
        row_kernel,
        callback: Optional["TriangleCallback"],
        batch_callback,
        per_triangle_compute: int,
        staged: bool = False,
    ) -> None:
        self.dodgr = dodgr
        self.row_kernel = row_kernel
        self.callback = callback
        self.batch_callback = batch_callback
        self.per_triangle_compute = per_triangle_compute
        self.staged = staged
        self.pending: List[List[_Candidates]] = [[] for _ in range(dodgr.world.nranks)]

    def handler(self, new_entries: Optional[Callable[[int], Tuple[RowAdjacency, Any]]] = None):
        """The owner-side RPC handler of one candidate stream.

        It receives *every* wedge a source rank generated for targets this
        rank owns — one RPC per (source, destination) pair — as index arrays
        into the source's :class:`CSRAdjacency`.  A delta stream ships its
        (filtered) candidates explicitly, as source edge positions
        ``flat_src_pos`` segmented per wedge by ``offsets``.
        ``new_entries(rank)`` — a ``(RowAdjacency, position map)`` pair over
        a batch's new entries only (:func:`new_row_adjacency`) — replaces
        the full rows: the delta survey's new-check stream.
        """

        def _columnar_intersect_handler(
            ctx, src_csr: CSRAdjacency, rows, qpositions, flat_src_pos=None, offsets=None
        ) -> None:
            if flat_src_pos is None:
                starts, ends = qpositions + 1, src_csr.indptr[rows + 1]
                checks = int(ends.sum() - starts.sum())
            else:
                starts, ends = offsets[:-1], offsets[1:]
                checks = len(flat_src_pos)
            ctx.add_counter("wedge_checks", checks)
            message = _Candidates(
                new_entries, src_csr, rows, qpositions, starts, ends, flat_src_pos
            )
            if self.staged:
                self.pending[ctx.rank].append(message)
            else:
                self.deliver(ctx, [message])

        return _columnar_intersect_handler

    def drain(self) -> bool:
        """Intersect and deliver every rank's stage; True when any was staged."""
        delivered = False
        for ctx in self.dodgr.world.ranks:
            messages = self.pending[ctx.rank]
            if messages:
                self.pending[ctx.rank] = []
                self.deliver(ctx, messages)
                delivered = True
        return delivered

    def clear(self) -> None:
        """Drop every staged message (an aborted or crashed phase)."""
        self.pending = [[] for _ in self.pending]

    def deliver(self, ctx, messages: Sequence[_Candidates]) -> None:
        """One row-kernel call per stream, one batch for all of ``messages``."""
        dodgr = self.dodgr
        dest = dodgr.csr(ctx)
        streams: Dict[Any, List[int]] = {}
        for index, message in enumerate(messages):
            streams.setdefault(message.new_entries, []).append(index)
        matched = []
        matches = 0
        for new_entries, members in streams.items():
            parts = [messages[i] for i in members]
            source_keys, starts, ends, positions = _spans(parts)
            q_rows = _cat([part.src.tgt_ids[part.qpositions] for part in parts])
            q_rows = dodgr.rows_by_order_id()[q_rows]
            if new_entries is None:
                adjacency = row_adjacency(dest, dodgr.order_count())
            else:
                adjacency, new_to_orig = new_entries(ctx.rank)
            result = self.row_kernel(
                source_keys, starts, ends, q_rows, adjacency, matches=self.callback is not None
            )
            ctx.add_compute(int(result.comparisons))
            matches += len(result)
            if not len(result) or self.callback is None:
                continue
            seg = _np.asarray(result.seg, dtype=_np.int64)
            adj_pos = _np.asarray(result.adj_pos, dtype=_np.int64)
            if new_entries is not None:
                # Filtered new-entry positions back to full CSR edge positions.
                adj_pos = new_to_orig[adj_pos]
            src_pos = _np.asarray(result.cand_pos, dtype=_np.int64)
            if positions is not None:
                src_pos = positions[src_pos]
            if len(parts) == 1:
                # A lone message (every full-survey delivery): one source,
                # so its column bases are scalars.
                (only,) = parts
                sequence = members[0]
                rows, qpositions = only.rows[seg], only.qpositions[seg]
                row_base, edge_base = only.src.row_base, only.src.edge_base
            else:
                # Each match's message, whose source places it in the global columns.
                part = _np.searchsorted(_np.cumsum([len(p.rows) for p in parts]), seg, side="right")
                sequence = _np.asarray(members, dtype=_np.int64)[part]
                rows = _cat([p.rows for p in parts])[seg]
                qpositions = _cat([p.qpositions for p in parts])[seg]
                row_base = _np.array([p.src.row_base for p in parts], dtype=_np.int64)[part]
                edge_base = _np.array([p.src.edge_base for p in parts], dtype=_np.int64)[part]
            matched.append(
                (
                    sequence,
                    rows + row_base,
                    q_rows[seg] + dest.row_base,
                    qpositions + edge_base,
                    src_pos + edge_base,
                    adj_pos + dest.edge_base,
                )
            )
        if not matches:
            return
        ctx.add_counter("triangles_found", matches)
        if self.callback is None:
            return
        ctx.add_compute(self.per_triangle_compute * matches)
        if len(matched) == 1:
            columns = matched[0][1:]
        else:
            # Handled order: a stable sort on message sequence across streams.
            sequence = _cat([_np.broadcast_to(m[0], len(m[1])) for m in matched])
            order = stable_key_order(sequence)
            columns = [_cat(column)[order] for column in list(zip(*matched))[1:]]
        batch = columnar_push_batch(dodgr, *columns)
        deliver_batch(ctx, batch, self.callback, self.batch_callback)


def make_columnar_intersect_handler(
    dodgr: DODGraph,
    row_kernel,
    callback: Optional["TriangleCallback"],
    batch_callback,
    per_triangle_compute: int,
):
    """The full survey's columnar push handler: each message delivered as it
    arrives (:class:`CandidateStage` with ``staged=False``)."""
    stage = CandidateStage(dodgr, row_kernel, callback, batch_callback, per_triangle_compute)
    return stage.handler()


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
    ``Adj^m_+(q)`` only.  Both stage into one :class:`CandidateStage`,
    whose ``drain`` the phase runs when its inboxes run dry.
    """
    stage = CandidateStage(
        dodgr,
        select_row_kernel(kernel, kernel_tier),
        callback,
        resolve_batch_callback(callback),
        per_triangle_compute,
        staged=True,
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
    (row-major): the prologue the columnar push drive and dry run share.
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
    stream = wedge_stream(csr)
    if stream is None:
        return
    rows, qpositions = stream
    q_ids = csr.tgt_ids[qpositions]
    remote = csr.tgt_owner[qpositions] != rank
    push_mask[q_ids[~remote]] = True
    if not remote.any():
        return
    rows, qpositions, q_ids = rows[remote], qpositions[remote], q_ids[remote]
    order, starts, ends = first_appearance_groups(q_ids)
    suffix_sums = _np.concatenate(
        ([0], _np.cumsum((csr.indptr[rows + 1] - 1 - qpositions)[order]))
    )
    totals = suffix_sums[ends] - suffix_sums[starts]
    first_pos = qpositions[order[starts]]
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
