"""Delta-survey machinery: the incremental engines' handlers and drivers.

:func:`repro.core.incremental.incremental_triangle_survey` surveys exactly
the triangles containing at least one edge of an applied batch
(:class:`~repro.graph.delta.AppliedDelta`), via the wedge decomposition
documented in :mod:`repro.core.incremental`.  This module holds the two
engine implementations the registry's ``style`` field selects:

* ``legacy`` — the scalar reference: one sized RPC per (wedge, stream)
  carrying the filtered candidate tuples, intersected per message with the
  scalar kernels (the parity oracle);
* ``columnar`` — candidate selection as boolean array masks over the CSR
  edge positions, one coalesced RPC per (source rank, destination rank,
  stream), row-kernel intersection, lazy
  :class:`~repro.graph.metadata.TriangleBatch` delivery.  Every replaced
  legacy message is accounted — in legacy send order, through the real
  buffer bank — at its exact serialized size.

Both compose the same shared driver core as the full-survey engines
(:mod:`repro.core.engine.driver`, :mod:`repro.core.engine.segments`).
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Tuple

from ...graph.delta import AppliedDelta
from ...graph.dodgr import DODGraph, entry_key
from ...graph.metadata import TriangleMetadata
from ...runtime.serialization import uvarint_size_array
from ..intersection import RowAdjacency
from .driver import (
    candidate_key,
    columnar_push_batch,
    deliver_batch,
    row_adjacency,
)
from .request import TriangleCallback
from .segments import positions_of_ids, ragged_gather

import numpy as _np

__all__ = [
    "new_source_vertices",
    "make_delta_columnar_handler",
    "make_delta_legacy_handlers",
    "drive_columnar_delta",
    "drive_legacy_delta",
]


def new_source_vertices(delta: AppliedDelta) -> set:
    """Vertices with at least one new *outgoing* directed edge in the DODGr.

    The directed form of a new undirected pair points from the ``<+``-smaller
    endpoint to the larger, so only the smaller endpoint can own a new entry.
    Old-old wedges targeting any other vertex cannot close a delta triangle.
    """
    order_ids = delta.dodgr.order_ids()
    sources = set()
    for u, v, _meta in delta.edges:
        sources.add(u if order_ids[u] < order_ids[v] else v)
    return sources


# ---------------------------------------------------------------------------
# New-entries adjacency views of the destination CSR (columnar engine)
# ---------------------------------------------------------------------------

#: AppliedDelta -> {rank: (RowAdjacency over new entries, new->orig position map)}
_NEW_ADJ_CACHE: "weakref.WeakKeyDictionary[AppliedDelta, Dict[int, Tuple[RowAdjacency, Any]]]" = (
    weakref.WeakKeyDictionary()
)


def _delta_row_adjacency(delta: AppliedDelta, rank: int) -> Tuple[RowAdjacency, Any]:
    """Rank ``rank``'s new-entries-only :class:`RowAdjacency` plus position map.

    Shares the destination CSR's row indexing (row ``i`` is the same vertex)
    but keeps only the new directed edges, so the row kernels can intersect
    old-old candidate streams against "what changed at q" in one call.  The
    second element maps filtered edge positions back to positions in the full
    CSR edge arrays (for metadata lookup).
    """
    per_delta = _NEW_ADJ_CACHE.setdefault(delta, {})
    cached = per_delta.get(rank)
    if cached is None:
        dodgr = delta.dodgr
        csr = dodgr.csr(rank)
        mask = delta.edge_mask(rank)
        new_to_orig = _np.flatnonzero(mask)
        edge_rows = csr.inverted_target_index()[2]
        new_counts = _np.bincount(edge_rows[mask], minlength=csr.num_rows)
        new_indptr = _np.concatenate(
            ([0], _np.cumsum(new_counts))
        ).astype(_np.int64)
        adjacency = RowAdjacency(
            csr.tgt_ids[new_to_orig], new_indptr, dodgr.order_count()
        )
        cached = (adjacency, new_to_orig)
        per_delta[rank] = cached
    return cached


# ---------------------------------------------------------------------------
# Columnar engine
# ---------------------------------------------------------------------------


class _DeltaStreamResult:
    """A :class:`~repro.core.intersection.RowBatchResult` view with remapped
    adjacency positions (filtered new-entry positions -> full CSR positions)."""

    __slots__ = ("seg", "cand_pos", "adj_pos", "comparisons")

    def __init__(self, result, adj_pos) -> None:
        self.seg = result.seg
        self.cand_pos = result.cand_pos
        self.adj_pos = adj_pos
        self.comparisons = result.comparisons

    def __len__(self) -> int:
        return len(self.seg)


def make_delta_columnar_handler(
    dodgr: DODGraph,
    delta: AppliedDelta,
    row_kernel,
    callback: Optional[TriangleCallback],
    batch_callback,
    per_triangle_compute: int,
    new_only: bool,
):
    """Owner-side handler of one coalesced delta candidate stream.

    One RPC per (source rank, destination rank, stream): ``rows``/
    ``qpositions`` locate the stream's wedges in the source CSR and
    ``flat_src_pos``/``offsets`` its (filtered, per-wedge segmented)
    candidate positions.  ``new_only=False`` intersects against the full
    destination adjacency, ``new_only=True`` against the delta's new entries
    only; either way matched triangles flow to the reducer as one
    :class:`~repro.graph.metadata.TriangleBatch`.
    """

    def _handler(ctx, src_csr, rows, qpositions, flat_src_pos, offsets) -> None:
        ctx.add_counter("wedge_checks", len(flat_src_pos))
        dest_csr = dodgr.csr(ctx)
        q_rows = dodgr.rows_by_order_id()[src_csr.tgt_ids[qpositions]]
        candidate_ids = src_csr.tgt_ids[flat_src_pos]
        if new_only:
            adjacency, new_to_orig = _delta_row_adjacency(delta, ctx.rank)
        else:
            adjacency = row_adjacency(dest_csr, dodgr.order_count())
        result = row_kernel(candidate_ids, offsets, q_rows, adjacency)
        ctx.add_compute(int(result.comparisons))
        matches = len(result)
        if not matches:
            return
        ctx.add_counter("triangles_found", matches)
        if callback is None:
            return
        ctx.add_compute(per_triangle_compute * matches)
        if new_only:
            result = _DeltaStreamResult(
                result, new_to_orig[_np.asarray(result.adj_pos, dtype=_np.int64)]
            )
        batch = columnar_push_batch(
            src_csr, dest_csr, rows, qpositions, q_rows, flat_src_pos, result
        )
        deliver_batch(ctx, batch, callback, batch_callback)

    return _handler


def _sort_wedge_groups(qpos, cand):
    """Group parallel (wedge qpos, candidate pos) pairs by wedge.

    Returns ``(wedge_qpos, counts, flat_cand)``: the distinct wedges in
    ascending qpos order, their candidate counts, and the candidate
    positions concatenated per wedge (ascending within a wedge) — the
    legacy per-wedge message layout.
    """
    order = _np.lexsort((cand, qpos))
    qpos_sorted = qpos[order]
    cand_sorted = cand[order]
    wedge_qpos, counts = _np.unique(qpos_sorted, return_counts=True)
    return wedge_qpos, counts, cand_sorted


def drive_columnar_delta(
    ctx,
    dodgr: DODGraph,
    delta: AppliedDelta,
    h_full,
    h_new,
    overhead_full: int,
    overhead_new: int,
) -> None:
    """Array-native, delta-proportional driver of one rank's candidate streams.

    Never expands the rank's full wedge stream; instead it assembles exactly
    the candidates the legacy engine would send, from the new-edge positions
    outward:

    * wedges whose q edge is new contribute their whole candidate suffix
      (full-check stream);
    * every new edge position also joins, as a *candidate*, each earlier
      old-q wedge of its pivot row (full-check stream);
    * every new directed pair (q, r) is joined against the *old* positions
      of the rank's inverted target index to find the pivot rows holding
      both endpoints through old edges — the old-old wedges it closes
      (new-check stream; on a first batch nothing is old, so no join).

    The three constructions are disjoint and exhaustive, so the messages
    (and their exact serialized sizes, accounted in legacy send order —
    ascending wedge position, full before new) replay the scalar engine
    bit for bit; one batched RPC then flies per (destination rank, stream).
    """
    csr = dodgr.csr(ctx)
    if csr.num_edges == 0:
        return
    indptr = csr.indptr
    mask = delta.edge_mask(ctx.rank)
    new_pos = _np.flatnonzero(mask)
    inv_ids, inv_pos, row_of_edge = csr.inverted_target_index()

    # --- Full-check stream, part 1: q-new wedges carry their whole suffix.
    rows_a = row_of_edge[new_pos]
    suffix_len = indptr[rows_a + 1] - new_pos - 1
    keep = suffix_len > 0
    qpos_a1 = new_pos[keep]
    len_a1 = suffix_len[keep]
    cand_a1, _off = ragged_gather(qpos_a1 + 1, len_a1)
    wedge_a1 = _np.repeat(qpos_a1, len_a1)

    # --- Full-check stream, part 2: each new position is a candidate of
    # every earlier old-q wedge in its row.
    lo_j = indptr[rows_a]
    before = new_pos - lo_j
    wedge_a2, _off = ragged_gather(lo_j, before)
    cand_a2 = _np.repeat(new_pos, before)
    old_q = ~mask[wedge_a2]
    wedge_a2 = wedge_a2[old_q]
    cand_a2 = cand_a2[old_q]

    full_qpos, full_counts, full_cand = _sort_wedge_groups(
        _np.concatenate((wedge_a1, wedge_a2)), _np.concatenate((cand_a1, cand_a2))
    )

    # --- New-check stream: old-old wedges closed by a new (q, r) pair,
    # found by joining both endpoints against the inverted target index's
    # old positions only (a subsequence, so still sorted by target id).
    old = ~mask[inv_pos]
    old_ids, old_pos = inv_ids[old], inv_pos[old]
    stride = _np.int64(dodgr.order_count())
    new_keys = delta.directed_edge_keys()
    pair_q, pos_q = positions_of_ids(old_ids, old_pos, new_keys // stride)
    pair_r, pos_r = positions_of_ids(old_ids, old_pos, new_keys % stride)
    # Join on (pair, pivot row): a row holds a target at most once, so the
    # composite keys are unique per side.
    comp_q = pair_q * _np.int64(csr.num_rows) + row_of_edge[pos_q]
    comp_r = pair_r * _np.int64(csr.num_rows) + row_of_edge[pos_r]
    oq = _np.argsort(comp_q)
    comp_q, pos_q = comp_q[oq], pos_q[oq]
    orr = _np.argsort(comp_r)
    comp_r, pos_r = comp_r[orr], pos_r[orr]
    at = _np.searchsorted(comp_q, comp_r)
    clipped = _np.minimum(at, max(comp_q.size - 1, 0))
    hit = (
        (at < comp_q.size) & (comp_q[clipped] == comp_r)
        if comp_q.size
        else _np.zeros(comp_r.size, dtype=bool)
    )
    wedge_b = pos_q[clipped[hit]] if comp_q.size else _np.empty(0, dtype=_np.int64)
    cand_b = pos_r[hit]
    new_qpos, new_counts, new_cand = _sort_wedge_groups(wedge_b, cand_b)

    streams = []
    for qpos, counts, cand, overhead in (
        (full_qpos, full_counts, full_cand, overhead_full),
        (new_qpos, new_counts, new_cand, overhead_new),
    ):
        if qpos.size == 0:
            streams.append(None)
            continue
        cand_bytes = csr.cand_size_cumsum[cand + 1] - csr.cand_size_cumsum[cand]
        byte_cumsum = _np.concatenate(([0], _np.cumsum(cand_bytes)))
        offsets = _np.concatenate(([0], _np.cumsum(counts)))
        sizes = (
            overhead
            + csr.row_wire_sizes[row_of_edge[qpos]]
            + csr.tgt_wire_sizes[qpos]
            + uvarint_size_array(counts)
            + byte_cumsum[offsets[1:]]
            - byte_cumsum[offsets[:-1]]
        )
        streams.append(
            {
                "qpos": qpos,
                "rows": row_of_edge[qpos],
                "counts": counts,
                "offsets": offsets,
                "cand": cand,
                "sizes": sizes,
                "dests": csr.tgt_owner[qpos],
            }
        )

    live = [s for s in streams if s is not None]
    if not live:
        return
    # Account every replaced legacy message in legacy send order: ascending
    # wedge position (row-major), the full-check message before the
    # new-check message of the same wedge.
    acc_qpos = _np.concatenate([s["qpos"] for s in live])
    acc_kind = _np.concatenate(
        [_np.full(s["qpos"].size, i, dtype=_np.int64) for i, s in enumerate(streams) if s]
    )
    order = _np.lexsort((acc_kind, acc_qpos))
    acc_dests = _np.concatenate([s["dests"] for s in live])[order]
    acc_sizes = _np.concatenate([s["sizes"] for s in live])[order]
    ctx.account_rpc_bulk(acc_dests, acc_sizes)

    for stream, handler in zip(streams, (h_full, h_new)):
        if stream is None:
            continue
        dests = stream["dests"]
        dest_order = _np.argsort(dests, kind="stable")
        dests_sorted = dests[dest_order]
        unique_dests, group_starts = _np.unique(dests_sorted, return_index=True)
        bounds = group_starts.tolist() + [dests_sorted.size]
        # Regroup the candidate sub-stream by destination rank.
        gather, new_offsets = ragged_gather(
            stream["offsets"][:-1][dest_order], stream["counts"][dest_order]
        )
        pos_sorted = stream["cand"][gather]
        rows_sorted = stream["rows"][dest_order]
        qpos_sorted = stream["qpos"][dest_order]
        sizes_sorted = stream["sizes"][dest_order]
        for g, dest in enumerate(unique_dests.tolist()):
            lo, hi = bounds[g], bounds[g + 1]
            ctx.async_call_batched(
                dest,
                handler,
                csr,
                rows_sorted[lo:hi],
                qpos_sorted[lo:hi],
                pos_sorted[new_offsets[lo] : new_offsets[hi]],
                new_offsets[lo : hi + 1] - new_offsets[lo],
                virtual_rpcs=hi - lo,
                virtual_bytes=int(sizes_sorted[lo:hi].sum()),
            )


# ---------------------------------------------------------------------------
# Legacy (scalar reference) engine
# ---------------------------------------------------------------------------


def make_delta_legacy_handlers(
    dodgr: DODGraph,
    intersect,
    callback: Optional[TriangleCallback],
    per_triangle_compute: int,
    new_adj_by_rank,
):
    """Build the scalar reference's (full-check, new-check) handler pair."""

    def _full_intersect_handler(ctx, q, p, meta_p, meta_pq, candidates) -> None:
        """Check filtered candidates against the full Adj^m_+(q)."""
        record = dodgr.local_store(ctx).get(q)
        ctx.add_counter("wedge_checks", len(candidates))
        if record is None:
            return
        adjacency = record["adj"]
        meta_q = record["meta"]
        result = intersect(candidates, adjacency, candidate_key, entry_key)
        ctx.add_compute(result.comparisons)
        for cand_idx, adj_idx in result.matches:
            r, _d_r, meta_pr = candidates[cand_idx]
            _, _, meta_qr, meta_r = adjacency[adj_idx]
            ctx.add_counter("triangles_found", 1)
            if callback is not None:
                ctx.add_compute(per_triangle_compute)
                callback(
                    ctx,
                    TriangleMetadata(
                        p=p, q=q, r=r,
                        meta_p=meta_p, meta_q=meta_q, meta_r=meta_r,
                        meta_pq=meta_pq, meta_pr=meta_pr, meta_qr=meta_qr,
                    ),
                )

    def _new_intersect_handler(ctx, q, p, meta_p, meta_pq, candidates) -> None:
        """Check old-old candidates against only the new entries of Adj^m_+(q)."""
        record = dodgr.local_store(ctx).get(q)
        ctx.add_counter("wedge_checks", len(candidates))
        if record is None:
            return
        filtered = new_adj_by_rank[ctx.rank].get(q, ())
        meta_q = record["meta"]
        entries = [entry for entry, _pos in filtered]
        result = intersect(candidates, entries, candidate_key, entry_key)
        ctx.add_compute(result.comparisons)
        for cand_idx, adj_idx in result.matches:
            r, _d_r, meta_pr = candidates[cand_idx]
            _, _, meta_qr, meta_r = entries[adj_idx]
            ctx.add_counter("triangles_found", 1)
            if callback is not None:
                ctx.add_compute(per_triangle_compute)
                callback(
                    ctx,
                    TriangleMetadata(
                        p=p, q=q, r=r,
                        meta_p=meta_p, meta_q=meta_q, meta_r=meta_r,
                        meta_pq=meta_pq, meta_pr=meta_pr, meta_qr=meta_qr,
                    ),
                )

    return _full_intersect_handler, _new_intersect_handler


def drive_legacy_delta(
    ctx,
    dodgr: DODGraph,
    delta: AppliedDelta,
    h_full,
    h_new,
    new_sources: set,
) -> None:
    """Per-wedge scalar drive of one rank's delta candidate streams."""
    store = dodgr.local_store(ctx)
    for p, record in store.items():
        adjacency = record["adj"]
        if len(adjacency) < 2:
            continue
        meta_p = record["meta"]
        new_flags = [delta.is_new(p, entry[0]) for entry in adjacency]
        # suffix_new[i]: any new flag at position >= i (one reverse
        # pass; keeps quiet high-degree rows O(d), not O(d^2)).
        suffix_new = [False] * (len(adjacency) + 1)
        for j in range(len(adjacency) - 1, -1, -1):
            suffix_new[j] = suffix_new[j + 1] or new_flags[j]
        for i in range(len(adjacency) - 1):
            q, _d_q, meta_pq, _meta_q = adjacency[i]
            q_new = new_flags[i]
            q_has_new_out = q in new_sources
            if not q_new and not q_has_new_out and not suffix_new[i + 1]:
                continue
            full_c: List[tuple] = []
            new_c: List[tuple] = []
            for j in range(i + 1, len(adjacency)):
                entry = adjacency[j]
                candidate = (entry[0], entry[1], entry[2])
                if q_new or new_flags[j]:
                    full_c.append(candidate)
                elif q_has_new_out and delta.is_new(q, entry[0]):
                    new_c.append(candidate)
            if full_c:
                ctx.async_call_sized(
                    dodgr.owner(q), h_full, q, p, meta_p, meta_pq, full_c
                )
            if new_c:
                ctx.async_call_sized(
                    dodgr.owner(q), h_new, q, p, meta_p, meta_pq, new_c
                )
