"""Delta-survey drivers: the two styles' candidate streams of one batch.

:func:`repro.core.incremental.incremental_triangle_survey` surveys exactly
the triangles containing at least one edge of an applied batch
(:class:`~repro.graph.delta.AppliedDelta`), via the wedge decomposition
documented in :mod:`repro.core.incremental`, as a one-phase
:class:`~repro.core.engine.program.SurveyProgram`.  Its two handlers are
the push survey's own
(:func:`~repro.core.engine.driver.make_delta_intersect_handlers`: the
new-check one over the batch's new entries, the columnar pair staging per
rank until the phase drains); this module holds the per-rank drives the
registry's ``style`` field selects:

* ``legacy`` — the scalar reference: one sized RPC per (wedge, stream)
  carrying the filtered candidate tuples (the parity oracle);
* ``columnar`` — candidate selection as boolean array masks over the CSR
  edge positions, one coalesced RPC per (source rank, destination rank,
  stream) through the push drive's own send tail
  (:func:`~repro.core.engine.driver.send_wedges`).  Every replaced legacy
  message is accounted — in legacy send order, through the real buffer
  bank — at its exact serialized size.
"""

from __future__ import annotations

from typing import List

from ...graph.delta import AppliedDelta
from ...graph.dodgr import DODGraph
from ...runtime.serialization import uvarint_size_array
from .driver import legacy_push_payload_overhead, send_wedges
from .segments import positions_of_ids, ragged_gather

import numpy as _np

__all__ = [
    "new_source_vertices",
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
# Columnar engine
# ---------------------------------------------------------------------------


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

    sends = []
    for handler, qpos, counts, cand in (
        (h_full, full_qpos, full_counts, full_cand),
        (h_new, new_qpos, new_counts, new_cand),
    ):
        if qpos.size == 0:
            continue
        cand_bytes = csr.cand_size_cumsum[cand + 1] - csr.cand_size_cumsum[cand]
        byte_cumsum = _np.concatenate(([0], _np.cumsum(cand_bytes)))
        offsets = _np.concatenate(([0], _np.cumsum(counts)))
        rows = row_of_edge[qpos]
        sizes = (
            legacy_push_payload_overhead(handler.handler_id)
            + csr.row_wire_sizes[rows]
            + csr.tgt_wire_sizes[qpos]
            + uvarint_size_array(counts)
            + byte_cumsum[offsets[1:]]
            - byte_cumsum[offsets[:-1]]
        )
        sends.append((handler, rows, qpos, csr.tgt_owner[qpos], sizes, counts, cand))
    if not sends:
        return
    # Account every replaced legacy message in legacy send order: ascending
    # wedge position (row-major), the full-check message before the
    # new-check message of the same wedge — a stable sort of the streams
    # concatenated full first (a stream holds each wedge once).
    order = _np.argsort(_np.concatenate([send[2] for send in sends]), kind="stable")
    ctx.account_rpc_bulk(
        _np.concatenate([send[3] for send in sends])[order],
        _np.concatenate([send[4] for send in sends])[order],
    )
    for send in sends:
        send_wedges(ctx, dodgr, csr, *send)


# ---------------------------------------------------------------------------
# Legacy (scalar reference) engine
# ---------------------------------------------------------------------------


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
