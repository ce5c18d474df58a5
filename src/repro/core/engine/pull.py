"""Pull-phase machinery: how engines deliver and intersect pulled adjacency.

The Push-Pull pull phase ships ``Adj^m_+(q)`` from its owner to the ranks
on ``q``'s pull list (coalesced: at most once per requesting rank); the
requester intersects it locally against every pivot of its own that wanted
``q``.  One strategy per engine style:

* ``legacy`` — one sized RPC per (q, requester), one scalar merge per
  waiting pivot;
* ``columnar`` — one RPC per (owner rank, requesting rank) pair carrying
  every pulled adjacency row at once, row-kernel intersection, triangles
  delivered to the reducer as one
  :class:`~repro.graph.metadata.TriangleBatch`; every replaced
  per-(q, requester) delivery is accounted — in legacy send order — at its
  exact serialized size, so the Table 3/Table 4 columns stay
  byte-identical.  The owner orders and sizes its deliveries as arrays;
  the requester finds its waiting wedges through the CSR's inverted
  target index.

The legacy handler factory closes over the run's driver-side
``pivots_by_target`` state (owned by the Push-Pull runner); drivers consume
the owner-side ``pull_lists`` — ``{q: [requester, ...]}`` dicts, or the
columnar dry run's ``(q_rows, requesters)`` column chunks.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ...graph.dodgr import DODGraph, entry_key
from ...graph.metadata import TriangleMetadata
from ...runtime.serialization import uvarint_size_array
from ..intersection import INTERSECTION_KERNELS, row_kernel as select_row_kernel
from .driver import (
    candidate_key,
    columnar_push_batch,
    deliver_batch,
    legacy_push_payload_overhead,
    resolve_batch_callback,
    row_adjacency,
)
from .request import TriangleCallback
from .segments import first_appearance_groups, positions_of_ids, ragged_gather

import numpy as _np

__all__ = ["make_pull_handler", "drive_pull"]


def _make_legacy_pull_handler(
    dodgr: DODGraph,
    intersect,
    callback: Optional["TriangleCallback"],
    per_triangle_compute: int,
    pivots_by_target,
):
    """Pull-phase: Adj^m_+(q) arrives at a source rank; intersect locally."""

    def _pull_deliver_handler(
        ctx, q: Any, meta_q: Any, adjacency_q: List[tuple]
    ) -> None:
        ctx.add_counter("vertices_pulled", 1)
        store = dodgr.local_store(ctx)
        wanting_pivots = pivots_by_target[ctx.rank].get(q, ())
        for p, q_index in wanting_pivots:
            record = store.get(p)
            if record is None:
                continue
            adjacency_p = record["adj"]
            meta_p = record["meta"]
            meta_pq = adjacency_p[q_index][2]
            suffix = adjacency_p[q_index + 1 :]
            ctx.add_counter("wedge_checks", len(suffix))
            result = intersect(suffix, adjacency_q, entry_key, candidate_key)
            ctx.add_compute(result.comparisons)
            for suff_idx, pulled_idx in result.matches:
                r, _d_r, meta_pr, meta_r = suffix[suff_idx]
                meta_qr = adjacency_q[pulled_idx][2]
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

    return _pull_deliver_handler


def _make_columnar_pull_handler(
    dodgr: DODGraph,
    row_kernel,
    callback: Optional["TriangleCallback"],
    batch_callback,
    per_triangle_compute: int,
):
    """Pull-phase delivery, columnar: one RPC per (owner, requester) pair.

    ``q_rows`` indexes every adjacency row this owner rank is delivering
    to this requester, in the owner's legacy send order.  The inverted
    target index yields every local wedge waiting on a pulled ``q`` in the
    legacy style's ``pivots_by_target`` order.  Each waiting pivot's suffix
    becomes one segment of a single row-kernel call against the owner's CSR
    rows, and the closing triangles are handed to the reducer as one
    :class:`TriangleBatch`.
    """

    def _pull_deliver_columnar_handler(ctx, owner_csr, q_rows) -> None:
        ctx.add_counter("vertices_pulled", len(q_rows))
        csr = dodgr.csr(ctx)
        inv_ids, inv_pos, row_of_edge = csr.inverted_target_index()
        which, qpositions = positions_of_ids(
            inv_ids, inv_pos, owner_csr.row_order_ids[q_rows]
        )
        rows = row_of_edge[qpositions]
        ends = csr.indptr[rows + 1]
        # A q that closes its row has no candidate suffix; the scalar dry
        # runs never record such a pivot.
        waiting = qpositions + 1 < ends
        rows, qpositions, ends = rows[waiting], qpositions[waiting], ends[waiting]
        seg_q_rows = q_rows[which[waiting]]
        flat_src_pos, offsets = ragged_gather(qpositions + 1, ends - qpositions - 1)
        ctx.add_counter("wedge_checks", int(flat_src_pos.size))
        if rows.size == 0:
            return
        adjacency = row_adjacency(owner_csr, dodgr.order_count())
        result = row_kernel(csr.tgt_ids[flat_src_pos], offsets, seg_q_rows, adjacency)
        ctx.add_compute(int(result.comparisons))
        matches = len(result)
        if not matches:
            return
        ctx.add_counter("triangles_found", matches)
        if callback is None:
            return
        ctx.add_compute(per_triangle_compute * matches)
        wedge = _np.asarray(result.seg, dtype=_np.int64)
        pr = flat_src_pos[_np.asarray(result.cand_pos, dtype=_np.int64)] + csr.edge_base
        batch = columnar_push_batch(
            dodgr,
            rows[wedge] + csr.row_base,
            seg_q_rows[wedge] + owner_csr.row_base,
            qpositions[wedge] + csr.edge_base,
            pr,
            _np.asarray(result.adj_pos, dtype=_np.int64) + owner_csr.edge_base,
            local_meta_r=True,
        )
        deliver_batch(ctx, batch, callback, batch_callback)

    return _pull_deliver_columnar_handler


def make_pull_handler(
    style: str,
    dodgr: DODGraph,
    kernel: str,
    callback: Optional["TriangleCallback"],
    per_triangle_compute: int,
    pivots_by_target,
    kernel_tier: Optional[str] = None,
):
    """Build the requester-side pull handler for an engine's ``style``.

    ``kernel_tier`` selects the row kernel implementation tier, as in
    :func:`~repro.core.engine.driver.make_push_intersect_handler`.  The
    columnar style ignores ``pivots_by_target``.
    """
    if style == "columnar":
        return _make_columnar_pull_handler(
            dodgr,
            select_row_kernel(kernel, kernel_tier),
            callback,
            resolve_batch_callback(callback),
            per_triangle_compute,
        )
    return _make_legacy_pull_handler(
        dodgr, INTERSECTION_KERNELS[kernel], callback, per_triangle_compute,
        pivots_by_target,
    )


def drive_pull(style: str, ctx, dodgr: DODGraph, handler, pull_list) -> None:
    """Run one owner rank's pull deliveries at the engine's granularity.

    The legacy style takes ``pull_list`` as a dict mapping each
    locally owned ``q`` to the source ranks that should receive
    ``Adj^m_+(q)`` and send one sized RPC per (q, requester).  The columnar
    style takes ``(q_rows, requesters)`` column chunks in arrival order and
    coalesces one RPC per requesting rank, accounting each replaced delivery
    — in legacy send order: ``q`` by first insertion, requesters by arrival
    — at the exact serialized size of the legacy message (same wire framing
    as the push accounting: outer pair + argument list + payload list).
    """
    if style == "columnar":
        if not pull_list:
            return
        csr = dodgr.csr(ctx.rank)
        q_rows, requesters = (_np.concatenate(column) for column in zip(*pull_list))
        order, starts, ends = first_appearance_groups(q_rows)
        send_order = order[ragged_gather(starts, ends - starts)[0]]
        q_rows = q_rows[send_order]
        lo, hi = csr.indptr[q_rows], csr.indptr[q_rows + 1]
        # The pulled payload omits meta(r): the requesting rank stores
        # meta(r) locally for every r it may close with.
        sizes = (
            legacy_push_payload_overhead(handler.handler_id)
            + csr.row_wire_sizes[q_rows]
            + uvarint_size_array(hi - lo)
            + csr.cand_size_cumsum[hi]
            - csr.cand_size_cumsum[lo]
        )
        ctx.send_coalesced(handler, requesters[send_order], sizes, (csr,), (q_rows,))
        return
    store = dodgr.local_store(ctx)
    for q, requesters in pull_list.items():
        record = store.get(q)
        if record is None:
            continue
        meta_q = record["meta"]
        # The pulled payload omits meta(r): the requesting rank stores
        # meta(r) locally for every r in its pivots' adjacency lists.
        payload = [(entry[0], entry[1], entry[2]) for entry in record["adj"]]
        for source_rank in requesters:
            ctx.async_call_sized(source_rank, handler, q, meta_q, payload)
