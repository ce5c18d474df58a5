"""Pull-phase machinery: how the production engine delivers and intersects
pulled adjacency.

The Push-Pull pull phase ships ``Adj^m_+(q)`` from its owner to the ranks
on ``q``'s pull list (coalesced: at most once per requesting rank); the
requester intersects it locally against every pivot of its own that wanted
``q``.  One RPC flies per (owner rank, requesting rank) pair carrying every
pulled adjacency row at once; the requester finds its waiting wedges
through the CSR's inverted target index, intersects them with one
row-kernel call and delivers the triangles to the reducer as one
:class:`~repro.graph.metadata.TriangleBatch`.  Every replaced per-(q,
requester) delivery of the scalar oracle (:mod:`repro.oracle`) is
accounted — in its send order — at its exact serialized size, so the
Table 3/Table 4 columns stay byte-identical.  The owner orders and sizes
its deliveries as arrays, from the dry run's ``(q_rows, requesters)``
column chunks.
"""

from __future__ import annotations

from typing import Optional

from ...graph.dodgr import DODGraph
from ...runtime.serialization import uvarint_size_array
from .driver import (
    columnar_push_batch,
    deliver_batch,
    legacy_push_payload_overhead,
    row_adjacency,
)
from .request import TriangleCallback
from .segments import first_appearance_groups, positions_of_ids, ragged_gather

import numpy as _np

__all__ = ["make_columnar_pull_handler", "drive_columnar_pull"]


def make_columnar_pull_handler(
    dodgr: DODGraph,
    row_kernel,
    callback: Optional["TriangleCallback"],
    batch_callback,
    per_triangle_compute: int,
):
    """Pull-phase delivery, columnar: one RPC per (owner, requester) pair.

    ``q_rows`` indexes every adjacency row this owner rank is delivering
    to this requester, in the oracle's send order.  The inverted target
    index yields every local wedge waiting on a pulled ``q`` in the order
    the oracle's dry run records them.  Each waiting pivot's suffix
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


def drive_columnar_pull(ctx, dodgr: DODGraph, handler, pull_list) -> None:
    """Run one owner rank's pull deliveries, one RPC per requesting rank.

    ``pull_list`` holds ``(q_rows, requesters)`` column chunks in arrival
    order.  Each replaced delivery is accounted in the oracle's send order —
    ``q`` by first insertion, requesters by arrival — at the exact
    serialized size of the per-(q, requester) message (same wire framing as
    the push accounting: outer pair + argument list + payload list).
    """
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
