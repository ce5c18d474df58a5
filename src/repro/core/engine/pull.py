"""Pull-phase machinery: how the production engine delivers and intersects
pulled adjacency.

The Push-Pull pull phase ships ``Adj^m_+(q)`` from its owner to the ranks
on ``q``'s pull list (coalesced: at most once per requesting rank); the
requester intersects it locally against every pivot of its own that wanted
``q``.  One RPC flies per (owner rank, requesting rank) pair carrying every
pulled adjacency row at once; the requester holds them in the phase's
:class:`~repro.core.engine.driver.CandidateStage`, which, when the inboxes
run dry, finds every waiting wedge through the CSR's inverted target index,
intersects every owner's rows in one row-kernel call per rank and delivers
the triangles to the reducer as one
:class:`~repro.graph.metadata.TriangleBatch`.  Every replaced per-(q,
requester) delivery of the scalar oracle (:mod:`repro.oracle`) is
accounted — in its send order — at its exact serialized size, so the
Table 3/Table 4 columns stay byte-identical.  The owner orders and sizes
its deliveries as arrays, from the dry run's ``(q_rows, requesters)``
column chunks.
"""

from __future__ import annotations

from ...graph.dodgr import DODGraph
from ...runtime.serialization import uvarint_size_array
from .driver import CandidateStage, legacy_push_payload_overhead
from .segments import first_appearance_groups, ragged_gather

import numpy as _np

__all__ = ["make_columnar_pull_handler", "drive_columnar_pull"]


def make_columnar_pull_handler(stage: CandidateStage):
    """Pull-phase delivery, columnar: one RPC per (owner, requester) pair.

    ``q_rows`` indexes every adjacency row this owner rank is delivering
    to this requester, in the oracle's send order.  The handler holds it in
    ``stage`` (built with ``local_meta_r``: the shipped rows omit meta(r)),
    which finds the local wedges waiting on every owner's rows at once —
    each waiting pivot's suffix one span of the local ``tgt_ids`` — when the
    inboxes drain.
    """
    dodgr = stage.dodgr

    def _pull_deliver_columnar_handler(ctx, owner_csr, q_rows) -> None:
        ctx.add_counter("vertices_pulled", len(q_rows))
        stage.stage(ctx, 0, dodgr.csr(ctx), owner_csr, None, None, q_rows)

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
