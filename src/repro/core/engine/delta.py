"""Delta-survey program: the candidate streams of one applied batch.

:func:`repro.core.incremental.incremental_triangle_survey` surveys exactly
the triangles containing at least one edge of an applied batch
(:class:`~repro.graph.delta.AppliedDelta`), via the wedge decomposition
documented in :mod:`repro.core.incremental`, as the one-phase
:class:`~repro.core.engine.program.SurveyProgram` that
:func:`build_delta_program` compiles.  Its two handlers are the push
survey's own (:func:`~repro.core.engine.driver.make_columnar_delta_handlers`:
the new-check one over the batch's new entries, the pair staging per rank
until the phase drains).  Its drive, :func:`drive_columnar_delta`, selects
candidates as boolean array masks over the CSR edge positions and sends one
coalesced RPC per (source rank, destination rank, stream) through the push
drive's own send tail (:func:`~repro.core.engine.driver.send_wedges`).
Every replaced per-wedge message of the scalar oracle
(:func:`repro.oracle.drive_legacy_delta`) is accounted — in its send order,
through the real buffer bank — at its exact serialized size.
"""

from __future__ import annotations

from typing import Callable, Tuple

from ...graph.delta import AppliedDelta
from ...graph.dodgr import DODGraph
from ...runtime.serialization import uvarint_size_array
from .driver import legacy_push_payload_overhead, make_columnar_delta_handlers, send_wedges
from .program import SurveyProgram
from .registry import EngineSpec, check_supported, oracle_builder, survey_features
from .request import SurveyRequest
from .segments import kept_offsets, positions_of_ids, ragged_gather, stable_key_order

import numpy as _np

__all__ = ["build_delta_program"]


def build_delta_program(
    request: SurveyRequest, spec: EngineSpec, delta: AppliedDelta
) -> Tuple[SurveyProgram, Callable[[], None]]:
    """Compile the delta survey of ``delta`` to a one-phase program.

    Returns the program and the function that releases what it holds: its
    two handlers' registry slots (ids stay allocated, so later accounted
    message sizes are unchanged) and anything still staged.  Handler
    registration order is fixed — full check first, new check second — as
    in the oracle's program, so handler ids and every accounted message
    size match.
    """
    check_supported(survey_features(request, spec) | {"incremental"})
    oracle = oracle_builder(spec, "delta")
    if oracle is not None:
        return oracle(request, spec, delta)
    dodgr = request.dodgr
    world = dodgr.world
    full_check, new_check, stage = make_columnar_delta_handlers(
        dodgr,
        request.kernel,
        request.callback,
        request.per_triangle_compute(),
        request.kernel_tier,
        delta,
    )
    h_full = world.register_handler(full_check)
    h_new = world.register_handler(new_check)

    def drive(ctx) -> None:
        drive_columnar_delta(ctx, dodgr, delta, h_full, h_new)

    def release() -> None:
        world.registry.release(h_full)
        world.registry.release(h_new)
        stage.clear()

    program = SurveyProgram(
        algorithm="incremental_push",
        request=request,
        spec=spec,
        phases=[(request.phase_name, drive)],
    )
    return program, release


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
    inv_offsets, inv_pos, row_of_edge = csr.inverted_target_index(dodgr.order_count())

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
    # old positions only (a subsequence, so still grouped by target id).
    old = ~mask[inv_pos]
    old_offsets, old_pos = kept_offsets(inv_offsets, old), inv_pos[old]
    stride = _np.int64(dodgr.order_count())
    new_keys = delta.directed_edge_keys()
    pair_q, pos_q = positions_of_ids(old_offsets, old_pos, new_keys // stride)
    pair_r, pos_r = positions_of_ids(old_offsets, old_pos, new_keys % stride)
    # Join on (pair, pivot row): a row holds a target at most once, so the
    # composite keys are unique per side.
    comp_q = pair_q * _np.int64(csr.num_rows) + row_of_edge[pos_q]
    comp_r = pair_r * _np.int64(csr.num_rows) + row_of_edge[pos_r]
    oq = stable_key_order(comp_q)
    comp_q, pos_q = comp_q[oq], pos_q[oq]
    orr = stable_key_order(comp_r)
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
    order = stable_key_order(_np.concatenate([send[2] for send in sends]))
    ctx.account_rpc_bulk(
        _np.concatenate([send[3] for send in sends])[order],
        _np.concatenate([send[4] for send in sends])[order],
    )
    for send in sends:
        send_wedges(ctx, dodgr, csr, *send)
