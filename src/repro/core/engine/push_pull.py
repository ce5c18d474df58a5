"""Push-Pull survey runner: dry run, push and pull phases over the engine layer.

Section 4.4 of the paper as one program, parameterised by an
:class:`~repro.core.engine.registry.EngineSpec`:

1. **Dry run** — every rank counts, per target vertex ``q``, the candidate
   edges it would push; owners compare against ``|Adj+(q)|`` and either
   record the source on ``q``'s pull list or advise it to push.
   ``spec.style == "columnar"`` coalesces the proposals into one RPC per
   (source, dest) rank pair, accounted at exact legacy sizes, and builds,
   decides and answers them as int64 columns over the CSR, with no Python
   loop over wedges, targets or pivots.
2. **Push** — identical to Push-Only at ``spec.style`` granularity,
   skipping targets that will be pulled.
3. **Pull** — owners deliver ``Adj^m_+(q)`` at ``spec.style``
   granularity (see :mod:`repro.core.engine.pull`).

Handler registration order is identical for every engine so that handler
ids — and therefore the serialized size of every dry-run message and the
accounted size of every push/pull message — match the legacy run.  The
per-rank driver state (pivot maps, push targets, pull lists) is indexed
by rank and only ever touched from that rank's drive or handlers, which is
what lets the process backend shard ranks across workers without locks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as _np

from .driver import (
    drive_columnar_dry_run,
    drive_push,
    make_push_intersect_handler,
)
from .program import SurveyProgram, execute_program
from .pull import drive_pull, make_pull_handler
from .registry import EngineSpec, check_supported, survey_features
from .request import (
    DRY_RUN_PHASE,
    PULL_PHASE,
    PUSH_PHASE,
    SurveyRequest,
    SurveyResult,
)

__all__ = ["build_push_pull_program", "run_push_pull_survey"]


def build_push_pull_program(request: SurveyRequest, spec: EngineSpec) -> SurveyProgram:
    """Compile the Push-Pull survey to a three-phase :class:`SurveyProgram`."""
    check_supported(survey_features(request, spec))
    dodgr = request.dodgr
    if request.storage is not None:
        dodgr.configure_storage(request.storage)
    world = dodgr.world
    nranks = world.nranks
    callback = request.callback
    per_triangle_compute = request.per_triangle_compute()

    columnar = spec.style == "columnar"

    # Per-rank driver-side state for this run -------------------------------
    # pivots_by_target[rank][q] = list of (pivot vertex, index of q in its adj)
    # (legacy dry run only: the columnar pull handler needs no such map)
    pivots_by_target: List[Dict[Any, List[Tuple[Any, int]]]] = [dict() for _ in range(nranks)]
    # push_targets[rank] = targets this rank was told to push to: a vertex
    # set, or (columnar dry run) a boolean mask over dense <+ order ids
    push_targets: List[Any] = [
        _np.zeros(dodgr.order_count(), dtype=bool) if columnar else set()
        for _ in range(nranks)
    ]
    # pull_lists[rank][q] = list of source ranks that should receive Adj^m_+(q);
    # (columnar dry run) a list of (q rows, requesters) column chunks as they arrive
    pull_lists: List[Any] = [[] if columnar else {} for _ in range(nranks)]

    # ------------------------------------------------------------------
    # Dry-run RPC handlers (engine-independent decision logic)
    # ------------------------------------------------------------------
    def _propose_handler(ctx, q: Any, source_rank: int, candidate_count: int) -> None:
        """Owner of q decides: pull (remember source) or advise push."""
        record = dodgr.local_store(ctx).get(q)
        out_degree = len(record["adj"]) if record is not None else 0
        if record is not None and out_degree < candidate_count:
            pull_lists[ctx.rank].setdefault(q, []).append(source_rank)
        else:
            ctx.async_call_sized(source_rank, _advise_push_handler, q)

    def _advise_push_handler(ctx, q: Any) -> None:
        push_targets[ctx.rank].add(q)

    def _propose_columnar_handler(ctx, source_rank: int, src_csr, qpositions, totals) -> None:
        """One (source, dest) pair's proposals decided in one comparison:
        pulled rows join the pull list as a chunk, the rest are advised in one
        batched reply accounted as the scalar advise messages it replaces."""
        indptr = dodgr.csr(ctx).indptr
        q_ids = src_csr.tgt_ids[qpositions]
        q_rows = dodgr.rows_by_order_id()[q_ids]
        pull = indptr[q_rows + 1] - indptr[q_rows] < totals
        if pull.any():
            rows = q_rows[pull]
            pull_lists[ctx.rank].append((rows, _np.full_like(rows, source_rank)))
        advised = ~pull
        if advised.any():
            sizes = (
                world.registry.call_size(h_advise, ())
                + src_csr.tgt_vertex_wire[qpositions[advised]]
            )
            ctx.send_coalesced(
                h_advise, _np.full_like(sizes, source_rank), sizes, (), (q_ids[advised],)
            )

    def _advise_columnar_handler(ctx, q_ids) -> None:
        push_targets[ctx.rank][q_ids] = True

    # Handler registration order is identical in every mode so that handler
    # ids — and therefore the serialized size of every dry-run message and
    # the accounted size of every push/pull message — match the legacy run.
    # The columnar dry run adds one slot, last: its advise handler takes the
    # scalar one's (whose id sizes every reply), and the scalar propose
    # handler keeps the first only for the id that sizes every proposal.
    h_propose = world.register_handler(_propose_handler)
    h_advise = world.register_handler(
        _advise_columnar_handler if columnar else _advise_push_handler
    )
    h_intersect = world.register_handler(
        make_push_intersect_handler(
            spec.style, dodgr, request.kernel, callback, per_triangle_compute,
            kernel_tier=request.kernel_tier,
        )
    )
    # Occupies the legacy pull handler's registration slot, so the id every
    # accounted pull message serializes is the legacy one.
    h_pull_deliver = world.register_handler(
        make_pull_handler(
            spec.style,
            dodgr,
            request.kernel,
            callback,
            per_triangle_compute,
            pivots_by_target,
            kernel_tier=request.kernel_tier,
        )
    )
    if columnar:
        # Registered last: its id never crosses the accounted wire, so the
        # earlier ids (and every accounted legacy message size) still match
        # the legacy run exactly.
        h_propose_columnar = world.register_handler(_propose_columnar_handler)

    # ------------------------------------------------------------------
    # Phase 1: Push vs Pull dry run.
    # ------------------------------------------------------------------
    def drive_dry_run(ctx) -> None:
        rank = ctx.rank
        if columnar:
            drive_columnar_dry_run(
                ctx, dodgr, h_propose, h_propose_columnar, push_targets[rank]
            )
            # Coalesced proposals execute in the barrier's first delivery
            # sweep — before its flush pass.  Flush now, where the legacy
            # run's barrier flushes the proposal buffers, so the advise
            # replies meet empty buffers in both paths and the flush-window
            # split (wire_messages, envelope bytes) matches — unless a
            # proposal buffer overflowed mid-drive (the BatchedCall bound).
            ctx.buffers.flush_all()
            return
        store = dodgr.local_store(ctx)
        candidate_totals: Dict[Any, int] = {}
        targets = pivots_by_target[rank]
        for p, record in store.items():
            adjacency = record["adj"]
            if len(adjacency) < 2:
                continue
            for i in range(len(adjacency) - 1):
                q = adjacency[i][0]
                suffix_len = len(adjacency) - 1 - i
                targets.setdefault(q, []).append((p, i))
                if dodgr.owner(q) == rank:
                    # Local targets are always pushed (zero wire cost).
                    push_targets[rank].add(q)
                else:
                    candidate_totals[q] = candidate_totals.get(q, 0) + suffix_len
        for q, total in candidate_totals.items():
            ctx.async_call_sized(dodgr.owner(q), h_propose, q, rank, total)

    # ------------------------------------------------------------------
    # Phase 2: Push phase (skip targets that will be pulled).
    # ------------------------------------------------------------------
    def drive_push_phase(ctx) -> None:
        drive_push(spec.style, ctx, dodgr, h_intersect, allowed=push_targets[ctx.rank])

    # ------------------------------------------------------------------
    # Phase 3: Pull phase (owners broadcast adjacency lists, coalesced).
    # ------------------------------------------------------------------
    def drive_pull_phase(ctx) -> None:
        drive_pull(spec.style, ctx, dodgr, h_pull_deliver, pull_lists[ctx.rank])

    return SurveyProgram(
        algorithm="push_pull",
        request=request,
        spec=spec,
        phases=[
            (DRY_RUN_PHASE, drive_dry_run),
            (PUSH_PHASE, drive_push_phase),
            (PULL_PHASE, drive_pull_phase),
        ],
    )


def run_push_pull_survey(request: SurveyRequest, spec: EngineSpec) -> SurveyResult:
    """Run the Push-Pull triangle survey described by ``request`` on ``spec``."""
    if request.reset_stats:
        request.dodgr.world.reset_stats()
    return execute_program(build_push_pull_program(request, spec))
