"""Push-Pull survey runner: dry run, push and pull phases over the engine layer.

Section 4.4 of the paper as one program:

1. **Dry run** — every rank counts, per target vertex ``q``, the candidate
   edges it would push; owners compare against ``|Adj+(q)|`` and either
   record the source on ``q``'s pull list or advise it to push.  The
   proposals coalesce into one RPC per (source, dest) rank pair, accounted
   at the oracle's exact per-target sizes, and are built, decided and
   answered as int64 columns over the CSR, with no Python loop over wedges,
   targets or pivots.
2. **Push** — identical to Push-Only, skipping targets that will be pulled.
3. **Pull** — owners deliver ``Adj^m_+(q)`` (see
   :mod:`repro.core.engine.pull`).

Handler registration order matches the oracle's
(:func:`repro.oracle.build_legacy_push_pull_program`) so that handler ids —
and therefore the serialized size of every dry-run message and the
accounted size of every push/pull message — match the legacy run.  The
per-rank driver state (push target masks, pull lists) is indexed by rank
and only ever touched from that rank's drive or handlers, which is what
lets the process backend shard ranks across workers without locks.
"""

from __future__ import annotations

from typing import Any, List

import numpy as _np

from ..intersection import row_kernel
from .driver import (
    drive_columnar_dry_run,
    drive_columnar_push,
    legacy_push_payload_overhead,
    make_columnar_intersect_handler,
    resolve_batch_callback,
)
from .program import SurveyProgram, execute_program
from .pull import drive_columnar_pull, make_columnar_pull_handler
from .registry import EngineSpec, check_supported, oracle_builder, survey_features
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
    oracle = oracle_builder(spec, "push_pull")
    if oracle is not None:
        return oracle(request, spec)
    world = dodgr.world
    nranks = world.nranks
    callback = request.callback
    kernel = row_kernel(request.kernel, request.kernel_tier)
    batch_callback = resolve_batch_callback(callback)
    per_triangle_compute = request.per_triangle_compute()

    # Per-rank driver-side state for this run -------------------------------
    # push_targets[rank] = boolean mask over dense <+ order ids of the
    # targets this rank pushes to
    push_targets = [_np.zeros(dodgr.order_count(), dtype=bool) for _ in range(nranks)]
    # pull_lists[rank] = (q rows, requesters) column chunks as they arrive
    pull_lists: List[List[Any]] = [[] for _ in range(nranks)]

    def _propose_slot(ctx, *args) -> None:
        # Registered only so its id sizes every proposal, as the oracle's does.
        raise RuntimeError("the Push-Pull propose slot only sizes proposals; it never runs")

    def _propose_columnar_handler(ctx, source_rank: int, src_csr, qpositions, totals) -> None:
        """One (source, dest) pair's proposals decided in one comparison:
        pulled rows join the pull list as a chunk, the rest are advised in one
        batched reply accounted as the per-target advise messages it replaces."""
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

    # The first four registrations take the oracle's four slots, so every
    # id a message is accounted with matches the legacy run; the columnar
    # propose handler comes last, and its id never crosses the accounted wire.
    h_propose = world.register_handler(_propose_slot)
    h_advise = world.register_handler(_advise_columnar_handler)
    h_intersect = world.register_handler(
        make_columnar_intersect_handler(
            dodgr, kernel, callback, batch_callback, per_triangle_compute
        )
    )
    h_pull_deliver = world.register_handler(
        make_columnar_pull_handler(dodgr, kernel, callback, batch_callback, per_triangle_compute)
    )
    h_propose_columnar = world.register_handler(_propose_columnar_handler)
    push_overhead = legacy_push_payload_overhead(h_intersect.handler_id)

    # ------------------------------------------------------------------
    # Phase 1: Push vs Pull dry run.
    # ------------------------------------------------------------------
    def drive_dry_run(ctx) -> None:
        drive_columnar_dry_run(
            ctx, dodgr, h_propose, h_propose_columnar, push_targets[ctx.rank]
        )
        # Coalesced proposals execute in the barrier's first delivery
        # sweep — before its flush pass.  Flush now, where the legacy run's
        # barrier flushes the proposal buffers, so the advise replies meet
        # empty buffers in both engines and the flush-window split
        # (wire_messages, envelope bytes) matches — unless a proposal
        # buffer overflowed mid-drive (the BatchedCall bound).
        ctx.buffers.flush_all()

    # ------------------------------------------------------------------
    # Phase 2: Push phase (skip targets that will be pulled).
    # ------------------------------------------------------------------
    def drive_push_phase(ctx) -> None:
        drive_columnar_push(
            ctx,
            dodgr,
            dodgr.csr(ctx),
            h_intersect,
            push_overhead,
            allowed_mask=push_targets[ctx.rank],
        )

    # ------------------------------------------------------------------
    # Phase 3: Pull phase (owners broadcast adjacency lists, coalesced).
    # ------------------------------------------------------------------
    def drive_pull_phase(ctx) -> None:
        drive_columnar_pull(ctx, dodgr, h_pull_deliver, pull_lists[ctx.rank])

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
