"""Push-Only survey program: one driver loop, every engine, every backend.

This is Algorithm 1 of the paper expressed over the engine layer: register
the intersect handler, walk every rank's pivots
(:func:`~repro.core.engine.driver.drive_columnar_push`: one coalesced RPC
per destination rank), barrier — where each rank intersects what its
:class:`~repro.core.engine.driver.CandidateStage` holds and delivers one
batch — report.  The loop itself lives in
:mod:`~repro.core.engine.program`, where the simulated and process backends
share it.
"""

from __future__ import annotations

from ..intersection import row_kernel
from .driver import (
    CandidateStage,
    drive_columnar_push,
    legacy_push_payload_overhead,
    resolve_batch_callback,
)
from .program import SurveyProgram
from .registry import EngineSpec, check_supported, oracle_builder, survey_features
from .request import SurveyRequest

__all__ = ["build_push_program"]


def build_push_program(request: SurveyRequest, spec: EngineSpec) -> SurveyProgram:
    """Compile the Push-Only survey to a single-phase :class:`SurveyProgram`.

    Handler registration happens here — before any backend runs (and, for
    the process backend, before it forks), so handler ids and the serialized
    size of every message are identical everywhere.
    """
    check_supported(survey_features(request, spec))
    dodgr = request.dodgr
    if request.storage is not None:
        dodgr.configure_storage(request.storage)
    oracle = oracle_builder(spec, "push")
    if oracle is not None:
        return oracle(request, spec)
    stage = CandidateStage(
        dodgr,
        row_kernel(request.kernel, request.kernel_tier),
        request.callback,
        resolve_batch_callback(request.callback),
        request.per_triangle_compute(),
    )
    handler = dodgr.world.register_handler(stage.handler())
    overhead = legacy_push_payload_overhead(handler.handler_id)

    def drive(ctx) -> None:
        drive_columnar_push(ctx, dodgr, dodgr.csr(ctx), handler, overhead)

    return SurveyProgram(
        algorithm="push",
        request=request,
        spec=spec,
        phases=[(request.phase_name, drive)],
    )
