"""Push-Only survey runner: one driver loop, every engine, every backend.

This is Algorithm 1 of the paper expressed over the engine layer: register
the intersect handler, walk every rank's pivots
(:func:`~repro.core.engine.driver.drive_columnar_push`: one coalesced RPC
per destination rank), barrier, report.  The loop itself lives in
:mod:`~repro.core.engine.program`, where the simulated and process backends
share it.
"""

from __future__ import annotations

from ..intersection import row_kernel
from .driver import (
    drive_columnar_push,
    legacy_push_payload_overhead,
    make_columnar_intersect_handler,
    resolve_batch_callback,
)
from .program import SurveyProgram, execute_program
from .registry import EngineSpec, check_supported, oracle_builder, survey_features
from .request import SurveyRequest, SurveyResult

__all__ = ["build_push_program", "run_push_survey"]


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
    handler = dodgr.world.register_handler(
        make_columnar_intersect_handler(
            dodgr,
            row_kernel(request.kernel, request.kernel_tier),
            request.callback,
            resolve_batch_callback(request.callback),
            request.per_triangle_compute(),
        )
    )
    overhead = legacy_push_payload_overhead(handler.handler_id)

    def drive(ctx) -> None:
        drive_columnar_push(ctx, dodgr, dodgr.csr(ctx), handler, overhead)

    return SurveyProgram(
        algorithm="push",
        request=request,
        spec=spec,
        phases=[(request.phase_name, drive)],
    )


def run_push_survey(request: SurveyRequest, spec: EngineSpec) -> SurveyResult:
    """Run the Push-Only triangle survey described by ``request`` on ``spec``."""
    if request.reset_stats:
        request.dodgr.world.reset_stats()
    return execute_program(build_push_program(request, spec))
