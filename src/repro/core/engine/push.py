"""Push-Only survey runner: one driver loop, every engine, every backend.

This is Algorithm 1 of the paper expressed over the engine layer: register
the engine's intersect handler, walk every rank's pivots at the engine's
granularity (:func:`~repro.core.engine.driver.drive_push`), barrier, report.
The three near-copies of this loop that used to live in ``core/survey.py``
collapse to the one program below; the loop itself now lives in
:mod:`~repro.core.engine.program`, where the simulated and process backends
share it.
"""

from __future__ import annotations

from .driver import drive_push, make_push_intersect_handler
from .program import SurveyProgram, execute_program
from .registry import EngineSpec, check_supported, survey_features
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
    world = dodgr.world
    handler = world.register_handler(
        make_push_intersect_handler(
            spec.style,
            dodgr,
            request.kernel,
            request.callback,
            request.per_triangle_compute(),
            kernel_tier=request.kernel_tier,
        )
    )

    # Driver phase: every rank walks its local pivots and pushes suffixes —
    # one coalesced RPC per destination rank (columnar), one RPC per wedge
    # otherwise.
    def drive(ctx) -> None:
        drive_push(spec.style, ctx, dodgr, handler)

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
