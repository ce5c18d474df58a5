"""Unified survey-execution layer: engine registry + shared driver core.

The paper's survey abstraction is *one* algorithm with interchangeable
communication strategies (push vs. pull, Table 4).  This package owns
survey execution end to end:

* :mod:`~repro.core.engine.registry` — the two :class:`EngineSpec` rows
  (the ``legacy`` oracle and the ``columnar`` production engine), the one
  table of unsupported combinations, and :func:`resolve_execution`, where
  every ``engine=`` selector is interpreted once;
* :mod:`~repro.core.engine.request` — the :class:`SurveyRequest` /
  :class:`SurveyResult` pair and the caller-facing :class:`EngineConfig`,
  the only execution selector, threaded through ``analysis/*``,
  ``bench/*`` and the CLIs;
* :mod:`~repro.core.engine.driver` / :mod:`~repro.core.engine.pull` /
  :mod:`~repro.core.engine.delta` — the production driver core: candidate
  stream construction over ``CSRAdjacency``/``RowAdjacency``, intersect
  handler setup, :class:`~repro.graph.metadata.TriangleBatch` delivery via
  :func:`resolve_batch_callback`, and bulk wire accounting that keeps it
  byte-identical with the oracle on Table 4;
* :mod:`~repro.core.engine.segments` — the shared ragged-array utilities;
* :mod:`~repro.core.engine.push` / :mod:`~repro.core.engine.push_pull` /
  :mod:`~repro.core.engine.delta` — the Push-Only, Push-Pull and
  incremental (delta) program builders, compiled to
  :class:`~repro.core.engine.program.SurveyProgram` phases that one loop
  (:mod:`~repro.core.engine.program`) runs.

Each module has one path, the production engine's.  The scalar ``legacy``
engine lives whole in :mod:`repro.oracle`; a builder hands it the program
when :func:`~repro.core.engine.registry.oracle_builder` — the one
production import of that package — says so.  ``tools/check_engines.py``
smoke-checks that both engines stay on the equivalence contract (identical
reducer panels, byte-identical wire totals) and fences the oracle out of
production (check 10); the matrix suite
(``tests/properties/test_property_matrix.py``) pins the contract, stated
once in :mod:`repro.sweep.contract`, on every legal execution cell.

``repro.core.survey``, ``repro.core.push_pull`` and
``repro.core.incremental`` are thin entry points over this layer.
"""

from __future__ import annotations

from dataclasses import replace

from .registry import (
    DEFAULT_ENGINE,
    EngineSpec,
    backend_names,
    engine_names,
    resolve_engine,
    resolve_execution,
)
from .request import (
    DEFAULT_CALLBACK_COMPUTE_UNITS,
    DELTA_PUSH_PHASE,
    DRY_RUN_PHASE,
    PULL_PHASE,
    PUSH_PHASE,
    EngineConfig,
    EngineSelector,
    SurveyRequest,
    SurveyResult,
    TriangleCallback,
)
from .driver import resolve_batch_callback
from .program import SurveyProgram, execute_program
from .push import build_push_program
from .push_pull import build_push_pull_program

__all__ = [
    "EngineSpec",
    "EngineConfig",
    "EngineSelector",
    "SurveyRequest",
    "SurveyResult",
    "SurveyProgram",
    "TriangleCallback",
    "DEFAULT_ENGINE",
    "resolve_execution",
    "resolve_engine",
    "engine_names",
    "backend_names",
    "resolve_batch_callback",
    "execute_program",
    "build_push_program",
    "build_push_pull_program",
    "execute_survey",
    "DEFAULT_CALLBACK_COMPUTE_UNITS",
    "PUSH_PHASE",
    "DRY_RUN_PHASE",
    "PULL_PHASE",
    "DELTA_PUSH_PHASE",
]


#: The full-survey program builders, by ``SurveyRequest.algorithm``.
_PROGRAMS = {"push": build_push_program, "push_pull": build_push_pull_program}


def execute_survey(request: SurveyRequest, engine=None) -> SurveyResult:
    """Run ``request`` on the engine it (or ``engine``) selects.

    The request's ``algorithm`` picks the program (``"push"`` or
    ``"push_pull"``); ``engine`` may be anything
    :func:`resolve_execution` accepts (default :data:`DEFAULT_ENGINE`).  A
    name or spec picks the engine for the axes the request already carries;
    an :class:`EngineConfig`'s set fields replace the request's.  Every
    full survey — ``triangle_survey_push``, ``triangle_survey_push_pull``
    and :func:`repro.core.triangle_survey` — runs through here.
    """
    spec = resolve_engine(engine)
    if isinstance(engine, EngineConfig):
        pinned = {k: v for k, v in engine.axes().items() if v is not None}
        request = replace(request, **pinned)
    build = _PROGRAMS.get(request.algorithm)
    if build is None:
        raise ValueError(f"unknown survey algorithm {request.algorithm!r}")
    if request.reset_stats:
        request.dodgr.world.reset_stats()
    return execute_program(build(request, spec))


# Checkpoint/restart wrappers import execute_survey lazily, so this import
# must stay below its definition.
from .checkpoint import (  # noqa: E402
    CheckpointPolicy,
    RecoveryLog,
    StaleCheckpointError,
    StreamingCheckpoint,
    run_survey_with_recovery,
)

__all__ += [
    "CheckpointPolicy",
    "RecoveryLog",
    "ResilientSurveyResult",
    "StaleCheckpointError",
    "StreamingCheckpoint",
    "run_survey_with_recovery",
]
