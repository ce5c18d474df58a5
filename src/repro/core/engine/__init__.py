"""Unified survey-execution layer: engine registry + shared driver core.

The paper's survey abstraction is *one* algorithm with interchangeable
communication strategies (push vs. pull, Table 4).  This package owns
survey execution end to end:

* :mod:`~repro.core.engine.registry` — the :class:`EngineSpec` table:
  engines are declared as data (:func:`register_engine`) naming one driver
  style, and every ``engine=`` selector is interpreted once, by
  :func:`resolve_execution`;
* :mod:`~repro.core.engine.request` — the :class:`SurveyRequest` /
  :class:`SurveyResult` pair and the caller-facing :class:`EngineConfig`,
  the only execution selector, threaded through ``analysis/*``,
  ``bench/*`` and the CLIs;
* :mod:`~repro.core.engine.driver` / :mod:`~repro.core.engine.pull` /
  :mod:`~repro.core.engine.delta` — the shared driver core: candidate
  stream construction over ``CSRAdjacency``/``RowAdjacency``, intersect
  handler setup, :class:`~repro.graph.metadata.TriangleBatch` delivery via
  :func:`resolve_batch_callback`, and bulk wire accounting that keeps every
  engine byte-identical on Table 4;
* :mod:`~repro.core.engine.segments` — the shared ragged-array utilities;
* :mod:`~repro.core.engine.push` / :mod:`~repro.core.engine.push_pull` —
  the Push-Only and Push-Pull runners, compiled to
  :class:`~repro.core.engine.program.SurveyProgram` phases that one loop
  (:mod:`~repro.core.engine.program`) runs — the incremental survey's one
  delta phase included.

``repro.core.survey``, ``repro.core.push_pull`` and
``repro.core.incremental`` are thin entry points over this layer.

Adding an engine
----------------

Register a new name for one of the driver styles — no new driver loop::

    from repro.core.engine import EngineSpec, register_engine

    register_engine(EngineSpec(
        name="my-engine",
        description="the columnar drivers under another name",
        style="columnar",
    ))

``style`` is ``"legacy"`` or ``"columnar"``
(:data:`~repro.core.engine.registry.STYLES`); any other value is rejected
at registration.  ``tools/check_engines.py``
smoke-checks that every registered engine stays on the equivalence contract
(identical reducer panels, byte-identical wire totals), and the cross-engine
property suite (``tests/properties/test_property_engines.py``) pins it on
random graphs.
"""

from __future__ import annotations

from dataclasses import replace

from .registry import (
    BACKENDS,
    DEFAULT_ENGINE,
    EngineSpec,
    backend_names,
    engine_names,
    register_engine,
    registered_engines,
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
from .push import build_push_program, run_push_survey
from .push_pull import build_push_pull_program, run_push_pull_survey

__all__ = [
    "EngineSpec",
    "EngineConfig",
    "EngineSelector",
    "SurveyRequest",
    "SurveyResult",
    "SurveyProgram",
    "TriangleCallback",
    "BACKENDS",
    "DEFAULT_ENGINE",
    "register_engine",
    "resolve_execution",
    "resolve_engine",
    "registered_engines",
    "engine_names",
    "backend_names",
    "resolve_batch_callback",
    "execute_program",
    "build_push_program",
    "run_push_survey",
    "build_push_pull_program",
    "run_push_pull_survey",
    "execute_survey",
    "DEFAULT_CALLBACK_COMPUTE_UNITS",
    "PUSH_PHASE",
    "DRY_RUN_PHASE",
    "PULL_PHASE",
    "DELTA_PUSH_PHASE",
]


def execute_survey(request: SurveyRequest, engine=None) -> SurveyResult:
    """Run ``request`` on the engine it (or ``engine``) selects.

    The request's ``algorithm`` picks the runner (``"push"`` or
    ``"push_pull"``); ``engine`` may be anything
    :func:`resolve_execution` accepts (default :data:`DEFAULT_ENGINE`).  A
    name or spec picks the engine for the axes the request already carries;
    an :class:`EngineConfig`'s set fields replace the request's.
    """
    spec = resolve_engine(engine)
    if isinstance(engine, EngineConfig):
        pinned = {k: v for k, v in engine.axes().items() if v is not None}
        request = replace(request, **pinned)
    if request.algorithm == "push":
        return run_push_survey(request, spec)
    if request.algorithm == "push_pull":
        return run_push_pull_survey(request, spec)
    raise ValueError(f"unknown survey algorithm {request.algorithm!r}")


# Checkpoint/restart wrappers import execute_survey lazily, so this import
# must stay below its definition.
from .checkpoint import (  # noqa: E402
    CheckpointPolicy,
    RecoveryLog,
    ResilientSurveyResult,
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
