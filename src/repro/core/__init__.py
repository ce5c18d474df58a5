"""TriPoll core: triangle surveys over decorated temporal graphs.

The primary entry points are:

* :func:`~repro.core.push_pull.triangle_survey` — dispatch to either
  algorithm;
* :func:`~repro.core.survey.triangle_survey_push` — the Push-Only algorithm
  (Algorithm 1);
* :func:`~repro.core.push_pull.triangle_survey_push_pull` — the Push-Pull
  optimisation (Section 4.4);
* the callback classes in :mod:`repro.core.callbacks` implementing the
  paper's surveys (counting, closure times, FQDN tuples, degree triples...).

Survey execution is owned by the engine layer in :mod:`repro.core.engine`:
engines are registered :class:`~repro.core.engine.EngineSpec` declarations
resolved by name (``engine="columnar"``, the default; ``"legacy"``, the oracle)
or through an :class:`~repro.core.engine.EngineConfig`, the one selector
threaded through ``analysis/*``, ``bench/*`` and the benchmark CLIs.
"""

from .approximate import (
    SurvivorEstimate,
    approximate_triangle_count,
    survivor_triangle_estimate,
)
from .callbacks import (
    ClosureTimeSurvey,
    DegreeTripleSurvey,
    EdgeSupportCounter,
    FqdnTripleSurvey,
    LocalTriangleCounter,
    MaxEdgeLabelDistribution,
    TriangleCounter,
    get_reducer,
    log2_bucket,
    log2_bucket_array,
    merge_count_dicts,
    reducer_names,
    registered_reducers,
)
from .engine import (
    EngineConfig,
    EngineSpec,
    SurveyRequest,
    SurveyResult,
    engine_names,
    execute_survey,
    resolve_engine,
)
from .incremental import DELTA_PUSH_PHASE, StreamingSurvey, incremental_triangle_survey
from .intersection import ROW_KERNELS
from .push_pull import (
    DRY_RUN_PHASE,
    PULL_PHASE,
    PUSH_PHASE,
    triangle_survey,
    triangle_survey_push_pull,
)
from .results import SurveyReport
from .survey import (
    TriangleCallback,
    resolve_batch_callback,
    triangle_survey_push,
)
from .wedges import work_rate

__all__ = [
    "triangle_survey",
    "triangle_survey_push",
    "triangle_survey_push_pull",
    "incremental_triangle_survey",
    "StreamingSurvey",
    "DELTA_PUSH_PHASE",
    "merge_count_dicts",
    "approximate_triangle_count",
    "SurvivorEstimate",
    "survivor_triangle_estimate",
    "SurveyReport",
    "TriangleCallback",
    "TriangleCounter",
    "LocalTriangleCounter",
    "EdgeSupportCounter",
    "MaxEdgeLabelDistribution",
    "ClosureTimeSurvey",
    "DegreeTripleSurvey",
    "FqdnTripleSurvey",
    "log2_bucket",
    "log2_bucket_array",
    "reducer_names",
    "registered_reducers",
    "get_reducer",
    "ROW_KERNELS",
    "EngineSpec",
    "EngineConfig",
    "SurveyRequest",
    "SurveyResult",
    "resolve_engine",
    "engine_names",
    "execute_survey",
    "resolve_batch_callback",
    "work_rate",
    "DRY_RUN_PHASE",
    "PUSH_PHASE",
    "PULL_PHASE",
]
