"""Survey request/result pair and the unified engine selector.

Every survey entry point — :func:`repro.core.survey.triangle_survey_push`,
:func:`repro.core.push_pull.triangle_survey_push_pull`,
:func:`repro.core.incremental.incremental_triangle_survey` — normalises its
arguments into a :class:`SurveyRequest` and hands it to the engine layer,
which returns a :class:`SurveyResult` wrapping the familiar
:class:`~repro.core.results.SurveyReport` plus the resolved engine name.

:class:`EngineConfig` is the *caller-facing* selector: a single value that
travels unchanged through ``analysis/*``, ``bench/*``,
:class:`~repro.core.incremental.StreamingSurvey` and the benchmark CLIs.
``engine=`` is the only execution selector an entry point has: anywhere it
accepts a string name it also accepts an ``EngineConfig``, which additionally
pins the intersection kernel, backend, worker count, kernel tier and CSR
storage.  :func:`~repro.core.engine.registry.resolve_execution` interprets
the selector once and returns the spec plus the defaulted config a
:class:`SurveyRequest` is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

__all__ = [
    "TriangleCallback",
    "EngineSelector",
    "DEFAULT_CALLBACK_COMPUTE_UNITS",
    "PUSH_PHASE",
    "DRY_RUN_PHASE",
    "PULL_PHASE",
    "DELTA_PUSH_PHASE",
    "EngineConfig",
    "SurveyRequest",
    "SurveyResult",
]

#: Type of a survey callback: ``callback(ctx, tri)`` executed on the rank
#: where the triangle is identified.
TriangleCallback = Callable[[Any, Any], None]

#: What an ``engine=`` keyword accepts anywhere in the system: ``None``
#: (:data:`~repro.core.engine.registry.DEFAULT_ENGINE`), a registered engine
#: name, an ``EngineSpec``, or an :class:`EngineConfig`.
EngineSelector = Any

#: Abstract compute units charged per triangle for executing a user callback
#: on its metadata (hashing labels, computing logarithms, updating counting-set
#: caches).  Calibrated so that a metadata survey with a non-trivial callback
#: costs roughly twice the throughput of bare counting on R-MAT weak-scaling
#: inputs, matching the overhead the paper reports in Section 5.9.  Charged
#: only when a callback is supplied; pass ``callback_compute_units=0`` to
#: model a free callback.
DEFAULT_CALLBACK_COMPUTE_UNITS = 10

PUSH_PHASE = "push"
DRY_RUN_PHASE = "dry_run"
PULL_PHASE = "pull"
DELTA_PUSH_PHASE = "delta_push"


@dataclass(frozen=True)
class EngineConfig:
    """One value that selects the survey execution strategy everywhere.

    Every field defaults to ``None`` = "not pinned";
    :func:`~repro.core.engine.registry.resolve_execution` fills the static
    defaults and leaves the three run-time ones (``workers``,
    ``kernel_tier``, ``storage``) to the host and the DODGr.

    Parameters
    ----------
    engine:
        Engine name, ``"columnar"`` or the ``"legacy"`` oracle; default
        :data:`~repro.core.engine.registry.DEFAULT_ENGINE`.
    kernel:
        Intersection kernel name (``merge_path``, ``binary_search``,
        ``hash``); default merge-path, the paper's kernel.
    backend:
        Execution backend (``"simulated"`` or ``"process"``); default
        simulated, the single-process oracle.
    workers:
        Worker-process count for the process backend; ``None`` = auto
        (capped at four, the host's core count and the rank count).
    kernel_tier:
        Intersection kernel tier (``"compiled"``, ``"columnar"``,
        ``"scalar"`` or ``"auto"``; see
        :data:`repro.core.intersection.KERNEL_TIERS`).  ``None``/``"auto"``
        keeps the engine's best available tier; unavailable tiers downgrade
        along the declared ``compiled -> columnar -> scalar`` chain.
    storage:
        CSR storage mode (``"resident"`` or ``"mmap"``), or a
        :class:`repro.graph.ooc.StorageConfig` pinning a memory budget and
        segment directory.  ``None`` keeps the policy the DODGr is already
        configured with (resident unless
        :meth:`~repro.graph.dodgr.DODGraph.configure_storage` was called).
    """

    engine: Optional[str] = None
    kernel: Optional[str] = None
    backend: Optional[str] = None
    workers: Optional[int] = None
    kernel_tier: Optional[str] = None
    storage: Optional[Any] = None

    def axes(self) -> Dict[str, Any]:
        """Every field but ``engine``, keyed as :class:`SurveyRequest` names them."""
        axes = dict(vars(self))
        del axes["engine"]
        return axes


@dataclass
class SurveyRequest:
    """Everything an execution engine needs to run one survey.

    The entry points in :mod:`repro.core.survey` and
    :mod:`repro.core.push_pull` build one of these from their arguments plus
    the resolved :meth:`EngineConfig.axes`; engine runners consume it as is.
    """

    dodgr: Any
    callback: Optional[TriangleCallback] = None
    algorithm: str = "push_pull"
    kernel: str = "merge_path"
    reset_stats: bool = True
    graph_name: Optional[str] = None
    #: Push-only surveys accumulate their counters under this phase name.
    phase_name: str = PUSH_PHASE
    callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS
    #: Execution backend (:data:`repro.core.engine.registry.BACKENDS`).
    backend: str = "simulated"
    #: Worker-process count for the process backend (``None`` = auto).
    workers: Optional[int] = None
    #: Intersection kernel tier (``None``/``"auto"`` = best available).
    kernel_tier: Optional[str] = None
    #: CSR storage: ``None`` (the DODGr's configured policy),
    #: ``"resident"``, ``"mmap"``, or a :class:`repro.graph.ooc.StorageConfig`.
    storage: Optional[Any] = None

    def per_triangle_compute(self) -> int:
        """Compute units charged per triangle (zero without a callback)."""
        return self.callback_compute_units if self.callback is not None else 0


@dataclass
class SurveyResult:
    """An engine run's outcome: the report plus how it was executed."""

    report: Any
    #: Name of the engine that ran.
    engine: str
    request: SurveyRequest = field(repr=False, default=None)
