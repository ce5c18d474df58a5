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
Anywhere an ``engine=`` keyword accepts a string name it also accepts an
``EngineConfig``, which additionally pins the intersection kernel and the
per-triangle callback cost — so one object selects the execution strategy
everywhere, instead of three loose keywords re-declared at every layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Tuple

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
    "split_engine_selector",
    "split_backend_selector",
    "split_execution_selector",
    "default_engine",
]

#: Type of a survey callback: ``callback(ctx, tri)`` executed on the rank
#: where the triangle is identified.
TriangleCallback = Callable[[Any, Any], None]

#: What an ``engine=`` keyword accepts anywhere in the system: ``None`` (the
#: entry point's default), a registered engine name, an ``EngineSpec``, or
#: an :class:`EngineConfig`.
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

    Parameters
    ----------
    engine:
        Registered engine name (``"legacy"``, ``"batched"``, ``"columnar"``,
        or any name added through
        :func:`~repro.core.engine.register_engine`).  ``None`` keeps each
        entry point's documented default.
    kernel:
        Intersection kernel name (``merge_path``, ``binary_search``,
        ``hash``); ``None`` keeps the entry point's ``kernel=`` argument
        (default merge-path).
    callback_compute_units:
        Abstract compute units charged per triangle when a callback is
        supplied; ``None`` keeps the entry point's default
        (:data:`DEFAULT_CALLBACK_COMPUTE_UNITS`).
    backend:
        Execution backend (``"simulated"`` or ``"process"``); ``None`` keeps
        the entry point's ``backend=`` argument (default simulated).
    workers:
        Worker-process count for the process backend; ``None`` keeps the
        entry point's ``workers=`` argument (default: capped at four, the
        host's core count and the rank count).
    kernel_tier:
        Intersection kernel tier (``"compiled"``, ``"columnar"``,
        ``"scalar"`` or ``"auto"``; see
        :data:`repro.core.intersection.KERNEL_TIERS`).  ``None``/``"auto"``
        keeps the engine's best available tier; unavailable tiers downgrade
        along the declared ``compiled -> columnar -> scalar`` chain.
    storage:
        CSR storage mode (``"resident"`` or ``"mmap"``), or a
        :class:`repro.graph.ooc.StorageConfig` pinning a memory budget and
        segment directory.  ``None`` keeps the entry point's ``storage=``
        argument (default resident).
    """

    engine: Optional[str] = None
    kernel: Optional[str] = None
    callback_compute_units: Optional[int] = None
    backend: Optional[str] = None
    workers: Optional[int] = None
    kernel_tier: Optional[str] = None
    storage: Optional[Any] = None

    @classmethod
    def coerce(cls, value: Any) -> "EngineConfig":
        """Normalise ``None`` / engine-name string / EngineConfig to a config."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(engine=value)
        from .registry import EngineSpec  # deferred: registry imports request

        if isinstance(value, EngineSpec):
            return cls(engine=value.name)
        raise TypeError(
            f"engine selector must be None, a registered engine name, an "
            f"EngineSpec or an EngineConfig; got {value!r}"
        )


def split_engine_selector(
    engine: Any, kernel: str, callback_compute_units: int
) -> Tuple[Optional[str], str, int]:
    """Resolve an ``engine=`` argument against an entry point's loose keywords.

    ``engine`` may be ``None``, a registered engine name, an ``EngineSpec``
    or an :class:`EngineConfig`.  When it is an ``EngineConfig`` its *set*
    fields win: its kernel (when not ``None``) replaces the entry point's
    ``kernel`` argument, its ``callback_compute_units`` (when not ``None``)
    the entry point's.  Returns the flattened
    ``(engine_name, kernel, callback_compute_units)``.
    """
    if engine is None or isinstance(engine, str):
        return engine, kernel, callback_compute_units
    config = EngineConfig.coerce(engine)
    if config.callback_compute_units is not None:
        callback_compute_units = config.callback_compute_units
    return config.engine, config.kernel or kernel, callback_compute_units


def split_backend_selector(
    engine: Any, backend: Optional[str], workers: Optional[int]
) -> Tuple[Optional[str], Optional[int]]:
    """Resolve ``backend=``/``workers=`` keywords against an engine selector.

    Mirrors :func:`split_engine_selector`: when ``engine`` is an
    :class:`EngineConfig` its *set* backend fields win over the entry
    point's loose keywords, so one config object can pin the whole
    execution strategy (engine, kernel, backend, worker count) everywhere
    an ``engine=`` keyword travels.
    """
    if isinstance(engine, EngineConfig):
        if engine.backend is not None:
            backend = engine.backend
        if engine.workers is not None:
            workers = engine.workers
    return backend, workers


def split_execution_selector(
    engine: Any, kernel_tier: Optional[str], storage: Any
) -> Tuple[Optional[str], Any]:
    """Resolve ``kernel_tier=``/``storage=`` keywords against an engine selector.

    Mirrors :func:`split_backend_selector` for the execution axes added by
    the out-of-core work: when ``engine`` is an :class:`EngineConfig` its
    *set* ``kernel_tier``/``storage`` fields win over the entry point's
    loose keywords.
    """
    if isinstance(engine, EngineConfig):
        if engine.kernel_tier is not None:
            kernel_tier = engine.kernel_tier
        if engine.storage is not None:
            storage = engine.storage
    return kernel_tier, storage


def default_engine(engine: "EngineSelector", default: str) -> "EngineSelector":
    """Fill an unset engine name with a layer's documented default.

    Layers whose default engine is not the core entry points' legacy —
    ``analysis/*`` and the incremental path default to columnar — apply
    this before forwarding, so ``engine=None`` *and* an
    :class:`EngineConfig` whose ``engine`` field is unset (the "pin just
    the kernel" use) both keep that layer's default instead of silently
    resolving to legacy downstream.
    """
    if engine is None:
        return default
    if isinstance(engine, EngineConfig) and engine.engine is None:
        return replace(engine, engine=default)
    return engine


@dataclass
class SurveyRequest:
    """Everything an execution engine needs to run one survey.

    The entry points in :mod:`repro.core.survey` and
    :mod:`repro.core.push_pull` build one of these from their keyword
    surface; engine runners consume it without re-parsing loose arguments.
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
    #: CSR storage: ``None``/``"resident"``, ``"mmap"``, or a
    #: :class:`repro.graph.ooc.StorageConfig`.
    storage: Optional[Any] = None

    def per_triangle_compute(self) -> int:
        """Compute units charged per triangle (zero without a callback)."""
        return self.callback_compute_units if self.callback is not None else 0


@dataclass
class SurveyResult:
    """An engine run's outcome: the report plus how it was executed."""

    report: Any
    #: Name of the engine that actually ran (after any NumPy fallback).
    engine: str
    request: SurveyRequest = field(repr=False, default=None)
