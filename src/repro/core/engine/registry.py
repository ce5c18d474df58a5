"""Engine registry: one place where survey execution strategies are declared.

The paper's survey abstraction is one algorithm with interchangeable
communication strategies (Table 4); an *engine* here is one such strategy,
declared as an :class:`EngineSpec` — pure data naming one ``style`` of the
shared driver core in :mod:`repro.core.engine.driver`,
:mod:`repro.core.engine.pull` and :mod:`repro.core.engine.delta`:

* ``legacy`` — the scalar reference: one sized RPC per wedge, dry-run
  proposal, pulled row and delta candidate; per-message scalar
  intersection; per-triangle callback delivery;
* ``columnar`` — one RPC per (source rank, destination rank) pair in every
  phase, built as int64 columns over the CSR, row-kernel intersection and
  :class:`~repro.graph.metadata.TriangleBatch` delivery.

A style covers every phase — dry run, push, pull and the incremental
(delta) survey — because the columnar dry run hands the later phases arrays
where the scalar one hands them sets and dicts.

Every registered engine shares the equivalence contract pinned by the
golden parity suites: identical triangles, identical reducer panels,
byte-identical Table 4 communication totals.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Tuple

from .request import EngineConfig

__all__ = [
    "EngineSpec",
    "STYLES",
    "BACKENDS",
    "DEFAULT_ENGINE",
    "register_engine",
    "resolve_execution",
    "resolve_engine",
    "resolve_incremental_engine",
    "registered_engines",
    "engine_names",
    "backend_names",
    "validate_request",
]


#: The driver styles an engine can name, oracle first.
STYLES: Tuple[str, ...] = ("legacy", "columnar")


@dataclass(frozen=True)
class EngineSpec:
    """Declarative description of one survey execution engine."""

    name: str
    description: str
    #: Driver style of every phase: one of :data:`STYLES`.
    style: str = "legacy"

    @property
    def kernel_tiers(self) -> Tuple[str, ...]:
        """Kernel tiers this engine's drivers can run.

        The columnar drivers go through the row-kernel tables and support
        every tier of :data:`repro.core.intersection.KERNEL_TIERS`; the
        legacy scalar drivers only the scalar one.  A declared but
        unavailable tier (no C compiler) downgrades along ``compiled ->
        columnar -> scalar``; an *undeclared* tier is a pre-run error
        (:func:`validate_request`).
        """
        from ..intersection import KERNEL_TIERS

        return KERNEL_TIERS if self.style == "columnar" else ("scalar",)


#: Registration-ordered engine table.  Dicts preserve insertion order, which
#: the registry exposes as the canonical listing order (docs, CLIs, smokes).
_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, replace: bool = False) -> EngineSpec:
    """Register an execution engine under ``spec.name``.

    Set ``replace=True`` to overwrite an existing registration (used by
    tests that shadow an engine); otherwise duplicate names are an error.
    """
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"engine {spec.name!r} is already registered")
    _require_known("engine style", spec.style, STYLES)
    _REGISTRY[spec.name] = spec
    return spec


def registered_engines() -> Tuple[EngineSpec, ...]:
    """Every registered engine, in registration order."""
    return tuple(_REGISTRY.values())


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


#: The execution-backend axis, orthogonal to the engine axis: every engine
#: runs on every backend.  ``simulated`` is the single-process oracle world;
#: ``process`` shards ranks across forked worker processes over shared-memory
#: buffers while replaying the simulated wire accounting byte-for-byte
#: (:mod:`repro.runtime.backend`).
BACKENDS: Tuple[str, ...] = ("simulated", "process")


def backend_names() -> Tuple[str, ...]:
    """Registered execution-backend names, oracle first."""
    return BACKENDS


def suggest_name(name: Any, known: Iterable[str]) -> str:
    """A ``; did you mean ...?`` suffix for unknown-name errors.

    Shared by the engine registry, the sweep runner's analysis axis and the
    survey service so every unknown-name error reads the same way.  Returns
    an empty string when nothing in ``known`` is close enough — errors stay
    clean for genuinely foreign names.
    """
    matches = difflib.get_close_matches(str(name), list(known), n=1, cutoff=0.6)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def _require_known(axis: str, value: Any, known: Tuple[str, ...]) -> None:
    if not isinstance(value, str) or value not in known:
        raise ValueError(
            f"unknown {axis} {value!r}; known: {known}{suggest_name(value, known)}"
        )


#: The engine every entry point runs when ``engine=`` is left unset — full,
#: incremental and service surveys alike.  The ``legacy`` oracle is asked
#: for by name.
DEFAULT_ENGINE = "columnar"


def resolve_execution(
    engine: Any = None, incremental: bool = False
) -> Tuple[EngineSpec, EngineConfig]:
    """Interpret an ``engine=`` selector: the one place this happens.

    ``engine`` may be ``None``, a registered name, a registered
    :class:`EngineSpec` or an :class:`EngineConfig`.  Returns the spec and a
    config with ``engine``, ``kernel`` and ``backend`` defaulted; ``workers``,
    ``kernel_tier`` and ``storage`` stay ``None`` when unset (decided at run
    time from the host's cores, the available tiers and the DODGr's storage
    policy).  Unknown names and illegal combinations
    (:func:`validate_request`) raise ``ValueError`` here, before a caller has
    registered a handler.

    ``incremental=True`` resolves for the delta survey, which runs resident
    on the simulated backend, outside the :class:`SurveyProgram` layer the
    process backend shards and the out-of-core staging serves: a selector
    pinning ``backend="process"``, ``workers`` or ``storage="mmap"`` raises
    :class:`~repro.runtime.backend.UnsupportedBackendError` instead of being
    silently ignored.
    """
    if isinstance(engine, EngineSpec):
        if _REGISTRY.get(engine.name) is not engine:
            raise ValueError(
                f"engine {engine.name!r} is not the registered spec of that "
                f"name; register it first"
            )
        config = EngineConfig(engine=engine.name)
    elif isinstance(engine, EngineConfig):
        config = engine
    elif engine is None or isinstance(engine, str):
        config = EngineConfig(engine=engine)
    else:
        raise TypeError(
            f"engine selector must be None, a registered engine name, an "
            f"EngineSpec or an EngineConfig; got {engine!r}"
        )
    name = DEFAULT_ENGINE if config.engine is None else config.engine
    _require_known("survey engine", name, engine_names())
    spec = _REGISTRY[name]
    config = replace(
        config,
        engine=name,
        kernel=config.kernel or "merge_path",
        backend=config.backend or "simulated",
    )
    validate_request(config, spec)
    if incremental:
        from ...graph.ooc import resolve_storage
        from ...runtime.backend import UnsupportedBackendError

        if (
            config.backend != "simulated"
            or config.workers is not None
            or resolve_storage(config.storage) != "resident"
        ):
            raise UnsupportedBackendError(
                f"incremental (delta) surveys run resident on "
                f"backend='simulated' only; got backend={config.backend!r}, "
                f"workers={config.workers!r}, storage={config.storage!r}.  Run "
                f"full surveys on those axes and delta batches on the defaults."
            )
    return spec, config


def resolve_engine(engine: Any = None) -> EngineSpec:
    """The :class:`EngineSpec` an ``engine=`` selector names."""
    return resolve_execution(engine)[0]


def resolve_incremental_engine(engine: Any = None) -> EngineSpec:
    """Like :func:`resolve_engine`, for the incremental (delta) survey."""
    return resolve_execution(engine, incremental=True)[0]


def validate_request(request: Any, spec: EngineSpec) -> None:
    """Reject unsupported execution-axis combinations before anything runs.

    Called by :func:`resolve_execution` on the defaulted config and by every
    engine runner on the ``(request, spec)`` pair it is handed (requests may
    be built directly); raising here means no handlers were registered, no
    phases begun, no segment files created.  ``request`` is anything with
    ``kernel`` / ``backend`` / ``kernel_tier`` / ``storage`` attributes:

    * ``kernel`` — must name a known intersection kernel
      (:data:`repro.core.intersection.INTERSECTION_KERNELS`).
    * ``backend`` — must name a known backend (:data:`BACKENDS`).
    * ``kernel_tier`` — must name a known tier
      (:data:`repro.core.intersection.KERNEL_TIERS`) that the engine
      *declares* (``spec.kernel_tiers``).  Declared-but-unavailable tiers
      (no C compiler) are fine: they downgrade along the
      ``compiled -> columnar -> scalar`` chain at kernel-lookup time.
    * ``storage`` — must be a known mode (or a
      :class:`~repro.graph.ooc.StorageConfig`); ``"mmap"`` is rejected on
      the process backend until segments ship by path to the workers.
    """
    from ...graph.ooc import STORAGES, StorageConfig
    from ..intersection import INTERSECTION_KERNELS, KERNEL_TIERS

    _require_known("intersection kernel", request.kernel, tuple(INTERSECTION_KERNELS))
    _require_known("execution backend", request.backend, BACKENDS)
    tier = request.kernel_tier
    if tier is not None and tier != "auto":
        _require_known("kernel tier", tier, KERNEL_TIERS)
        if tier not in spec.kernel_tiers:
            raise ValueError(
                f"engine {spec.name!r} does not support kernel tier {tier!r}; "
                f"declared tiers: {spec.kernel_tiers}"
            )
    storage = request.storage
    if isinstance(storage, StorageConfig):
        storage = storage.mode
    if storage is not None:
        _require_known("storage mode", storage, STORAGES)
    if storage == "mmap" and request.backend == "process":
        raise ValueError(
            "storage='mmap' is not supported on backend='process': memmap "
            "segment files are not yet shipped by path to worker processes; "
            "run mmap surveys on the simulated backend"
        )


# ---------------------------------------------------------------------------
# Built-in engines.  Everything below is data: the drivers they compose live
# in driver.py / pull.py / delta.py, and a new engine is a new composition.
# ---------------------------------------------------------------------------

register_engine(
    EngineSpec(
        name="legacy",
        description=(
            "Scalar reference: one sized RPC per wedge, per-message scalar "
            "intersection, per-triangle callback delivery.  The parity "
            "oracle every other engine is measured against."
        ),
        style="legacy",
    )
)

register_engine(
    EngineSpec(
        name="columnar",
        description=(
            "PR 3 array engine: one RPC per (source rank, destination rank) "
            "pair, row-kernel intersection, TriangleBatch delivery to batch "
            "reducers, columnar dry run and pull phase."
        ),
        style="columnar",
    )
)
