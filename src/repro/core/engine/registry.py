"""Engine registry: one place where survey execution strategies are declared.

The paper's survey abstraction is one algorithm with interchangeable
communication strategies (Table 4); an *engine* here is one such strategy,
declared as an :class:`EngineSpec` — a pure-data composition of the shared
driver core in :mod:`repro.core.engine.driver` and
:mod:`repro.core.engine.pull`:

* ``push_style`` — how candidate pushes are generated, coalesced and
  intersected (``legacy`` one RPC per wedge, ``batched`` one RPC per
  (destination rank, target vertex) over the batch kernels, ``columnar``
  one RPC per (source rank, destination rank) over the row kernels);
* ``pull_style`` — how the Push-Pull pull phase delivers ``Adj^m_+(q)``
  and intersects it at the requester;
* ``proposal_style`` — how the Push-Pull dry run sends its proposals
  (``legacy`` one RPC each, ``batched`` one per (source, destination) rank
  pair from a scalar walk, ``columnar`` the same built as int64 columns);
* ``incremental_style`` — which delta-survey implementation
  (:mod:`repro.core.engine.delta`) the engine maps to, or ``None`` when
  the engine has no incremental form.

Adding an engine is therefore a :func:`register_engine` call with a new
composition — no new driver loop.  One legality rule, enforced at
registration: the columnar dry run hands the later phases arrays where the
scalar ones hand them sets and dicts, so ``pull_style="columnar"`` requires
``proposal_style="columnar"``, which requires ``push_style="columnar"``
(a columnar *push* under a scalar dry run is fine: the runner converts).

Every registered engine shares the equivalence contract pinned by the
golden parity suites: identical triangles, identical reducer panels,
byte-identical Table 4 communication totals.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from .request import EngineConfig

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the list fallback
    _np = None

__all__ = [
    "EngineSpec",
    "BACKENDS",
    "register_engine",
    "resolve_engine",
    "resolve_incremental_engine",
    "resolve_backend",
    "registered_engines",
    "engine_names",
    "incremental_engine_names",
    "backend_names",
    "validate_request",
]


@dataclass(frozen=True)
class EngineSpec:
    """Declarative description of one survey execution engine."""

    name: str
    description: str
    #: Candidate-push strategy: ``"legacy"``, ``"batched"`` or ``"columnar"``.
    push_style: str = "legacy"
    #: Pull-phase strategy: ``"legacy"``, ``"batched"`` or ``"columnar"``.
    pull_style: str = "legacy"
    #: Dry-run proposal strategy: ``"legacy"``, ``"batched"`` or ``"columnar"``.
    proposal_style: str = "legacy"
    #: Delta-survey implementation (``"legacy"``/``"columnar"``) or ``None``
    #: when the engine has no incremental form.
    incremental_style: Optional[str] = None
    #: The engine's drivers need NumPy arrays.
    requires_numpy: bool = False
    #: Engine to downgrade to when ``requires_numpy`` cannot be satisfied.
    fallback: Optional[str] = None
    #: Kernel tiers this engine's drivers can run
    #: (:data:`repro.core.intersection.KERNEL_TIERS` order).  Engines whose
    #: intersections go through the batch/row kernel tables support every
    #: tier; the legacy scalar driver only the scalar one.  Requesting a
    #: declared-but-unavailable tier (no numba wheel) downgrades along
    #: ``compiled -> columnar -> scalar``; requesting an *undeclared* tier
    #: is a pre-run error (:func:`validate_request`).
    kernel_tiers: Tuple[str, ...] = ("scalar",)


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
    for style, needs in (("pull_style", "proposal_style"), ("proposal_style", "push_style")):
        if getattr(spec, style) == "columnar" and getattr(spec, needs) != "columnar":
            raise ValueError(
                f"engine {spec.name!r}: {style}='columnar' requires "
                f"{needs}='columnar' (got {needs}={getattr(spec, needs)!r}); the "
                f"columnar dry run hands the later phases arrays, the scalar "
                f"ones sets and dicts"
            )
    if spec.requires_numpy and spec.fallback is not None:
        if spec.fallback not in _REGISTRY and spec.fallback != spec.name:
            raise ValueError(
                f"engine {spec.name!r} declares unknown fallback {spec.fallback!r}"
            )
    _REGISTRY[spec.name] = spec
    return spec


def registered_engines() -> Tuple[EngineSpec, ...]:
    """Every registered engine, in registration order."""
    return tuple(_REGISTRY.values())


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


def incremental_engine_names() -> Tuple[str, ...]:
    """Names of the engines that have an incremental (delta-survey) form."""
    return tuple(
        spec.name for spec in _REGISTRY.values() if spec.incremental_style is not None
    )


#: The execution-backend axis, orthogonal to the engine axis: every engine
#: runs on every backend.  ``simulated`` is the single-process oracle world;
#: ``process`` shards ranks across forked worker processes over shared-memory
#: buffers while replaying the simulated wire accounting byte-for-byte
#: (:mod:`repro.runtime.backend`).
BACKENDS: Tuple[str, ...] = ("simulated", "process")


def backend_names() -> Tuple[str, ...]:
    """Registered execution-backend names, oracle first."""
    return BACKENDS


def resolve_backend(backend: Any = None) -> str:
    """Normalise a ``backend=`` selector to a known backend name.

    ``None`` selects the simulated oracle — the default everywhere, so
    existing callers are untouched by the backend axis.
    """
    if backend is None:
        return "simulated"
    if isinstance(backend, str) and backend in BACKENDS:
        return backend
    raise ValueError(
        f"unknown execution backend {backend!r}; known: {BACKENDS}"
        f"{suggest_name(backend, BACKENDS)}"
    )


def _downgrade_without_numpy(spec: EngineSpec) -> EngineSpec:
    """Follow ``fallback`` links until a NumPy-free engine is reached."""
    seen = set()
    while spec.requires_numpy and _np is None:  # pragma: no cover - no-NumPy env
        if spec.fallback is None or spec.name in seen:
            raise ValueError(
                f"engine {spec.name!r} requires NumPy and declares no fallback"
            )
        seen.add(spec.name)
        spec = _REGISTRY[spec.fallback]
    return spec


def suggest_name(name: Any, known: Iterable[str]) -> str:
    """A ``; did you mean ...?`` suffix for unknown-name errors.

    Shared by the engine registry, the sweep runner's analysis axis and the
    survey service so every unknown-name error reads the same way.  Returns
    an empty string when nothing in ``known`` is close enough — errors stay
    clean for genuinely foreign names.
    """
    matches = difflib.get_close_matches(str(name), list(known), n=1, cutoff=0.6)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def _lookup(engine: Any, batched: bool = False) -> EngineSpec:
    """Resolve a selector to its registered spec, without NumPy downgrading."""
    if isinstance(engine, EngineSpec):
        spec = _REGISTRY.get(engine.name)
        if spec is not engine:
            raise ValueError(
                f"engine {engine.name!r} is not the registered spec of that "
                f"name; register it first"
            )
        return spec
    if isinstance(engine, EngineConfig):
        engine = engine.engine
    if engine is None:
        engine = "batched" if batched else "legacy"
    spec = _REGISTRY.get(engine)
    if spec is None:
        raise ValueError(
            f"unknown survey engine {engine!r}; known: {engine_names()}"
            f"{suggest_name(engine, engine_names())}"
        )
    return spec


def resolve_engine(engine: Any = None, batched: bool = False) -> EngineSpec:
    """Normalise an ``engine``/``batched`` selector pair to an engine spec.

    ``engine`` may be ``None``, a registered name, an :class:`EngineSpec`
    or an :class:`~repro.core.engine.request.EngineConfig`.  ``engine=None``
    preserves the PR 1 API: ``batched=True`` selects the batched engine,
    otherwise legacy.  Engines whose drivers need NumPy downgrade along
    their declared ``fallback`` chain when it is unavailable — results are
    identical either way (the equivalence contract).
    """
    return _downgrade_without_numpy(_lookup(engine, batched))


def resolve_incremental_engine(engine: Any = None) -> EngineSpec:
    """Resolve an engine selector for the incremental (delta) survey.

    Defaults to the columnar engine when NumPy is available, legacy
    otherwise.  Engines without an ``incremental_style`` are rejected.
    Without NumPy, engines whose incremental form is columnar downgrade
    straight to the legacy engine — the full-survey ``fallback`` chain does
    not apply here, because a fallback like ``batched`` has no incremental
    form at all.
    """
    if isinstance(engine, EngineConfig):
        engine = engine.engine
    if engine is None:
        engine = "columnar" if _np is not None else "legacy"
    spec = _lookup(engine)
    if spec.incremental_style is None:
        raise ValueError(
            f"unknown incremental engine {spec.name!r}; known: "
            f"{incremental_engine_names()}"
            f"{suggest_name(spec.name, incremental_engine_names())}"
        )
    if spec.incremental_style == "columnar" and _np is None:
        spec = _REGISTRY["legacy"]
    return spec


def validate_request(request: Any, spec: EngineSpec) -> None:
    """Reject unsupported execution-axis combinations before anything runs.

    Called by every engine runner on the resolved ``(request, spec)`` pair;
    raising here means no handlers were registered, no phases begun, no
    segment files created.  Two axes are checked:

    * ``kernel_tier`` — must name a known tier
      (:data:`repro.core.intersection.KERNEL_TIERS`) that the engine
      *declares* (``spec.kernel_tiers``).  Declared-but-unavailable tiers
      (no numba wheel) are fine: they downgrade along the
      ``compiled -> columnar -> scalar`` chain at kernel-lookup time.
    * ``storage`` — must be a known mode (or a
      :class:`~repro.graph.ooc.StorageConfig`); ``"mmap"`` is rejected on
      the process backend until segments ship by path to the workers.
    """
    from ...graph.ooc import StorageConfig, resolve_storage
    from ..intersection import KERNEL_TIERS

    tier = getattr(request, "kernel_tier", None)
    if tier is not None and tier != "auto":
        if tier not in KERNEL_TIERS:
            raise ValueError(
                f"unknown kernel tier {tier!r}; known: {KERNEL_TIERS}"
                f"{suggest_name(tier, KERNEL_TIERS)}"
            )
        if tier not in spec.kernel_tiers:
            raise ValueError(
                f"engine {spec.name!r} does not support kernel tier {tier!r}; "
                f"declared tiers: {spec.kernel_tiers}"
            )
    storage = getattr(request, "storage", None)
    mode = resolve_storage(
        storage.mode if isinstance(storage, StorageConfig) else storage
    )
    if mode == "mmap" and resolve_backend(getattr(request, "backend", None)) == "process":
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
        push_style="legacy",
        pull_style="legacy",
        proposal_style="legacy",
        incremental_style="legacy",
    )
)

register_engine(
    EngineSpec(
        name="batched",
        description=(
            "PR 1 coalescing: one RPC per (destination rank, target vertex) "
            "group, vectorized batch-kernel intersection over the CSR "
            "adjacency, coalesced dry-run proposals."
        ),
        push_style="batched",
        pull_style="batched",
        proposal_style="batched",
        kernel_tiers=("compiled", "columnar", "scalar"),
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
        push_style="columnar",
        pull_style="columnar",
        proposal_style="columnar",
        incremental_style="columnar",
        requires_numpy=True,
        fallback="batched",
        kernel_tiers=("compiled", "columnar", "scalar"),
    )
)
