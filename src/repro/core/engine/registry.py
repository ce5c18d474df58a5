"""Engine registry: one place where survey execution strategies are declared.

The paper's survey abstraction is one algorithm with interchangeable
communication strategies (Table 4); an *engine* here is one such strategy,
declared as an :class:`EngineSpec` — a name and a description:

* ``legacy`` — the scalar reference: one RPC per wedge, dry-run
  proposal, pulled row and delta candidate; per-message scalar
  intersection; per-triangle callback delivery.  It lives in
  :mod:`repro.oracle`, which :func:`oracle_builder` imports on first use;
* ``columnar`` — the production engine: one RPC per (source rank,
  destination rank) pair in every phase, built as int64 columns over the
  CSR, row-kernel intersection and
  :class:`~repro.graph.metadata.TriangleBatch` delivery.

Both engines share the equivalence contract pinned by the golden parity
suites: identical triangles, identical reducer panels, byte-identical
Table 4 communication totals.

Which combinations may run is one table, :data:`UNSUPPORTED`, consulted by
one checker, :func:`check_supported`, before any handler registers.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from ...runtime.backend import UnsupportedBackendError
from .request import EngineConfig

__all__ = [
    "EngineSpec",
    "DEFAULT_ENGINE",
    "resolve_execution",
    "resolve_engine",
    "oracle_builder",
    "engine_names",
    "backend_names",
    "UNSUPPORTED",
    "check_supported",
    "survey_features",
]


@dataclass(frozen=True)
class EngineSpec:
    """Declarative description of one survey execution engine."""

    name: str
    description: str


#: The engine table, oracle first: the canonical listing order (docs, CLIs,
#: smokes).
_REGISTRY: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            name="legacy",
            description=(
                "Scalar reference: one RPC per wedge, per-message scalar "
                "intersection, per-triangle callback delivery.  The parity "
                "oracle every other engine is measured against."
            ),
        ),
        EngineSpec(
            name="columnar",
            description=(
                "Production engine: one RPC per (source rank, destination rank) "
                "pair, row-kernel intersection, TriangleBatch delivery to batch "
                "reducers, columnar dry run and pull phase."
            ),
        ),
    )
}


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, oracle first."""
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
    policy).  Unknown names raise ``ValueError`` and illegal combinations of
    the selector's features (:func:`check_supported`)
    :class:`~repro.runtime.backend.UnsupportedBackendError` here, before a
    caller has registered a handler.  ``incremental=True`` resolves for the
    delta survey: it adds the ``incremental`` feature.
    """
    if isinstance(engine, EngineSpec):
        if _REGISTRY.get(engine.name) is not engine:
            raise ValueError(
                f"engine {engine.name!r} is not the registered spec of that name"
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
    features = selector_features(config, spec)
    check_supported(features | {"incremental"} if incremental else features)
    return spec, config


def resolve_engine(engine: Any = None) -> EngineSpec:
    """The :class:`EngineSpec` an ``engine=`` selector names."""
    return resolve_execution(engine)[0]


def oracle_builder(spec: EngineSpec, program: str) -> Optional[Callable[..., Any]]:
    """The :mod:`repro.oracle` builder of ``program`` (``"push"``,
    ``"push_pull"`` or ``"delta"``) when ``spec`` is the ``legacy`` engine,
    else None: the production builders hand the oracle its programs here."""
    if spec.name != "legacy":
        return None
    from ...oracle import LEGACY_BUILDERS  # the one production import of the oracle

    return LEGACY_BUILDERS[program]


_OWN_KERNELS = "the legacy oracle runs its own pairwise kernels, not the row-kernel tiers"
_DELTA = (
    "incremental (delta) surveys run resident on backend='simulated' only: the process "
    "backend and mmap storage are parity-gated on the full-survey programs, not on the "
    "delta program's per-batch edge masks and new-entry views"
)

#: Every illegal execution combination, one row each: the features a request
#: must all have to be rejected, and why.  :func:`check_supported` rejects a
#: request by the first row it wholly contains; every other combination of
#: the selector axes, the world's installed machinery and the callback runs.
#: ``docs/architecture.md`` renders this table and ``tools/check_engines.py``
#: keeps the two equal.
UNSUPPORTED: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("engine=legacy", "kernel_tier=columnar"), _OWN_KERNELS),
    (("engine=legacy", "kernel_tier=compiled"), _OWN_KERNELS),
    (("backend=process", "fault_plan"), "an installed FaultPlan's fates are defined "
     "over the simulated transport's delivery sweeps, which process rounds do not replay"),
    (("backend=process", "deadline"), "an installed deadline is checked in-process "
     "between rank batches"),
    (("backend=process", "ranks_per_node>1"), "rank-sharded workers assume one buffer "
     "stream per (source, dest) rank pair, not node-aggregated buffers"),
    (("backend=process", "callback_without_worker_state"), "callback state ships home "
     "from the workers only through worker_rank_state / absorb_rank_state"),
    (("backend=process", "no_fork"), "handlers and the graph reach the workers "
     "copy-on-write through the fork start method"),
    (("backend=process", "no_shared_memory"), "workers exchange messages through "
     "multiprocessing.shared_memory"),
    (("incremental", "backend=process"), _DELTA),
    (("incremental", "workers"), _DELTA),
    (("incremental", "storage=mmap"), _DELTA),
)


def check_supported(features: Iterable[str]) -> None:
    """Reject a request with ``features`` by the first :data:`UNSUPPORTED`
    row it wholly contains: the one place an illegal combination raises."""
    present = set(features)
    for row, reason in UNSUPPORTED:
        if present.issuperset(row):
            raise UnsupportedBackendError(f"{' × '.join(row)} is not supported: {reason}")


def selector_features(request: Any, spec: EngineSpec) -> Set[str]:
    """The execution-axis features of ``request`` run on ``spec``.

    ``request`` is anything with ``kernel`` / ``backend`` / ``workers`` /
    ``kernel_tier`` / ``storage`` attributes (a defaulted
    :class:`EngineConfig` or a :class:`SurveyRequest`).  Unknown names are
    not combinations: they raise ``ValueError`` here, with a did-you-mean
    suffix.  ``None`` / ``"auto"`` tiers and unset storage add no feature.
    """
    from ...graph.ooc import STORAGES, StorageConfig
    from ..intersection import COMPARISON_COUNTS, KERNEL_TIERS

    _require_known("intersection kernel", request.kernel, tuple(COMPARISON_COUNTS))
    _require_known("execution backend", request.backend, BACKENDS)
    features = {f"engine={spec.name}", f"backend={request.backend}"}
    tier = request.kernel_tier
    if tier is not None and tier != "auto":
        _require_known("kernel tier", tier, KERNEL_TIERS)
        features.add(f"kernel_tier={tier}")
    storage = request.storage
    if isinstance(storage, StorageConfig):
        storage = storage.mode
    if storage is not None:
        _require_known("storage mode", storage, STORAGES)
        features.add(f"storage={storage}")
    if request.workers is not None:
        features.add("workers")
    return features


def survey_features(request: Any, spec: EngineSpec) -> Set[str]:
    """:func:`selector_features` plus what a :class:`SurveyRequest`'s world,
    callback and platform bring: an installed fault plan or deadline, node
    aggregation, a callback without the worker-state protocol, and a missing
    ``fork`` start method or ``shared_memory``."""
    import multiprocessing

    from ...runtime.backend.process import worker_state_owner
    from ...runtime.backend.shm import shared_memory_available

    world = request.dodgr.world
    features = selector_features(request, spec)
    if world._injector is not None or world._transport is not None:
        features.add("fault_plan")
    if world._deadline is not None:
        features.add("deadline")
    if world.ranks_per_node != 1:
        features.add("ranks_per_node>1")
    if request.callback is not None and worker_state_owner(request.callback) is None:
        features.add("callback_without_worker_state")
    if "fork" not in multiprocessing.get_all_start_methods():
        features.add("no_fork")
    if not shared_memory_available():
        features.add("no_shared_memory")
    return features
