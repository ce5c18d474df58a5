"""Push-Only triangle survey (Algorithm 1 of the paper).

For every pivot vertex ``p`` the driver walks ``Adj^m_+(p)`` in degree order;
for each neighbour ``q`` it fires a fire-and-forget RPC at the owner of ``q``
carrying the *remaining suffix* of the adjacency list (the candidate ``r``
vertices) together with ``meta(p)`` and ``meta(p, q)``.  The owner of ``q``
merge-path-intersects the candidates against ``Adj^m_+(q)``; every match
closes a triangle Δpqr, and at that moment all six pieces of metadata are
colocated on ``Rank(q)``, so the user callback executes there.

The callback signature is ``callback(ctx, tri)`` where ``ctx`` is the
destination rank's :class:`~repro.runtime.world.RankContext` and ``tri`` is a
:class:`~repro.graph.metadata.TriangleMetadata`.  Callbacks produce results
purely through side effects (distributed counting sets, per-rank counters,
files); the survey itself returns only telemetry (a
:class:`~repro.core.results.SurveyReport`).

Execution engines
-----------------

This module is a thin entry point over the unified survey-execution layer
in :mod:`repro.core.engine`: the ``engine=`` keyword selects a registered
:class:`~repro.core.engine.EngineSpec` (``legacy``, ``batched``,
``columnar``, plus anything added through
:func:`~repro.core.engine.register_engine`), and
:func:`~repro.core.engine.push.run_push_survey` executes the request on the
shared driver core.  Every engine shares the equivalence contract: same
triangles, same callback invocations, same per-phase counters, and
byte-identical Table 4 communication accounting (each coalesced message is
accounted as the exact legacy messages it replaces).  One bound on the
contract: if the *callback itself* sends RPCs mid-survey, all totals (RPC
counts, payload bytes, compute) still match, but those follow-on messages
can land in different flush windows, shifting ``wire_messages`` and the
per-flush envelope bytes; see :class:`~repro.runtime.world.BatchedCall` for
why, and ``tests/core/test_batched_survey.py`` for the exact invariants
pinned in each regime.

The ``batched=`` boolean (PR 1's selector) is deprecated: pass
``engine="batched"`` instead.  It keeps one release of back-compat, mapping
to ``engine="batched"``/``engine="legacy"`` with a ``DeprecationWarning``.
"""

from __future__ import annotations

import warnings
from typing import Optional

from ..graph.dodgr import DODGraph
from .engine import (
    DEFAULT_CALLBACK_COMPUTE_UNITS,
    PUSH_PHASE,
    SurveyRequest,
    TriangleCallback,
    engine_names,
    resolve_backend,
    resolve_batch_callback,
    resolve_engine,
    split_backend_selector,
    split_engine_selector,
    split_execution_selector,
)
from .engine.push import run_push_survey
from .results import SurveyReport

__all__ = [
    "triangle_survey_push",
    "TriangleCallback",
    "PUSH_PHASE",
    "DEFAULT_CALLBACK_COMPUTE_UNITS",
    "SURVEY_ENGINES",
    "resolve_batch_callback",
]

#: The built-in survey execution engines, in increasing order of aggregation:
#: ``legacy`` sends and intersects one wedge at a time, ``batched`` (PR 1)
#: coalesces pushes per (destination rank, target vertex), ``columnar``
#: (PR 3) coalesces per (source rank, destination rank) pair and delivers
#: triangles to reducers as column batches.  Snapshot taken at
#: import; :func:`repro.core.engine.engine_names` is the live registry view.
SURVEY_ENGINES = engine_names()


def _handle_deprecated_batched(batched: Optional[bool]) -> bool:
    """Map PR 1's ``batched=`` boolean to the engine selector, warning once per
    call site.  ``None`` (the default) means the keyword was not passed.

    Callers must be exactly one frame below the user (the direct entry
    points, and the ``triangle_survey`` dispatcher — which translates the
    flag itself rather than forwarding it — both are): ``stacklevel=3``
    then attributes the warning to the user's call site, so Python's
    default filters actually display the one-release back-compat notice.
    """
    if batched is None:
        return False
    warnings.warn(
        "the batched= boolean is deprecated; select the engine explicitly "
        "with engine='batched' (or engine='legacy')",
        DeprecationWarning,
        stacklevel=3,
    )
    return bool(batched)


def triangle_survey_push(
    dodgr: DODGraph,
    callback: Optional[TriangleCallback] = None,
    kernel: str = "merge_path",
    reset_stats: bool = True,
    graph_name: Optional[str] = None,
    phase_name: str = PUSH_PHASE,
    callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
    batched: Optional[bool] = None,
    engine=None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    kernel_tier: Optional[str] = None,
    storage=None,
) -> SurveyReport:
    """Run the Push-Only triangle survey over ``dodgr``.

    Parameters
    ----------
    dodgr:
        The degree-ordered directed graph built by :meth:`DODGraph.build`.
    callback:
        ``callback(ctx, tri)`` executed for every triangle on the rank where
        it is identified.  ``None`` counts triangles only (the telemetry's
        ``triangles`` field is always maintained).
    kernel:
        Intersection kernel name (``merge_path``, ``binary_search``,
        ``hash``); the paper's system uses merge-path.
    reset_stats:
        Clear the world's counters before running so the report reflects only
        this survey (set False to accumulate, e.g. when measuring end-to-end
        pipelines including construction).
    phase_name:
        Name of the measurement phase the survey's counters accumulate under
        (default ``"push"``).
    callback_compute_units:
        Abstract compute units charged per identified triangle when a
        callback is supplied (see :data:`DEFAULT_CALLBACK_COMPUTE_UNITS`).
    batched:
        Deprecated PR 1 selector; ``batched=True`` maps to
        ``engine="batched"`` with a ``DeprecationWarning``.  Use ``engine=``.
    engine:
        Engine selector: a registered engine name (``"legacy"`` — the
        default, ``"batched"``, ``"columnar"``, ...),
        an :class:`~repro.core.engine.EngineSpec`, or an
        :class:`~repro.core.engine.EngineConfig` (which also pins ``kernel``
        and ``callback_compute_units``).  Engines whose callbacks define a
        ``callback_batch`` counterpart (see
        :func:`~repro.core.engine.resolve_batch_callback`) receive triangles
        as :class:`~repro.graph.metadata.TriangleBatch` columns where the
        engine delivers columnar batches; callbacks without one run
        unchanged via the scalar fallback.  Every engine shares the
        equivalence contract described in the module docstring.
    backend:
        Execution backend: ``"simulated"`` (default, the single-process
        oracle) or ``"process"`` (rank-sharded forked workers over shared
        memory; bit-identical reducer panels, byte-identical wire totals).
        An :class:`~repro.core.engine.EngineConfig` with a set ``backend``
        field overrides this keyword.
    workers:
        Worker-process count for ``backend="process"`` (``None`` = auto:
        capped at four, the host's cores and the rank count).
    kernel_tier:
        Intersection kernel tier (``"compiled"``, ``"columnar"``,
        ``"scalar"``; ``None``/``"auto"`` = the engine's best available).
        Tiers are interchangeable under the equivalence contract —
        unavailable ones (no numba wheel) downgrade along
        ``compiled -> columnar -> scalar``.
    storage:
        CSR storage mode: ``None``/``"resident"`` (in-memory, the default)
        or ``"mmap"`` (columns spilled to tracked memmap segments), or a
        :class:`~repro.graph.ooc.StorageConfig` pinning a memory budget and
        segment directory.  ``"mmap"`` requires the simulated backend.
    """
    backend, workers = split_backend_selector(engine, backend, workers)
    kernel_tier, storage = split_execution_selector(engine, kernel_tier, storage)
    engine, kernel, callback_compute_units = split_engine_selector(
        engine, kernel, callback_compute_units
    )
    spec = resolve_engine(engine, batched=_handle_deprecated_batched(batched))
    request = SurveyRequest(
        dodgr=dodgr,
        callback=callback,
        algorithm="push",
        kernel=kernel,
        reset_stats=reset_stats,
        graph_name=graph_name,
        phase_name=phase_name,
        callback_compute_units=callback_compute_units,
        backend=resolve_backend(backend),
        workers=workers,
        kernel_tier=kernel_tier,
        storage=storage,
    )
    return run_push_survey(request, spec).report
