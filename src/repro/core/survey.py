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
in :mod:`repro.core.engine`: the ``engine=`` keyword — the only execution
selector — names one of the two :class:`~repro.core.engine.EngineSpec`
rows: ``columnar`` by default, or the ``legacy`` oracle (the scalar
engine of :mod:`repro.oracle`).
:func:`~repro.core.engine.execute_survey` executes the request on the
engine's program.  Both engines share the equivalence contract: same
triangles, same callback invocations, same per-phase counters, and
byte-identical Table 4 communication accounting (each coalesced message is
accounted as the exact legacy messages it replaces).  One bound on the
contract: if the *callback itself* sends RPCs mid-survey, all totals (RPC
counts, payload bytes, compute) still match, but those follow-on messages
can land in different flush windows, shifting ``wire_messages`` and the
per-flush envelope bytes; see
:meth:`~repro.runtime.world.RankContext.async_call_batched` for why, and ``tests/core/test_coalesced_survey.py`` for the exact invariants
pinned in each regime.
"""

from __future__ import annotations

from typing import Optional

from ..graph.dodgr import DODGraph
from .engine import (
    DEFAULT_CALLBACK_COMPUTE_UNITS,
    PUSH_PHASE,
    EngineSelector,
    SurveyRequest,
    TriangleCallback,
    execute_survey,
    resolve_batch_callback,
    resolve_execution,
)
from .results import SurveyReport

__all__ = [
    "triangle_survey_push",
    "TriangleCallback",
    "PUSH_PHASE",
    "DEFAULT_CALLBACK_COMPUTE_UNITS",
    "resolve_batch_callback",
]


def triangle_survey_push(
    dodgr: DODGraph,
    callback: Optional[TriangleCallback] = None,
    reset_stats: bool = True,
    graph_name: Optional[str] = None,
    phase_name: str = PUSH_PHASE,
    callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
    engine: EngineSelector = None,
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
    engine:
        The execution selector: a registered engine name (``"columnar"`` —
        the default, ``"legacy"`` — the oracle, ...), an
        :class:`~repro.core.engine.EngineSpec`, or an
        :class:`~repro.core.engine.EngineConfig`, which also pins the
        intersection kernel, backend, worker count, kernel tier and CSR
        storage (see its docstring for each axis).  Engines whose callbacks
        define a ``callback_batch`` counterpart (see
        :func:`~repro.core.engine.resolve_batch_callback`) receive triangles
        as :class:`~repro.graph.metadata.TriangleBatch` columns where the
        engine delivers columnar batches; callbacks without one run
        unchanged via the scalar fallback.  Every engine, backend, tier and
        storage mode shares the equivalence contract described in the
        module docstring.
    """
    spec, config = resolve_execution(engine)
    request = SurveyRequest(
        dodgr=dodgr,
        callback=callback,
        algorithm="push",
        reset_stats=reset_stats,
        graph_name=graph_name,
        phase_name=phase_name,
        callback_compute_units=callback_compute_units,
        **config.axes(),
    )
    return execute_survey(request, spec).report
