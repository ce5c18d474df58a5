"""Push-Pull triangle survey (Section 4.4 of the paper).

The Push-Only algorithm can move enormous amounts of adjacency data towards
popular target vertices.  The Push-Pull optimisation adds a choice per
(source rank, target vertex) pair:

1. **Dry-run phase** — every rank walks its local pivots exactly like the
   push pass but *without sending adjacency data*: it only counts, per target
   vertex ``q``, how many candidate edges it would push to ``q`` in total
   across all of its local pivots, and remembers pointers to those pivots.
   It then sends one proposal message per (rank, ``q``) with the count.
   The owner of ``q`` compares the count against ``|Adj+(q)|``: if the
   adjacency list is smaller, it records the source rank in ``q``'s pull
   list; otherwise it replies telling the source rank to push as usual.
2. **Push phase** — identical to Push-Only, but sources skip every target
   whose adjacency list will be pulled instead.
3. **Pull phase** — owners send ``Adj^m_+(q)`` (coalesced: at most once per
   requesting rank) to the ranks on each pull list; the receiving rank runs
   the merge-path intersection locally for all of its pivots that wanted
   ``q``, and executes the callback there (all six metadata pieces are
   available: p's data is local, q's came with the pull).

Locally owned targets are always handled in the push phase — messages to
yourself never touch the wire, so pulling them cannot help.

This module is a thin entry point over :mod:`repro.core.engine`: the
``engine=`` keyword — the only execution selector — names the engine
(``columnar`` by default, or the ``legacy`` oracle of :mod:`repro.oracle`),
and :func:`~repro.core.engine.execute_survey` executes the
request on that engine's program.  Both engines keep the Table 3/Table 4
columns byte-identical — each coalesced message is accounted at the exact
serialized size of the legacy messages it replaces; because dry-run
handlers reply with advise RPCs, the flush-window *split* of those
follow-on messages carries the same bound as RPC-sending callbacks (see
:meth:`~repro.runtime.world.RankContext.async_call_batched`) — identical
in practice unless a rank's proposal stream overflows a buffer mid-drive.
"""

from __future__ import annotations

from typing import Any, Optional

from ..graph.dodgr import DODGraph
from .engine import (
    DEFAULT_CALLBACK_COMPUTE_UNITS,
    DRY_RUN_PHASE,
    PULL_PHASE,
    PUSH_PHASE,
    EngineSelector,
    SurveyRequest,
    TriangleCallback,
    execute_survey,
    resolve_execution,
)
from .results import SurveyReport
from .survey import triangle_survey_push

__all__ = [
    "triangle_survey_push_pull",
    "triangle_survey",
    "DRY_RUN_PHASE",
    "PUSH_PHASE",
    "PULL_PHASE",
]


def triangle_survey_push_pull(
    dodgr: DODGraph,
    callback: Optional[TriangleCallback] = None,
    reset_stats: bool = True,
    graph_name: Optional[str] = None,
    callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
    engine: EngineSelector = None,
) -> SurveyReport:
    """Run the Push-Pull triangle survey over ``dodgr``.

    Parameters
    ----------
    dodgr:
        The degree-ordered directed graph built by :meth:`DODGraph.build`.
    callback:
        ``callback(ctx, tri)`` executed for every triangle on the rank where
        it is identified (the owner of ``q`` in the push phase, the pivot's
        rank in the pull phase).  ``None`` counts triangles only.
    reset_stats:
        Clear the world's counters before running so the report reflects
        only this survey.
    callback_compute_units:
        Abstract compute units charged per identified triangle when a
        callback is supplied (see
        :data:`~repro.core.survey.DEFAULT_CALLBACK_COMPUTE_UNITS`).
    engine:
        The execution selector (name, :class:`~repro.core.engine.EngineSpec`
        or :class:`~repro.core.engine.EngineConfig`, which also pins kernel,
        backend, workers, kernel tier and storage).  ``"columnar"`` — the
        default — runs all three phases as array expressions over the CSR
        (columnar dry run, mask-driven push, index-driven pull), delivers
        triangles as :class:`~repro.graph.metadata.TriangleBatch` columns,
        and coalesces the pull phase into one RPC per (owner, requester)
        pair; ``"legacy"`` is the scalar oracle.  All engines keep every communication total
        byte-identical (see the module docstring).

    The returned report carries the three-phase breakdown (dry run / push /
    pull) and the number of pulled adjacency lists used for Table 3.
    """
    spec, config = resolve_execution(engine)
    request = SurveyRequest(
        dodgr=dodgr,
        callback=callback,
        algorithm="push_pull",
        reset_stats=reset_stats,
        graph_name=graph_name,
        callback_compute_units=callback_compute_units,
        **config.axes(),
    )
    return execute_survey(request, spec).report


def triangle_survey(
    dodgr: DODGraph,
    callback: Optional[TriangleCallback] = None,
    algorithm: str = "push_pull",
    **kwargs: Any,
) -> SurveyReport:
    """Dispatch to the requested survey algorithm (``"push"`` or ``"push_pull"``).

    Remaining keyword arguments — including the ``engine=`` selector (an
    engine name or an :class:`~repro.core.engine.EngineConfig`) — are
    forwarded to the chosen survey function.
    """
    if algorithm == "push":
        return triangle_survey_push(dodgr, callback, **kwargs)
    if algorithm == "push_pull":
        return triangle_survey_push_pull(dodgr, callback, **kwargs)
    raise ValueError(f"unknown survey algorithm {algorithm!r}")
