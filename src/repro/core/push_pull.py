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
``engine=`` keyword selects a registered
:class:`~repro.core.engine.EngineSpec` whose ``proposal_style`` /
``push_style`` / ``pull_style`` fields pick the strategy of each phase, and
:func:`~repro.core.engine.push_pull.run_push_pull_survey` executes the
request on the shared driver core.  Every engine keeps the Table 3/Table 4
columns byte-identical — each coalesced message is accounted at the exact
serialized size of the legacy messages it replaces; because dry-run
handlers reply with advise RPCs, the flush-window *split* of those
follow-on messages carries the same bound as RPC-sending callbacks (see
:class:`~repro.runtime.world.BatchedCall`) — identical in practice unless a
rank's proposal stream overflows a buffer mid-drive.
"""

from __future__ import annotations

from typing import Any, Optional

from ..graph.dodgr import DODGraph
from .engine import (
    DEFAULT_CALLBACK_COMPUTE_UNITS,
    DRY_RUN_PHASE,
    PULL_PHASE,
    PUSH_PHASE,
    SurveyRequest,
    TriangleCallback,
    resolve_backend,
    resolve_engine,
    split_backend_selector,
    split_engine_selector,
    split_execution_selector,
)
from .engine.push_pull import run_push_pull_survey
from .results import SurveyReport
from .survey import _handle_deprecated_batched

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
    kernel: str = "merge_path",
    reset_stats: bool = True,
    graph_name: Optional[str] = None,
    callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS,
    batched: Optional[bool] = None,
    engine=None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    kernel_tier: Optional[str] = None,
    storage=None,
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
    kernel:
        Intersection kernel name (``merge_path``, ``binary_search``,
        ``hash``); the paper's system uses merge-path.
    reset_stats:
        Clear the world's counters before running so the report reflects
        only this survey.
    callback_compute_units:
        Abstract compute units charged per identified triangle when a
        callback is supplied (see
        :data:`~repro.core.survey.DEFAULT_CALLBACK_COMPUTE_UNITS`).
    batched:
        Deprecated PR 1 selector; ``batched=True`` maps to
        ``engine="batched"`` with a ``DeprecationWarning``.  Use ``engine=``.
    engine:
        Engine selector (name, :class:`~repro.core.engine.EngineSpec` or
        :class:`~repro.core.engine.EngineConfig`).  ``"batched"`` coalesces
        the dry run into one RPC per (source, dest) rank pair, the push
        phase per (destination rank, q), and intersects each pull delivery
        in one batch-kernel call; ``"columnar"`` additionally runs all
        three phases as array expressions over the CSR (columnar dry run,
        mask-driven push, index-driven pull), delivers triangles as
        :class:`~repro.graph.metadata.TriangleBatch` columns, and coalesces
        the pull phase into one RPC per (owner, requester) pair.  All
        engines keep every communication total byte-identical (see the
        module docstring).

    backend:
        Execution backend: ``"simulated"`` (default) or ``"process"``
        (rank-sharded forked workers; bit-identical panels, byte-identical
        wire totals).  An :class:`~repro.core.engine.EngineConfig` with a
        set ``backend`` field overrides this keyword.
    workers:
        Worker-process count for ``backend="process"`` (``None`` = auto).
    kernel_tier:
        Intersection kernel tier (``"compiled"``/``"columnar"``/``"scalar"``;
        ``None``/``"auto"`` = best available, downgrading along
        ``compiled -> columnar -> scalar`` when a tier is unavailable).
    storage:
        CSR storage mode: ``None``/``"resident"`` or ``"mmap"`` (tracked
        memmap segments), or a :class:`~repro.graph.ooc.StorageConfig`;
        ``"mmap"`` requires the simulated backend.

    The returned report carries the three-phase breakdown (dry run / push /
    pull) and the number of pulled adjacency lists used for Table 3.
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
        algorithm="push_pull",
        kernel=kernel,
        reset_stats=reset_stats,
        graph_name=graph_name,
        callback_compute_units=callback_compute_units,
        backend=resolve_backend(backend),
        workers=workers,
        kernel_tier=kernel_tier,
        storage=storage,
    )
    return run_push_pull_survey(request, spec).report


def triangle_survey(
    dodgr: DODGraph,
    callback: Optional[TriangleCallback] = None,
    algorithm: str = "push_pull",
    **kwargs: Any,
) -> SurveyReport:
    """Dispatch to the requested survey algorithm (``"push"`` or ``"push_pull"``).

    Remaining keyword arguments — including the ``engine=`` selector (an
    engine name or an :class:`~repro.core.engine.EngineConfig`) — are
    forwarded to the chosen survey function.  The deprecated ``batched=``
    boolean is translated here (warning attributed to the caller, not to
    this dispatcher) so the one-release back-compat notice reaches user
    code on every entry path.
    """
    if "batched" in kwargs:
        batched = _handle_deprecated_batched(kwargs.pop("batched"))
        if kwargs.get("engine") is None:
            kwargs["engine"] = "batched" if batched else "legacy"
    if algorithm == "push":
        from .survey import triangle_survey_push

        return triangle_survey_push(dodgr, callback, **kwargs)
    if algorithm == "push_pull":
        return triangle_survey_push_pull(dodgr, callback, **kwargs)
    raise ValueError(f"unknown survey algorithm {algorithm!r}")
