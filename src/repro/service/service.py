"""The resident survey service: ingest loop + deadline-bounded queries.

:class:`SurveyService` is the serving story over the engine registry
(ROADMAP item 2): one long-lived owner of a live graph — its resident
streaming ledger's, fed one :class:`~repro.graph.delta.DeltaBuffer` write
per batch — answering survey queries (analysis × engine × window) while
ingest keeps running.  Its contract is the robustness headline of this
layer: **every query gets a structured answer within its deadline —
exact, cached, resumed, or approximate with error bounds — never a hang
and never an exception.**

Snapshot isolation
    Every applied batch is an *epoch*.  The ledger rebuilds an immutable
    :class:`~repro.graph.dodgr.DODGraph` per batch; the service retains
    (:meth:`~repro.graph.dodgr.DODGraph.retain`) each epoch's while any
    in-flight query has it pinned and releases it the moment its last
    query completes, so a query admitted at epoch ``e`` surveys exactly the
    graph of epoch ``e`` no matter how many batches land while it waits —
    the graph outlives the ledger's own release of it.  Panels served from
    the resident ledger are reducer ``snapshot()`` values — frozen at their
    epoch by construction.

The degradation ladder
    Each query walks, in order: the panel cache (keyed on analysis ×
    engine × epoch × window, with a cross-engine equivalence index) → a
    fresh exact survey on the pinned epoch (with bounded
    exponential-backoff retries through recoverable rank crashes, skipped
    when the cost model predicts a deadline bust) → the resident
    :class:`~repro.core.incremental.StreamingSurvey`
    ledger's checkpointed cumulative panels (exact for the stock
    reducers, by replay parity) → a sampled
    :func:`~repro.core.approximate.approximate_triangle_count` or — after
    permanent rank loss —
    :func:`~repro.core.approximate.survivor_triangle_estimate`, both
    carrying ``stderr`` and a confidence interval.

Deadlines
    A per-query monotonic :class:`~repro.service.deadline.Deadline`
    starts at submit.  During the exact rung it is installed on the world
    (:meth:`World.deadline_scope`), which polls it every delivery sweep;
    the engine drivers add per-rank checkpoints.  Expiry aborts the
    survey at the next checkpoint, the world's volatile in-flight state
    is cleared (:meth:`World.recover_from_crash`), and the query
    continues down the ladder — an over-deadline query degrades, it does
    not hang.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from collections import deque

from ..core.approximate import approximate_triangle_count, survivor_triangle_estimate
from ..core.callbacks import (
    ClosureTimeSurvey,
    LocalTriangleCounter,
    MaxEdgeLabelDistribution,
    merge_count_dicts,
)
from ..core.engine import (
    CheckpointPolicy,
    SurveyRequest,
    execute_survey,
    resolve_engine,
)
from ..core.engine.registry import suggest_name
from ..core.incremental import StreamingSurvey
from ..runtime.faults import FaultPlan, RankCrashError
from ..runtime.world import World
from .admission import AdmissionController, CostModel
from .cache import CacheEntry, PanelCache
from .deadline import Deadline, DeadlineExceeded
from .stats import ServiceCounters, ServiceStats

__all__ = [
    "ANALYSES",
    "ServiceError",
    "ServicePolicy",
    "SurveyAnswer",
    "SurveyQuery",
    "SurveyService",
]

#: pseudo-engine names used in answers/cache keys for non-exact rungs
LEDGER_ENGINE = "ledger"
APPROX_ENGINE = "~approximate"


class ServiceError(RuntimeError):
    """A misuse of the service API (never raised for runtime faults)."""


def _edge_label(meta: Any) -> Any:
    """Label component of :func:`~repro.graph.metadata.temporal_edge_meta`."""
    return meta[1] if isinstance(meta, tuple) else meta


@dataclass(frozen=True)
class AnalysisSpec:
    """One queryable analysis: a reducer factory plus its panel merge."""

    name: str
    reducer_factory: Callable[[World], Any]
    #: merge half of the reducer snapshot()/merge() contract
    merge: Callable[[Iterable[Any]], Any]


#: Analysis axis the service serves, mirroring the sweep runner's
#: full-survey analyses (same names, same reducers).
ANALYSES: Dict[str, AnalysisSpec] = {
    "triangle": AnalysisSpec(
        "triangle", LocalTriangleCounter, merge_count_dicts
    ),
    "closure": AnalysisSpec("closure", ClosureTimeSurvey, merge_count_dicts),
    "labels": AnalysisSpec(
        "labels",
        lambda world: MaxEdgeLabelDistribution(world, edge_label=_edge_label),
        merge_count_dicts,
    ),
}


def get_analysis(name: str) -> AnalysisSpec:
    """Resolve an analysis name, with the registry-style suggestion error."""
    spec = ANALYSES.get(name)
    if spec is None:
        known = tuple(ANALYSES)
        raise ValueError(
            f"unknown analysis {name!r}; known: {known}"
            f"{suggest_name(name, known)}"
        )
    return spec


def make_composite_reducer(specs: Tuple[AnalysisSpec, ...]) -> type:
    """A reducer class fanning callbacks out to one reducer per analysis.

    The resident ledger surveys every tracked analysis in a single pass:
    ``snapshot()`` returns ``{analysis: panel}`` and the classmethod
    ``merge`` merges per analysis, so composite panels satisfy the same
    snapshot/merge contract :class:`~repro.core.incremental.StreamingSurvey` expects.
    Both ``callback`` and ``callback_batch`` are defined in one class so
    the driver's batch-callback resolution engages columnar delivery.
    """

    class _CompositeReducer:
        _specs = specs

        def __init__(self, world: World) -> None:
            self.parts = {
                spec.name: spec.reducer_factory(world) for spec in specs
            }

        def callback(self, ctx: Any, tri: Any) -> None:
            for reducer in self.parts.values():
                reducer.callback(ctx, tri)

        def callback_batch(self, ctx: Any, batch: Any) -> None:
            for reducer in self.parts.values():
                reducer.callback_batch(ctx, batch)

        def finalize(self) -> None:
            for reducer in self.parts.values():
                if hasattr(reducer, "finalize"):
                    reducer.finalize()

        def snapshot(self) -> Dict[str, Any]:
            return {
                name: reducer.snapshot()
                for name, reducer in self.parts.items()
            }

        @classmethod
        def merge(cls, snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
            snaps = list(snapshots)
            return {
                spec.name: spec.merge([snap[spec.name] for snap in snaps])
                for spec in cls._specs
            }

    return _CompositeReducer


# ---------------------------------------------------------------------------
# Query / answer model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyQuery:
    """One survey question: analysis × engine × window (+ time budget)."""

    analysis: str
    #: registered engine name; ``None`` = the service's default engine
    engine: Optional[str] = None
    #: ``None`` = cumulative (all batches so far); ``k`` = last ``k``
    #: batches ending at the pinned epoch (served from ledger panels)
    window: Optional[int] = None
    #: ``None`` = the service policy's default deadline
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window is not None and self.window < 1:
            raise ValueError("window must be at least 1 batch")
        if self.timeout_s is not None and self.timeout_s < 0:
            raise ValueError("timeout_s must be non-negative")


@dataclass(frozen=True)
class SurveyAnswer:
    """The structured answer every query is guaranteed to receive."""

    query: SurveyQuery
    #: one of :data:`repro.service.stats.OUTCOMES`
    outcome: str
    #: engine that produced the payload: a registry name, ``"ledger"``,
    #: ``"~approximate"``, or ``""`` for shed queries
    engine: str
    #: epoch the query pinned at submit (-1 when shed before pinning)
    epoch: int
    #: epoch the payload actually describes (approximate answers are
    #: computed on the live graph and may trail or lead the pinned epoch)
    answered_epoch: int
    #: True when the payload is bit-identical to a fresh exact survey
    exact: bool
    panel: Any = None
    #: ApproximateCount / SurvivorEstimate when the answer is an estimate
    estimate: Any = None
    #: rungs the query walked, e.g. ("cache:miss", "exact", ...)
    degradation_path: Tuple[str, ...] = ()
    retries: int = 0
    #: shed answers only: suggested client back-off in seconds
    retry_after_s: Optional[float] = None
    #: submit-to-answer wall time
    latency_s: float = 0.0

    @property
    def stderr(self) -> Optional[float]:
        return self.estimate.stderr if self.estimate is not None else None

    def confidence_interval(self, z: float = 1.96) -> Optional[Tuple[float, float]]:
        if self.estimate is None:
            return None
        return self.estimate.confidence_interval(z)


class QueryTicket:
    """Handle for a submitted query; ``answer`` is set once processed."""

    __slots__ = ("id", "query", "epoch", "deadline", "answer", "_submitted")

    def __init__(
        self, ticket_id: int, query: SurveyQuery, epoch: int, deadline: Deadline
    ) -> None:
        self.id = ticket_id
        self.query = query
        self.epoch = epoch
        self.deadline = deadline
        self.answer: Optional[SurveyAnswer] = None
        self._submitted = time.perf_counter()

    @property
    def done(self) -> bool:
        return self.answer is not None

    def latency(self) -> float:
        return time.perf_counter() - self._submitted


@dataclass(frozen=True)
class ServicePolicy:
    """Service-wide knobs: queue, deadlines, retries, degradation."""

    #: bounded queue depth; submits beyond it are shed
    max_queue_depth: int = 16
    #: default per-query deadline when the query does not set one
    default_timeout_s: float = 30.0
    #: exact-rung retry budget through recoverable rank crashes
    max_retries: int = 2
    #: base of the exponential back-off between retries, in seconds
    #: (``base * 2**attempt``; 0 keeps the schedule but never sleeps,
    #: which is what deterministic tests want)
    retry_backoff_s: float = 0.0
    #: safety margin multiplied into cost-model estimates before they are
    #: compared against a query's remaining budget
    cost_safety: float = 1.5
    #: EWMA smoothing for the cost model
    cost_smoothing: float = 0.3
    #: panel-cache capacity (entries)
    cache_entries: int = 1024
    #: per-batch panels retained for window queries (``None`` = all)
    panel_retention: Optional[int] = None
    #: edge-keep probability of the sampled approximate rung
    approximate_probability: float = 0.3
    approximate_seed: int = 0
    #: checkpoint/restart policy of the resident ledger
    checkpoint: CheckpointPolicy = field(default_factory=CheckpointPolicy)

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if self.default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if self.panel_retention is not None and self.panel_retention < 1:
            raise ValueError("panel_retention must be at least 1")


class _Epoch:
    """One epoch's DODGr, retained from the ledger, with its query pins."""

    __slots__ = ("dodgr", "directed_edges", "pins")

    def __init__(self, dodgr: Any, directed_edges: int) -> None:
        self.dodgr = dodgr
        self.directed_edges = directed_edges
        self.pins = 0


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class SurveyService:
    """A resident, deadline-bounded survey server over the engine registry."""

    def __init__(
        self,
        world: World,
        analyses: Optional[Iterable[str]] = None,
        plan: Optional[FaultPlan] = None,
        policy: Optional[ServicePolicy] = None,
        engine: Optional[str] = None,
        name: str = "service",
    ) -> None:
        self.world = world
        self.policy = policy or ServicePolicy()
        names = tuple(analyses) if analyses is not None else tuple(ANALYSES)
        self.analyses: Dict[str, AnalysisSpec] = {
            analysis: get_analysis(analysis) for analysis in names
        }
        #: default exact engine; queries may override per-query
        self.default_engine = resolve_engine(engine).name
        self.name = name
        self.plan = plan
        # The resident ledger: one streaming pass surveys every tracked
        # analysis; it owns the live graph and plan installation
        # (world-armed), checkpoints per policy, and degrades on permanent
        # loss instead of raising.  Exact queries survey its per-batch
        # DODGrs, which the epochs below retain.
        self._ledger = StreamingSurvey(
            world,
            reducer_factory=make_composite_reducer(tuple(self.analyses.values())),
            plan=plan,
            policy=self.policy.checkpoint,
            graph_name=f"{name}.ledger",
        )
        self._epochs: Dict[int, _Epoch] = {}
        self._epoch = -1
        #: what the last ledger ingest raised (its repr: the exception's
        #: traceback would keep the failed merge's frames alive), until one
        #: succeeds
        self._failed_ingest: Optional[str] = None
        #: per-epoch composite panels / cumulative merges from the ledger
        #: (``None`` marks a degraded ingest step)
        self._panel_history: Dict[int, Optional[Dict[str, Any]]] = {}
        self._cumulative: Dict[int, Optional[Dict[str, Any]]] = {}
        self._lost_ranks: Set[int] = set()
        self.cache = PanelCache(self.policy.cache_entries)
        self.cost_model = CostModel(self.policy.cost_smoothing)
        self.admission = AdmissionController(
            self.policy.max_queue_depth, self.cost_model
        )
        self.counters = ServiceCounters()
        self._queue: Deque[QueryTicket] = deque()
        self._ticket_ids = itertools.count()
        self._closed = False

    def _require_open(self, operation: str) -> None:
        if self._closed:
            raise ServiceError(f"service {self.name!r} is closed; {operation}() needs an open one")

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        edges: Iterable[Tuple[Any, Any, Any]],
        vertex_meta: Optional[Dict[Any, Any]] = None,
    ) -> Any:
        """Apply one edge batch: advance the epoch, survey the ledger.

        Returns the ledger's
        :class:`~repro.core.incremental.StreamingStep`.
        In-flight queries are unaffected: they hold pins on their epochs'
        graphs, and ledger panels for past epochs are already frozen.

        Every epoch no query pins, the live one included, is released
        first, so the superseded graph is not resident through the merge
        and the rebuild.  If the ledger's ingest raises, the epoch does not
        advance and an unpinned live epoch has no graph: a query submitted
        at it raises :class:`ServiceError` (a ``RuntimeError``) naming the
        failed ingest, until an ingest succeeds.
        """
        self._require_open("ingest")
        self._release_unpinned()
        try:
            step = self._ledger.ingest(edges, vertex_meta)
        except BaseException as error:
            self._failed_ingest = repr(error)
            raise
        self._failed_ingest = None
        epoch = step.batch_index
        self._epoch = epoch
        dodgr = self._ledger.dodgr.retain()
        self._epochs[epoch] = _Epoch(dodgr, dodgr.num_directed_edges())
        if step.degraded:
            self._panel_history[epoch] = None
            self._cumulative[epoch] = None
        else:
            self._panel_history[epoch] = step.snapshot
            self._cumulative[epoch] = step.cumulative
        self._trim_panel_history()
        self.counters.epochs_ingested += 1
        self.counters.ledger_restarts += step.restarts
        self.counters.ledger_replayed_batches += step.replayed_batches
        injector = self.world.fault_injector
        if injector is not None and injector.crashed_ranks:
            if not injector.plan.crash_recoverable:
                self._lost_ranks.update(injector.crashed_ranks)
        return step

    def _trim_panel_history(self) -> None:
        retention = self.policy.panel_retention
        if retention is None:
            return
        floor = self._epoch - retention + 1
        for history in (self._panel_history, self._cumulative):
            for epoch in [e for e in history if e < floor]:
                del history[epoch]

    # ------------------------------------------------------------------
    # Epoch pinning
    # ------------------------------------------------------------------
    def _pin(self, epoch: int) -> None:
        self._epochs[epoch].pins += 1

    def _unpin(self, epoch: int) -> None:
        entry = self._epochs.get(epoch)
        if entry is None:
            return
        entry.pins -= 1
        if entry.pins <= 0 and epoch != self._epoch:
            entry.dodgr.release()
            del self._epochs[epoch]

    def _release_unpinned(self) -> None:
        for epoch in [e for e, entry in self._epochs.items() if entry.pins <= 0]:
            self._epochs[epoch].dodgr.release()
            del self._epochs[epoch]

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Optional[SurveyQuery] = None,
        *,
        analysis: Optional[str] = None,
        engine: Optional[str] = None,
        window: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> QueryTicket:
        """Admit a query (or shed it).  The deadline starts *now*.

        Saturated-queue submits first try the cache — a cache hit costs
        nothing and sheds nobody — and otherwise come back answered with
        ``outcome="shed"`` and a retry-after hint.
        """
        self._require_open("submit")
        if query is None:
            if analysis is None:
                raise ServiceError("submit() needs a query or an analysis")
            query = SurveyQuery(
                analysis=analysis,
                engine=engine,
                window=window,
                timeout_s=timeout_s,
            )
        if query.analysis not in self.analyses:
            known = tuple(self.analyses)
            raise ValueError(
                f"unknown analysis {query.analysis!r}; known: {known}"
                f"{suggest_name(query.analysis, known)}"
            )
        engine_name = self._engine_name(query)
        if self._epoch < 0:
            raise ServiceError("no data ingested yet; ingest a batch first")
        if self._epoch not in self._epochs:
            raise ServiceError(
                f"epoch {self._epoch} has no graph: the ingest after it failed "
                f"({self._failed_ingest}); ingest a batch to restore service"
            )
        budget = (
            query.timeout_s
            if query.timeout_s is not None
            else self.policy.default_timeout_s
        )
        ticket = QueryTicket(
            next(self._ticket_ids), query, self._epoch, Deadline.after(budget)
        )
        self.counters.submitted += 1
        decision = self.admission.admit(len(self._queue))
        if not decision.admitted:
            entry = self._cached_entry(query, engine_name, self._epoch)
            if entry is not None:
                ticket.answer = self._answer_from_cache(
                    ticket, entry, ("admission:saturated", "cache:hit")
                )
            else:
                ticket.answer = self._finish(
                    ticket,
                    SurveyAnswer(
                        query=query,
                        outcome="shed",
                        engine="",
                        epoch=ticket.epoch,
                        answered_epoch=self._epoch,
                        exact=False,
                        degradation_path=("admission:shed",),
                        retry_after_s=decision.retry_after_s,
                        latency_s=ticket.latency(),
                    ),
                )
            return ticket
        self._pin(ticket.epoch)
        self._queue.append(ticket)
        return ticket

    def pump(self, max_queries: Optional[int] = None) -> List[SurveyAnswer]:
        """Process queued queries FIFO; returns the answers produced."""
        answers: List[SurveyAnswer] = []
        while self._queue and (max_queries is None or len(answers) < max_queries):
            ticket = self._queue.popleft()
            try:
                answer = self._execute(ticket)
            finally:
                self._unpin(ticket.epoch)
            ticket.answer = answer
            answers.append(answer)
        return answers

    def query(
        self,
        analysis: str,
        engine: Optional[str] = None,
        window: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> SurveyAnswer:
        """Submit one query and pump until it is answered (FIFO order)."""
        ticket = self.submit(
            analysis=analysis, engine=engine, window=window, timeout_s=timeout_s
        )
        while ticket.answer is None:
            self.pump(max_queries=1)
        return ticket.answer

    # ------------------------------------------------------------------
    # Execution: the degradation ladder
    # ------------------------------------------------------------------
    def _engine_name(self, query: SurveyQuery) -> str:
        if query.engine is None:
            return self.default_engine
        return resolve_engine(query.engine).name

    def _cached_entry(
        self, query: SurveyQuery, engine_name: str, epoch: int
    ) -> Optional[CacheEntry]:
        key = PanelCache.key(query.analysis, engine_name, epoch, query.window)
        entry = self.cache.get(key)
        if entry is not None:
            return entry
        return self.cache.get_equivalent(query.analysis, epoch, query.window)

    def _answer_from_cache(
        self,
        ticket: QueryTicket,
        entry: CacheEntry,
        path: Tuple[str, ...],
    ) -> SurveyAnswer:
        return self._finish(
            ticket,
            SurveyAnswer(
                query=ticket.query,
                outcome="cached",
                engine=entry.engine,
                epoch=ticket.epoch,
                answered_epoch=ticket.epoch,
                exact=entry.exact,
                panel=entry.panel,
                estimate=entry.estimate,
                degradation_path=path,
                latency_s=ticket.latency(),
            ),
        )

    def _finish(self, ticket: QueryTicket, answer: SurveyAnswer) -> SurveyAnswer:
        self.counters.record_outcome(answer.outcome)
        return answer

    def _execute(self, ticket: QueryTicket) -> SurveyAnswer:
        query = ticket.query
        engine_name = self._engine_name(query)
        path: List[str] = []

        # Rung 0: the panel cache (direct key, then cross-engine).
        entry = self._cached_entry(query, engine_name, ticket.epoch)
        if entry is not None:
            return self._answer_from_cache(ticket, entry, ("cache:hit",))
        path.append("cache:miss")

        # Window queries are served from the ledger's frozen per-batch
        # panels — the resident stream is their engine by definition.
        if query.window is not None:
            return self._window_answer(ticket, path)

        # Rung 1: fresh exact survey on the pinned epoch.
        answer = self._exact_rung(ticket, engine_name, path)
        if answer is not None:
            return answer

        # Rung 2: the resident ledger's checkpointed cumulative panel.
        cumulative = self._cumulative.get(ticket.epoch)
        if cumulative is not None:
            path.append("ledger:resumed")
            panel = cumulative[query.analysis]
            self.cache.put(
                PanelCache.key(query.analysis, engine_name, ticket.epoch, None),
                CacheEntry(panel=panel, engine=LEDGER_ENGINE, exact=True),
            )
            return self._finish(
                ticket,
                SurveyAnswer(
                    query=query,
                    outcome="resumed",
                    engine=LEDGER_ENGINE,
                    epoch=ticket.epoch,
                    answered_epoch=ticket.epoch,
                    exact=True,
                    panel=panel,
                    degradation_path=tuple(path),
                    latency_s=ticket.latency(),
                ),
            )
        path.append("ledger:unavailable")

        # Rung 3: bounded-error estimate (always answers).
        return self._approximate_rung(ticket, path)

    # -- exact rung ----------------------------------------------------
    def _exact_rung(
        self, ticket: QueryTicket, engine_name: str, path: List[str]
    ) -> Optional[SurveyAnswer]:
        query = ticket.query
        deadline = ticket.deadline
        epoch_entry = self._epochs[ticket.epoch]
        if self._lost_ranks:
            path.append("exact:skipped-lost-ranks")
            return None
        if deadline.expired():
            path.append("exact:skipped-deadline")
            self.counters.deadline_expirations += 1
            return None
        predicted = self.cost_model.estimate_seconds(
            query.analysis, engine_name, epoch_entry.directed_edges
        )
        if (
            predicted is not None
            and predicted * self.policy.cost_safety > deadline.remaining()
        ):
            path.append("exact:skipped-cost")
            return None

        world = self.world
        spec = self.analyses[query.analysis]
        retries = 0
        attempt = 0
        while True:
            reducer = spec.reducer_factory(world)
            request = SurveyRequest(
                dodgr=epoch_entry.dodgr,
                callback=reducer.callback,
                algorithm="push",
                graph_name=f"{self.name}@{ticket.epoch}",
            )
            started = time.perf_counter()
            try:
                with world.deadline_scope(deadline):
                    result = execute_survey(request, engine=engine_name)
                    if hasattr(reducer, "finalize"):
                        reducer.finalize()
                panel = reducer.snapshot()
                self.cost_model.observe(
                    query.analysis,
                    engine_name,
                    epoch_entry.directed_edges,
                    time.perf_counter() - started,
                )
                path.append("exact")
                self.cache.put(
                    PanelCache.key(
                        query.analysis, result.engine, ticket.epoch, None
                    ),
                    CacheEntry(panel=panel, engine=result.engine, exact=True),
                )
                return self._finish(
                    ticket,
                    SurveyAnswer(
                        query=query,
                        outcome="exact",
                        engine=result.engine,
                        epoch=ticket.epoch,
                        answered_epoch=ticket.epoch,
                        exact=True,
                        panel=panel,
                        degradation_path=tuple(path),
                        retries=retries,
                        latency_s=ticket.latency(),
                    ),
                )
            except RankCrashError as crash:
                world.recover_from_crash()
                self.counters.crash_recoveries += 1
                injector = world.fault_injector
                recoverable = (
                    injector is not None and injector.plan.crash_recoverable
                )
                if not recoverable:
                    self._lost_ranks.add(crash.rank)
                    path.append(f"exact:crash-permanent(rank={crash.rank})")
                    return None
                retries += 1
                self.counters.retries += 1
                if retries > self.policy.max_retries:
                    path.append("exact:retry-budget-spent")
                    return None
                backoff = self.policy.retry_backoff_s * (2**attempt)
                attempt += 1
                if backoff > 0:
                    time.sleep(min(backoff, deadline.remaining()))
                if deadline.expired():
                    path.append("exact:deadline")
                    self.counters.deadline_expirations += 1
                    return None
                path.append(f"exact:retry({retries})")
            except DeadlineExceeded:
                # Clear whatever the aborted survey left in flight; the
                # epoch graphs and ledger panels are immutable and safe.
                world.recover_from_crash()
                path.append("exact:deadline")
                self.counters.deadline_expirations += 1
                return None

    # -- window rung ---------------------------------------------------
    def _window_answer(
        self, ticket: QueryTicket, path: List[str]
    ) -> SurveyAnswer:
        query = ticket.query
        assert query.window is not None
        spec = self.analyses[query.analysis]
        first = ticket.epoch - query.window + 1
        panels: List[Any] = []
        for epoch in range(max(first, 0), ticket.epoch + 1):
            composite = self._panel_history.get(epoch)
            if composite is None:
                path.append(f"window:panel-missing(epoch={epoch})")
                return self._approximate_rung(ticket, path)
            panels.append(composite[query.analysis])
        panel = spec.merge(panels) if len(panels) != 1 else panels[0]
        path.append("window:merged")
        engine_name = self._engine_name(query)
        self.cache.put(
            PanelCache.key(query.analysis, engine_name, ticket.epoch, query.window),
            CacheEntry(panel=panel, engine=LEDGER_ENGINE, exact=True),
        )
        return self._finish(
            ticket,
            SurveyAnswer(
                query=query,
                outcome="resumed",
                engine=LEDGER_ENGINE,
                epoch=ticket.epoch,
                answered_epoch=ticket.epoch,
                exact=True,
                panel=panel,
                degradation_path=tuple(path),
                latency_s=ticket.latency(),
            ),
        )

    # -- approximate rung ----------------------------------------------
    def _approximate_rung(
        self, ticket: QueryTicket, path: List[str]
    ) -> SurveyAnswer:
        query = ticket.query
        world = self.world
        lost = sorted(self._lost_ranks)
        estimate: Any = None
        with world.faults_suspended():
            if lost and len(lost) < world.nranks:
                path.append(f"approximate:survivor(lost={lost})")
                estimate = survivor_triangle_estimate(self._ledger.graph, lost)
            else:
                path.append("approximate:sampled")
                estimate = approximate_triangle_count(
                    self._ledger.graph,
                    probability=self.policy.approximate_probability,
                    seed=self.policy.approximate_seed,
                    algorithm="push",
                    graph_name=f"{self.name}.approx@{self._epoch}",
                )
        key = PanelCache.key(query.analysis, APPROX_ENGINE, self._epoch, query.window)
        self.cache.put(
            key,
            CacheEntry(estimate=estimate, engine=APPROX_ENGINE, exact=False),
        )
        return self._finish(
            ticket,
            SurveyAnswer(
                query=query,
                outcome="approximate",
                engine=APPROX_ENGINE,
                epoch=ticket.epoch,
                answered_epoch=self._epoch,
                exact=False,
                estimate=estimate,
                degradation_path=tuple(path),
                latency_s=ticket.latency(),
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        counters = self.counters
        pinned = [e for e, entry in self._epochs.items() if entry.pins > 0]
        epoch_lag = self._epoch - min(pinned) if pinned else 0
        return ServiceStats(
            queue_depth=len(self._queue),
            queue_capacity=self.policy.max_queue_depth,
            epoch=self._epoch,
            epoch_lag=epoch_lag,
            pinned_epochs=len(self._epochs),
            ranks=self.world.nranks,
            lost_ranks=tuple(sorted(self._lost_ranks)),
            cache_entries=len(self.cache),
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_hit_rate=self.cache.hit_rate,
            submitted=counters.submitted,
            answered=counters.answered,
            outcomes=dict(counters.outcomes),
            degraded=counters.degraded,
            retries=counters.retries,
            crash_recoveries=counters.crash_recoveries,
            deadline_expirations=counters.deadline_expirations,
            epochs_ingested=counters.epochs_ingested,
            ledger_restarts=counters.ledger_restarts,
            ledger_replayed_batches=counters.ledger_replayed_batches,
        )

    def health(self) -> Dict[str, Any]:
        """Readiness/liveness snapshot (a Kubernetes-style probe pair).

        *Live* means the resident state is intact enough to produce some
        answer (always true while the object exists — the ladder ends in
        an estimator that cannot be load-shed).  *Ready* means the service
        is accepting and answering exactly: its live epoch has a graph (data
        was ingested and no failed ingest left it without one), it has
        queue headroom, and it has not permanently lost ranks.
        """
        saturated = len(self._queue) >= self.policy.max_queue_depth
        return {
            "live": True,
            "ready": self._epoch in self._epochs and not saturated and not self._lost_ranks,
            "epoch": self._epoch,
            "queue_depth": len(self._queue),
            "queue_capacity": self.policy.max_queue_depth,
            "saturated": saturated,
            "lost_ranks": sorted(self._lost_ranks),
            "degraded_mode": bool(self._lost_ranks),
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Answer nothing further: shed the queue, release epochs and the ledger.

        Terminal: a later :meth:`ingest`, :meth:`submit` or :meth:`query`
        raises :class:`ServiceError`.
        """
        self._closed = True
        while self._queue:
            ticket = self._queue.popleft()
            self._unpin(ticket.epoch)
            ticket.answer = self._finish(
                ticket,
                SurveyAnswer(
                    query=ticket.query,
                    outcome="shed",
                    engine="",
                    epoch=ticket.epoch,
                    answered_epoch=self._epoch,
                    exact=False,
                    degradation_path=("service:closed",),
                    retry_after_s=None,
                    latency_s=ticket.latency(),
                ),
            )
        for epoch in list(self._epochs):
            self._epochs[epoch].dodgr.release()
            del self._epochs[epoch]
        self._ledger.close()
        if self.plan is not None:
            self.world.clear_fault_plan()
