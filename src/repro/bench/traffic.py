"""Synthetic query traffic for the survey service: workload + driver.

The service benchmark (``benchmarks/bench_query_traffic.py``) needs
deterministic overload: ingest batches interleaved with query bursts,
repeats to exercise the panel cache, tight deadlines to exercise the
degradation ladder, all under an armed chaos plan.  This module holds
the pieces the benchmark, the ``python -m repro.service`` CLI and the
service tests share: a seeded workload generator
(:func:`make_query_traffic`), a seeded graph stream with temporal +
label metadata (:func:`make_service_workload`) so every tracked analysis
has something to count, and the replay driver (:func:`run_query_traffic`)
that pumps the service the way a serving loop would.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..graph.generators import rmat
from ..graph.metadata import temporal_edge_meta
from ..service import SurveyAnswer, SurveyQuery, SurveyService
from .streaming import make_streaming_schedule

__all__ = [
    "make_service_workload",
    "make_query_traffic",
    "run_query_traffic",
]


@dataclass(frozen=True)
class TrafficEvent:
    """One step of the replay: an ingest batch or a query submission."""

    kind: str  # "ingest" | "query"
    batch: Optional[List[Tuple[Any, Any, Any]]] = None
    query: Optional[SurveyQuery] = None


@dataclass
class TrafficTrace:
    """A deterministic interleaving of ingest batches and query bursts."""

    events: List[TrafficEvent]
    num_batches: int
    num_queries: int
    #: queries that re-issue an earlier query verbatim (cache-hit drivers)
    num_repeats: int


@dataclass
class TrafficResult:
    """Everything the replay produced, for gates and artifacts."""

    answers: List[SurveyAnswer]
    latencies_s: List[float]
    wall_seconds: float
    ingested_batches: int

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for answer in self.answers:
            counts[answer.outcome] = counts.get(answer.outcome, 0) + 1
        return counts

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.answers) / self.wall_seconds


def make_service_workload(
    scale: int = 7,
    edge_factor: int = 8,
    num_batches: int = 4,
    delta_fraction: float = 0.03,
    seed: int = 0,
    num_labels: int = 5,
) -> Tuple[List[List[Tuple[Any, Any, Any]]], Dict[Any, Any]]:
    """A seeded R-MAT edge stream decorated for every tracked analysis.

    Edges carry :func:`~repro.graph.metadata.temporal_edge_meta`
    timestamps + labels (feeding the closure and label analyses); the
    returned vertex metadata assigns each vertex a label from a small
    seeded alphabet.  Returns ``(batches, vertex_meta)`` where the first
    batch is the bulk base load.
    """
    generated = rmat(scale, edge_factor=edge_factor, seed=seed)
    rng = random.Random(seed ^ 0x5EED)
    edges = [
        (u, v, temporal_edge_meta(float(i), rng.randrange(num_labels)))
        for i, (u, v, _) in enumerate(generated.edges)
    ]
    schedule = make_streaming_schedule(
        edges,
        num_batches=num_batches - 1,
        delta_fraction=delta_fraction,
        seed=seed,
    )
    vertices = sorted({v for u, v, _ in edges} | {u for u, v, _ in edges})
    vertex_meta = {vertex: rng.randrange(num_labels) for vertex in vertices}
    return [schedule.base, *schedule.batches], vertex_meta


def make_query_traffic(
    num_batches: int,
    num_queries: int,
    seed: int = 0,
    analyses: Sequence[str] = ("triangle", "closure", "labels"),
    engines: Sequence[Optional[str]] = (None,),
    repeat_fraction: float = 0.5,
    window_fraction: float = 0.15,
    tight_deadline_fraction: float = 0.15,
    tight_deadline_s: float = 1e-4,
    batches: Optional[List[List[Tuple[Any, Any, Any]]]] = None,
) -> TrafficTrace:
    """Interleave ``num_batches`` ingests with ``num_queries`` queries.

    Queries arrive in bursts between ingests.  A ``repeat_fraction`` of
    them re-issue an earlier query verbatim (the cache-hit gate driver);
    a ``tight_deadline_fraction`` carry a deadline far below any real
    survey time (the degradation-ladder driver); a ``window_fraction``
    ask for sliding windows.  The first event is always an ingest (the
    service requires an epoch before it accepts queries).
    """
    rng = random.Random(seed)
    issued: List[SurveyQuery] = []
    num_repeats = 0
    queries: List[SurveyQuery] = []
    for _ in range(num_queries):
        if issued and rng.random() < repeat_fraction:
            queries.append(rng.choice(issued))
            num_repeats += 1
            continue
        window: Optional[int] = None
        if rng.random() < window_fraction:
            window = rng.randint(1, max(1, num_batches - 1))
        timeout: Optional[float] = None
        if rng.random() < tight_deadline_fraction:
            timeout = tight_deadline_s
        query = SurveyQuery(
            analysis=rng.choice(list(analyses)),
            engine=rng.choice(list(engines)),
            window=window,
            timeout_s=timeout,
        )
        issued.append(query)
        queries.append(query)

    if batches is None:
        batch_payloads: List[Optional[List[Tuple[Any, Any, Any]]]] = [
            None
        ] * num_batches
    else:
        if len(batches) != num_batches:
            raise ValueError(
                f"got {len(batches)} batches for num_batches={num_batches}"
            )
        batch_payloads = list(batches)

    # Deal the queries into num_batches bursts (sizes drawn from the rng
    # so some bursts exceed any bounded queue), one burst after each
    # ingest.
    events: List[TrafficEvent] = []
    remaining = list(queries)
    for index in range(num_batches):
        events.append(TrafficEvent(kind="ingest", batch=batch_payloads[index]))
        bursts_left = num_batches - index
        if bursts_left == 1:
            take = len(remaining)
        else:
            expected = len(remaining) // bursts_left
            take = min(len(remaining), rng.randint(0, max(1, expected * 2)))
        for query in remaining[:take]:
            events.append(TrafficEvent(kind="query", query=query))
        remaining = remaining[take:]
    return TrafficTrace(
        events=events,
        num_batches=num_batches,
        num_queries=num_queries,
        num_repeats=num_repeats,
    )


def run_query_traffic(
    service: SurveyService,
    trace: TrafficTrace,
    batches: Optional[List[List[Tuple[Any, Any, Any]]]] = None,
    vertex_meta: Optional[Dict[Any, Any]] = None,
) -> TrafficResult:
    """Replay ``trace`` against ``service`` the way a serving loop would.

    Query events submit without pumping (bursts pile up against admission
    control, exactly the overload the bounded queue is for); each ingest
    event first answers *half* the backlog and deliberately carries the
    other half across the epoch advance — those queries then execute
    after newer batches landed, which is the snapshot-isolation case the
    service's epoch pinning exists for.  A final drain answers the tail.
    Every submitted ticket ends answered: the driver asserts the
    service's no-hang contract.
    """
    batch_iter = iter(batches) if batches is not None else None
    tickets = []
    start = time.perf_counter()
    first_ingest = True
    for event in trace.events:
        if event.kind == "ingest":
            backlog = service.stats().queue_depth
            service.pump(max_queries=backlog // 2)
            payload = event.batch
            if payload is None:
                if batch_iter is None:
                    raise ValueError(
                        "trace has no inline batches; pass batches= to the driver"
                    )
                payload = next(batch_iter)
            service.ingest(payload, vertex_meta if first_ingest else None)
            first_ingest = False
        else:
            assert event.query is not None
            tickets.append(service.submit(event.query))
    service.pump()
    wall = time.perf_counter() - start
    unanswered = [ticket.id for ticket in tickets if not ticket.done]
    if unanswered:
        raise AssertionError(
            f"{len(unanswered)} queries left unanswered: {unanswered[:5]}"
        )
    answers = [ticket.answer for ticket in tickets]
    return TrafficResult(
        answers=answers,
        latencies_s=[answer.latency_s for answer in answers],
        wall_seconds=wall,
        ingested_batches=trace.num_batches,
    )
