"""``service_mix`` — reads beside writes on the resident ``SurveyService``.

Closed loop, one client: the events of a seeded traffic trace are replayed
in order, and each query is submitted and pumped to its answer before the
next event is sent.  Half the queries repeat an earlier one (panel-cache
hits), 15 % ask for a sliding window (answered from the ledger,
``resumed``), the rest run an exact survey at their pinned epoch; every
epoch starts with the ingest of a 1 % edge batch.  Deadlines are generous
(600 s) and no fault plan is armed, so which outcome a query gets is a
function of the seed and never of host speed.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro import DeltaBuffer, DistributedGraph, World
from repro.bench.traffic import make_query_traffic, make_service_workload
from repro.core.engine import SurveyRequest, execute_survey
from repro.service import ServicePolicy, SurveyService
from repro.service.service import ANALYSES

from .. import reference
from ..clock import Clock, Sample
from ..record import Budget, Checks, Measured
from ..replay import ENGINE, traced_rmat
from ..spans import Tracer

SIZES = {
    "full": {"scale": 11, "nranks": 4, "num_batches": 21, "num_queries": 252, "delta_fraction": 0.01},
    "quick": {"scale": 8, "nranks": 4, "num_batches": 2, "num_queries": 30, "delta_fraction": 0.03},
}

EDGE_FACTOR = 8
#: The trace is drawn once, not per ``--seed``: the seed varies the graph,
#: the mix stays the one this workload is named after.  Drawn per seed,
#: the exact share alone (51 to 57 of 252 queries) moved ``ops_per_s`` by
#: 11 % between seeds of one commit.
TRAFFIC_SEED = 0
#: a query slower than this gets a speed probe of its own
_PROBE_AFTER_S = 0.005
#: outcomes a fault-free, generously timed query may get
_GOOD_OUTCOMES = ("exact", "cached", "resumed")


@dataclass
class Inputs:
    seed: int
    scale: int
    nranks: int
    batches: List[List[Tuple[int, int, Any]]]
    vertex_meta: Dict[int, Any]
    events: List[Any]


def setup(seed: int, size: Dict[str, Any]) -> Inputs:
    batches, vertex_meta = make_service_workload(
        scale=size["scale"],
        edge_factor=EDGE_FACTOR,
        num_batches=size["num_batches"],
        delta_fraction=size["delta_fraction"],
        seed=seed,
    )
    traffic = make_query_traffic(
        size["num_batches"],
        size["num_queries"],
        TRAFFIC_SEED,
        repeat_fraction=0.5,
        window_fraction=0.15,
        tight_deadline_fraction=0.0,
    )
    return Inputs(seed, size["scale"], size["nranks"], batches, vertex_meta, traffic.events)


def _service(inputs: Inputs) -> SurveyService:
    policy = ServicePolicy(max_queue_depth=64, default_timeout_s=600)
    return SurveyService(World(inputs.nranks), engine=ENGINE, policy=policy)


def _epochs(inputs: Inputs) -> List[Tuple[List[Any], List[Any]]]:
    """The trace as (edge batch, queries that follow it) per epoch."""
    epochs: List[Tuple[List[Any], List[Any]]] = []
    batches = iter(inputs.batches)
    for event in inputs.events:
        if event.kind == "ingest":
            epochs.append((next(batches), []))
        else:
            epochs[-1][1].append(event.query)
    return epochs


def _check_answer(checks: Checks, ticket: Any) -> None:
    answer = ticket.answer
    checks.op(
        answer is not None and answer.outcome in _GOOD_OUTCOMES,
        "query answered exact, cached or resumed",
    )
    if answer is not None and answer.panel is not None:
        query = ticket.query
        # Whatever rung answered, one (analysis, window, epoch) has one panel.
        checks.same(
            f"panel {query.analysis}/{query.window}@{answer.epoch}",
            reference.panel_digest(answer.panel),
        )


def measure(inputs: Inputs, clock: Clock, budget: Budget, checks: Checks) -> Measured:
    out = Measured()
    for _ in budget.rounds():
        service = _service(inputs)
        exact_answers: Dict[Tuple[str, int], Any] = {}
        for epoch, (batch, queries) in enumerate(_epochs(inputs)):
            _, sample = clock.timed(
                service.ingest, batch, inputs.vertex_meta if epoch == 0 else None
            )
            # The base load is the service's cold start; the 1 % batches
            # that follow are this workload's builds.
            (out.builds if epoch else out.others).append(sample)
            # Queries run from microseconds (cached) to a whole survey: the
            # burst shares one collection, and only a slow query (an exact
            # one) pays for a probe after it.
            gc.collect()
            factor = clock.probe()
            for query in queries:
                start = time.perf_counter()
                ticket = service.submit(query)
                service.pump()
                wall = time.perf_counter() - start
                before = factor
                if wall > _PROBE_AFTER_S:
                    factor = clock.probe()
                sample = Sample(wall, (before + factor) / 2)
                _check_answer(checks, ticket)
                out.completed += 1
                if ticket.answer.outcome == "exact":
                    out.ops.append(sample)
                    exact_answers[(ticket.query.analysis, ticket.answer.epoch)] = ticket.answer
                else:
                    out.others.append(sample)
        stats = service.stats()
        checks.same("outcomes", stats.outcomes)
        checks.require(stats.queue_depth == 0, "no query left queued")
        service.close()
    out.exact = {
        "wire_bytes": 0,
        "sim_s": 0.0,
        "outcomes": stats.outcomes,
        "digest": reference.panel_digest(
            {key: reference.panel_digest(a.panel) for key, a in exact_answers.items()}
        ),
    }
    out.state = exact_answers
    return out


def verify(inputs: Inputs, measured: Measured, checks: Checks) -> None:
    """Each distinct exact answer against a direct survey at its pinned epoch.

    The reference graph lives on a World of its own and is fed the same
    batches one epoch at a time, the way ``bench_query_traffic.py`` builds
    its parity oracle.
    """
    answers: Dict[Tuple[str, int], Any] = measured.state
    world = World(inputs.nranks)
    graph = DistributedGraph(world, name="reference")
    buffer = DeltaBuffer(world)
    for epoch, batch in enumerate(inputs.batches):
        buffer.stage_edges(batch)
        if epoch == 0:
            for vertex, meta in inputs.vertex_meta.items():
                buffer.stage_vertex_meta(vertex, meta)
        wanted = [analysis for analysis, at in answers if at == epoch]
        if not wanted:
            continue  # staged batches merge into the next applied epoch
        dodgr = buffer.apply(graph).dodgr
        for analysis in wanted:
            reducer = ANALYSES[analysis].reducer_factory(world)
            execute_survey(
                SurveyRequest(dodgr=dodgr, callback=reducer.callback, algorithm="push"),
                engine=ENGINE,
            )
            reducer.finalize()
            checks.require(
                answers[(analysis, epoch)].panel == reducer.snapshot(),
                f"exact {analysis} answer at epoch {epoch} == direct execute_survey",
            )
        dodgr.release()


def trace(
    inputs: Inputs,
    clock: Clock,
    checks: Checks,
    tracer: Tracer,
) -> Tuple[Dict[str, float], float]:
    out = traced_rmat(tracer, clock, inputs.scale, EDGE_FACTOR, inputs.seed)
    ingests: List[Any] = []
    queries: List[Any] = []
    pinned_epochs_max = 0
    service = _service(inputs)
    for epoch, (batch, burst) in enumerate(_epochs(inputs)):
        with clock.op(tracer, "ingest", epoch=epoch) as root:
            with tracer.span("service.ingest"):
                service.ingest(batch, inputs.vertex_meta if epoch == 0 else None)
        ingests.append(root)
        gc.collect()
        before = clock.probe()
        roots = []
        for query in burst:
            with tracer.op("query", analysis=query.analysis) as root:
                with tracer.span("service.submit"):
                    ticket = service.submit(query)
                with tracer.span("service.pump") as pump:
                    service.pump()
            _check_answer(checks, ticket)
            root.counts["outcome"] = pump.counts["outcome"] = ticket.answer.outcome
            roots.append(root)
            pinned_epochs_max = max(pinned_epochs_max, service.stats().pinned_epochs)
        factor = (before + clock.probe()) / 2
        for root in roots:
            root.counts["factor"] = factor
        queries += roots
    stats = service.stats()
    checks.same("outcomes", stats.outcomes)
    service.close()

    def med(roots: List[Any], name: str) -> float:
        return statistics.median(
            [tracer.calibrated(root, name) for root in roots] or [0.0]
        )

    def answered(outcome: str) -> List[Any]:
        return [root for root in queries if root.counts["outcome"] == outcome]

    out["service.ingest_first_s"] = med([r for r in ingests if r.counts["epoch"] == 0], "service.ingest")
    out["service.ingest_s"] = med([r for r in ingests if r.counts["epoch"]], "service.ingest")
    out["service.submit_s"] = med(queries, "service.submit")
    for outcome in _GOOD_OUTCOMES:
        out[f"service.pump_{outcome}_s"] = med(answered(outcome), "service.pump")
    for outcome, count in stats.outcomes.items():
        out[f"service.outcome.{outcome}"] = count
    out["service.retries"] = stats.retries
    out["service.pinned_epochs_max"] = pinned_epochs_max
    out["cache.hit_rate"] = stats.cache_hit_rate
    out["cache.entries"] = stats.cache_entries
    out["admission.shed"] = stats.outcomes["shed"]
    traced_op_s = statistics.median(tracer.calibrated(root) for root in answered("exact"))
    return out, traced_op_s
