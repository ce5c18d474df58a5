"""Query-traffic gates for the resident survey service (ISSUE 8).

Not a figure from the paper: this benchmark gates the serving layer
(``src/repro/service/``) under the conditions it exists for — concurrent
ingest, bursty overload and an armed chaos fault plan.  The robustness
contract, gated here and failed independently of any timing threshold:

* **no hangs, no crashes** — every submitted query ends with a structured
  answer (the traffic driver raises on any unanswered ticket, and no
  exception may escape the service);
* **structured degradation** — every shed query carries a positive
  retry-after hint; every approximate answer carries an estimate with
  ``stderr`` and a confidence interval; every answer's outcome is in the
  service taxonomy;
* **cache effectiveness** — repeated identical queries at an unchanged
  epoch hit the panel cache (measured hit-rate gate);
* **exact parity** — fault-free exact answers are bit-identical to a
  direct ``execute_survey`` over a freshly built graph at the same epoch,
  even when the answer was computed after later batches were ingested
  (snapshot isolation).

Two lenient performance gates (absolute numbers at this scale are CI
noise): p99 submit-to-answer latency under ``LATENCY_GATE_S`` and
sustained throughput above ``QPS_GATE``.
"""

from __future__ import annotations

from _artifacts import emit
from repro.bench import bench_scale, format_kv, percentiles
from repro.bench.traffic import (
    make_query_traffic,
    make_service_workload,
    run_query_traffic,
)
from repro.core.engine import SurveyRequest, execute_survey
from repro.graph.delta import DeltaBuffer
from repro.graph.distributed_graph import DistributedGraph
from repro.runtime.faults import FaultPlan
from repro.runtime.world import World
from repro.service import ServicePolicy, SurveyService
from repro.service.service import ANALYSES
from repro.service.stats import OUTCOMES

RANKS = 4
NUM_BATCHES = 4
SCALE = bench_scale()
GRAPH_SCALE = 7 if SCALE >= 1.0 else 6
NUM_QUERIES = max(16, int(48 * SCALE))
SEED = 0

#: Submit-to-answer p99 budget.  Surveys at this scale take tens of
#: milliseconds; the gate only guards against a hang-shaped regression.
LATENCY_GATE_S = 30.0
QPS_GATE = 1.0
#: Half the traffic re-issues earlier queries, so well over this fraction
#: of lookups must be dict hits; the slack absorbs epoch advances
#: (a repeat after an ingest is a legitimate miss).
CACHE_HIT_RATE_GATE = 0.10


def chaos_plan(seed: int = SEED) -> FaultPlan:
    """Delivery faults + a recoverable mid-traffic crash."""
    return FaultPlan(
        seed=seed,
        drop_rate=0.02,
        duplicate_rate=0.02,
        delay_rate=0.05,
        crash_rank=1,
        crash_after_executions=40,
        crash_recoverable=True,
    )


def run_traffic(plan=None, seed: int = SEED):
    """One full replay: fresh world, service, workload, traffic."""
    world = World(RANKS)
    service = SurveyService(
        world,
        plan=plan,
        policy=ServicePolicy(max_queue_depth=8, default_timeout_s=30.0),
    )
    batches, vertex_meta = make_service_workload(
        scale=GRAPH_SCALE, num_batches=NUM_BATCHES, seed=seed
    )
    trace = make_query_traffic(
        num_batches=len(batches), num_queries=NUM_QUERIES, seed=seed
    )
    result = run_query_traffic(
        service, trace, batches=batches, vertex_meta=vertex_meta
    )
    return service, trace, result


def test_chaos_traffic_structured_answers():
    """Under an armed chaos plan: no hangs, every degradation structured."""
    service, trace, result = run_traffic(plan=chaos_plan())

    # Every query answered (run_query_traffic already raises otherwise),
    # every outcome in the taxonomy.
    assert len(result.answers) == trace.num_queries
    for answer in result.answers:
        assert answer.outcome in OUTCOMES, answer
        if answer.outcome == "shed":
            assert answer.retry_after_s is not None and answer.retry_after_s > 0
        if answer.outcome == "approximate":
            assert answer.estimate is not None
            assert answer.stderr is not None and answer.stderr >= 0
            low, high = answer.confidence_interval()
            assert low <= answer.estimate.estimate <= high
        if answer.outcome in ("exact", "resumed", "cached"):
            assert answer.panel is not None or answer.estimate is not None

    lat = percentiles(result.latencies_s, ps=(50, 90, 99))
    stats = service.stats()
    emit(
        format_kv(
            {
                "queries": trace.num_queries,
                "outcomes": result.outcome_counts(),
                "p50_ms": None if lat["p50"] is None else round(lat["p50"] * 1e3, 2),
                "p99_ms": None if lat["p99"] is None else round(lat["p99"] * 1e3, 2),
                "q/s": round(result.queries_per_second, 1),
                "cache_hit_rate": round(service.cache.hit_rate, 3),
                "ledger_restarts": stats.ledger_restarts,
                "crash_recoveries": stats.crash_recoveries,
            },
            title="service query traffic under chaos (ISSUE 8)",
        )
    )

    # Latency / throughput gates (lenient by design).
    assert lat["p99"] is not None and lat["p99"] < LATENCY_GATE_S
    assert result.queries_per_second > QPS_GATE
    # The chaos plan must actually have bitten: the crash fired during
    # ingest or an exact survey and was absorbed, never surfaced.
    assert (
        stats.ledger_restarts + stats.crash_recoveries >= 1
    ), "chaos plan never fired; gates vacuous"
    assert service.health()["live"] is True


def test_repeated_queries_hit_cache():
    """The millionth identical query is a dict hit (measured gate)."""
    service, trace, result = run_traffic(plan=chaos_plan())
    assert trace.num_repeats > 0, "traffic generated no repeats; gate vacuous"
    cached = result.outcome_counts().get("cached", 0)
    assert cached > 0, "no repeated query was served from the panel cache"
    assert service.cache.hit_rate >= CACHE_HIT_RATE_GATE, service.cache.as_dict()
    # And deterministically: the same query twice at one epoch == one survey.
    world = World(RANKS)
    solo = SurveyService(world)
    batches, vertex_meta = make_service_workload(
        scale=5, num_batches=2, seed=SEED
    )
    solo.ingest(batches[0], vertex_meta)
    first = solo.query("triangle")
    second = solo.query("triangle")
    assert first.outcome == "exact"
    assert second.outcome == "cached"
    assert second.panel == first.panel
    solo.close()


def test_fault_free_exact_parity_across_epochs():
    """Exact answers == direct execute_survey at the pinned epoch.

    Queries are submitted at epoch 0, then more batches land before they
    are pumped — snapshot isolation must pin them to the epoch-0 graph.
    """
    batches, vertex_meta = make_service_workload(
        scale=5, num_batches=3, seed=SEED
    )
    world = World(RANKS)
    service = SurveyService(world)
    service.ingest(batches[0], vertex_meta)
    tickets = {
        analysis: service.submit(analysis=analysis) for analysis in ANALYSES
    }
    for batch in batches[1:]:
        service.ingest(batch)
    service.pump()

    # Reference: a fresh world fed only the epoch-0 batch.
    ref_world = World(RANKS)
    ref_graph = DistributedGraph(ref_world, name="parity-ref")
    ref_delta = DeltaBuffer(ref_world)
    ref_delta.stage_edges(batches[0])
    for vertex, meta in vertex_meta.items():
        ref_delta.stage_vertex_meta(vertex, meta)
    ref_dodgr = ref_delta.apply(ref_graph).dodgr

    for analysis, ticket in tickets.items():
        answer = ticket.answer
        assert answer is not None and answer.outcome == "exact", (
            analysis,
            answer and answer.degradation_path,
        )
        assert answer.epoch == 0 and answer.answered_epoch == 0
        reducer = ANALYSES[analysis].reducer_factory(ref_world)
        execute_survey(
            SurveyRequest(dodgr=ref_dodgr, callback=reducer.callback),
            engine=service.default_engine,
        )
        if hasattr(reducer, "finalize"):
            reducer.finalize()
        assert answer.panel == reducer.snapshot(), analysis
    service.close()
