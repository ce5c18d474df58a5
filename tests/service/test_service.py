"""Behavioural coverage for the resident :class:`SurveyService`.

Exercises the full robustness contract on small deterministic workloads:
snapshot isolation under concurrent ingest, the degradation ladder
(cache → exact → ledger → estimate), admission control, crash retries,
permanent-loss degraded mode, and the introspection surface.
"""

from __future__ import annotations

import pytest

from repro.bench.traffic import make_service_workload
from repro.core.engine import CheckpointPolicy, SurveyRequest, execute_survey
from repro.graph.delta import DeltaBuffer
from repro.graph.distributed_graph import DistributedGraph
from repro.runtime.faults import FaultPlan
from repro.runtime.rpc import RpcError
from repro.runtime.world import World
from repro.service import (
    ANALYSES,
    ServiceError,
    ServicePolicy,
    SurveyQuery,
    SurveyService,
)
from repro.service.service import get_analysis

RANKS = 4


@pytest.fixture(scope="module")
def workload():
    """Three small ingest batches plus vertex labels (module cached)."""
    return make_service_workload(scale=5, num_batches=3, seed=0)


def make_service(workload, policy=None, ingest=None, **kwargs):
    """A fresh service over a fresh world, with ``ingest`` batches applied."""
    batches, vertex_meta = workload
    service = SurveyService(World(RANKS), policy=policy, **kwargs)
    count = len(batches) if ingest is None else ingest
    for index, batch in enumerate(batches[:count]):
        service.ingest(batch, vertex_meta if index == 0 else None)
    return service


def reference_panel(workload, analysis, upto_batches, engine=None):
    """A direct survey over the first ``upto_batches`` batches, no service."""
    batches, vertex_meta = workload
    world = World(RANKS)
    graph = DistributedGraph(world, name="reference")
    delta = DeltaBuffer(world)
    dodgr = None
    for index, batch in enumerate(batches[:upto_batches]):
        delta.stage_edges(batch)
        if index == 0:
            for vertex, meta in vertex_meta.items():
                delta.stage_vertex_meta(vertex, meta)
        dodgr = delta.apply(graph).dodgr
    reducer = ANALYSES[analysis].reducer_factory(world)
    execute_survey(
        SurveyRequest(dodgr=dodgr, callback=reducer.callback), engine=engine
    )
    if hasattr(reducer, "finalize"):
        reducer.finalize()
    return reducer.snapshot()


# ---------------------------------------------------------------------------
# Exactness + snapshot isolation
# ---------------------------------------------------------------------------


def test_query_is_exact_and_matches_a_direct_survey(workload):
    service = make_service(workload, ingest=1)
    answer = service.query("triangle")
    assert answer.outcome == "exact"
    assert answer.exact and answer.epoch == 0 == answer.answered_epoch
    assert answer.panel == reference_panel(workload, "triangle", upto_batches=1)
    service.close()


def test_snapshot_isolation_pins_the_submit_epoch(workload):
    """Batches landing between submit and pump must not leak into answers."""
    batches, _ = workload
    service = make_service(workload, ingest=1)
    tickets = [service.submit(analysis=name) for name in ANALYSES]
    for batch in batches[1:]:
        service.ingest(batch)
    assert service.stats().epoch_lag == len(batches) - 1
    service.pump()
    for ticket in tickets:
        answer = ticket.answer
        assert answer is not None and answer.outcome == "exact"
        assert answer.epoch == 0 == answer.answered_epoch
        expected = reference_panel(workload, ticket.query.analysis, upto_batches=1)
        assert answer.panel == expected, ticket.query.analysis
    # All superseded epochs were released once their pins dropped.
    assert service.stats().pinned_epochs == 1
    service.close()


def test_cross_engine_cache_serving(workload):
    """An exact panel cached under one engine answers another engine's query."""
    service = make_service(workload, ingest=1)
    first = service.query("triangle")
    second = service.query("triangle", engine="legacy")
    assert first.outcome == "exact"
    assert second.outcome == "cached"
    assert second.panel == first.panel
    assert service.cache.equivalent_hits >= 1 or second.engine == first.engine
    service.close()


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def test_saturated_queue_sheds_with_retry_after(workload):
    service = make_service(
        workload, ingest=1, policy=ServicePolicy(max_queue_depth=2)
    )
    service.submit(analysis="triangle")
    service.submit(analysis="closure")
    shed = service.submit(analysis="labels")
    assert shed.done
    assert shed.answer.outcome == "shed"
    assert shed.answer.retry_after_s is not None and shed.answer.retry_after_s > 0
    assert "admission:shed" in shed.answer.degradation_path
    health = service.health()
    assert health["saturated"] and not health["ready"] and health["live"]
    service.pump()
    assert service.health()["ready"]
    service.close()


def test_saturated_submit_still_served_from_cache(workload):
    """A cache hit costs nothing, so saturation never sheds it."""
    service = make_service(
        workload, ingest=1, policy=ServicePolicy(max_queue_depth=2)
    )
    warm = service.query("triangle")
    service.submit(analysis="closure")
    service.submit(analysis="labels")
    hit = service.submit(analysis="triangle")
    assert hit.done and hit.answer.outcome == "cached"
    assert hit.answer.panel == warm.panel
    assert "admission:saturated" in hit.answer.degradation_path
    service.close()


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------


def test_tight_deadline_degrades_to_ledger_panel(workload):
    """An already-expired deadline skips the exact rung but stays exact."""
    service = make_service(workload)
    answer = service.query("triangle", timeout_s=1e-9)
    assert answer.outcome == "resumed"
    assert answer.engine == "ledger"
    assert answer.exact
    assert "exact:skipped-deadline" in answer.degradation_path
    assert answer.panel == reference_panel(workload, "triangle", upto_batches=3)
    assert service.stats().deadline_expirations >= 1
    service.close()


def test_recoverable_crash_is_retried_to_an_exact_answer(workload):
    service = make_service(workload, ingest=1)
    service.world.install_fault_plan(
        FaultPlan(
            seed=1,
            crash_rank=1,
            crash_after_executions=5,
            crash_recoverable=True,
        )
    )
    answer = service.query("triangle")
    assert answer.outcome == "exact"
    assert answer.retries == 1
    assert any(step.startswith("exact:retry") for step in answer.degradation_path)
    assert answer.panel == reference_panel(workload, "triangle", upto_batches=1)
    stats = service.stats()
    assert stats.crash_recoveries == 1 and stats.retries == 1
    assert service.health()["ready"]
    service.world.clear_fault_plan()
    service.close()


def test_permanent_loss_degrades_to_survivor_estimate(workload):
    """Unrecoverable crash + trimmed ledger panels: the estimator answers."""
    batches, vertex_meta = workload
    service = SurveyService(
        World(RANKS), policy=ServicePolicy(panel_retention=1)
    )
    service.ingest(batches[0], vertex_meta)
    pinned = service.submit(analysis="triangle")
    for batch in batches[1:]:
        service.ingest(batch)  # retention=1 trims epoch 0's ledger panels
    service.world.install_fault_plan(
        FaultPlan(
            seed=1,
            crash_rank=1,
            crash_after_executions=5,
            crash_recoverable=False,
        )
    )
    service.pump()
    answer = pinned.answer
    assert answer is not None and answer.outcome == "approximate"
    assert not answer.exact
    assert answer.estimate is not None
    assert answer.stderr is not None and answer.stderr >= 0
    low, high = answer.confidence_interval()
    assert low <= answer.estimate.estimate <= high
    assert any("survivor" in step for step in answer.degradation_path)
    health = service.health()
    assert health["degraded_mode"] and not health["ready"] and health["live"]
    assert service.stats().lost_ranks == (1,)
    # Later queries skip the doomed exact rung and serve the live ledger.
    later = service.query("triangle")
    assert later.outcome == "resumed"
    assert "exact:skipped-lost-ranks" in later.degradation_path
    service.world.clear_fault_plan()
    service.close()


def test_window_queries_merge_ledger_panels(workload):
    batches, _ = workload
    service = make_service(workload, ingest=2)
    step = service.ingest(batches[2])
    last_batch = service.query("triangle", window=1)
    assert last_batch.outcome == "resumed" and last_batch.engine == "ledger"
    assert last_batch.panel == step.snapshot["triangle"]
    everything = service.query("triangle", window=3)
    assert everything.panel == reference_panel(workload, "triangle", upto_batches=3)
    # Window answers are cached under their window key.
    again = service.query("triangle", window=1)
    assert again.outcome == "cached" and again.panel == last_batch.panel
    service.close()


# ---------------------------------------------------------------------------
# API misuse + introspection
# ---------------------------------------------------------------------------


def test_unknown_analysis_suggests_the_closest_name(workload):
    service = make_service(workload, ingest=1)
    with pytest.raises(ValueError, match="did you mean 'triangle'"):
        service.submit(analysis="triangel")
    with pytest.raises(ValueError, match="did you mean 'closure'"):
        get_analysis("closur")
    service.close()


def test_submit_before_first_ingest_is_an_error(workload):
    service = SurveyService(World(RANKS))
    with pytest.raises(ServiceError, match="no data ingested"):
        service.submit(analysis="triangle")


def test_query_validation():
    with pytest.raises(ValueError, match="window"):
        SurveyQuery(analysis="triangle", window=0)
    with pytest.raises(ValueError, match="timeout_s"):
        SurveyQuery(analysis="triangle", timeout_s=-1.0)
    with pytest.raises(ValueError, match="max_queue_depth"):
        ServicePolicy(max_queue_depth=0)


def test_stats_taxonomy_partitions_traffic(workload):
    service = make_service(workload)
    service.query("triangle")
    service.query("triangle")  # cached
    service.query("closure", timeout_s=1e-9)  # resumed
    stats = service.stats()
    assert stats.answered == sum(stats.outcomes.values())
    assert stats.outcomes["exact"] == 1
    assert stats.outcomes["cached"] == 1
    assert stats.outcomes["resumed"] == 1
    assert stats.degraded == 1
    assert stats.epochs_ingested == 3 and stats.epoch == 2
    snapshot = stats.as_dict()
    assert snapshot["queue_depth"] == 0
    assert snapshot["outcomes"] == stats.outcomes
    service.close()


def test_close_sheds_the_queue_and_releases_epochs(workload):
    service = make_service(workload, ingest=1)
    tickets = [service.submit(analysis=name) for name in ("triangle", "closure")]
    service.close()
    for ticket in tickets:
        assert ticket.done
        assert ticket.answer.outcome == "shed"
        assert ticket.answer.degradation_path == ("service:closed",)
    assert service.stats().pinned_epochs == 0


# ---------------------------------------------------------------------------
# One live graph: epochs share the ledger's DODGrs
# ---------------------------------------------------------------------------


def handler_ids(world, suffix):
    """Ids of every handler registered under a name ending in ``suffix``."""
    return [hid for name, hid in world.registry._by_name.items() if name.endswith(suffix)]


def live_dodgrs(world):
    """Handler ids of the DODGrs not yet freed (each holds one ``offer_edge`` slot)."""
    live = []
    for handler_id in handler_ids(world, ".offer_edge"):
        try:
            world.registry.handler(handler_id)
        except RpcError:
            continue
        live.append(handler_id)
    return live


def test_close_is_terminal(workload):
    """A closed service answers, queues and ingests nothing."""
    batches, _vertex_meta = workload
    service = make_service(workload, ingest=1)
    service.close()
    for call in (
        lambda: service.query("triangle"),
        lambda: service.submit(analysis="triangle"),
        lambda: service.ingest(batches[1]),
    ):
        with pytest.raises(ServiceError, match="closed"):
            call()
    assert service.stats().epochs_ingested == 1
    service.close()  # closing again is a no-op


def test_the_service_world_holds_one_graph(workload):
    service = make_service(workload)
    assert service.query("triangle").outcome == "exact"
    # The ledger's graph is a column image and registers no handler.
    graph_prefix = f"{service._ledger.graph.name}."
    assert not [name for name in service.world.registry._by_name if name.startswith(graph_prefix)]
    # One DODGr per batch, built once: the ledger's.
    assert len(handler_ids(service.world, ".offer_edge")) == len(workload[0])
    service.close()


def test_a_pinned_epoch_outlives_the_ledgers_release(workload):
    """Superseded and checkpointed away by the ledger, epoch 0 still answers."""
    batches, vertex_meta = workload
    policy = ServicePolicy(checkpoint=CheckpointPolicy(checkpoint_interval=1))
    service = SurveyService(World(RANKS), policy=policy)
    service.ingest(batches[0], vertex_meta)
    ticket = service.submit(analysis="closure")
    for batch in batches[1:]:
        service.ingest(batch)
    # The ledger keeps only the live graph; the pin keeps epoch 0's.
    assert service._ledger.pending_replay_batches == 0
    assert len(live_dodgrs(service.world)) == 2
    service.pump()
    answer = ticket.answer
    assert answer.outcome == "exact" and answer.epoch == 0
    assert answer.panel == reference_panel(workload, "closure", upto_batches=1)
    assert len(live_dodgrs(service.world)) == 1
    service.close()


def spy_on_apply(monkeypatch, seen):
    """Record, as each ``DeltaBuffer.apply`` starts, the owner count of every
    epoch graph the service holds or held: ``seen`` gets ``{epoch: refs}``."""
    real = DeltaBuffer.apply

    def apply(buffer, graph, *args, **kwargs):
        seen.append({epoch: dodgr._refs for epoch, dodgr in held.items()})
        return real(buffer, graph, *args, **kwargs)

    held = {}
    monkeypatch.setattr(DeltaBuffer, "apply", apply)
    return held


def test_an_unpinned_live_epoch_is_released_before_the_merge(workload, monkeypatch):
    """No query pins epoch 0: the service lets its graph go before the
    ledger merges the next batch, so it is freed while the merge runs."""
    batches, vertex_meta = workload
    service = SurveyService(World(RANKS))
    service.ingest(batches[0], vertex_meta)
    seen = []
    held = spy_on_apply(monkeypatch, seen)
    held[0] = service._epochs[0].dodgr
    service.ingest(batches[1])
    assert seen == [{0: 0}]
    assert len(live_dodgrs(service.world)) == 1
    service.close()


def test_a_pinned_live_epoch_survives_the_merge(workload, monkeypatch):
    batches, vertex_meta = workload
    service = SurveyService(World(RANKS))
    service.ingest(batches[0], vertex_meta)
    ticket = service.submit(analysis="triangle")
    seen = []
    held = spy_on_apply(monkeypatch, seen)
    held[0] = service._epochs[0].dodgr
    service.ingest(batches[1])
    assert seen == [{0: 1}]  # the service's own reference, for the pin
    service.pump()
    assert ticket.answer.outcome == "exact" and ticket.answer.epoch == 0
    assert ticket.answer.panel == reference_panel(workload, "triangle", upto_batches=1)
    assert len(live_dodgrs(service.world)) == 1
    service.close()


def test_a_failed_ingest_leaves_no_graph_at_the_live_epoch(workload, monkeypatch):
    """The ledger's ingest raises after the service released the live
    epoch: a query there raises, naming the failure, and reads no freed
    graph; the next good ingest serves again."""
    batches, vertex_meta = workload
    service = SurveyService(World(RANKS))
    service.ingest(batches[0], vertex_meta)
    live = service._epochs[0].dodgr
    real = DeltaBuffer.apply

    def failing_apply(buffer, graph, *args, **kwargs):
        raise MemoryError("planted")

    monkeypatch.setattr(DeltaBuffer, "apply", failing_apply)
    with pytest.raises(MemoryError, match="planted"):
        service.ingest(batches[1])
    assert live._refs == 0 and service._epochs == {}
    for analysis in ("triangle", "closure"):
        with pytest.raises(RuntimeError, match=r"epoch 0 has no graph: .*MemoryError\('planted'\)"):
            service.submit(analysis=analysis)
    assert service.stats().pinned_epochs == 0 and not service.health()["ready"]
    monkeypatch.setattr(DeltaBuffer, "apply", real)
    service.ingest(batches[2])
    assert service.health()["ready"]
    answer = service.query("triangle")
    assert answer.outcome == "exact" and answer.epoch == 1
    assert answer.panel == reference_panel(workload, "triangle", upto_batches=3)
    service.close()


def test_crash_replay_is_bit_identical_while_epochs_are_pinned(workload):
    """The ledger replays pinned epochs' graphs through a recoverable crash."""
    batches, vertex_meta = workload
    policy = ServicePolicy(checkpoint=CheckpointPolicy(checkpoint_interval=len(batches)))
    clean = SurveyService(World(RANKS), policy=policy)
    # Rank 1 executes 64-69 RPCs over the first two ingests and 70-78 by
    # the end of the third: a threshold of 74 crashes the last one.
    plan = FaultPlan(seed=1, crash_rank=1, crash_after_executions=74, crash_recoverable=True)
    faulty = SurveyService(World(RANKS), policy=policy, plan=plan)
    tickets = []
    for index, batch in enumerate(batches):
        meta = vertex_meta if index == 0 else None
        want, got = clean.ingest(batch, meta), faulty.ingest(batch, meta)
        assert got.snapshot == want.snapshot and got.cumulative == want.cumulative
        tickets.append(faulty.submit(analysis="triangle"))
    assert got.restarts == 1 and got.replayed_batches == len(batches) - 1
    faulty.pump()
    for epoch, ticket in enumerate(tickets):
        assert ticket.answer.outcome == "exact" and ticket.answer.epoch == epoch
        assert ticket.answer.panel == reference_panel(
            workload, "triangle", upto_batches=epoch + 1
        )
    clean.close()
    faulty.close()


def test_close_frees_every_dodgr(workload):
    """Replay-log graphs and a queued ticket's pinned epoch go with close()."""
    batches, vertex_meta = workload
    policy = ServicePolicy(checkpoint=CheckpointPolicy(checkpoint_interval=len(batches) + 1))
    service = SurveyService(World(RANKS), policy=policy)
    service.ingest(batches[0], vertex_meta)
    ticket = service.submit(analysis="triangle")
    for batch in batches[1:]:
        service.ingest(batch)
    assert service._ledger.pending_replay_batches == len(batches)
    service.close()
    assert ticket.answer.outcome == "shed"
    world = service.world
    assert live_dodgrs(world) == []
    offer_edge = handler_ids(world, ".offer_edge")
    assert len(offer_edge) == len(batches)
    for handler_id in offer_edge:
        with pytest.raises(RpcError, match="released"):
            world.registry.handler(handler_id)
