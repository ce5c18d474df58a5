"""Property-based snapshot isolation for the survey service (ISSUE 8).

For arbitrary workloads, every registered engine, and every tracked
analysis: a query submitted at epoch ``e`` but executed only after later
batches were ingested must return a panel bit-identical to a fresh
direct survey over exactly the first ``e + 1`` batches.  This is the
serving layer's exactness contract — epoch pinning means concurrent
ingest is invisible to in-flight queries — checked against the same
legacy-oracle style as the engine-equivalence properties.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.traffic import make_service_workload
from repro.core.engine import CheckpointPolicy, SurveyRequest, engine_names, execute_survey
from repro.graph.delta import DeltaBuffer
from repro.graph.distributed_graph import DistributedGraph
from repro.runtime import World
from repro.runtime.faults import FaultPlan
from repro.service import ANALYSES, ServicePolicy, SurveyService


@st.composite
def service_workloads(draw):
    """A small seeded batch stream plus a rank count."""
    scale = draw(st.integers(min_value=3, max_value=5))
    num_batches = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    nranks = draw(st.integers(min_value=1, max_value=4))
    batches, vertex_meta = make_service_workload(
        scale=scale, num_batches=num_batches, seed=seed
    )
    return batches, vertex_meta, nranks


def direct_panels(batches, vertex_meta, nranks, upto_batches):
    """Oracle: every analysis surveyed directly over the batch prefix."""
    world = World(nranks)
    graph = DistributedGraph(world, name="oracle")
    delta = DeltaBuffer(world)
    dodgr = None
    for index, batch in enumerate(batches[:upto_batches]):
        delta.stage_edges(batch)
        if index == 0:
            for vertex, meta in vertex_meta.items():
                delta.stage_vertex_meta(vertex, meta)
        dodgr = delta.apply(graph).dodgr
    panels = {}
    for name, spec in ANALYSES.items():
        reducer = spec.reducer_factory(world)
        execute_survey(
            SurveyRequest(dodgr=dodgr, callback=reducer.callback),
            engine="legacy",
        )
        if hasattr(reducer, "finalize"):
            reducer.finalize()
        panels[name] = reducer.snapshot()
    return panels


@given(service_workloads())
@settings(max_examples=10, deadline=None)
def test_concurrent_queries_are_bit_identical_at_the_pinned_epoch(workload):
    """Ingest-during-query never perturbs answers, on any engine."""
    batches, vertex_meta, nranks = workload
    oracle = direct_panels(batches, vertex_meta, nranks, upto_batches=1)
    for engine in engine_names():
        service = SurveyService(World(nranks), engine=engine)
        service.ingest(batches[0], vertex_meta)
        tickets = [service.submit(analysis=name) for name in ANALYSES]
        for batch in batches[1:]:
            service.ingest(batch)
        service.pump()
        for ticket in tickets:
            answer = ticket.answer
            context = f"{engine}/{ticket.query.analysis}/{nranks} ranks"
            assert answer is not None and answer.outcome == "exact", context
            assert answer.epoch == 0 == answer.answered_epoch, context
            assert answer.panel == oracle[ticket.query.analysis], (
                f"{context}: pinned-epoch panel differs from direct survey"
            )
        service.close()


@given(service_workloads(), st.integers(min_value=1, max_value=20))
@settings(max_examples=10, deadline=None)
def test_pinned_epochs_answer_exactly_through_a_crash_replay(workload, crash_after):
    """Epochs pinned across a recoverable crash and its ledger replay stay exact.

    Every epoch's DODGr is shared by the ledger's replay log and the pinning
    query.  The crash is armed once epoch 0 is pinned, so it lands in a
    later batch's ledger survey (which replays the pinned batches) or in a
    query's exact rung; either way each answer equals the direct survey
    over its batch prefix.
    """
    batches, vertex_meta, nranks = workload
    policy = ServicePolicy(checkpoint=CheckpointPolicy(checkpoint_interval=2))
    service = SurveyService(World(nranks), policy=policy)
    tickets = []
    for index, batch in enumerate(batches):
        service.ingest(batch, vertex_meta if index == 0 else None)
        tickets.append(service.submit(analysis="triangle"))
        if index == 0:
            service.world.install_fault_plan(
                FaultPlan(seed=crash_after, crash_rank=1, crash_after_executions=crash_after)
            )
    service.pump()
    for epoch, ticket in enumerate(tickets):
        oracle = direct_panels(batches, vertex_meta, nranks, upto_batches=epoch + 1)
        assert ticket.answer.outcome == "exact", ticket.answer.degradation_path
        assert ticket.answer.panel == oracle["triangle"], f"epoch {epoch}"
    service.world.clear_fault_plan()
    service.close()
