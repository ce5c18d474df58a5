"""Property-based cross-engine equivalence (ISSUE 5).

Every engine in the registry — including anything a user registers later —
must satisfy the equivalence contract on arbitrary inputs: identical reducer
``snapshot()`` panels and identical wire counters *per phase* (dry run, push,
pull — not only in total), for both survey algorithms, at any rank count.  The legacy engine
is the oracle; the random inputs are the generators the paper benchmarks on
(R-MAT, Erdős–Rényi).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import triangle_survey_push, triangle_survey_push_pull
from repro.core.callbacks import LocalTriangleCounter
from repro.core.engine import engine_names
from repro.core.incremental import StreamingSurvey
from repro.graph import DODGraph
from repro.graph.generators import erdos_renyi, rmat
from repro.runtime import World


@st.composite
def random_generated_graphs(draw):
    """Small random rmat/erdos graphs with varied shape and seed."""
    kind = draw(st.sampled_from(["rmat", "erdos"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if kind == "rmat":
        scale = draw(st.integers(min_value=2, max_value=6))
        edge_factor = draw(st.integers(min_value=2, max_value=8))
        return rmat(scale, edge_factor=edge_factor, seed=seed)
    n = draw(st.integers(min_value=2, max_value=28))
    p = draw(st.floats(min_value=0.05, max_value=0.6))
    return erdos_renyi(n, p, seed=seed)


def run_engine(generated, nranks, algorithm, engine):
    """One fresh-world survey run: (reducer panel, report, per-phase totals)."""
    world = World(nranks)
    dodgr = DODGraph.build(generated.to_distributed(world), mode="bulk")
    reducer = LocalTriangleCounter(world)
    survey = triangle_survey_push if algorithm == "push" else triangle_survey_push_pull
    report = survey(dodgr, reducer.callback, engine=engine)
    phases = {name: world.stats.phase_total(name) for name in world.phase_order}
    reducer.finalize()
    return reducer.snapshot(), report, phases


@given(
    random_generated_graphs(),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["push", "push_pull"]),
)
@settings(max_examples=25, deadline=None)
def test_all_registered_engines_agree(generated, nranks, algorithm):
    """Panels and wire-byte totals are identical across the whole registry."""
    oracle_panel, oracle, oracle_phases = run_engine(generated, nranks, algorithm, "legacy")
    for name in engine_names():
        if name == "legacy":
            continue
        panel, report, phases = run_engine(generated, nranks, algorithm, name)
        context = f"{name}/{algorithm}/{nranks} ranks on {generated.name}"
        # RPC-free reducer: every counter of every phase must replay, the
        # flush-window split (wire_messages, envelope bytes) included.
        assert phases == oracle_phases, f"{context}: per-phase counters differ"
        assert panel == oracle_panel, f"{context}: reducer panels differ"
        assert report.triangles == oracle.triangles, context
        assert (
            report.communication_bytes == oracle.communication_bytes
        ), f"{context}: wire-byte totals differ"
        assert report.wedge_checks == oracle.wedge_checks, context
        assert report.vertices_pulled == oracle.vertices_pulled, context
        # RPC-free reducer: even the flush-window split must replay.
        assert report.wire_messages == oracle.wire_messages, context


# ---------------------------------------------------------------------------
# Incremental/delta path (ISSUE 6 satellite)
# ---------------------------------------------------------------------------


def replay_stream(generated, batches, nranks, engine):
    """Replay an edge-batch schedule; (cumulative panel, summed counters)."""
    world = World(nranks)
    survey = StreamingSurvey(world, LocalTriangleCounter, engine=engine)
    totals = {"triangles": 0, "bytes": 0, "messages": 0, "wedges": 0}
    step = None
    for batch in batches:
        step = survey.ingest(batch)
        totals["triangles"] += step.report.triangles
        totals["bytes"] += step.report.communication_bytes
        totals["messages"] += step.report.wire_messages
        totals["wedges"] += step.report.wedge_checks
    panel = step.cumulative if step is not None else None
    return panel, totals


@st.composite
def graphs_with_batches(draw):
    """A random graph plus a random DeltaBuffer batch schedule over it."""
    generated = draw(random_generated_graphs())
    edges = list(generated.edges)
    if len(edges) < 2:
        return generated, [edges] if edges else []
    num_cuts = draw(st.integers(min_value=0, max_value=min(4, len(edges) - 1)))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=len(edges) - 1),
                min_size=num_cuts,
                max_size=num_cuts,
                unique=True,
            )
        )
    )
    batches = []
    start = 0
    for cut in cuts + [len(edges)]:
        if cut > start:
            batches.append(edges[start:cut])
            start = cut
    return generated, batches


def test_incremental_engines_exist():
    """The delta property below must cover more than just the oracle."""
    assert "legacy" in engine_names()
    assert len(engine_names()) >= 2


@given(graphs_with_batches(), st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_incremental_engines_agree_with_full_recompute(graph_and_batches, nranks):
    """Every incremental engine × a random DeltaBuffer schedule must land on
    the full-recompute panel, with identical wire totals across engines."""
    generated, batches = graph_and_batches
    if not batches:
        return  # empty graph: nothing to stream
    full_panel, full_report, _ = run_engine(generated, nranks, "push", "legacy")
    oracle_panel, oracle_totals = replay_stream(generated, batches, nranks, "legacy")
    assert oracle_panel == full_panel, (
        f"legacy stream on {generated.name}: cumulative panel != full recompute"
    )
    assert oracle_totals["triangles"] == full_report.triangles
    for name in engine_names():
        if name == "legacy":
            continue
        panel, totals = replay_stream(generated, batches, nranks, name)
        context = f"{name} stream/{nranks} ranks on {generated.name}"
        assert panel == full_panel, f"{context}: snapshot panels differ"
        assert totals == oracle_totals, f"{context}: wire totals differ"
