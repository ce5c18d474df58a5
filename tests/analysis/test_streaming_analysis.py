"""Sliding-window analysis variants: streaming closure times and FQDN surveys."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.closure_times import (
    run_closure_time_survey,
    run_streaming_closure_time_survey,
)
from repro.analysis.fqdn import (
    anchor_domain_slice,
    run_fqdn_survey,
    run_streaming_fqdn_survey,
)
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import fqdn_web_graph, reddit_like_temporal_graph
from repro.graph.metadata import edge_timestamp
from repro.runtime.rpc import RpcError
from repro.runtime.world import World


def reddit_batches(num_batches=3):
    """A chronologically-ordered comment stream, deduplicated first-wins."""
    raw = reddit_like_temporal_graph(250, 2200, seed=2005)
    records = sorted(raw.edges, key=lambda record: edge_timestamp(record[2]))
    per = (len(records) + num_batches - 1) // num_batches
    return [records[i : i + per] for i in range(0, len(records), per)]


def first_wins(batches):
    """Every batch's records, first write of each unordered pair winning."""
    seen, kept = set(), []
    for batch in batches:
        for u, v, meta in batch:
            if u != v and frozenset((u, v)) not in seen:
                seen.add(frozenset((u, v)))
                kept.append((u, v, meta))
    return kept


def grow_graph(world, batches, vertex_meta=None):
    return DistributedGraph.from_edges(world, first_wins(batches), vertex_meta, name="oracle")


def test_streaming_closure_times_matches_batch_survey():
    batches = reddit_batches()
    world = World(4)
    steps = run_streaming_closure_time_survey(world, batches, window_batches=2)
    assert len(steps) == len(batches)

    # The cumulative histogram equals the one-shot batch survey over the
    # accumulated (first-wins simplified) graph.
    oracle_world = World(4)
    oracle = run_closure_time_survey(
        grow_graph(oracle_world, batches), algorithm="push", engine="columnar"
    )
    assert steps[-1].cumulative == oracle.joint

    # Window semantics: the last step's window covers the last two panels.
    last_two = sum(step.report.triangles for step in steps[-2:])
    assert steps[-1].window.triangles_surveyed() == last_two
    assert 0.0 <= steps[-1].window.fraction_above_diagonal() <= 1.0
    assert steps[-1].window.median_closing_bucket() >= 0


def test_streaming_closure_times_windowed_marginals_consistent():
    batches = reddit_batches()
    world = World(4)
    (step, *_rest) = run_streaming_closure_time_survey(world, batches)
    assert sum(step.window.closing.values()) == step.window.triangles_surveyed()
    assert sum(step.window.opening.values()) == step.window.triangles_surveyed()


def test_streaming_fqdn_matches_batch_survey():
    generated = fqdn_web_graph(700, seed=18)
    edges = list(generated.edges)
    rng = np.random.default_rng(0)
    edges = [edges[i] for i in rng.permutation(len(edges))]
    third = len(edges) // 3
    batches = [edges[:third], edges[third : 2 * third], edges[2 * third :]]

    world = World(4)
    steps = run_streaming_fqdn_survey(
        world, batches, vertex_meta=generated.vertex_meta, window_batches=2
    )

    oracle_world = World(4)
    endpoints = {vertex for u, v, _ in first_wins(batches) for vertex in (u, v)}
    vertex_meta = {v: meta for v, meta in generated.vertex_meta.items() if v in endpoints}
    oracle_graph = grow_graph(oracle_world, batches, vertex_meta)
    oracle = run_fqdn_survey(oracle_graph, algorithm="push", engine="columnar")
    assert steps[-1].cumulative == oracle.triple_counts

    # The windowed result is a full FqdnSurveyResult: Fig. 8 post-processing
    # applies to any window.
    window = steps[-1].window
    assert window.triangles_with_distinct_fqdns() == sum(
        window.triple_counts.values()
    )
    if window.domains():
        anchor = window.domains()[0]
        sliced = anchor_domain_slice(window, anchor)
        assert sliced.anchor == anchor


def small_fqdn_batches():
    generated = fqdn_web_graph(200, seed=18)
    edges = list(generated.edges)
    half = len(edges) // 2
    return [edges[:half], edges[half:]], generated.vertex_meta


@pytest.mark.parametrize("runner", ["closure_times", "fqdn"])
def test_streaming_runners_free_their_last_dodgr(monkeypatch, runner):
    """A runner's stream lives in the caller's world: once it returns, no
    rank keeps a ``dodgr:`` store and every DODGr ``offer_edge`` handler —
    the last rebuild's included — is tombstoned."""
    world = World(4)
    handles = []
    register = world.register_handler

    def spy(func, name=None):
        handle = register(func, name)
        if name is not None and name.endswith(".offer_edge"):
            handles.append(handle)
        return handle

    monkeypatch.setattr(world, "register_handler", spy)
    if runner == "closure_times":
        run_streaming_closure_time_survey(world, reddit_batches())
    else:
        batches, vertex_meta = small_fqdn_batches()
        run_streaming_fqdn_survey(world, batches, vertex_meta=vertex_meta)
    assert handles
    for ctx in world.ranks:
        assert not [key for key in ctx.local_state if key.startswith("dodgr:")]
    for handle in handles:
        with pytest.raises(RpcError):
            world.registry.handler(handle.handler_id)
