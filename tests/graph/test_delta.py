"""DeltaBuffer / AppliedDelta: staging, first-write-wins merge, edge masks."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.graph.delta import DeltaBuffer
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dodgr import DODGraph
from repro.graph.edge_list import canonical_pair
from repro.graph.generators import erdos_renyi
from repro.oracle import DeltaRecords
from repro.runtime.world import World


def make_world():
    return World(4)


def test_stage_and_apply_basic():
    world = make_world()
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    buffer.stage_edge(1, 2, "a")
    buffer.stage_edges([(2, 3, "b"), (3, 1, "c")])
    assert buffer.pending_edges == 3
    applied = buffer.apply(graph)
    assert buffer.pending_edges == 0
    assert applied.batch_index == 0
    assert applied.num_edges() == 3
    assert graph.num_undirected_edges() == 3
    records = DeltaRecords(applied)
    assert records.is_new(2, 1) and records.is_new(3, 2)
    assert applied.dodgr.num_directed_edges() == 3


def test_self_loops_and_duplicates_dropped():
    world = make_world()
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    buffer.stage_edge(5, 5, "loop")
    buffer.stage_edge(1, 2, "first")
    buffer.stage_edge(2, 1, "second")  # duplicate within the batch
    applied = buffer.apply(graph)
    assert applied.num_edges() == 1
    assert graph.edge_meta(1, 2) == "first"


def test_first_write_wins_across_batches():
    world = make_world()
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    buffer.stage_edge(1, 2, "old")
    first = buffer.apply(graph)
    buffer.stage_edge(1, 2, "new")
    buffer.stage_edge(2, 3, "fresh")
    second = buffer.apply(graph)
    assert second.batch_index == 1
    assert second.num_edges() == 1
    assert not DeltaRecords(second).is_new(1, 2)
    assert graph.edge_meta(1, 2) == "old"
    assert DeltaRecords(first).is_new(1, 2)


def test_vertex_meta_first_write_wins():
    world = make_world()
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    buffer.stage_edge(1, 2)
    buffer.stage_vertex_meta(1, "original")
    buffer.apply(graph)
    assert graph.vertex_meta(1) == "original"
    buffer.stage_edge(1, 3)
    buffer.stage_vertex_meta(1, "overwrite")
    buffer.stage_vertex_meta(3, "fresh")
    buffer.apply(graph)
    assert graph.vertex_meta(1) == "original"
    assert graph.vertex_meta(3) == "fresh"


def test_stage_columns():
    world = make_world()
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    buffer.stage_columns(np.array([1, 2, 3]), np.array([2, 3, 3]), edge_meta="m")
    applied = buffer.apply(graph)
    # The (3, 3) self loop is dropped.
    assert applied.num_edges() == 2
    assert graph.edge_meta(2, 3) == "m"
    with pytest.raises(ValueError):
        buffer.stage_columns([1], [2, 3])


def test_rebuild_matches_cold_build():
    """The rebuilt DODGr is bit-identical to a cold build of the merged graph."""
    world = make_world()
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    generated = erdos_renyi(60, 0.12, seed=9)
    edges = list(generated.edges)
    buffer.stage_edges(edges[: len(edges) // 2])
    buffer.apply(graph)
    buffer.stage_edges(edges[len(edges) // 2 :])
    applied = buffer.apply(graph)

    cold_world = World(4)
    cold_graph = DistributedGraph(cold_world, name="g")
    for u, v, meta in edges:
        cold_graph.add_edge(u, v, meta)
    cold = DODGraph.build(cold_graph, mode="bulk")

    assert applied.dodgr.order_ids() == cold.order_ids()
    for rank in range(4):
        assert applied.dodgr.local_store(rank) == cold.local_store(rank)


def test_edge_mask_matches_pair_set():
    """The vectorized per-rank mask agrees with the scalar is_new oracle."""
    world = make_world()
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    generated = erdos_renyi(80, 0.1, seed=4)
    edges = list(generated.edges)
    buffer.stage_edges(edges[: 2 * len(edges) // 3])
    buffer.apply(graph)
    buffer.stage_edges(edges[2 * len(edges) // 3 :])
    applied = buffer.apply(graph)
    records = DeltaRecords(applied)

    seen_new = 0
    for rank in range(4):
        csr = applied.dodgr.csr(rank)
        mask = applied.edge_mask(rank)
        assert mask.shape == (csr.num_edges,)
        for row in range(csr.num_rows):
            lo, hi = csr.row_slice(row)
            vertex = csr.row_vertices[row]
            for pos in range(lo, hi):
                expected = (
                    canonical_pair(vertex, csr.entries[pos][0]) in records.new_pairs
                )
                assert bool(mask[pos]) == expected
                seen_new += bool(mask[pos])
    assert seen_new == applied.num_edges()


def test_new_adjacency_lists():
    world = make_world()
    graph = DistributedGraph(world, name="g")
    buffer = DeltaBuffer(world)
    buffer.stage_edges([(1, 2, "x"), (2, 3, "y")])
    buffer.apply(graph)
    buffer.stage_edge(1, 3, "z")
    applied = buffer.apply(graph)
    records = DeltaRecords(applied)
    total = 0
    for rank in range(4):
        for q, filtered in records.new_adjacency(rank).items():
            for entry, pos in filtered:
                assert applied.dodgr.local_store(rank)[q]["adj"][pos] == entry
                assert records.is_new(q, entry[0])
                total += 1
    assert total == 1  # exactly the one new directed edge
