"""Golden parity: the vectorized builder is bit-identical to the routed one.

``DODGraph.build(mode="bulk")`` (argsort orientation + lexsort assembly) must
reproduce :func:`repro.oracle.routed_build` — the paper-faithful build that
routes every half edge through the runtime — and
``DistributedGraph.from_columns`` the oracle's per-edge record load
(:func:`repro.oracle.load_records`), *exactly*: the oracle's record view of
the bulk DODGr equals the routed records in store insertion order, adjacency
tuple order and every field; dense order ids equal the scalar ``<+`` sort;
and the image and CSR columns of the ``from_columns`` and record-loaded
graphs agree — on representative and
adversarial inputs, so that every downstream communication number stays
byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import load_dataset
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dodgr import CSRAdjacency, DODGraph
from repro.graph.edge_list import DistributedEdgeList
from repro.graph.degree import order_key
from repro.graph.generators import rmat
from repro.oracle import load_records, record_view, routed_build
from repro.runtime.world import World

NRANKS = 6


def assert_same_graph(graph_a: DistributedGraph, graph_b: DistributedGraph) -> None:
    image_a, image_b = graph_a.half_edge_columns(), graph_b.half_edge_columns()
    for field in ("vertices", "vertex_meta", "rank_offsets", "degree", "tgt", "edge_meta"):
        column_a, column_b = getattr(image_a, field), getattr(image_b, field)
        assert column_a.dtype == column_b.dtype, field
        assert column_a.tolist() == column_b.tolist(), field


def assert_same_columns(dodgr_a: DODGraph, dodgr_b: DODGraph) -> None:
    for rank in range(dodgr_a.world.nranks):
        csr_a, csr_b = dodgr_a.csr(rank), dodgr_b.csr(rank)
        for name in CSRAdjacency.COLUMNS:
            column_a, column_b = getattr(csr_a, name), getattr(csr_b, name)
            assert column_a.dtype == column_b.dtype, name
            assert column_a.tolist() == column_b.tolist(), name


def assert_same_dodgr(routed, vectorized: DODGraph, graph: DistributedGraph) -> None:
    """Routed records == the bulk DODGr's record view, store order included;
    its order ids == the dense rank of the scalar ``<+`` sort."""
    view = record_view(vectorized)
    degree = graph.degrees()
    in_order = sorted(degree, key=lambda v: order_key(v, degree[v]))
    assert view.order_ids == {vertex: k for k, vertex in enumerate(in_order)}
    assert len(routed) == len(view.stores) == graph.world.nranks
    for store_a, store_b in zip(routed, view.stores):
        assert list(store_a.keys()) == list(store_b.keys())
        for vertex in store_a:
            assert store_a[vertex]["meta"] == store_b[vertex]["meta"]
            assert store_a[vertex]["degree"] == store_b[vertex]["degree"]
            assert store_a[vertex]["adj"] == store_b[vertex]["adj"]


def build_pair(edges, vertex_meta=None):
    """(routed records, bulk DODGr, its graph), each on its own world."""
    world_a, world_b = World(NRANKS), World(NRANKS)
    graph_a = load_records(world_a, edges, vertex_meta=vertex_meta).graph("g")
    graph_b = DistributedGraph.from_edges(
        world_b, edges, vertex_meta=vertex_meta, name="g"
    )
    return routed_build(graph_a), DODGraph.build(graph_b, mode="bulk"), graph_b


class TestBuilderGoldenParity:
    def test_rmat(self):
        dataset = rmat(9, edge_factor=6, seed=4)
        assert_same_dodgr(*build_pair(dataset.edges))

    def test_reddit_sample(self):
        dataset = load_dataset("reddit-like", scale=0.2)
        assert_same_dodgr(*build_pair(dataset.edges, dataset.vertex_meta))

    def test_adversarial_duplicates_and_self_loops(self):
        edges = [(i % 12, (3 * i + 1) % 12, f"m{i}") for i in range(120)]
        edges += [(4, 4, "loop"), (0, 0, None)]
        edges += [(1, 2, "a"), (2, 1, "b"), (1, 2, "c")]
        assert_same_dodgr(*build_pair(edges))

    def test_string_vertices_take_scalar_hash_lane(self):
        edges = [
            (f"v{i}", f"v{(i * 5 + 2) % 17}", i) for i in range(60)
        ]
        assert_same_dodgr(*build_pair(edges))

    def test_huge_int_ids_beyond_int64(self):
        # Ids >= 2**63 overflow the vectorized hash column; the builder must
        # fall back to scalar hashing, not crash, and still match legacy.
        base = 2**70
        edges = [(base + i, base + ((i * 3 + 1) % 9), i) for i in range(40)]
        assert_same_dodgr(*build_pair(edges))

    def test_unsigned_ids_beyond_int64_from_columns(self):
        # The same ids as a uint64 column: from_columns must not wrap them
        # into negative int64 ids on the way to the bulk build.
        base = 2**63
        edges = [(base + i, base + ((i * 3 + 1) % 9), i) for i in range(40)]
        world_a, world_b = World(NRANKS), World(NRANKS)
        graph_a = load_records(world_a, edges).graph("g")
        graph_b = DistributedGraph.from_columns(
            world_b,
            np.array([e[0] for e in edges], dtype=np.uint64),
            np.array([e[1] for e in edges], dtype=np.uint64),
            edge_metas=[e[2] for e in edges],
            name="g",
        )
        assert_same_graph(graph_a, graph_b)
        from_edges, from_columns = DODGraph.build(graph_a), DODGraph.build(graph_b)
        assert_same_columns(from_edges, from_columns)
        assert_same_dodgr(routed_build(graph_a), from_columns, graph_b)

    def test_metadata_slots_preserved(self):
        dataset = load_dataset("reddit-like", scale=0.2)
        routed, vectorized, _ = build_pair(dataset.edges, dataset.vertex_meta)
        stores = record_view(vectorized).stores
        for vertex, meta in list(dataset.vertex_meta.items())[:50]:
            owner = vectorized.owner(vertex)
            assert stores[owner][vertex]["meta"] == meta
            assert routed[owner][vertex]["meta"] == meta


class TestFromColumnsParity:
    def test_uniform_meta(self):
        dataset = rmat(9, edge_factor=6, seed=8)
        us, vs = dataset.edge_columns()
        world_a, world_b = World(NRANKS), World(NRANKS)
        graph_a = load_records(world_a, dataset.edges).graph("g")
        graph_b = DistributedGraph.from_columns(
            world_b, us, vs, edge_meta=True, name="g"
        )
        assert_same_graph(graph_a, graph_b)

    def test_per_edge_metas_duplicates_self_loops(self):
        edges = [(1, 2, "a"), (2, 1, "b"), (3, 3, "loop"), (2, 3, "c"), (1, 2, "d")]
        world_a, world_b = World(3), World(3)
        graph_a = load_records(world_a, edges).graph("g")
        graph_b = DistributedGraph.from_columns(
            world_b,
            [e[0] for e in edges],
            [e[1] for e in edges],
            edge_metas=[e[2] for e in edges],
            name="g",
        )
        assert_same_graph(graph_a, graph_b)

    def test_huge_int_ids_are_relabelled(self):
        edges = [(2**70, 1, "a"), (1, 2**70 + 3, "b")]
        world_a, world_b = World(3), World(3)
        graph_a = load_records(world_a, edges).graph("g")
        graph_b = DistributedGraph.from_columns(
            world_b,
            [e[0] for e in edges],
            [e[1] for e in edges],
            edge_metas=[e[2] for e in edges],
            name="g",
        )
        assert_same_graph(graph_a, graph_b)

    def test_mismatched_meta_column_rejected(self):
        with pytest.raises(ValueError):
            DistributedGraph.from_columns(
                World(2), [1, 2], [2, 3], edge_metas=["only-one"], name="g"
            )
        with pytest.raises(ValueError):
            DistributedGraph.from_columns(World(2), [1, 2], [2], name="g")

    def test_seeded_hash_partitioner_owner_parity(self):
        from repro.graph.partition import HashPartitioner

        partitioner = HashPartitioner(5, seed=42)
        ids = [0, 1, -9, 2**40, 777]
        got = [int(o) for o in partitioner.owners_array(np.array(ids, dtype=np.int64))]
        assert got == [partitioner.owner(v) for v in ids]

    def test_vertex_meta_and_isolated_vertices(self):
        meta = {1: "one", 99: "isolated"}
        world_a, world_b = World(3), World(3)
        graph_a = load_records(world_a, [(1, 2), (2, 3)], vertex_meta=meta).graph("g")
        graph_b = DistributedGraph.from_columns(
            world_b, [1, 2], [2, 3], vertex_meta=meta, name="g"
        )
        assert_same_graph(graph_a, graph_b)
        assert graph_b.vertex_meta(99) == "isolated"


class TestSimplify:
    def test_earliest_reduction_unchanged(self):
        world = World(4)
        edge_list = DistributedEdgeList(world, name="el")
        edge_list.extend([(1, 2, 9.0), (2, 1, 3.0), (1, 2, 7.0)])
        simplified = edge_list.simplify("earliest")
        records = list(simplified.records())
        assert records == [(1, 2, 3.0)]
