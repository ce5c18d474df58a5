"""Unit tests for the distributed undirected decorated graph."""

from __future__ import annotations

import pytest

import numpy as np

from repro.analysis import decorate_with_degrees
from repro.core import survivor_triangle_estimate, triangle_survey_push_pull
from repro.core.approximate import sparsify_graph
from repro.graph import (
    CyclicPartitioner,
    DistributedEdgeList,
    DistributedGraph,
    DODGraph,
    HashPartitioner,
)
from repro.graph.dodgr import _value_sizes
from repro.graph.edge_list import canonical_pair
from repro.graph.generators import erdos_renyi
from repro.oracle import RecordStore, load_records, routed_load
from repro.runtime import World
from repro.runtime.rpc import RpcError


def triangle_graph(world, **kwargs):
    return DistributedGraph.from_edges(
        world,
        [(1, 2, "e12"), (2, 3, "e23"), (1, 3, "e13")],
        vertex_meta={1: "red", 2: "green", 3: "blue"},
        **kwargs,
    )


class TestConstruction:
    def test_from_edges_counts(self, world4):
        graph = triangle_graph(world4)
        assert graph.num_vertices() == 3
        assert graph.num_undirected_edges() == 3
        assert graph.num_directed_edges() == 6

    def test_vertex_and_edge_metadata(self, world4):
        graph = triangle_graph(world4)
        assert graph.vertex_meta(1) == "red"
        assert graph.edge_meta(1, 2) == "e12"
        assert graph.edge_meta(2, 1) == "e12"  # both half edges share metadata

    def test_self_loops_dropped(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 1), (1, 2)])
        assert graph.num_undirected_edges() == 1

    def test_default_vertex_meta(self, world4):
        graph = DistributedGraph.from_edges(
            world4, [(1, 2)], default_vertex_meta=False
        )
        assert graph.vertex_meta(1) is False

    def test_missing_vertex_raises(self, world4):
        graph = triangle_graph(world4)
        with pytest.raises(KeyError):
            graph.vertex_meta(99)
        with pytest.raises(KeyError):
            graph.edge_meta(1, 99)

    def test_from_edge_list(self, world4):
        el = DistributedEdgeList(world4)
        el.extend([(0, 1, "a"), (1, 2, "b")])
        graph = DistributedGraph.from_edge_list(el)
        assert graph.num_undirected_edges() == 2
        assert graph.edge_meta(1, 2) == "b"

    def test_partitioner_mismatch_rejected(self, world4):
        with pytest.raises(ValueError):
            DistributedGraph(world4, partitioner=HashPartitioner(8))

    def test_explicit_partitioner_controls_placement(self, world4):
        graph = triangle_graph(world4, partitioner=CyclicPartitioner(4))
        for vertex in (1, 2, 3):
            assert vertex in dict(graph.local_vertices(vertex % 4))


class TestQueries:
    def test_degree_and_neighbors(self, world4):
        graph = triangle_graph(world4)
        assert graph.degree(1) == 2
        assert sorted(graph.neighbors(1)) == [2, 3]
        assert graph.degree(99) == 0
        assert graph.neighbors(99) == []

    def test_has_edge(self, world4):
        graph = triangle_graph(world4)
        assert graph.has_edge(1, 2)
        assert graph.has_edge(2, 1)
        assert not graph.has_edge(1, 4)

    def test_edges_iterates_each_undirected_edge_once(self, world4):
        graph = triangle_graph(world4)
        edges = list(graph.edges())
        assert len(edges) == 3
        assert {frozenset((u, v)) for u, v, _ in edges} == {
            frozenset((1, 2)),
            frozenset((2, 3)),
            frozenset((1, 3)),
        }

    def test_max_degree_and_degrees(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4)
        degrees = graph.degrees()
        assert graph.max_degree() == max(degrees.values())
        assert sum(degrees.values()) == graph.num_directed_edges()

    def test_rank_counts_sum(self, world8, small_rmat):
        graph = small_rmat.to_distributed(world8)
        assert sum(graph.rank_vertex_counts()) == graph.num_vertices()
        assert sum(graph.rank_edge_counts()) == graph.num_directed_edges()

    def test_to_networkx_matches(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4)
        nxg = graph.to_networkx()
        assert nxg.number_of_nodes() == graph.num_vertices()
        assert nxg.number_of_edges() == graph.num_undirected_edges()


class TestRoutedLoad:
    """The oracle's message-driven load: one accounted RPC per half edge."""

    def test_routed_load_equals_bulk(self, world4, small_er):
        bulk = small_er.to_distributed(world4, name="bulk")
        per_rank = [[] for _ in range(4)]
        for index, (u, v, meta) in enumerate(small_er.edges):
            per_rank[index % 4].append((u, v, meta))
        routed = routed_load(World(4), per_rank)

        assert routed.num_vertices() == bulk.num_vertices()
        assert routed.num_directed_edges() == bulk.num_directed_edges()
        assert {frozenset((u, v)) for u, v, _ in routed.edges()} == {
            frozenset((u, v)) for u, v, _ in bulk.edges()
        }

    def test_routed_load_with_vertex_meta(self, world4):
        graph = routed_load(
            world4,
            [[(1, 2, None)], [], [], []],
            vertex_meta_per_rank=[{1: "a"}, {2: "b"}, {}, {}],
        )
        assert graph.vertex_meta(1) == "a"
        assert graph.vertex_meta(2) == "b"

    def test_routed_load_validates_shapes(self, world4):
        with pytest.raises(ValueError):
            routed_load(world4, [[]])
        with pytest.raises(ValueError):
            routed_load(world4, [[], [], [], []], vertex_meta_per_rank=[{}])

    def test_ingestion_traffic_is_accounted(self, world4):
        per_rank = [[(i, i + 1, None) for i in range(rank, 40, 4)] for rank in range(4)]
        graph = routed_load(world4, per_rank)
        phase = world4.stats.phase_total(f"{graph.name}.ingest")
        assert phase.rpcs_sent == 2 * 40
        # The load's two handlers are released on return.
        by_name = world4.registry._by_name
        handlers = {name: hid for name, hid in by_name.items() if name.startswith(graph.name)}
        names = ("add_half_edge", "set_vertex_meta")
        assert sorted(handlers) == [f"{graph.name}.{name}" for name in names]
        for handler_id in handlers.values():
            with pytest.raises(RpcError, match="released"):
                world4.registry.handler(handler_id)


def flattened(columns):
    """The image's columns as ``{field: (dtype, values)}``.

    A shared-value load carries its edge metadata sizes and the oracle's
    flattened records carry none, so the sizes are checked here against a
    cold sizing of the metadata and left out of the comparison.
    """
    if columns.edge_meta_sizes is not None:
        assert columns.edge_meta_sizes.dtype == np.int64
        assert columns.edge_meta_sizes.tolist() == _value_sizes(columns.edge_meta).tolist()
    return {
        field: (str(value.dtype), value.tolist())
        for field, value in columns._asdict().items()
        if value is not None and field != "edge_meta_sizes"
    }


#: Id kinds at the relabel boundary: none of them all-int64.
ODD_IDS = {
    "strings": lambda i: f"v{i}",
    "tuples": lambda i: (i % 3, f"t{i}"),
    "mixed_int_str": lambda i: i if i % 2 else f"s{i}",
    "beyond_int64": lambda i: 2**63 + i,
    "negative": lambda i: -i - 1,
    "bools_and_ints": lambda i: bool(i) if i < 2 else i,
}


class TestRelabelBoundary:
    """``from_edges`` lays out any ids through one array path; the oracle's
    per-edge record load is the reference, column for column."""

    @pytest.mark.parametrize("kind", sorted(ODD_IDS))
    @pytest.mark.parametrize("partitioner", ["hash", "cyclic"])
    def test_from_edges_equals_the_record_load(self, kind, partitioner):
        name = ODD_IDS[kind]
        edges = [(name(i % 7), name((3 * i + 1) % 9), f"m{i}") for i in range(30)]
        edges += [(name(2), name(2), "loop"), (name(4), name(5)), (name(5), name(4), "last")]
        # Metadata on an endpoint, on a vertex only named here, and None.
        vertex_meta = {name(0): "first", name(40): "only-here", name(41): None}
        placement = {"hash": HashPartitioner(3), "cyclic": CyclicPartitioner(3)}[partitioner]
        kwargs = dict(vertex_meta=vertex_meta, partitioner=placement, default_vertex_meta="dflt")
        graph = DistributedGraph.from_edges(World(3), edges, **kwargs)
        want = load_records(World(3), edges, **kwargs)
        assert flattened(graph.half_edge_columns()) == flattened(want.columns())
        assert graph.vertex_meta(name(40)) == "only-here" and graph.degree(name(40)) == 0
        assert graph.vertex_meta(name(1)) == "dflt"
        assert graph.edge_meta(name(5), name(4)) == "last"
        for rank in range(3):
            got = [(v, dict(r["adj"]), r["meta"]) for v, r in graph.local_vertices(rank)]
            assert got == [
                (v, r["adj"], r["meta"]) for v, r in want.stores[rank].items()
            ]

    def test_callbacks_see_the_original_ids(self):
        edges = [(("a", 1), "b"), ("b", 2**64), (2**64, ("a", 1))]
        graph = DistributedGraph.from_edges(World(2), edges)
        seen = set()
        triangle_survey_push_pull(
            DODGraph.build(graph), lambda ctx, tri: seen.update(tri.vertices())
        )
        assert seen == {("a", 1), "b", 2**64}

    def test_from_columns_beyond_int64_relabels(self):
        us, vs = [2**63 + i for i in range(10)], [2**63 + (i * 3) % 10 for i in range(10)]
        graph = DistributedGraph.from_columns(World(3), us, vs, edge_meta="m")
        want = load_records(World(3), [(u, v, "m") for u, v in zip(us, vs)])
        assert flattened(graph.half_edge_columns()) == flattened(want.columns())
        assert graph.half_edge_columns().vertices.dtype == object


class TestDerivedImages:
    """Sparsified, survivor and degree-decorated graphs equal the per-edge
    copy they replace: vertices re-added in store order, then edges in
    ``edges()`` order."""

    @staticmethod
    def per_edge_copy(
        source, world, partitioner=None, default=None, metas=None, lost=None, keep_edge=None
    ):
        """The old loop over the oracle's records of the source graph: every
        vertex re-added (None metadata taking ``default``), then every edge
        from its canonical endpoint's run."""
        store = RecordStore(world, partitioner, default)
        for rank, records in enumerate(source.stores):
            for vertex, record in records.items():
                if rank != lost:
                    meta = record["meta"] if metas is None else metas[vertex]
                    store.set_vertex_meta(vertex, default if meta is None else meta)
        kept = set(store.columns().vertices.tolist())
        edges = [
            (u, v, meta)
            for records in source.stores
            for u, record in records.items()
            for v, meta in record["adj"].items()
            if canonical_pair(u, v)[0] == u
        ]
        for index, (u, v, meta) in enumerate(edges):
            if (keep_edge is None or keep_edge[index]) and u in kept and v in kept:
                store.add_edge(u, v, meta)
        return store.columns()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("ids", ["int", "str"])
    def test_derived_images_equal_the_per_edge_copy(self, seed, ids, monkeypatch):
        generated = erdos_renyi(30, 0.2, seed=seed)
        edges = [
            (u, v, meta) if ids == "int" else (f"v{u}", f"v{v}", meta)
            for u, v, meta in generated.edges
        ]
        first = edges[0][0]
        load = dict(vertex_meta={first: None}, default_vertex_meta="d")
        graph = DistributedGraph.from_edges(World(4), edges, **load)
        source = load_records(World(4), edges, **load)
        degrees = {v: len(r["adj"]) for records in source.stores for v, r in records.items()}

        sparse = sparsify_graph(graph, 0.5, seed=seed)
        keep = np.random.default_rng(seed).random(graph.num_undirected_edges()) < 0.5
        want = self.per_edge_copy(source, graph.world, graph.partitioner, "d", keep_edge=keep)
        assert flattened(sparse.half_edge_columns()) == flattened(want)
        assert sparse.vertex_meta(first) == "d"

        for placement in (None, CyclicPartitioner(4) if ids == "int" else HashPartitioner(4, 5)):
            decorated = decorate_with_degrees(graph, partitioner=placement)
            want = self.per_edge_copy(source, graph.world, decorated.partitioner, metas=degrees)
            assert flattened(decorated.half_edge_columns()) == flattened(want)

        built = []
        build = DODGraph.build
        monkeypatch.setattr(
            DODGraph, "build", lambda graph, **kwargs: built.append(graph) or build(graph, **kwargs)
        )
        lost = seed % 4
        estimate = survivor_triangle_estimate(graph, [lost])
        want = self.per_edge_copy(source, World(3), lost=lost)
        assert flattened(built[0].half_edge_columns()) == flattened(want)
        assert estimate.surviving_vertices == len(want.vertices)
