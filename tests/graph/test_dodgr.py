"""Unit tests for the degree-ordered directed graph (DODGr)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.callbacks import ClosureTimeSurvey
from repro.core.incremental import StreamingSurvey
from repro.core.push_pull import triangle_survey_push_pull
from repro.core.survey import triangle_survey_push
from repro.graph import DODGraph, DistributedGraph, order_key, rmat, temporal_edge_meta
from repro.graph.properties import dodgr_wedge_count, summarize_edges
from repro.oracle import entry_key, record_view, routed_build
from repro.oracle.records import _VIEWS
from repro.runtime import World
from repro.runtime.rpc import RpcError
from repro.service import SurveyService


def build_pair(generated, nranks=4):
    """The bulk DODGr and the routed records of the same generated graph."""
    bulk = DODGraph.build(generated.to_distributed(World(nranks)), mode="bulk")
    routed = routed_build(generated.to_distributed(World(nranks)))
    return bulk, routed


def routed_edges(stores):
    return [
        (u, entry[0]) for store in stores for u, record in store.items() for entry in record["adj"]
    ]


class TestInvariants:
    def test_every_undirected_edge_appears_exactly_once(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4)
        dodgr = DODGraph.build(graph)
        directed = list(record_view(dodgr).directed_edges())
        assert len(directed) == graph.num_undirected_edges() == dodgr.num_directed_edges()
        assert len(set(map(frozenset, directed))) == len(directed)

    def test_edges_point_from_lower_to_higher_order(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4)
        dodgr = DODGraph.build(graph)
        degrees = graph.degrees()
        for u, v in record_view(dodgr).directed_edges():
            assert order_key(u, degrees[u]) < order_key(v, degrees[v])

    def test_adjacency_sorted_by_target_order(self, world4, small_rmat):
        dodgr = DODGraph.build(small_rmat.to_distributed(world4))
        for store in record_view(dodgr).stores:
            for record in store.values():
                keys = [entry_key(entry) for entry in record["adj"]]
                assert keys == sorted(keys)

    def test_adjacency_entries_carry_metadata(self, world4):
        graph = DistributedGraph.from_edges(
            world4,
            [(1, 2, "e12"), (2, 3, "e23"), (1, 3, "e13")],
            vertex_meta={1: "m1", 2: "m2", 3: "m3"},
        )
        dodgr = DODGraph.build(graph)
        metas = {}
        for store in record_view(dodgr).stores:
            for u, record in store.items():
                for v, d_v, edge_meta, meta_v in record["adj"]:
                    metas[(u, v)] = (edge_meta, meta_v, d_v)
        # Every stored entry carries the correct edge metadata, the target's
        # vertex metadata and the target's degree.
        assert len(metas) == 3
        for (u, v), (edge_meta, meta_v, d_v) in metas.items():
            assert edge_meta == graph.edge_meta(u, v)
            assert meta_v == graph.vertex_meta(v)
            assert d_v == graph.degree(v)

    def test_vertex_records_keep_full_degree_and_meta(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4, default_vertex_meta=True)
        dodgr = DODGraph.build(graph)
        for rank, store in enumerate(record_view(dodgr).stores):
            assert set(store) == {vertex for vertex, _ in graph.local_vertices(rank)}
            for vertex, record in store.items():
                assert record["degree"] == graph.degree(vertex)
                assert record["meta"] is True

    def test_acyclic(self, world4, small_er):
        import networkx as nx

        dodgr = DODGraph.build(small_er.to_distributed(world4))
        dg = nx.DiGraph(list(record_view(dodgr).directed_edges()))
        assert nx.is_directed_acyclic_graph(dg)


class TestConstructionModes:
    def test_routed_records_equal_the_bulk_view(self, small_er):
        bulk, routed = build_pair(small_er)
        stores = record_view(bulk).stores
        assert [list(store.items()) for store in routed] == [list(s.items()) for s in stores]
        assert sorted(routed_edges(routed)) == sorted(record_view(bulk).directed_edges())

    def test_routed_build_accounts_traffic(self, small_er):
        world = World(4)
        graph = small_er.to_distributed(world)
        handlers = len(world.registry)
        stores = routed_build(graph, phase_name="construct")
        assert world.stats.phase_total("construct").rpcs_sent > 0
        assert len(routed_edges(stores)) == graph.num_undirected_edges()
        # One handler id, like a DODGraph, freed once the build returns.
        assert len(world.registry) == handlers + 1
        with pytest.raises(RpcError, match="released"):
            world.registry.handler(handlers)

    def test_each_build_takes_one_handler_id(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        handlers = len(world4.registry)
        dodgr = DODGraph.build(graph)
        DODGraph.build(graph, mode="bulk")
        assert len(world4.registry) == handlers + 2
        assert dodgr._h_offer_edge.name == f"{dodgr.name}.offer_edge"
        with pytest.raises(RuntimeError, match="routed_build"):
            world4.registry.handler(dodgr._h_offer_edge.handler_id)(world4.ranks[0])

    def test_async_mode_points_to_the_routed_build(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        handlers = len(world4.registry)
        with pytest.raises(ValueError, match="routed_build"):
            DODGraph.build(graph, mode="async")
        assert len(world4.registry) == handlers

    def test_unknown_mode_rejected(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        with pytest.raises(ValueError):
            DODGraph.build(graph, mode="magic")


class TestQueries:
    def test_records_keep_degree_and_out_degree(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        dodgr = DODGraph.build(graph)
        stores = record_view(dodgr).stores
        for vertex in (1, 2, 3, 4):
            record = stores[dodgr.owner(vertex)][vertex]
            assert record["degree"] == graph.degree(vertex)
        out_degrees = [len(record["adj"]) for store in stores for record in store.values()]
        assert sum(out_degrees) == dodgr.num_directed_edges()
        assert max(out_degrees) == dodgr.max_out_degree()
        assert all(99 not in store for store in stores)

    def test_wedge_count_matches_oracle(self, world8, small_rmat):
        dodgr = DODGraph.build(small_rmat.to_distributed(world8))
        assert dodgr.wedge_count() == dodgr_wedge_count(small_rmat.edges)

    def test_max_out_degree_matches_oracle(self, world8, small_rmat):
        dodgr = DODGraph.build(small_rmat.to_distributed(world8))
        assert dodgr.max_out_degree() == summarize_edges(small_rmat).max_dodgr_out_degree

    def test_max_out_degree_much_smaller_than_max_degree(self, world4, small_rmat):
        """The reason cyclic partitioning is palatable: G+ tames the hubs."""
        graph = small_rmat.to_distributed(world4)
        dodgr = DODGraph.build(graph)
        assert dodgr.max_out_degree() < graph.max_degree()

    def test_vertex_meta_lookup(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2)], vertex_meta={1: "x", 2: "y"})
        dodgr = DODGraph.build(graph)
        stores = record_view(dodgr).stores
        assert stores[dodgr.owner(1)][1]["meta"] == "x"
        assert stores[dodgr.owner(2)][2]["meta"] == "y"
        assert all(42 not in store for store in stores)

    def test_rank_edge_counts_sum(self, world8, small_rmat):
        dodgr = DODGraph.build(small_rmat.to_distributed(world8))
        assert sum(dodgr.rank_edge_counts()) == dodgr.num_directed_edges()


class TestProductionPathStaysOnTheArrays:
    """A DODGr *is* its columns: only the oracle builds a record view of it."""

    NRANKS = 4

    @staticmethod
    def columns():
        us, vs = rmat(8, edge_factor=8, seed=5).edge_columns()
        metas = [temporal_edge_meta(float(7 * i % 1000), i % 3) for i in range(len(us))]
        return us, vs, metas

    def build(self):
        us, vs, metas = self.columns()
        graph = DistributedGraph.from_columns(World(self.NRANKS), us, vs, edge_metas=metas)
        return graph, DODGraph.build(graph)

    def oracle(self):
        """The same graph loaded edge by edge, for the per-wedge engine."""
        us, vs, metas = self.columns()
        graph = DistributedGraph.from_edges(
            World(self.NRANKS), zip(us.tolist(), vs.tolist(), metas)
        )
        return graph, DODGraph.build(graph)

    @staticmethod
    def closure_histogram(dodgr, engine):
        reducer = ClosureTimeSurvey(dodgr.world, name="closure")
        report = triangle_survey_push(dodgr, reducer.callback, engine=engine)
        reducer.finalize()
        return report.triangles, reducer.result()

    def test_columnar_surveys_and_size_queries_materialise_no_view(self):
        graph, dodgr = self.build()
        oracle_graph, oracle = self.oracle()
        count = triangle_survey_push_pull(dodgr, None, engine="columnar")
        assert count.triangles == triangle_survey_push_pull(oracle, None, engine="legacy").triangles
        assert self.closure_histogram(dodgr, "columnar") == self.closure_histogram(oracle, "legacy")
        for query in (
            "num_vertices", "num_directed_edges", "max_out_degree", "wedge_count",
            "rank_edge_counts", "order_count",
        ):
            assert getattr(dodgr, query)() == getattr(oracle, query)(), query
        assert dodgr.rows_by_order_id().tolist() == oracle.rows_by_order_id().tolist()
        for query in (
            "num_vertices", "num_directed_edges", "num_undirected_edges", "max_degree",
            "rank_vertex_counts", "rank_edge_counts",
        ):
            assert getattr(graph, query)() == getattr(oracle_graph, query)(), query
        assert dodgr not in _VIEWS and oracle in _VIEWS

    def test_scalar_callback_reads_the_columns(self):
        _, dodgr = self.build()
        _, oracle = self.oracle()

        def collect(into):
            return lambda ctx, tri: into.append(dataclasses.astuple(tri))

        got, want = [], []
        triangle_survey_push(dodgr, collect(got), engine="columnar")
        triangle_survey_push(oracle, collect(want), engine="legacy")
        assert sorted(got) == sorted(want) and got
        assert all(type(field) is int for tri in got for field in tri[:3])
        assert dodgr not in _VIEWS

    def test_oracle_engine_materialises_what_it_reads(self):
        _, oracle = self.oracle()
        want = self.closure_histogram(oracle, "legacy")
        _, dodgr = self.build()
        assert dodgr not in _VIEWS
        assert self.closure_histogram(dodgr, "legacy") == want
        view = _VIEWS[dodgr]
        assert record_view(dodgr) is view  # built once, then cached
        assert view.order_ids == record_view(oracle).order_ids
        assert view.stores == record_view(oracle).stores

    def test_the_write_path_materialises_no_view(self):
        """A columnar stream and a service ingest + exact query stay on the arrays."""
        us, vs, metas = self.columns()
        records = list(zip(us.tolist(), vs.tolist(), metas))
        cut, step = len(records) // 2, len(records) // 6
        batches = [records[:cut]] + [
            records[cut + i * step : cut + (i + 1) * step] for i in range(3)
        ]
        stream = StreamingSurvey(World(self.NRANKS), ClosureTimeSurvey, engine="columnar")
        for batch in batches:
            stream.ingest(batch)
        assert stream.dodgr not in _VIEWS
        service = SurveyService(World(self.NRANKS), engine="columnar")
        service.ingest(batches[0])
        assert service.query("triangle").outcome == "exact"
        assert service._ledger.dodgr not in _VIEWS
        service.close()


def test_release_frees_the_graph_when_its_last_owner_lets_go():
    world = World(2)
    dodgr = DODGraph.build(DistributedGraph.from_edges(world, [(0, 1), (1, 2), (0, 2)]))
    assert dodgr.retain() is dodgr
    dodgr.release()
    assert dodgr.num_directed_edges() == 3
    assert world.registry.handler(dodgr._h_offer_edge.handler_id) is not None
    dodgr.release()
    with pytest.raises(RpcError, match="released"):
        world.registry.handler(dodgr._h_offer_edge.handler_id)
    dodgr.release()  # a freed graph stays freed
    with pytest.raises(RuntimeError, match="released"):
        dodgr.num_directed_edges()


@pytest.mark.parametrize(
    "read",
    [
        lambda dodgr: dodgr.csr(0),
        lambda dodgr: dodgr.global_columns(),
        lambda dodgr: dodgr.num_vertices(),
        lambda dodgr: dodgr.num_directed_edges(),
        lambda dodgr: dodgr.wedge_count(),
        lambda dodgr: dodgr.max_out_degree(),
        lambda dodgr: dodgr.retain(),
        record_view,
    ],
    ids=[
        "csr", "global_columns", "num_vertices", "num_directed_edges", "wedge_count",
        "max_out_degree", "retain", "record_view",
    ],
)
def test_a_released_graph_refuses_every_read(read):
    world = World(2)
    graph = DistributedGraph.from_edges(world, [(0, 1), (1, 2), (0, 2)])
    dodgr = DODGraph.build(graph, name="gone")
    dodgr.release()
    with pytest.raises(RuntimeError, match="DODGr 'gone' has been released"):
        read(dodgr)
