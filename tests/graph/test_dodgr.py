"""Unit tests for the degree-ordered directed graph (DODGr)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.callbacks import ClosureTimeSurvey
from repro.core.incremental import StreamingSurvey
from repro.core.push_pull import triangle_survey_push_pull
from repro.core.survey import triangle_survey_push
from repro.graph import DODGraph, DistributedGraph, entry_key, order_key, rmat, temporal_edge_meta
from repro.graph.properties import dodgr_wedge_count, max_dodgr_out_degree
from repro.runtime import World
from repro.runtime.rpc import RpcError
from repro.service import SurveyService


def build_pair(generated, nranks=4):
    """Build bulk and async DODGr for the same generated graph."""
    world_a = World(nranks)
    bulk = DODGraph.build(generated.to_distributed(world_a), mode="bulk")
    world_b = World(nranks)
    asyn = DODGraph.build(generated.to_distributed(world_b), mode="async")
    return bulk, asyn


class TestInvariants:
    def test_every_undirected_edge_appears_exactly_once(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4)
        dodgr = DODGraph.build(graph)
        directed = list(dodgr.directed_edges())
        assert len(directed) == graph.num_undirected_edges()
        assert len(set(map(frozenset, directed))) == len(directed)

    def test_edges_point_from_lower_to_higher_order(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4)
        dodgr = DODGraph.build(graph)
        degrees = graph.degrees()
        for u, v in dodgr.directed_edges():
            assert order_key(u, degrees[u]) < order_key(v, degrees[v])

    def test_adjacency_sorted_by_target_order(self, world4, small_rmat):
        dodgr = DODGraph.build(small_rmat.to_distributed(world4))
        for rank in range(4):
            for _vertex, record in dodgr.local_vertices(rank):
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
        for rank in range(4):
            for u, record in dodgr.local_vertices(rank):
                for v, d_v, edge_meta, meta_v in record["adj"]:
                    metas[(u, v)] = (edge_meta, meta_v, d_v)
        # Every stored entry carries the correct edge metadata, the target's
        # vertex metadata and the target's degree.
        for (u, v), (edge_meta, meta_v, d_v) in metas.items():
            assert edge_meta == graph.edge_meta(u, v)
            assert meta_v == graph.vertex_meta(v)
            assert d_v == graph.degree(v)

    def test_vertex_records_keep_full_degree_and_meta(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4, default_vertex_meta=True)
        dodgr = DODGraph.build(graph)
        for rank in range(4):
            for vertex, record in dodgr.local_vertices(rank):
                assert record["degree"] == graph.degree(vertex)
                assert record["meta"] is True

    def test_acyclic(self, world4, small_er):
        import networkx as nx

        dodgr = DODGraph.build(small_er.to_distributed(world4))
        dg = nx.DiGraph(list(dodgr.directed_edges()))
        assert nx.is_directed_acyclic_graph(dg)


class TestConstructionModes:
    def test_async_equals_bulk(self, small_er):
        bulk, asyn = build_pair(small_er)
        assert sorted(bulk.directed_edges()) == sorted(asyn.directed_edges())
        assert bulk.wedge_count() == asyn.wedge_count()

    def test_async_accounts_traffic(self, small_er):
        world = World(4)
        graph = small_er.to_distributed(world)
        dodgr = DODGraph.build(graph, mode="async", phase_name="construct")
        assert world.stats.phase_total("construct").rpcs_sent > 0
        assert dodgr.num_directed_edges() == graph.num_undirected_edges()

    def test_unknown_mode_rejected(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        with pytest.raises(ValueError):
            DODGraph.build(graph, mode="magic")


class TestQueries:
    def test_out_degree_and_degree(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        dodgr = DODGraph.build(graph)
        for vertex in (1, 2, 3, 4):
            assert dodgr.degree(vertex) == graph.degree(vertex)
            assert dodgr.out_degree(vertex) == len(dodgr.adjacency(vertex))
        assert dodgr.out_degree(99) == 0
        assert dodgr.adjacency(99) == []

    def test_wedge_count_matches_oracle(self, world8, small_rmat):
        dodgr = DODGraph.build(small_rmat.to_distributed(world8))
        assert dodgr.wedge_count() == dodgr_wedge_count(small_rmat.edges)

    def test_max_out_degree_matches_oracle(self, world8, small_rmat):
        dodgr = DODGraph.build(small_rmat.to_distributed(world8))
        assert dodgr.max_out_degree() == max_dodgr_out_degree(small_rmat.edges)

    def test_max_out_degree_much_smaller_than_max_degree(self, world4, small_rmat):
        """The reason cyclic partitioning is palatable: G+ tames the hubs."""
        graph = small_rmat.to_distributed(world4)
        dodgr = DODGraph.build(graph)
        assert dodgr.max_out_degree() < graph.max_degree()

    def test_vertex_meta_lookup(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2)], vertex_meta={1: "x", 2: "y"})
        dodgr = DODGraph.build(graph)
        assert dodgr.vertex_meta(1) == "x"
        with pytest.raises(KeyError):
            dodgr.vertex_meta(42)

    def test_rank_edge_counts_sum(self, world8, small_rmat):
        dodgr = DODGraph.build(small_rmat.to_distributed(world8))
        assert sum(dodgr.rank_edge_counts()) == dodgr.num_directed_edges()

    def test_visit_executes_on_owner(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2), (2, 3)])
        dodgr = DODGraph.build(graph)
        seen = []
        handler = world4.register_handler(lambda ctx, vertex, tag: seen.append((ctx.rank, vertex, tag)))
        dodgr.visit(world4.ranks[0], 3, handler, "hello")
        world4.barrier()
        assert seen == [(dodgr.owner(3), 3, "hello")]


class TestProductionPathStaysOnTheArrays:
    """A bulk build *is* its columns; object-shaped views exist only if read."""

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
        """The same graph loaded edge by edge, routed build, per-wedge engine."""
        us, vs, metas = self.columns()
        graph = DistributedGraph.from_edges(
            World(self.NRANKS), zip(us.tolist(), vs.tolist(), metas)
        )
        return graph, DODGraph.build(graph, mode="async")

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
        vertex = int(self.columns()[0][0])
        for query in (
            "num_vertices", "num_directed_edges", "max_out_degree", "wedge_count",
            "rank_edge_counts", "order_count",
        ):
            assert getattr(dodgr, query)() == getattr(oracle, query)(), query
        for query in ("out_degree", "degree", "vertex_meta"):
            assert getattr(dodgr, query)(vertex) == getattr(oracle, query)(vertex), query
        assert dodgr.rows_by_order_id().tolist() == oracle.rows_by_order_id().tolist()
        for query in (
            "num_vertices", "num_directed_edges", "num_undirected_edges", "max_degree",
            "rank_vertex_counts", "rank_edge_counts",
        ):
            assert getattr(graph, query)() == getattr(oracle_graph, query)(), query
        assert not graph.store_materialised
        assert dodgr.materialised_views() == frozenset()
        assert oracle.materialised_views() == {"records"}

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
        assert dodgr.materialised_views() == frozenset()

    def test_oracle_engine_materialises_what_it_reads(self):
        _, oracle = self.oracle()
        want = self.closure_histogram(oracle, "legacy")
        _, dodgr = self.build()
        assert self.closure_histogram(dodgr, "legacy") == want
        # The records share the entry tuples, so both exist; the dict does not.
        assert dodgr.materialised_views() == {"records", "entries"}
        assert dodgr.order_ids() == oracle.order_ids()
        assert dodgr.materialised_views() == {"records", "entries", "order_ids"}

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
        assert stream.dodgr.materialised_views() == frozenset()
        assert not stream.graph.store_materialised
        service = SurveyService(World(self.NRANKS), engine="columnar")
        service.ingest(batches[0])
        assert service.query("triangle").outcome == "exact"
        assert service._ledger.dodgr.materialised_views() == frozenset()
        assert not service._ledger.graph.store_materialised
        service.close()

    def test_mutation_after_from_columns_materialises_the_store(self):
        us, vs, metas = self.columns()
        graph, _ = self.build()
        oracle_graph, _ = self.oracle()
        assert not graph.store_materialised
        for mutated in (graph, oracle_graph):
            mutated.add_edge(int(us[0]), 10**6, "late")
        assert graph.store_materialised
        for rank in range(self.NRANKS):
            got, want = graph.local_store(rank), oracle_graph.local_store(rank)
            assert list(got.items()) == list(want.items())
            for vertex in got:
                assert list(got[vertex]["adj"].items()) == list(want[vertex]["adj"].items())


def test_release_frees_the_graph_when_its_last_owner_lets_go():
    world = World(2)
    dodgr = DODGraph.build(DistributedGraph.from_edges(world, [(0, 1), (1, 2), (0, 2)]))
    assert dodgr.retain() is dodgr
    dodgr.release()
    assert dodgr.num_directed_edges() == 3
    assert world.registry.handler(dodgr._h_offer_edge.handler_id) is not None
    dodgr.release()
    assert not [slot for rank in world.ranks for slot in rank.local_state if slot.startswith("dodgr:")]
    with pytest.raises(RpcError, match="released"):
        world.registry.handler(dodgr._h_offer_edge.handler_id)
