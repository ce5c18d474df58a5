"""Tests for the Push-Only triangle survey (Algorithm 1)."""

from __future__ import annotations

from functools import partial

import pytest

from repro import core
from repro.core import EngineConfig, TriangleCounter
from repro.graph import (
    DODGraph,
    DistributedGraph,
    erdos_renyi,
    rmat,
    serial_triangle_count,
    serial_triangle_list,
)
from repro.runtime import World

#: This suite was written against Algorithm 1 before any other engine
#: existed; it stays pinned to the scalar oracle so the oracle's direct
#: coverage does not silently move to the default (production) engine.
ENGINE = "legacy"
triangle_survey_push = partial(core.triangle_survey_push, engine=ENGINE)


def run_push(generated, nranks, callback=None, **kwargs):
    world = World(nranks)
    graph = generated.to_distributed(world)
    dodgr = DODGraph.build(graph)
    report = triangle_survey_push(dodgr, callback, **kwargs)
    return world, report


class TestCounts:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_matches_serial_oracle_across_rank_counts(self, small_rmat, nranks):
        expected = serial_triangle_count(small_rmat.edges)
        _, report = run_push(small_rmat, nranks)
        assert report.triangles == expected

    def test_matches_oracle_on_er_graph(self, small_er):
        expected = serial_triangle_count(small_er.edges)
        _, report = run_push(small_er, 4)
        assert report.triangles == expected

    def test_triangle_free_graph(self, world4):
        # A star plus a path has no triangles.
        graph = DistributedGraph.from_edges(world4, [(0, i) for i in range(1, 6)] + [(10, 11), (11, 12)])
        report = triangle_survey_push(DODGraph.build(graph))
        assert report.triangles == 0

    def test_single_triangle(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2), (2, 3), (1, 3)])
        report = triangle_survey_push(DODGraph.build(graph))
        assert report.triangles == 1

    def test_counter_callback_agrees_with_report(self, small_rmat):
        world = World(4)
        dodgr = DODGraph.build(small_rmat.to_distributed(world))
        counter = TriangleCounter(world)
        report = triangle_survey_push(dodgr, counter.callback)
        assert counter.result() == report.triangles

    def test_empty_graph(self, world4):
        graph = DistributedGraph(world4)
        report = triangle_survey_push(DODGraph.build(graph))
        assert report.triangles == 0
        assert report.wedge_checks == 0


class TestCallbackMetadata:
    def test_callback_sees_every_triangle_exactly_once(self, small_er):
        world = World(4)
        dodgr = DODGraph.build(small_er.to_distributed(world))
        seen = []
        triangle_survey_push(dodgr, lambda ctx, tri: seen.append(frozenset(tri.vertices())))
        expected = {frozenset(t) for t in serial_triangle_list(small_er.edges)}
        assert len(seen) == len(expected)
        assert set(seen) == expected

    def test_callback_receives_correct_metadata(self, world4):
        graph = DistributedGraph.from_edges(
            world4,
            [(1, 2, "e12"), (2, 3, "e23"), (1, 3, "e13"), (3, 4, "e34")],
            vertex_meta={1: "m1", 2: "m2", 3: "m3", 4: "m4"},
        )
        dodgr = DODGraph.build(graph)
        captured = []
        triangle_survey_push(dodgr, lambda ctx, tri: captured.append(tri))
        assert len(captured) == 1
        tri = captured[0]
        vertices = set(tri.vertices())
        assert vertices == {1, 2, 3}
        # Vertex metadata corresponds to the vertex ids.
        mapping = {tri.p: tri.meta_p, tri.q: tri.meta_q, tri.r: tri.meta_r}
        assert mapping == {1: "m1", 2: "m2", 3: "m3"}
        # Edge metadata corresponds to the vertex pairs.
        edge_map = {
            frozenset((tri.p, tri.q)): tri.meta_pq,
            frozenset((tri.p, tri.r)): tri.meta_pr,
            frozenset((tri.q, tri.r)): tri.meta_qr,
        }
        assert edge_map == {
            frozenset((1, 2)): "e12",
            frozenset((2, 3)): "e23",
            frozenset((1, 3)): "e13",
        }

    def test_vertices_are_in_degree_order(self, small_er):
        world = World(4)
        graph = small_er.to_distributed(world)
        dodgr = DODGraph.build(graph)
        from repro.graph.degree import order_key

        degrees = graph.degrees()

        def check(ctx, tri):
            assert order_key(tri.p, degrees[tri.p]) < order_key(tri.q, degrees[tri.q])
            assert order_key(tri.q, degrees[tri.q]) < order_key(tri.r, degrees[tri.r])

        triangle_survey_push(dodgr, check)

    def test_callback_runs_on_owner_of_q(self, small_er):
        world = World(4)
        dodgr = DODGraph.build(small_er.to_distributed(world))
        triangle_survey_push(dodgr, lambda ctx, tri: None)
        checked = []
        triangle_survey_push(
            dodgr, lambda ctx, tri: checked.append(ctx.rank == dodgr.owner(tri.q))
        )
        assert checked and all(checked)


class TestTelemetry:
    def test_wedge_checks_match_dodgr_wedge_count(self, small_rmat):
        world = World(4)
        dodgr = DODGraph.build(small_rmat.to_distributed(world))
        report = triangle_survey_push(dodgr)
        assert report.wedge_checks == dodgr.wedge_count()

    def test_report_fields(self, small_rmat):
        world, report = run_push(small_rmat, 4, graph_name="custom-name")
        assert report.algorithm == "push"
        assert report.graph_name == "custom-name"
        assert report.nranks == 4
        assert report.phases == ["push"]
        assert report.simulated_seconds > 0
        assert report.communication_bytes > 0
        assert report.vertices_pulled == 0
        assert report.host_seconds > 0

    def test_single_rank_has_no_wire_traffic(self, small_er):
        _, report = run_push(small_er, 1)
        assert report.communication_bytes == 0
        assert report.wire_messages == 0
        assert report.triangles == serial_triangle_count(small_er.edges)

    def test_intersection_kernel_choice_does_not_change_counts(self, small_er):
        expected = serial_triangle_count(small_er.edges)
        for kernel in ("merge_path", "binary_search", "hash"):
            _, report = run_push(
                small_er, 4, engine=EngineConfig(engine=ENGINE, kernel=kernel)
            )
            assert report.triangles == expected

    def test_reset_stats_false_accumulates(self, small_er):
        world = World(4)
        dodgr = DODGraph.build(small_er.to_distributed(world))
        first = triangle_survey_push(dodgr)
        second = triangle_survey_push(dodgr, reset_stats=False)
        # Without resetting, the same phase keeps accumulating.
        assert second.wedge_checks == 2 * first.wedge_checks

    def test_unknown_kernel_rejected(self, small_er):
        world = World(2)
        dodgr = DODGraph.build(small_er.to_distributed(world))
        with pytest.raises(ValueError, match="unknown intersection kernel 'nope'"):
            triangle_survey_push(dodgr, engine=EngineConfig(engine=ENGINE, kernel="nope"))
