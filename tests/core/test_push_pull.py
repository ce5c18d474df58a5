"""Tests for the Push-Pull triangle survey (Section 4.4)."""

from __future__ import annotations

from functools import partial

import pytest

from repro import core
from repro.core import TriangleCounter
from repro.graph import (
    DODGraph,
    DistributedGraph,
    community_host_graph,
    serial_triangle_count,
    serial_triangle_list,
)
from repro.runtime import World

#: This suite was written against Section 4.4 before any other engine
#: existed; it stays pinned to the scalar oracle so the oracle's direct
#: coverage does not silently move to the default (production) engine.
ENGINE = "legacy"
triangle_survey = partial(core.triangle_survey, engine=ENGINE)
triangle_survey_push = partial(core.triangle_survey_push, engine=ENGINE)
triangle_survey_push_pull = partial(core.triangle_survey_push_pull, engine=ENGINE)


def build_dodgr(generated, nranks):
    world = World(nranks)
    return world, DODGraph.build(generated.to_distributed(world))


class TestCorrectness:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_matches_serial_oracle(self, small_rmat, nranks):
        expected = serial_triangle_count(small_rmat.edges)
        _, dodgr = build_dodgr(small_rmat, nranks)
        assert triangle_survey_push_pull(dodgr).triangles == expected

    def test_matches_push_only(self, small_er):
        _, dodgr = build_dodgr(small_er, 4)
        push = triangle_survey_push(dodgr)
        push_pull = triangle_survey_push_pull(dodgr)
        assert push.triangles == push_pull.triangles

    def test_each_triangle_surveyed_once_with_correct_metadata(self, small_er):
        world, dodgr = build_dodgr(small_er, 4)
        seen = []
        triangle_survey_push_pull(dodgr, lambda ctx, tri: seen.append(frozenset(tri.vertices())))
        expected = {frozenset(t) for t in serial_triangle_list(small_er.edges)}
        assert len(seen) == len(expected)
        assert set(seen) == expected

    def test_metadata_correct_in_pull_path(self):
        """Force pulls on a dense graph and verify callback metadata integrity."""
        generated = community_host_graph(
            300, community_size=100, intra_probability=0.3, cross_links_per_vertex=0.5, seed=4
        )
        world = World(4)
        # Decorate vertices so metadata correctness is observable.
        vertices = generated.to_distributed(World(4)).vertices()
        graph = DistributedGraph.from_edges(
            world, generated.edges, vertex_meta={vertex: f"v{vertex}" for vertex in vertices}
        )
        dodgr = DODGraph.build(graph)

        errors = []

        def check(ctx, tri):
            if tri.meta_p != f"v{tri.p}" or tri.meta_q != f"v{tri.q}" or tri.meta_r != f"v{tri.r}":
                errors.append(tri)

        report = triangle_survey_push_pull(dodgr, check)
        assert report.vertices_pulled > 0, "test graph should trigger pulls"
        assert not errors
        assert report.triangles == serial_triangle_count(generated.edges)

    def test_counter_callback_agrees(self, small_rmat):
        world, dodgr = build_dodgr(small_rmat, 4)
        counter = TriangleCounter(world)
        report = triangle_survey_push_pull(dodgr, counter.callback)
        assert counter.result() == report.triangles

    def test_dispatch_wrapper(self, small_er):
        _, dodgr = build_dodgr(small_er, 4)
        expected = serial_triangle_count(small_er.edges)
        assert triangle_survey(dodgr, algorithm="push").triangles == expected
        assert triangle_survey(dodgr, algorithm="push_pull").triangles == expected
        with pytest.raises(ValueError):
            triangle_survey(dodgr, algorithm="bogus")


class TestPullBehaviour:
    def test_phases_reported(self, small_rmat):
        _, dodgr = build_dodgr(small_rmat, 4)
        report = triangle_survey_push_pull(dodgr)
        assert report.algorithm == "push_pull"
        assert report.phases == ["dry_run", "push", "pull"]
        for phase in report.phases:
            assert report.phase_seconds(phase) > 0

    def test_single_rank_never_pulls(self, small_rmat):
        _, dodgr = build_dodgr(small_rmat, 1)
        report = triangle_survey_push_pull(dodgr)
        assert report.vertices_pulled == 0
        assert report.communication_bytes == 0

    def test_dense_graph_reduces_communication(self):
        """On a community-heavy host graph, Push-Pull must move fewer bytes."""
        generated = community_host_graph(
            400, community_size=130, intra_probability=0.25, cross_links_per_vertex=0.5, seed=9
        )
        _, dodgr = build_dodgr(generated, 4)
        push = triangle_survey_push(dodgr)
        push_pull = triangle_survey_push_pull(dodgr)
        assert push_pull.triangles == push.triangles
        assert push_pull.vertices_pulled > 0
        assert push_pull.communication_bytes < 0.7 * push.communication_bytes

    def test_pull_opportunities_shrink_with_more_ranks(self):
        """Table 3 behaviour: pulls per rank decrease as the world grows."""
        generated = community_host_graph(
            400, community_size=130, intra_probability=0.25, cross_links_per_vertex=0.5, seed=9
        )
        pulls = []
        for nranks in (2, 8, 32):
            _, dodgr = build_dodgr(generated, nranks)
            report = triangle_survey_push_pull(dodgr)
            pulls.append(report.pulls_per_rank)
        assert pulls[0] > pulls[-1]

    def test_wedge_checks_split_between_push_and_pull(self, small_rmat):
        world, dodgr = build_dodgr(small_rmat, 4)
        push_only = triangle_survey_push(dodgr)
        push_pull = triangle_survey_push_pull(dodgr)
        # Every wedge is checked exactly once regardless of which phase does it.
        assert push_pull.wedge_checks == push_only.wedge_checks == dodgr.wedge_count()

    def test_report_row_contains_phase_columns(self, small_rmat):
        _, dodgr = build_dodgr(small_rmat, 4)
        row = triangle_survey_push_pull(dodgr).as_row()
        assert "sim_seconds[dry_run]" in row
        assert "sim_seconds[pull]" in row
        assert row["algorithm"] == "push_pull"
