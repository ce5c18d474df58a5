"""Tests for approximate (sparsified) triangle counting."""

from __future__ import annotations

import pytest

from repro.core import approximate_triangle_count
from repro.core.approximate import sparsify_graph
from repro.graph import DODGraph, serial_triangle_count
from repro.runtime import World


class TestSparsifyGraph:
    def test_probability_one_keeps_everything(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        sparse = sparsify_graph(graph, 1.0)
        assert sparse.num_undirected_edges() == graph.num_undirected_edges()
        assert sparse.num_vertices() == graph.num_vertices()

    def test_fraction_of_edges_kept(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4)
        sparse = sparsify_graph(graph, 0.5, seed=3)
        ratio = sparse.num_undirected_edges() / graph.num_undirected_edges()
        assert 0.35 < ratio < 0.65

    def test_vertices_and_metadata_preserved(self, world4):
        from repro.graph import DistributedGraph

        graph = DistributedGraph.from_edges(
            world4, [(1, 2, "e"), (2, 3, "f")], vertex_meta={1: "a", 2: "b", 3: "c"}
        )
        sparse = sparsify_graph(graph, 0.5, seed=1)
        assert sparse.num_vertices() == 3
        assert sparse.vertex_meta(1) == "a"

    def test_deterministic_given_seed(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        a = sparsify_graph(graph, 0.4, seed=9)
        b = sparsify_graph(graph, 0.4, seed=9)
        assert sorted((u, v) for u, v, _ in a.edges()) == sorted((u, v) for u, v, _ in b.edges())

    def test_invalid_probability_rejected(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        with pytest.raises(ValueError):
            sparsify_graph(graph, 0.0)
        with pytest.raises(ValueError):
            sparsify_graph(graph, 1.5)


class TestApproximateCount:
    def test_probability_one_is_exact(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4)
        result = approximate_triangle_count(graph, probability=1.0)
        assert result.estimate == serial_triangle_count(small_rmat.edges)
        assert result.scale_factor == 1.0

    def test_estimate_within_reason_on_triangle_rich_graph(self, small_rmat):
        world = World(4)
        graph = small_rmat.to_distributed(world)
        exact = serial_triangle_count(small_rmat.edges)
        # Average several independent estimates; the estimator is unbiased so
        # the mean should land near the truth on a triangle-rich graph.
        estimates = [
            approximate_triangle_count(graph, probability=0.6, seed=seed).estimate
            for seed in range(5)
        ]
        mean = sum(estimates) / len(estimates)
        assert abs(mean - exact) / exact < 0.35

    def test_cheaper_than_exact(self, small_rmat):
        world = World(4)
        graph = small_rmat.to_distributed(world)
        from repro.core import triangle_survey_push_pull

        exact_report = triangle_survey_push_pull(DODGraph.build(graph))
        approx = approximate_triangle_count(graph, probability=0.3, seed=2)
        assert approx.report.communication_bytes < exact_report.communication_bytes
        assert approx.kept_edges < approx.original_edges

    def test_relative_error_helper(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        result = approximate_triangle_count(graph, probability=1.0)
        assert result.relative_error(serial_triangle_count(small_er.edges)) == 0.0

    def test_callback_receives_sampled_triangles(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        seen = []
        result = approximate_triangle_count(
            graph, probability=0.7, seed=5, callback=lambda ctx, tri: seen.append(tri)
        )
        assert len(seen) == result.sampled_triangles

    def test_unknown_algorithm_rejected(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        with pytest.raises(ValueError):
            approximate_triangle_count(graph, algorithm="bogus")


class TestErrorBounds:
    def test_probability_one_has_zero_stderr(self, world4, small_rmat):
        graph = small_rmat.to_distributed(world4)
        result = approximate_triangle_count(graph, probability=1.0)
        assert result.stderr == 0.0
        low, high = result.confidence_interval()
        assert low == high == result.estimate

    def test_stderr_grows_as_probability_shrinks(self, small_rmat):
        stderrs = []
        for probability in (0.8, 0.5, 0.3):
            world = World(4)
            graph = small_rmat.to_distributed(world)
            result = approximate_triangle_count(
                graph, probability=probability, seed=3
            )
            stderrs.append(result.stderr)
        assert all(s >= 0 for s in stderrs)
        assert stderrs[0] < stderrs[-1]

    def test_confidence_interval_brackets_and_clamps(self, world4, small_er):
        graph = small_er.to_distributed(world4)
        result = approximate_triangle_count(graph, probability=0.4, seed=1)
        low, high = result.confidence_interval()
        assert low <= result.estimate <= high
        assert low >= 0.0  # clamped: a count can never be negative
        narrow_low, narrow_high = result.confidence_interval(z=1.0)
        assert narrow_low >= low and narrow_high <= high
