"""Tests for wedge accounting helpers."""

from __future__ import annotations

import pytest

from repro.core.wedges import (
    per_rank_wedge_counts,
    wedge_count,
    wedge_count_from_edges,
    work_rate,
)
from repro.graph import DODGraph
from repro.oracle import record_view
from repro.runtime import World


class TestWedgeCounts:
    def test_wedge_count_matches_edge_oracle(self, small_rmat):
        world = World(4)
        dodgr = DODGraph.build(small_rmat.to_distributed(world))
        assert wedge_count(dodgr) == wedge_count_from_edges(small_rmat.edges)

    def test_per_rank_counts_sum_to_total(self, small_rmat):
        world = World(8)
        dodgr = DODGraph.build(small_rmat.to_distributed(world))
        per_rank = per_rank_wedge_counts(dodgr)
        assert len(per_rank) == 8
        assert sum(per_rank) == wedge_count(dodgr)

    def test_partitioning_does_not_change_total(self, small_er):
        totals = set()
        for nranks in (1, 3, 8):
            world = World(nranks)
            dodgr = DODGraph.build(small_er.to_distributed(world))
            totals.add(wedge_count(dodgr))
        assert len(totals) == 1


class TestWorkRate:
    def test_basic(self):
        assert work_rate(1000, 4, 2.0) == pytest.approx(125.0)

    def test_degenerate_inputs(self):
        assert work_rate(1000, 0, 2.0) == 0.0
        assert work_rate(1000, 4, 0.0) == 0.0


class TestVectorizedOracleParity:
    """The bincount drivers must match the scalar walks exactly."""

    def test_edge_oracle_matches_scalar_walk(self, small_rmat, small_er):
        from repro.graph.properties import dodgr_wedge_count

        for dataset in (small_rmat, small_er):
            assert wedge_count_from_edges(dataset.edges) == dodgr_wedge_count(
                dataset.edges
            )

    def test_edge_oracle_handles_duplicates_and_loops(self):
        from repro.graph.properties import dodgr_wedge_count

        edges = [(1, 2), (2, 1), (1, 1), (2, 3), (3, 1), (1, 2), (4, 4), (3, 4)]
        assert wedge_count_from_edges(edges) == dodgr_wedge_count(edges)

    def test_edge_oracle_handles_string_vertices(self):
        from repro.graph.properties import dodgr_wedge_count

        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "a")]
        assert wedge_count_from_edges(edges) == dodgr_wedge_count(edges)

    def test_edge_oracle_random_fuzz(self):
        import random

        from repro.graph.properties import dodgr_wedge_count

        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(2, 25)
            edges = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 80))
            ]
            assert wedge_count_from_edges(edges) == dodgr_wedge_count(edges)

    def test_per_rank_counts_match_scalar_walk(self, small_rmat):
        world = World(8)
        dodgr = DODGraph.build(small_rmat.to_distributed(world))
        expected = []
        for rank in range(8):
            total = 0
            for record in record_view(dodgr).stores[rank].values():
                d_plus = len(record["adj"])
                total += d_plus * (d_plus - 1) // 2
            expected.append(total)
        assert per_rank_wedge_counts(dodgr) == expected
