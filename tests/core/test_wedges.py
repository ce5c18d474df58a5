"""Tests for wedge accounting: |W+| of a DODGr and the work rate."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.wedges import work_rate
from repro.graph import DistributedGraph, DODGraph
from repro.graph.properties import dodgr_wedge_count
from repro.oracle import record_view
from repro.runtime import World


def built_wedge_count(edges, nranks: int = 3) -> int:
    """|W+| of the DODGr built from ``edges`` over ``nranks`` ranks."""
    dodgr = DODGraph.build(DistributedGraph.from_edges(World(nranks), edges))
    return dodgr.wedge_count()


class TestWedgeCounts:
    def test_wedge_count_matches_edge_oracle(self, small_rmat):
        world = World(4)
        dodgr = DODGraph.build(small_rmat.to_distributed(world))
        assert dodgr.wedge_count() == dodgr_wedge_count(small_rmat.edges)

    def test_per_rank_counts_sum_to_total(self, small_rmat):
        world = World(8)
        dodgr = DODGraph.build(small_rmat.to_distributed(world))
        per_rank = [
            sum(len(record["adj"]) * (len(record["adj"]) - 1) // 2 for record in store.values())
            for store in record_view(dodgr).stores
        ]
        assert len(per_rank) == 8
        assert sum(per_rank) == dodgr.wedge_count()

    def test_partitioning_does_not_change_total(self, small_er):
        totals = set()
        for nranks in (1, 3, 8):
            world = World(nranks)
            dodgr = DODGraph.build(small_er.to_distributed(world))
            totals.add(dodgr.wedge_count())
        assert len(totals) == 1


class TestWorkRate:
    def test_basic(self):
        assert work_rate(1000, 4, 2.0) == pytest.approx(125.0)

    def test_degenerate_inputs(self):
        assert work_rate(1000, 0, 2.0) == 0.0
        assert work_rate(1000, 4, 0.0) == 0.0


class TestVectorizedOracleParity:
    """The DODGr's array count must match the scalar walk exactly."""

    def test_edge_oracle_matches_scalar_walk(self, small_rmat, small_er):
        for dataset in (small_rmat, small_er):
            assert built_wedge_count(dataset.edges) == dodgr_wedge_count(dataset.edges)

    def test_edge_oracle_handles_duplicates_and_loops(self):
        edges = [(1, 2), (2, 1), (1, 1), (2, 3), (3, 1), (1, 2), (4, 4), (3, 4)]
        assert built_wedge_count(edges) == dodgr_wedge_count(edges)

    def test_edge_oracle_handles_string_vertices(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "a")]
        assert built_wedge_count(edges) == dodgr_wedge_count(edges)

    def test_edge_oracle_random_fuzz(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(2, 25)
            edges = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 80))
            ]
            assert built_wedge_count(edges) == dodgr_wedge_count(edges)

    def test_per_rank_counts_match_scalar_walk(self, small_rmat):
        world = World(8)
        dodgr = DODGraph.build(small_rmat.to_distributed(world))
        total = 0
        for rank in range(8):
            csr = dodgr.csr(rank)
            d_plus = np.diff(csr.indptr)
            walked = sum(
                len(record["adj"]) * (len(record["adj"]) - 1) // 2
                for record in record_view(dodgr).stores[rank].values()
            )
            assert int((d_plus * (d_plus - 1) // 2).sum()) == walked
            total += walked
        assert total == dodgr.wedge_count()
