"""Unit tests for the distributed edge list (ingestion, simplification)."""

from __future__ import annotations

import pytest

from repro.graph import DistributedEdgeList, canonical_pair
from repro.graph.metadata import temporal_edge_meta
from repro.runtime.world import stable_hash


class TestCanonicalPair:
    def test_orders_integers(self):
        assert canonical_pair(5, 2) == (2, 5)
        assert canonical_pair(2, 5) == (2, 5)

    def test_orders_strings(self):
        assert canonical_pair("b", "a") == ("a", "b")

    def test_mixed_types_fall_back_to_repr(self):
        assert canonical_pair("x", 1) == canonical_pair(1, "x")


class TestIngestion:
    def test_driver_insert_round_robins(self, world4):
        el = DistributedEdgeList(world4)
        el.extend([(i, i + 1) for i in range(8)])
        assert el.num_records() == 8
        assert el.rank_sizes() == [2, 2, 2, 2]

    def test_records_preserve_metadata(self, world4):
        el = DistributedEdgeList(world4)
        el.insert(1, 2, {"t": 5})
        records = list(el.records())
        assert records == [(1, 2, {"t": 5})]

    def test_async_insert_routes_by_canonical_pair(self, world4):
        el = DistributedEdgeList(world4)
        # Both directions of the same pair must land on the same rank.
        el.async_insert(world4.ranks[0], 7, 3, "a")
        el.async_insert(world4.ranks[1], 3, 7, "b")
        world4.barrier()
        sizes = el.rank_sizes()
        assert sum(sizes) == 2
        assert max(sizes) == 2  # colocated

    def test_vertices_and_undirected_count(self, world4):
        el = DistributedEdgeList(world4)
        el.extend([(1, 2), (2, 1), (2, 3), (3, 3)])
        assert el.vertices() == {1, 2, 3}
        assert el.num_undirected_edges() == 2  # (1,2) and (2,3); self loop ignored

    def test_clear(self, world4):
        el = DistributedEdgeList(world4)
        el.insert(1, 2)
        el.clear()
        assert el.num_records() == 0


class TestSimplify:
    def test_removes_parallel_edges_and_self_loops(self, world4):
        el = DistributedEdgeList(world4)
        el.extend([(1, 2, "x"), (2, 1, "y"), (1, 1, "loop"), (2, 3, "z")])
        simple = el.simplify()
        assert simple.num_records() == 2
        pairs = {canonical_pair(u, v) for u, v, _ in simple.records()}
        assert pairs == {(1, 2), (2, 3)}

    def test_keep_first_reduction(self, world4):
        el = DistributedEdgeList(world4)
        el.insert(1, 2, "first")
        el.insert(2, 1, "second")
        simple = el.simplify("first")
        assert [meta for _, _, meta in simple.records()] == ["first"]

    def test_keep_first_routes_each_pair_to_its_owner(self, world4):
        """One record per pair, its first occurrence (rank order), on the
        rank ``async_insert`` routes the pair to."""
        el = DistributedEdgeList(world4, name="el")
        records = [(i % 13, (5 * i + 1) % 13, i) for i in range(120)] + [(11, 5, "x")]
        el.extend(records)
        first = {}
        for u, v, meta in el.records():
            if u != v:
                first.setdefault(canonical_pair(u, v), meta)
        simple = el.simplify("first")
        assert sorted((canonical_pair(u, v), m) for u, v, m in simple.records()) == sorted(
            first.items()
        )
        for rank in range(world4.nranks):
            for u, v, _ in simple.local_edges(rank):
                assert stable_hash(("el", canonical_pair(u, v))) % world4.nranks == rank

    def test_earliest_timestamp_reduction(self, world4):
        """The Reddit pipeline keeps the chronologically-first comment."""
        el = DistributedEdgeList(world4)
        el.insert(1, 2, temporal_edge_meta(50.0))
        el.insert(2, 1, temporal_edge_meta(10.0))
        el.insert(1, 2, temporal_edge_meta(99.0))
        simple = el.simplify("earliest")
        metas = [meta for _, _, meta in simple.records()]
        assert metas == [10.0]

    def test_min_reduction(self, world4):
        el = DistributedEdgeList(world4)
        el.insert(1, 2, 7)
        el.insert(1, 2, 3)
        simple = el.simplify("min")
        assert [meta for _, _, meta in simple.records()] == [3]

    def test_callable_reduction(self, world4):
        el = DistributedEdgeList(world4)
        el.insert(1, 2, 5)
        el.insert(2, 1, 6)
        simple = el.simplify(lambda a, b: a + b)
        assert [meta for _, _, meta in simple.records()] == [11]

    def test_unknown_reduction_rejected(self, world4):
        el = DistributedEdgeList(world4)
        with pytest.raises(ValueError):
            el.simplify("bogus")

    def test_self_loops_can_be_kept(self, world4):
        el = DistributedEdgeList(world4)
        el.insert(4, 4, None)
        assert el.simplify(drop_self_loops=False).num_records() == 1
        assert el.simplify(drop_self_loops=True).num_records() == 0

    def test_simplified_list_is_balanced_across_ranks(self, world8):
        el = DistributedEdgeList(world8)
        el.extend([(i, j) for i in range(30) for j in range(i + 1, 30)])
        simple = el.simplify()
        sizes = simple.rank_sizes()
        assert sum(sizes) == 30 * 29 // 2
        assert min(sizes) > 0
