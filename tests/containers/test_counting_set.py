"""Unit tests for the distributed counting set."""

from __future__ import annotations

import numpy as np
import pytest

from repro.containers import DistributedCountingSet
from repro.runtime import World


class TestCounting:
    @pytest.mark.parametrize("nranks", [1, 4])
    def test_counts_accumulate_across_ranks(self, nranks):
        world = World(nranks)
        counts = DistributedCountingSet(world, cache_capacity=4)
        for ctx in world.ranks:
            for item in ["a", "b", "a"]:
                counts.async_increment(ctx, item)
        counts.flush_all_caches()
        world.barrier()
        assert counts.counts() == {"a": 2 * nranks, "b": nranks}
        assert counts.total() == 3 * nranks
        assert sum(sum(counts.local_counts(r).values()) for r in range(nranks)) == counts.total()
        assert counts.count_of("a") == 2 * nranks
        assert counts.count_of("missing") == 0

    def test_cache_flushes_automatically_when_full(self, world4):
        counts = DistributedCountingSet(world4, cache_capacity=2)
        ctx = world4.ranks[0]
        counts.async_increment(ctx, "x")
        counts.async_increment(ctx, "y")  # second distinct item triggers flush
        world4.barrier()
        assert counts.counts() == {"x": 1, "y": 1}
        assert counts.pending_cached() == 0

    def test_counts_below_capacity_stay_cached_until_flush(self, world4):
        counts = DistributedCountingSet(world4, cache_capacity=100)
        counts.async_increment(world4.ranks[1], "z", 5)
        world4.barrier()
        assert counts.counts() == {}  # still cached
        assert counts.pending_cached() == 5
        counts.flush_all_caches()
        assert counts.pending_cached() == 0  # in flight, no longer cached
        world4.barrier()
        assert counts.counts() == {"z": 5}
        assert counts.pending_cached() == 0

    def test_increment_amounts_and_zero(self, world4):
        counts = DistributedCountingSet(world4, cache_capacity=4)
        counts.async_increment(world4.ranks[0], "k", 10)
        counts.async_increment(world4.ranks[0], "k", 0)
        counts.flush_all_caches()
        world4.barrier()
        assert counts.counts() == {"k": 10}

    def test_tuple_items(self, world4):
        """The Reddit survey counts (open bucket, close bucket) pairs."""
        counts = DistributedCountingSet(world4, cache_capacity=8)
        for ctx in world4.ranks:
            counts.async_increment(ctx, (3, 7))
            counts.async_increment(ctx, (3, 9))
        counts.flush_all_caches()
        world4.barrier()
        assert counts.counts() == {(3, 7): 4, (3, 9): 4}

    @pytest.mark.parametrize(
        "k, expected",
        [
            (0, []),
            (2, [("c", 9), ("a", 5)]),
            (3, [("c", 9), ("a", 5), ("b", 2)]),
            (10, [("c", 9), ("a", 5), ("b", 2)]),  # beyond distinct_items()
        ],
    )
    def test_top_k_and_distinct(self, world4, k, expected):
        counts = DistributedCountingSet(world4, cache_capacity=4)
        ctx = world4.ranks[0]
        for item, amount in [("a", 5), ("b", 2), ("c", 9)]:
            counts.async_increment(ctx, item, amount)
        counts.flush_all_caches()
        world4.barrier()
        assert counts.top_k(k) == expected
        assert counts.distinct_items() == 3

    @pytest.mark.parametrize("cached", [False, True])
    def test_clear_then_reuse(self, world4, cached):
        """``clear()`` drops counts and caches alike; the set keeps counting."""
        counts = DistributedCountingSet(world4, cache_capacity=4)
        counts.async_increment(world4.ranks[0], "x", 3)
        if not cached:
            counts.flush_all_caches()
            world4.barrier()
        counts.clear()
        assert counts.counts() == {}
        assert counts.pending_cached() == 0
        counts.async_increment(world4.ranks[1], "y", 2)
        counts.flush_all_caches()
        world4.barrier()
        assert counts.counts() == {"y": 2}

    @pytest.mark.parametrize("names", [("left", "right"), ("same", "same"), (None, None)])
    def test_two_sets_in_one_world_do_not_collide(self, world4, names):
        left = DistributedCountingSet(world4, name=names[0], cache_capacity=2)
        right = DistributedCountingSet(world4, name=names[1], cache_capacity=2)
        assert left.name != right.name
        for ctx in world4.ranks:
            left.increment_run(ctx, ["k", "l", "k"])
            right.async_increment(ctx, "k", 10)
        left.flush_all_caches()
        right.flush_all_caches()
        world4.barrier()
        assert left.counts() == {"k": 8, "l": 4}
        assert right.counts() == {"k": 40}

    @pytest.mark.parametrize(
        "call",
        [
            lambda counts, ctx: counts.increment_run(ctx, []),
            lambda counts, ctx: counts.increment_grouped_run(ctx, [], [], lambda: []),
            lambda counts, ctx: counts.flush_cache(ctx),
        ],
        ids=["increment_run", "increment_grouped_run", "flush_cache"],
    )
    def test_empty_input_books_no_rpc(self, world4, call):
        counts = DistributedCountingSet(world4, cache_capacity=1)
        for ctx in world4.ranks:
            call(counts, ctx)
        world4.barrier()
        total = world4.stats.total()
        assert (total.rpcs_sent, total.rpcs_executed, total.wire_messages) == (0, 0, 0)
        assert counts.counts() == {} and counts.pending_cached() == 0

    def test_an_array_inverse_fails_before_the_cache_fills(self, world4):
        """An array where the lazy inverse belongs fails on the first call,
        not on the first split: here the cache has room, no split happens."""
        counts = DistributedCountingSet(world4, cache_capacity=64)
        ctx = world4.ranks[0]
        with pytest.raises(TypeError, match="callable"):
            counts.increment_grouped_run(ctx, ["k"], [2], np.zeros(2, dtype=np.int64))
        assert counts.pending_cached() == 0

    def test_invalid_cache_capacity_rejected(self, world4):
        with pytest.raises(ValueError):
            DistributedCountingSet(world4, cache_capacity=0)

    def test_total_preserved_regardless_of_cache_capacity(self):
        """The same increment stream gives the same histogram for any cache size."""
        streams = [(rank, item) for rank in range(4) for item in [1, 2, 1, 3, 1, 2]]
        results = []
        for capacity in (1, 2, 64):
            world = World(4)
            counts = DistributedCountingSet(world, cache_capacity=capacity)
            for rank, item in streams:
                counts.async_increment(world.ranks[rank], item)
            counts.flush_all_caches()
            world.barrier()
            results.append(counts.counts())
        assert results[0] == results[1] == results[2] == {1: 12, 2: 8, 3: 4}
