"""Property-based tests for the distributed counting set."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers import DistributedCountingSet
from repro.runtime import World

# An increment stream: (source rank index 0..3, item, amount)
increments = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.one_of(
            st.integers(min_value=0, max_value=10),
            st.text(min_size=1, max_size=3),
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
        ),
        st.integers(min_value=1, max_value=5),
    ),
    max_size=120,
)


@given(increments, st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_histogram_matches_reference_counter(stream, cache_capacity):
    world = World(4)
    counts = DistributedCountingSet(world, cache_capacity=cache_capacity)
    expected: Counter = Counter()
    for rank, item, amount in stream:
        counts.async_increment(world.ranks[rank], item, amount)
        expected[item] += amount
    counts.flush_all_caches()
    world.barrier()
    assert counts.counts() == dict(expected)
    assert counts.total() == sum(expected.values())
    assert counts.pending_cached() == 0


@given(increments)
@settings(max_examples=30, deadline=None)
def test_cache_capacity_never_changes_the_result(stream):
    results = []
    for capacity in (1, 7, 1000):
        world = World(4)
        counts = DistributedCountingSet(world, cache_capacity=capacity)
        for rank, item, amount in stream:
            counts.async_increment(world.ranks[rank], item, amount)
        counts.flush_all_caches()
        world.barrier()
        results.append(counts.counts())
    assert results[0] == results[1] == results[2]


@given(increments, st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_world_size_never_changes_the_result(stream, nranks):
    world = World(nranks)
    counts = DistributedCountingSet(world, cache_capacity=3)
    expected: Counter = Counter()
    for rank, item, amount in stream:
        counts.async_increment(world.ranks[rank % nranks], item, amount)
        expected[item] += amount
    counts.flush_all_caches()
    world.barrier()
    assert counts.counts() == dict(expected)


items = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)


@given(
    prefill=st.lists(items, max_size=12),
    run=st.lists(items, min_size=1, max_size=60),
    cache_capacity=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=150, deadline=None)
def test_grouped_run_is_the_item_by_item_run(prefill, run, cache_capacity):
    """``increment_grouped_run`` == ``increment_run`` over the expanded run.

    Same cache (contents *and* insertion order), same increment messages in
    the same order, same final counts — whether the grouped run fits the
    cache's headroom (applied aggregated) or not (replayed).
    """
    keys = list(dict.fromkeys(run))  # distinct items, first-appearance order
    counts = [run.count(key) for key in keys]
    inverse = [keys.index(item) for item in run]

    def apply(grouped):
        world = World(3)
        counting = DistributedCountingSet(world, name="c", cache_capacity=cache_capacity)
        ctx = world.ranks[1]
        sent = []
        send = ctx.async_call
        ctx.async_call = lambda dest, handler, *args: (
            sent.append((dest, args)),
            send(dest, handler, *args),
        )
        counting.increment_run(ctx, prefill)
        if grouped:
            counting.increment_grouped_run(ctx, keys, counts, inverse)
        else:
            counting.increment_run(ctx, run)
        cache = list(counting._cache(ctx).items())
        counting.flush_all_caches()
        world.barrier()
        return cache, sent, counting.counts(), world.stats.total()

    assert apply(grouped=True) == apply(grouped=False)
