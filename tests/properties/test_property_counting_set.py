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


@st.composite
def grouped_run_cases(draw):
    """(prefill, run, cache capacity), biased towards runs that must split.

    Two in three cases draw the capacity below the run's distinct keys, so
    the cache fills inside the run — with a prefilled cache one short of
    capacity the split lands on the run's first item, with a capacity equal
    to the distinct keys on its last new key.
    """
    run = draw(st.lists(items, min_size=1, max_size=60))
    distinct = len(set(run))
    capacity = draw(
        st.one_of(
            st.integers(min_value=1, max_value=24),
            st.integers(min_value=1, max_value=distinct),
            st.just(distinct),
        )
    )
    prefill = draw(
        st.one_of(
            st.lists(items, max_size=12),
            # As full as a cache gets between calls: the next new key flushes.
            st.lists(items, min_size=capacity - 1, max_size=capacity - 1, unique=True),
        )
    )
    return prefill, run, capacity


def record_wire(ctx, sent):
    """Record what ``ctx`` books and ships: the seam a flush goes through."""
    book, ship = ctx.account_rpc_bulk, ctx.async_call_batched

    def account_rpc_bulk(dests, sizes):
        sent.append(("booked", dests.tolist(), sizes.tolist()))
        book(dests, sizes)

    def async_call_batched(dest, handler, *args, virtual_rpcs, virtual_bytes):
        columns = tuple(column.tolist() for column in args)
        sent.append(("shipped", dest, columns, virtual_rpcs, virtual_bytes))
        ship(dest, handler, *args, virtual_rpcs=virtual_rpcs, virtual_bytes=virtual_bytes)

    ctx.account_rpc_bulk = account_rpc_bulk
    ctx.async_call_batched = async_call_batched


@given(grouped_run_cases())
@settings(max_examples=200, deadline=None)
def test_grouped_run_is_the_item_by_item_run(case):
    """``increment_grouped_run`` == ``increment_run`` over the expanded run.

    Same cache (contents *and* insertion order), same flushes — what each
    books (owners, sizes) and ships (per-owner columns) in the same order —
    and the same final counts, whether the grouped run fits the cache's
    headroom (applied aggregated) or fills it (split at the filling item).
    """
    prefill, run, cache_capacity = case
    keys = list(dict.fromkeys(run))  # distinct items, first-appearance order
    counts = [run.count(key) for key in keys]
    inverse = [keys.index(item) for item in run]

    def apply(grouped):
        world = World(3)
        counting = DistributedCountingSet(world, name="c", cache_capacity=cache_capacity)
        ctx = world.ranks[1]
        sent = []
        record_wire(ctx, sent)
        counting.increment_run(ctx, prefill)
        del sent[:]  # the prefill's own flushes are not under test
        if grouped:
            counting.increment_grouped_run(ctx, keys, counts, lambda: inverse)
        else:
            counting.increment_run(ctx, run)
        flushes_inside_the_run = len(sent)
        cache = list(counting._cache(ctx).items())
        counting.flush_all_caches()
        world.barrier()
        return cache, sent, flushes_inside_the_run, counting.counts(), world.stats.total()

    grouped, walked = apply(grouped=True), apply(grouped=False)
    assert grouped == walked
    if len(set(prefill)) == cache_capacity - 1 and run[0] not in prefill:
        assert walked[2], "a full cache must flush on the run's first new key"
