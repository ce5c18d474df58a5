"""Property tests for the reducers' run grouping and the lazy inverse.

``_grouped_run`` aggregates a run of per-item codes for
``DistributedCountingSet.increment_grouped_run`` on one of two paths, chosen
from the run itself: int codes in ``[0, len(codes))`` are tallied densely
(``_dense_groups``: ``bincount`` and ``minimum.at``), anything else is
stable-sorted (``_sorted_groups``: ``first_appearance_groups``).  Both must
equal a dict-of-lists reference — first positions, counts and the inverse —
on whichever side of that threshold a run falls, and with either path
forced on any run it can take.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.callbacks as callbacks
from repro.containers import DistributedCountingSet
from repro.runtime import World


def reference(codes):
    """``(first, counts, inverse)`` from a dict of per-code item lists."""
    groups = {}
    for index, code in enumerate(codes.tolist()):
        groups.setdefault(code, []).append(index)
    label = {code: rank for rank, code in enumerate(groups)}
    return (
        [members[0] for members in groups.values()],
        [len(members) for members in groups.values()],
        [label[code] for code in codes.tolist()],
    )


@contextmanager
def paths_taken():
    """Record which path each ``_grouped_run`` call inside takes."""
    saved = callbacks._dense_groups, callbacks._sorted_groups
    taken = []

    def spy(name, path):
        def recorded(codes):
            taken.append(name)
            return path(codes)

        return recorded

    callbacks._dense_groups = spy("dense", saved[0])
    callbacks._sorted_groups = spy("sort", saved[1])
    try:
        yield taken
    finally:
        callbacks._dense_groups, callbacks._sorted_groups = saved


def built(grouping):
    """``(first, counts, inverse)`` as lists, the inverse built."""
    first, counts, inverse = grouping
    return first.tolist(), counts, inverse().tolist()


def dense_fits(codes):
    return codes.dtype.kind == "i" and codes.min() >= 0 and codes.max() < codes.size


def assert_every_path_is_the_reference(codes):
    """The chosen path, and each path forced where it applies, equal the
    reference; the choice is dense exactly when the codes fit the run."""
    expected = reference(codes)
    with paths_taken() as taken:
        assert built(callbacks._grouped_run(codes)) == expected
    assert taken == ["dense" if dense_fits(codes) else "sort"]
    assert built(callbacks._sorted_groups(codes)) == expected
    if codes.dtype.kind == "i" and codes.min() >= 0:
        assert built(callbacks._dense_groups(codes)) == expected


int_runs = st.lists(st.integers(0, 300), min_size=1, max_size=200).map(
    lambda values: np.array(values, dtype=np.int64)
)


@given(int_runs)
@settings(max_examples=200, deadline=None)
def test_dense_sort_and_reference_agree_on_both_sides_of_the_threshold(codes):
    """Code ranges narrower and wider than the run: one answer."""
    assert_every_path_is_the_reference(codes)


@given(st.integers(0, 5000), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_a_one_code_run(code, size):
    assert_every_path_is_the_reference(np.full(size, code, dtype=np.int64))


@given(st.permutations(list(range(200))), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_an_all_distinct_run(order, shift):
    """``0..199`` is dense (maximum 199 < 200 items); ``1..200`` sorts."""
    assert_every_path_is_the_reference(np.array(order, dtype=np.int64) + shift)


def test_the_maximum_code_exactly_at_the_threshold():
    """A maximum of ``len(codes) - 1`` groups densely; ``len(codes)`` sorts."""
    below = np.array([3, 0, 3, 1], dtype=np.int64)
    at = np.array([4, 0, 4, 1], dtype=np.int64)
    for codes, path in ((below, "dense"), (at, "sort")):
        with paths_taken() as taken:
            callbacks._grouped_run(codes)
        assert taken == [path]
        assert_every_path_is_the_reference(codes)


@given(
    st.one_of(
        st.lists(st.integers(-50, 50), min_size=1, max_size=120).map(
            lambda values: np.array(values, dtype=np.int64)
        ),
        st.lists(
            st.floats(allow_nan=False, min_value=-8, max_value=8).map(lambda x: round(x, 1)),
            min_size=1,
            max_size=120,
        ).map(lambda values: np.array(values, dtype=np.float64)),
    )
)
@settings(max_examples=100, deadline=None)
def test_negative_and_float_codes_take_the_sort_path(codes):
    assert_every_path_is_the_reference(codes)


@given(int_runs, st.integers(1, 40), st.lists(st.integers(0, 300), max_size=40))
@settings(max_examples=150, deadline=None)
def test_the_inverse_is_built_only_when_the_run_splits(codes, capacity, prefill):
    """The counting set builds the inverse exactly when the run flushes the
    cache, and the dense and sort groupings leave the cache, the flush
    stream and the counts of the item-by-item walk, whichever branch the
    run takes."""
    items = codes.tolist()

    def apply(path=None):
        world = World(3)
        counting = DistributedCountingSet(world, name="c", cache_capacity=capacity)
        ctx = world.ranks[1]
        counting.increment_run(ctx, prefill)
        flushes, calls = [], []
        flush = counting.flush_cache

        def recorded_flush(c):
            flushes.append(list(counting._cache(c).items()))
            flush(c)

        counting.flush_cache = recorded_flush
        if path is None:
            counting.increment_run(ctx, items)
        else:
            first, counts, inverse = path(codes)
            keys = [items[i] for i in first.tolist()]
            counting.increment_grouped_run(
                ctx, keys, counts, lambda: calls.append(True) or inverse()
            )
        inside = len(flushes)
        cache = list(counting._cache(ctx).items())
        counting.flush_all_caches()
        world.barrier()
        return (cache, flushes, inside, counting.counts(), world.stats.total()), calls

    walked, _ = apply()
    for path in (callbacks._dense_groups, callbacks._sorted_groups):
        result, calls = apply(path)
        assert result == walked, path.__name__
        assert bool(calls) == bool(walked[2]), "the inverse is built iff the run splits"
        assert len(calls) <= 1
