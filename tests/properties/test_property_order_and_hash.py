"""Property-based tests for the degree order, the stable hash and the
stable key order."""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.degree import order_key
from repro.runtime import world
from repro.runtime.world import first_appearance_groups, stable_hash, stable_key_order

vertex_ids = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(min_size=1, max_size=12),
)
degrees = st.integers(min_value=0, max_value=10**6)


def precedes(u, du, v, dv):
    """``u <+ v``: the order the DODGr build sorts vertices by."""
    return order_key(u, du) < order_key(v, dv)


@given(vertex_ids, degrees, vertex_ids, degrees)
@settings(max_examples=200, deadline=None)
def test_order_is_antisymmetric_and_total(u, du, v, dv):
    if u == v and du == dv:
        assert not precedes(u, du, v, dv)
    else:
        forward = precedes(u, du, v, dv)
        backward = precedes(v, dv, u, du)
        assert forward != backward


@given(vertex_ids, degrees, vertex_ids, degrees, vertex_ids, degrees)
@settings(max_examples=200, deadline=None)
def test_order_is_transitive(u, du, v, dv, w, dw):
    if precedes(u, du, v, dv) and precedes(v, dv, w, dw):
        assert precedes(u, du, w, dw)


@given(vertex_ids, degrees, vertex_ids, degrees)
@settings(max_examples=200, deadline=None)
def test_lower_degree_always_precedes(u, du, v, dv):
    if du < dv:
        assert precedes(u, du, v, dv)


@given(st.one_of(vertex_ids, st.tuples(vertex_ids, vertex_ids), st.none(), st.booleans(), st.floats(allow_nan=False)))
@settings(max_examples=200, deadline=None)
def test_stable_hash_is_deterministic_and_non_negative(value):
    assert stable_hash(value) == stable_hash(value)
    assert stable_hash(value) >= 0


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=50, unique=True))
@settings(max_examples=100, deadline=None)
def test_order_key_sorting_is_consistent_with_precedes(ids):
    degrees_map = {v: (v * 7) % 13 for v in ids}
    ordered = sorted(ids, key=lambda v: order_key(v, degrees_map[v]))
    for a, b in zip(ordered, ordered[1:]):
        assert precedes(a, degrees_map[a], b, degrees_map[b])


INT_DTYPES = ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")
#: Key maxima at every digit boundary of the radix passes (clipped to the dtype).
DIGIT_BOUNDARIES = (0, 1, 2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32, 2**48, 2**63 - 1, 2**63 + 5, 2**64 - 1)
key_sizes = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(min_value=4, max_value=4500))


def _keys(dtype, size, top, negative, seed):
    """``size`` keys of ``dtype`` drawn from a small pool with many repeats
    (so stability shows), the pool holding ``top`` (clipped to the dtype),
    ``top - 1``, the digit boundaries below it and, when ``negative``, the
    dtype's minimum and -1."""
    info = np.iinfo(dtype)
    top = min(top, int(info.max))
    rng = np.random.default_rng(seed)
    pool = [top, max(top - 1, 0), 0] + [b for b in DIGIT_BOUNDARIES if b <= top]
    pool += rng.integers(0, top, 8, endpoint=True, dtype=dtype).tolist()
    if negative and info.min < 0:
        pool += [int(info.min), -1, int(info.min) + 1]
    pool = np.array(pool, dtype=dtype)
    return pool[rng.integers(0, pool.size, size)]


@given(
    st.sampled_from(INT_DTYPES),
    key_sizes,
    st.sampled_from(DIGIT_BOUNDARIES),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, world.RADIX_KEYS_PER_PASS]),
)
@settings(max_examples=300, deadline=None)
def test_stable_key_order_is_the_stable_argsort(dtype, size, top, negative, seed, crossover):
    """Bit-identical to ``np.argsort(kind="stable")`` on every integer
    dtype, at every digit boundary, with negatives, empty and one-element
    arrays — also with the radix passes forced on arrays of any length."""
    keys = _keys(dtype, size, top, negative, seed)
    with mock.patch.object(world, "RADIX_KEYS_PER_PASS", crossover):
        order = stable_key_order(keys)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)


@given(
    st.sampled_from(["int64", "uint64", "int32"]),
    key_sizes,
    st.sampled_from(DIGIT_BOUNDARIES),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, world.RADIX_KEYS_PER_PASS]),
)
@settings(max_examples=150, deadline=None)
def test_first_appearance_groups_is_the_dict_of_lists(dtype, size, top, seed, crossover):
    """Group ``g`` is the ``g``-th key a ``setdefault(key, []).append(i)``
    dict meets, holding its indices ascending; no keys, no groups."""
    keys = _keys(dtype, size, top, False, seed)
    expected = {}
    for i, key in enumerate(keys.tolist()):
        expected.setdefault(key, []).append(i)
    with mock.patch.object(world, "RADIX_KEYS_PER_PASS", crossover):
        order, starts, ends = first_appearance_groups(keys)
    assert [order[lo:hi].tolist() for lo, hi in zip(starts, ends)] == list(expected.values())
