"""Property tests for the loader's first-touch labelling.

``first_touch_labels`` numbers the distinct ids of an int64 stream by where
each first occurs, from one stable radix order of the stream; every entry's
label is then read from an id-indexed table (non-negative ids, the largest
below ``_TABLE_IDS_PER_ENTRY`` times the stream length) or scattered back
through the sort order.  Its reference is the comparison sort it replaced:
``np.unique`` with ``return_index`` and ``return_inverse``, renumbered by
``argsort(first_seen)``.  ``DistributedGraph.from_columns`` and
``DeltaBuffer.apply`` both label through it; the load is held here to the
oracle's per-edge record load, column for column.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.distributed_graph as distributed_graph
from repro.graph import DistributedGraph
from repro.graph.dodgr import _value_sizes
from repro.graph.distributed_graph import first_touch_labels
from repro.oracle import load_records
from repro.runtime import World

INT64_MAX = 2**63 - 1


def reference(stream):
    """``(touched, labels)`` as lists, from ``np.unique`` and ``argsort(first_seen)``."""
    uniq, first_seen, inverse = np.unique(stream, return_index=True, return_inverse=True)
    touch = np.argsort(first_seen)
    dense = np.empty(uniq.size, dtype=np.int64)
    dense[touch] = np.arange(uniq.size, dtype=np.int64)
    return uniq[touch].tolist(), dense[inverse.reshape(-1)].tolist()


def table_fits(stream):
    span = distributed_graph._TABLE_IDS_PER_ENTRY * stream.size
    return bool(stream.size) and stream.min() >= 0 and stream.max() < span


@contextmanager
def ids_per_entry(value):
    """Force the table (a huge multiple) or the scatter (zero) path."""
    saved = distributed_graph._TABLE_IDS_PER_ENTRY
    distributed_graph._TABLE_IDS_PER_ENTRY = value
    try:
        yield
    finally:
        distributed_graph._TABLE_IDS_PER_ENTRY = saved


def assert_is_the_reference(stream):
    stream = np.asarray(stream, dtype=np.int64)
    touched, labels = first_touch_labels(stream)
    assert touched.dtype == np.int64 and labels.dtype == np.int64
    assert (touched.tolist(), labels.tolist()) == reference(stream)


class TestEdgeCases:
    def test_empty_stream(self):
        touched, labels = first_touch_labels(np.zeros(0, dtype=np.int64))
        assert touched.tolist() == [] and labels.tolist() == []

    @pytest.mark.parametrize("vertex", [0, 7, 2**31, INT64_MAX, -5])
    def test_one_entry(self, vertex):
        assert_is_the_reference([vertex])

    @pytest.mark.parametrize("length", [2, 511, 512, 5000])
    @pytest.mark.parametrize("vertex", [0, 3, 2**40, INT64_MAX])
    def test_every_entry_one_id(self, length, vertex):
        stream = np.full(length, vertex, dtype=np.int64)
        assert_is_the_reference(stream)
        assert first_touch_labels(stream)[0].tolist() == [vertex]

    @pytest.mark.parametrize("length", [1, 40, 600, 3000])
    def test_both_sides_of_the_table_threshold(self, length):
        rng = np.random.default_rng(length)
        span = distributed_graph._TABLE_IDS_PER_ENTRY * length
        for largest in (span - 1, span):
            stream = rng.integers(0, largest + 1, size=length, dtype=np.int64)
            stream[rng.integers(length)] = largest
            assert table_fits(stream) == (largest < span)
            assert_is_the_reference(stream)

    @pytest.mark.parametrize("low", [2**31, 2**62, INT64_MAX - 10_000])
    def test_wide_ids(self, low):
        rng = np.random.default_rng(low % 1000)
        stream = low + rng.integers(0, 10_000, size=2000, dtype=np.int64)
        stream[::7] = INT64_MAX
        assert_is_the_reference(stream)


#: Id ranges: small enough for the table, ``>= 2**31``, near int64's top,
#: and negative (``from_edges`` takes negative int ids as int64).
ID_RANGES = st.sampled_from(
    [(0, 8), (0, 300), (0, 2**20), (2**31, 2**31 + 50), (INT64_MAX - 50, INT64_MAX), (-40, 40)]
)


@st.composite
def streams(draw):
    low, high = draw(ID_RANGES)
    values = draw(st.lists(st.integers(low, high), max_size=80))
    # Tiled past the radix sort's cut-off, so its passes run as well.
    tiles = draw(st.sampled_from([1, 1, 20]))
    return np.tile(np.asarray(values, dtype=np.int64), tiles)


@settings(max_examples=200, deadline=None)
@given(stream=streams())
def test_labels_equal_the_unique_reference(stream):
    assert_is_the_reference(stream)


@settings(max_examples=100, deadline=None)
@given(
    stream=st.lists(st.integers(0, 500), max_size=200).map(
        lambda values: np.asarray(values, dtype=np.int64)
    )
)
def test_either_path_forced_is_the_reference(stream):
    for value in (0, 2**20):  # every stream scattered; every stream tabled
        with ids_per_entry(value):
            assert_is_the_reference(stream)


def assert_same_image(got, want):
    """Every column of the loaded image equals the record load's; sizes a
    shared-value load carries equal a cold sizing of its metadata."""
    for column in got._fields:
        got_column, want_column = getattr(got, column), getattr(want, column)
        if column == "edge_meta_sizes" and got_column is not None:
            want_column = _value_sizes(want.edge_meta)
        if want_column is None:
            assert got_column is None, column
            continue
        assert got_column.dtype == want_column.dtype, column
        assert got_column.tolist() == want_column.tolist(), column


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=60),
    only_meta=st.lists(st.integers(0, 30), max_size=6, unique=True),
    shared=st.booleans(),
    nranks=st.integers(1, 4),
)
def test_from_columns_equals_the_record_load(pairs, only_meta, shared, nranks):
    """Duplicate pairs (both orientations) keep the first position and, with
    one value per edge, the last metadata; self loops drop; metadata-only
    vertices join their rank after every endpoint."""
    us = np.asarray([u for u, _ in pairs], dtype=np.int64)
    vs = np.asarray([v for _, v in pairs], dtype=np.int64)
    metas = None if shared else [f"m{i}" for i in range(len(pairs))]
    vertex_meta = {vertex: f"only{vertex}" for vertex in only_meta}
    graph = DistributedGraph.from_columns(
        World(nranks),
        us,
        vs,
        edge_meta="shared",
        edge_metas=metas,
        vertex_meta=vertex_meta,
        default_vertex_meta="dflt",
    )
    edges = [
        (u, v, "shared" if metas is None else meta)
        for (u, v), meta in zip(pairs, metas or pairs)
    ]
    want = load_records(World(nranks), edges, vertex_meta=vertex_meta, default_vertex_meta="dflt")
    image = graph.half_edge_columns()
    assert (image.edge_meta_sizes is not None) == shared
    assert_same_image(image, want.columns())
