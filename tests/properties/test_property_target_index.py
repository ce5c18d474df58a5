"""Property suite: the inverted target index is found by offset.

:meth:`~repro.graph.dodgr.CSRAdjacency.inverted_target_index` returns
``(offsets, positions, row_of_edge)``, and
:func:`~repro.core.engine.segments.positions_of_ids` reads id ``t``'s edge
positions as ``positions[offsets[t]:offsets[t + 1]]``.  Its oracle is the
search it replaced: two ``searchsorted`` calls over the sorted target ids.
The two must agree on every CSR-shaped input — targets repeated across
rows, ids no row holds, the first and last order id, no ids at all, a CSR
with no edges — and the delta survey's old-edges-only view
(:func:`~repro.core.engine.segments.kept_offsets`) must equal filtering the
index first and searching the survivors.  An id outside ``[0,
order_count)`` is a ValueError, so ``-1`` cannot wrap onto the last slot.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine.segments import kept_offsets, positions_of_ids
from repro.graph.dodgr import CSRAdjacency


def csr_of(rows):
    """A CSRAdjacency holding only what the index reads: rows of target ids."""
    columns = dict.fromkeys(CSRAdjacency.COLUMNS)
    columns.update(
        row_vertices=np.arange(len(rows)),
        indptr=np.concatenate(([0], np.cumsum([len(row) for row in rows]))).astype(np.int64),
        tgt_ids=np.asarray([key for row in rows for key in row], dtype=np.int64),
    )
    return CSRAdjacency(**columns)


def searched(sorted_ids, positions, ids):
    """The replaced lookup: both ends of every id's run by binary search."""
    lo = np.searchsorted(sorted_ids, ids, side="left")
    hi = np.searchsorted(sorted_ids, ids, side="right")
    owner = np.repeat(np.arange(len(ids), dtype=np.int64), hi - lo)
    found = [positions[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
    return owner, np.concatenate([np.empty(0, dtype=np.int64), *found])


def assert_same(got, want):
    assert [column.tolist() for column in got] == [column.tolist() for column in want]


@st.composite
def csr_cases(draw):
    """Sorted, duplicate-free rows over a small id universe (so targets
    repeat across rows and some ids appear in none), plus probe ids that
    always include ``0`` and ``order_count - 1``, repeats allowed, and an
    old-edge mask over the edges."""
    order_count = draw(st.integers(min_value=1, max_value=24))
    ids = st.integers(min_value=0, max_value=order_count - 1)
    rows = draw(
        st.lists(st.lists(ids, max_size=order_count, unique=True).map(sorted), max_size=6)
    )
    probes = draw(st.lists(ids, max_size=12)) + [0, order_count - 1]
    probes = draw(st.permutations(probes))
    edges = sum(map(len, rows))
    old = draw(st.lists(st.booleans(), min_size=edges, max_size=edges))
    return order_count, rows, np.asarray(probes, dtype=np.int64), np.asarray(old, dtype=bool)


@settings(max_examples=200, deadline=None)
@given(case=csr_cases())
def test_offsets_lookup_equals_the_search(case):
    order_count, rows, probes, _old = case
    csr = csr_of(rows)
    offsets, positions, row_of_edge = csr.inverted_target_index(order_count)
    assert offsets.size == order_count + 1 and offsets[-1] == csr.num_edges
    # Positions grouped by target, row-major within a target.
    sorted_ids = csr.tgt_ids[positions]
    assert np.array_equal(positions, np.argsort(csr.tgt_ids, kind="stable"))
    assert np.array_equal(row_of_edge, np.repeat(np.arange(len(rows)), np.diff(csr.indptr)))
    for ids in (probes, probes[:0]):
        assert_same(positions_of_ids(offsets, positions, ids), searched(sorted_ids, positions, ids))


@settings(max_examples=200, deadline=None)
@given(case=csr_cases())
def test_old_only_view_equals_filter_then_search(case):
    """The delta join's view reads only kept positions, and finds exactly
    what searching the filtered index finds."""
    order_count, rows, probes, old = case
    csr = csr_of(rows)
    offsets, positions, _rows = csr.inverted_target_index(order_count)
    keep = old[positions]
    owner, found = positions_of_ids(kept_offsets(offsets, keep), positions[keep], probes)
    assert old[found].all()
    want = searched(csr.tgt_ids[positions][keep], positions[keep], probes)
    assert_same((owner, found), want)


def test_empty_csr_and_empty_ids():
    for rows in ([], [[], []]):
        csr = csr_of(rows)
        offsets, positions, row_of_edge = csr.inverted_target_index(5)
        assert offsets.tolist() == [0] * 6 and positions.size == row_of_edge.size == 0
        owner, found = positions_of_ids(offsets, positions, np.array([0, 4, 4]))
        assert owner.size == found.size == 0
        owner, found = positions_of_ids(offsets, positions, np.empty(0, dtype=np.int64))
        assert owner.size == found.size == 0


@pytest.mark.parametrize("bad", [-1, -5, 5, 6])
def test_ids_outside_the_order_range_are_rejected(bad):
    """No id wraps: ``-1`` would read the last slots' run without the check."""
    csr = csr_of([[0, 2, 4], [4]])
    offsets, positions, _rows = csr.inverted_target_index(5)
    with pytest.raises(ValueError, match=r"^target ids must lie in \[0, 5\)$"):
        positions_of_ids(offsets, positions, np.array([0, bad, 4]))


def test_index_is_cached_per_order_count():
    csr = csr_of([[1, 3], [3]])
    first = csr.inverted_target_index(4)
    assert csr.inverted_target_index(4) is first
    wider = csr.inverted_target_index(6)
    assert wider[0].tolist() == [0, 0, 1, 1, 3, 3, 3]
