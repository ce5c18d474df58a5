"""Parity tests: row kernels vs their scalar counterparts.

The row kernels are contractually *aggregates* of the scalar kernels: per
segment they must return exactly the matches the scalar kernel would against
that segment's adjacency row, and their comparison total must equal the sum
of the scalar counts — otherwise a columnar survey would drift from the
legacy path's simulated-cost accounting.
"""

from __future__ import annotations

import random

import numpy
import pytest

from repro.core.intersection import (
    INTERSECTION_KERNELS,
    ROW_KERNELS,
    RowAdjacency,
    RowBatchResult,
    _rows_via_scalar,
)

identity = lambda x: x  # noqa: E731 - key function for plain int keys

ROW_KERNEL_PAIRS = [
    (name, INTERSECTION_KERNELS[name], ROW_KERNELS[name])
    for name in ("merge_path", "hash", "binary_search")
]
KERNEL_IDS = [name for name, _, _ in ROW_KERNEL_PAIRS]


def flatten(segments):
    flat = [key for segment in segments for key in segment]
    offsets = [0]
    for segment in segments:
        offsets.append(offsets[-1] + len(segment))
    return flat, offsets


#: Key universe of the row-kernel tests.  The composite-key stride
#: (order_count) must bound *every* id — candidates and adjacency alike —
#: exactly as the dense ``<+`` order ids do in production.
ROW_KEY_SPACE = 60


def build_row_adjacency(rows):
    """RowAdjacency over explicit per-row sorted key lists."""
    keys, indptr = flatten(rows)
    return RowAdjacency(
        numpy.asarray(keys, dtype=numpy.int64),
        numpy.asarray(indptr, dtype=numpy.int64),
        ROW_KEY_SPACE,
    )


def row_scalar_reference(scalar_kernel, segments, seg_rows, rows):
    """One scalar call per segment against its own row: the row contract."""
    flat, offsets = flatten(segments)
    matches, comparisons = [], 0
    row_starts = [0]
    for row in rows:
        row_starts.append(row_starts[-1] + len(row))
    for seg_index, segment in enumerate(segments):
        row = seg_rows[seg_index]
        result = scalar_kernel(segment, rows[row], identity, identity)
        comparisons += result.comparisons
        for i, j in result.matches:
            matches.append((seg_index, offsets[seg_index] + i, row_starts[row] + j))
    return matches, comparisons


@pytest.mark.parametrize("name,scalar,row_kernel", ROW_KERNEL_PAIRS, ids=KERNEL_IDS)
class TestRowKernelParity:
    @pytest.fixture(autouse=True, params=["production-cutoff", "force-vectorized"])
    def _row_cutoff(self, request, monkeypatch):
        # The small-input fast path reroutes tiny calls through the scalar
        # reference, which would make these parity cases tautological; the
        # second parametrization forces every input down the vectorized
        # NumPy pipeline so its edge-case handling stays pinned too.
        if request.param == "force-vectorized":
            monkeypatch.setattr("repro.core.intersection._SCALAR_ROW_CUTOFF", -1)

    def assert_parity(self, scalar, row_kernel, segments, seg_rows, rows):
        flat, offsets = flatten(segments)
        adjacency = build_row_adjacency(rows)
        expected_matches, expected_comparisons = row_scalar_reference(
            scalar, segments, seg_rows, rows
        )
        result = row_kernel(flat, offsets, seg_rows, adjacency)
        got = list(
            zip(
                (int(s) for s in result.seg),
                (int(c) for c in result.cand_pos),
                (int(a) for a in result.adj_pos),
            )
        )
        assert got == expected_matches
        assert int(result.comparisons) == expected_comparisons

    def test_basic_multi_row(self, name, scalar, row_kernel):
        rows = [[2, 3, 4, 7, 10], [1, 9], []]
        segments = [[1, 3, 5, 7, 9], [2, 3, 4], [1, 9], [4]]
        self.assert_parity(scalar, row_kernel, segments, [0, 0, 1, 2], rows)

    def test_same_row_many_segments(self, name, scalar, row_kernel):
        rows = [[5, 9, 11]]
        segments = [[2, 5, 9], [9, 11], [1]]
        self.assert_parity(scalar, row_kernel, segments, [0, 0, 0], rows)

    def test_empty_rows_and_segments(self, name, scalar, row_kernel):
        self.assert_parity(scalar, row_kernel, [[], [3]], [0, 1], [[], [3]])
        self.assert_parity(scalar, row_kernel, [], [], [[1, 2]])

    def test_adversarial_empty_segment(self, name, scalar, row_kernel):
        self.assert_parity(scalar, row_kernel, [[], [5], []], [0, 0, 0], [[1, 5, 9]])

    def test_adversarial_empty_adjacency(self, name, scalar, row_kernel):
        self.assert_parity(scalar, row_kernel, [[1, 2], [3]], [0, 0], [[]])

    def test_adversarial_no_segments(self, name, scalar, row_kernel):
        self.assert_parity(scalar, row_kernel, [], [], [[1, 2, 3], [4]])

    def test_adversarial_single_entry_both_sides(self, name, scalar, row_kernel):
        self.assert_parity(scalar, row_kernel, [[7]], [0], [[7]])
        self.assert_parity(scalar, row_kernel, [[7]], [0], [[8]])

    def test_adversarial_all_matching(self, name, scalar, row_kernel):
        row = list(range(0, 40, 2))
        self.assert_parity(scalar, row_kernel, [list(row), list(row)], [0, 1], [row, row])

    def test_adversarial_disjoint_extremes(self, name, scalar, row_kernel):
        # Segments entirely below / entirely above their row's range hit the
        # "one side exhausts immediately" paths of the cost formula.
        rows = [[10, 20, 30], [5, 6]]
        self.assert_parity(scalar, row_kernel, [[1, 2, 3], [50, 51], [40]], [0, 0, 1], rows)

    def test_random_fuzz(self, name, scalar, row_kernel):
        rng = random.Random(4321)
        for _ in range(150):
            nrows = rng.randint(1, 6)
            rows = [
                sorted(rng.sample(range(60), rng.randint(0, 15))) for _ in range(nrows)
            ]
            segments, seg_rows = [], []
            for _ in range(rng.randint(0, 8)):
                segments.append(sorted(rng.sample(range(60), rng.randint(0, 12))))
                seg_rows.append(rng.randrange(nrows))
            self.assert_parity(scalar, row_kernel, segments, seg_rows, rows)


class TestRowResultShape:
    def test_result_is_sized(self):
        adjacency = build_row_adjacency([[5, 9, 11]])
        result = ROW_KERNELS["merge_path"]([2, 5, 9], [0, 3], [0], adjacency)
        assert isinstance(result, RowBatchResult)
        assert len(result) == 2
        assert list(result.cand_pos) == [1, 2] and list(result.adj_pos) == [0, 1]

    @pytest.mark.parametrize("name", KERNEL_IDS)
    def test_matches_ordered_by_segment_then_candidate(self, name):
        adjacency = build_row_adjacency([[5, 9], [1, 9]])
        result = ROW_KERNELS[name]([5, 9, 1, 9, 5, 9], [0, 2, 4, 6], [0, 1, 0], adjacency)
        assert [int(s) for s in result.seg] == [0, 0, 1, 1, 2, 2]
        assert [int(c) for c in result.cand_pos] == [0, 1, 2, 3, 4, 5]
        assert [int(a) for a in result.adj_pos] == [0, 1, 2, 3, 0, 1]

    @pytest.mark.parametrize("name", KERNEL_IDS)
    def test_bad_offsets_rejected(self, name):
        adjacency = build_row_adjacency([[1]])
        with pytest.raises(ValueError):
            ROW_KERNELS[name]([1, 2, 3], [0, 2], [0], adjacency)
        with pytest.raises(ValueError):
            ROW_KERNELS[name]([1, 2, 3], [1, 3], [0], adjacency)


class TestPythonFallback:
    """The per-segment scalar path must agree with the vectorized path exactly."""

    @pytest.mark.parametrize("name,scalar,row_kernel", ROW_KERNEL_PAIRS, ids=KERNEL_IDS)
    def test_fallback_matches_vectorized(self, name, scalar, row_kernel, monkeypatch):
        monkeypatch.setattr("repro.core.intersection._SCALAR_ROW_CUTOFF", -1)
        rng = random.Random(77)
        for _ in range(50):
            nrows = rng.randint(1, 4)
            rows = [
                sorted(rng.sample(range(ROW_KEY_SPACE), rng.randint(0, 25)))
                for _ in range(nrows)
            ]
            segments = [
                sorted(rng.sample(range(ROW_KEY_SPACE), rng.randint(0, 20)))
                for _ in range(rng.randint(0, 4))
            ]
            seg_rows = [rng.randrange(nrows) for _ in segments]
            flat, offsets = flatten(segments)
            adjacency = build_row_adjacency(rows)
            vectorized = row_kernel(flat, offsets, seg_rows, adjacency)
            fallback = _rows_via_scalar(scalar, flat, offsets, seg_rows, adjacency)
            for column in ("seg", "cand_pos", "adj_pos"):
                assert [int(v) for v in getattr(vectorized, column)] == [
                    int(v) for v in getattr(fallback, column)
                ], column
            assert int(vectorized.comparisons) == int(fallback.comparisons)
