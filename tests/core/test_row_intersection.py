"""Parity tests: row kernels vs the oracle's pairwise kernels.

The row kernels are contractually *aggregates* of the pairwise kernels of
:mod:`repro.oracle.kernels`: per segment they must return exactly the
matches the pairwise kernel would against that segment's adjacency row, and
their comparison total must equal the sum of the pairwise counts —
otherwise a columnar survey would drift from the legacy path's
simulated-cost accounting.  Segments are spans
``source[start:end]`` of one source key array, and a match's candidate
position is absolute in that source: the cases lay segments end to end (the
delta stream's ``offsets[:-1]`` / ``offsets[1:]`` form) and as the push and
pull surveys pass them — overlapping suffixes of the rows of a CSR-like
source, empty, in any order.  The hand-written cases run over every
registered tier: ``columnar``, and ``compiled`` wherever a C compiler built
it.  The compiled tier's stamp-and-probe body gets cases of its own.
"""

from __future__ import annotations

import random
import threading

import numpy
import pytest

from repro.core import intersection
from repro.core.intersection import (
    ROW_KERNEL_TIERS,
    ROW_KERNELS,
    RowAdjacency,
    RowBatchResult,
    compiled_tier_status,
)
from repro.oracle.kernels import INTERSECTION_KERNELS

identity = lambda x: x  # noqa: E731 - key function for plain int keys

ROW_KERNEL_PAIRS = [
    (name, INTERSECTION_KERNELS[name]) for name in ("merge_path", "hash", "binary_search")
]
KERNEL_IDS = [name for name, _ in ROW_KERNEL_PAIRS]

needs_compiled = pytest.mark.skipif(
    not compiled_tier_status().available, reason="compiled tier not built"
)


@pytest.fixture(params=list(ROW_KERNEL_TIERS))
def tier(request):
    return request.param


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


def build_row_adjacency(rows, order_count=ROW_KEY_SPACE):
    """RowAdjacency over explicit per-row sorted key lists."""
    keys, indptr = flatten(rows)
    return RowAdjacency(
        numpy.asarray(keys, dtype=numpy.int64),
        numpy.asarray(indptr, dtype=numpy.int64),
        order_count,
    )


def row_pairwise_reference(pairwise_kernel, source, spans, seg_rows, rows):
    """One pairwise call per span ``source[start:end]`` against its own row:
    the row contract, candidate positions absolute in ``source``."""
    matches, comparisons = [], 0
    row_starts = [0]
    for row in rows:
        row_starts.append(row_starts[-1] + len(row))
    for seg_index, (start, end) in enumerate(spans):
        row = seg_rows[seg_index]
        result = pairwise_kernel(list(source[start:end]), rows[row], identity, identity)
        comparisons += result.comparisons
        for i, j in result.matches:
            matches.append((seg_index, start + i, row_starts[row] + j))
    return matches, comparisons


def as_matches(result):
    """A row result in :func:`row_pairwise_reference`'s shape."""
    matches = zip(result.seg, result.cand_pos, result.adj_pos)
    return [tuple(map(int, match)) for match in matches], int(result.comparisons)


def assert_parity(pairwise, row_kernel, source, spans, seg_rows, rows, order_count=ROW_KEY_SPACE):
    """The row kernel over ``spans`` of ``source`` equals the reference."""
    starts = [start for start, _ in spans]
    ends = [end for _, end in spans]
    result = row_kernel(source, starts, ends, seg_rows, build_row_adjacency(rows, order_count))
    expected = row_pairwise_reference(pairwise, source, spans, seg_rows, rows)
    assert as_matches(result) == expected
    return expected


def end_to_end(segments):
    """``segments`` laid end to end in one source, with their spans: the
    delta stream's ``offsets[:-1]`` / ``offsets[1:]`` form."""
    flat, offsets = flatten(segments)
    return flat, list(zip(offsets[:-1], offsets[1:]))


def contiguous_parity(pairwise, row_kernel, segments, seg_rows, rows, order_count=ROW_KEY_SPACE):
    return assert_parity(pairwise, row_kernel, *end_to_end(segments), seg_rows, rows, order_count)


def suffix_spans(source_rows):
    """The push survey's shape: a CSR-like source (``source_rows`` end to
    end) and, per entry but the last of every row, the span of the rest of
    its row — nested suffixes, so their lengths sum past the source's."""
    source, offsets = flatten(source_rows)
    spans = [
        (position + 1, end)
        for lo, end in zip(offsets[:-1], offsets[1:])
        for position in range(lo, end - 1)
    ]
    return source, spans


@pytest.mark.parametrize("name,pairwise", ROW_KERNEL_PAIRS, ids=KERNEL_IDS)
class TestRowKernelParity:
    @pytest.fixture
    def row_kernel(self, name, tier):
        return ROW_KERNEL_TIERS[tier][name]

    def test_basic_multi_row(self, name, pairwise, row_kernel):
        rows = [[2, 3, 4, 7, 10], [1, 9], []]
        segments = [[1, 3, 5, 7, 9], [2, 3, 4], [1, 9], [4]]
        contiguous_parity(pairwise, row_kernel, segments, [0, 0, 1, 2], rows)

    def test_same_row_many_segments(self, name, pairwise, row_kernel):
        rows = [[5, 9, 11]]
        segments = [[2, 5, 9], [9, 11], [1]]
        contiguous_parity(pairwise, row_kernel, segments, [0, 0, 0], rows)

    def test_empty_rows_and_segments(self, name, pairwise, row_kernel):
        contiguous_parity(pairwise, row_kernel, [[], [3]], [0, 1], [[], [3]])
        contiguous_parity(pairwise, row_kernel, [], [], [[1, 2]])

    def test_adversarial_empty_segment(self, name, pairwise, row_kernel):
        contiguous_parity(pairwise, row_kernel, [[], [5], []], [0, 0, 0], [[1, 5, 9]])

    def test_adversarial_empty_adjacency(self, name, pairwise, row_kernel):
        contiguous_parity(pairwise, row_kernel, [[1, 2], [3]], [0, 0], [[]])

    def test_adversarial_no_segments(self, name, pairwise, row_kernel):
        contiguous_parity(pairwise, row_kernel, [], [], [[1, 2, 3], [4]])

    def test_adversarial_single_entry_both_sides(self, name, pairwise, row_kernel):
        contiguous_parity(pairwise, row_kernel, [[7]], [0], [[7]])
        contiguous_parity(pairwise, row_kernel, [[7]], [0], [[8]])

    def test_adversarial_all_matching(self, name, pairwise, row_kernel):
        row = list(range(0, 40, 2))
        contiguous_parity(pairwise, row_kernel, [list(row), list(row)], [0, 1], [row, row])

    def test_adversarial_disjoint_extremes(self, name, pairwise, row_kernel):
        # Segments entirely below / entirely above their row's range hit the
        # "one side exhausts immediately" paths of the cost formula.
        rows = [[10, 20, 30], [5, 6]]
        contiguous_parity(pairwise, row_kernel, [[1, 2, 3], [50, 51], [40]], [0, 0, 1], rows)

    def test_row_revisited_non_consecutively(self, name, pairwise, row_kernel):
        # Rows A, B, A: B's stamps must be gone and A's back when A returns.
        rows = [[1, 5, 9, 30], [2, 5, 7, 40]]
        probe = [1, 2, 5, 7, 9, 30, 40]
        segments = [probe, probe, probe, [7, 40]]
        contiguous_parity(pairwise, row_kernel, segments, [0, 1, 0, 0], rows)
        contiguous_parity(pairwise, row_kernel, [probe, [], probe, probe], [1, 0, 0, 1], rows)

    def test_equal_last_keys(self, name, pairwise, row_kernel):
        rows = [[3, 8, 12], [12]]
        segments = [[1, 2, 12], [3, 4, 5, 6, 7, 8, 12], [12], [0, 12], [12]]
        contiguous_parity(pairwise, row_kernel, segments, [0, 0, 0, 1, 1], rows)

    def test_random_fuzz(self, name, pairwise, row_kernel):
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
            contiguous_parity(pairwise, row_kernel, segments, seg_rows, rows)

    def test_overlapping_suffix_spans(self, name, pairwise, row_kernel):
        # Every wedge's suffix of a row, read in place: spans nest and their
        # lengths sum past the source's.
        source, spans = suffix_spans([[1, 4, 9], [2, 3, 5, 7, 11, 13], [6, 8]])
        assert sum(end - start for start, end in spans) > len(source)
        rows = [[3, 5, 9, 13], [4, 7, 8, 11], []]
        seg_rows = [index % len(rows) for index in range(len(spans))]
        matches, _ = assert_parity(pairwise, row_kernel, source, spans, seg_rows, rows)
        assert matches  # the case exercises hits, not just counts

    def test_one_suffix_against_many_rows(self, name, pairwise, row_kernel):
        source = [0, 2, 4, 6, 8, 10, 12, 14]
        spans = [(1, 8), (1, 8), (3, 8), (1, 8), (7, 8)]
        rows = [[2, 6, 14], [0, 4, 8, 12], [10]]
        assert_parity(pairwise, row_kernel, source, spans, [0, 1, 2, 0, 0], rows)

    def test_empty_spans(self, name, pairwise, row_kernel):
        # start == end at the source's first slot, inside it and past its end.
        source = [1, 3, 5, 7]
        spans = [(0, 0), (1, 3), (2, 2), (4, 4), (0, 4), (3, 3)]
        rows = [[1, 5, 7], [3]]
        assert_parity(pairwise, row_kernel, source, spans, [0, 1, 0, 1, 0, 0], rows)
        assert_parity(pairwise, row_kernel, source, [(2, 2)], [1], rows)

    def test_spans_ending_at_the_source_last_key(self, name, pairwise, row_kernel):
        source = [2, 9, 1, 4, 6, 12]
        rows = [[1, 6, 12], [4, 12], [12]]
        spans = [(5, 6), (3, 6), (2, 6), (4, 6)]
        assert_parity(pairwise, row_kernel, source, spans, [0, 1, 2, 0], rows)

    def test_spans_in_non_ascending_start_order(self, name, pairwise, row_kernel):
        source, _ = suffix_spans([[1, 5, 9, 30], [2, 5, 7, 40]])
        spans = [(5, 8), (1, 4), (6, 8), (0, 4), (4, 8), (2, 3)]
        rows = [[1, 5, 9, 30], [2, 5, 7, 40]]
        assert_parity(pairwise, row_kernel, source, spans, [0, 1, 1, 0, 0, 1], rows)

    def test_random_suffix_fuzz(self, name, pairwise, row_kernel):
        # A random CSR-like source, random spans within its rows (overlapping,
        # empty, in any order) against random rows.
        rng = random.Random(8765)
        for _ in range(120):
            source_rows = [
                sorted(rng.sample(range(ROW_KEY_SPACE), rng.randint(0, 12)))
                for _ in range(rng.randint(1, 4))
            ]
            source, offsets = flatten(source_rows)
            spans = []
            for _ in range(rng.randint(0, 10)):
                source_row = rng.randrange(len(source_rows))
                lo, hi = offsets[source_row], offsets[source_row + 1]
                start = rng.randint(lo, hi)
                spans.append((start, rng.randint(start, hi)))
            rows = [
                sorted(rng.sample(range(ROW_KEY_SPACE), rng.randint(0, 15)))
                for _ in range(rng.randint(1, 5))
            ]
            seg_rows = [rng.randrange(len(rows)) for _ in spans]
            assert_parity(pairwise, row_kernel, source, spans, seg_rows, rows)


class TestRowResultShape:
    def test_result_is_sized(self):
        adjacency = build_row_adjacency([[5, 9, 11]])
        result = ROW_KERNELS["merge_path"]([2, 5, 9], [0], [3], [0], adjacency)
        assert isinstance(result, RowBatchResult)
        assert len(result) == 2
        assert list(result.cand_pos) == [1, 2] and list(result.adj_pos) == [0, 1]

    @pytest.mark.parametrize("name", KERNEL_IDS)
    def test_matches_ordered_by_segment_then_candidate(self, name, tier):
        adjacency = build_row_adjacency([[5, 9], [1, 9]])
        kernel = ROW_KERNEL_TIERS[tier][name]
        result = kernel([5, 9, 1, 9, 5, 9], [0, 2, 4], [2, 4, 6], [0, 1, 0], adjacency)
        assert [int(s) for s in result.seg] == [0, 0, 1, 1, 2, 2]
        assert [int(c) for c in result.cand_pos] == [0, 1, 2, 3, 4, 5]
        assert [int(a) for a in result.adj_pos] == [0, 1, 2, 3, 0, 1]

    @pytest.mark.parametrize("name", KERNEL_IDS)
    def test_matches_report_source_positions(self, name, tier):
        # Suffixes of the source's second row, read in place: each match
        # names its key's slot in the source, never a slot of a copy.
        adjacency = build_row_adjacency([[4, 6, 8], [7]])
        kernel = ROW_KERNEL_TIERS[tier][name]
        source = [1, 2, 3, 4, 6, 7, 8]
        result = kernel(source, [4, 3, 5], [7, 7, 7], [0, 0, 1], adjacency)
        assert [int(s) for s in result.seg] == [0, 0, 1, 1, 1, 2]
        assert [int(c) for c in result.cand_pos] == [4, 6, 3, 4, 6, 5]
        assert [int(a) for a in result.adj_pos] == [1, 2, 0, 1, 2, 3]

    @pytest.mark.parametrize("name", KERNEL_IDS)
    def test_malformed_spans_rejected(self, name, tier):
        """Every tier raises the same ValueError, before reading a key, for
        a span outside ``0 <= start <= end <= len(source)`` or columns of
        unequal length; an out-of-range row stays an IndexError."""
        adjacency = RowAdjacency(
            numpy.arange(1, 7, dtype=numpy.int64), numpy.array([0, 3, 6]), 8
        )
        kernel = ROW_KERNEL_TIERS[tier][name]
        source = [1, 2, 3, 4, 5, 6]
        long_source = list(range(1, 7)) * 20
        bad_span = r"^segment spans must satisfy 0 <= start <= end <= "
        bad_columns = r"^one start, end and row per segment; got "
        cases = [
            # offsets [0, 4, 2, 6] and [0, -1, 3] as spans
            (source, [0, 4, 2], [4, 2, 6], [0, 1, 0], bad_span + "6$"),
            (source, [0, -1], [-1, 3], [0, 1], bad_span + "6$"),
            (source, [-1], [2], [0], bad_span + "6$"),
            (source, [3], [2], [0], bad_span + "6$"),
            (source, [2], [7], [0], bad_span + "6$"),
            (long_source, [0, 60, 119], [60, 121, 120], [0, 1, 0], bad_span + "120$"),
            (source, [0, 2], [2], [0, 1], bad_columns + "2 starts, 1 ends and 2 rows$"),
            (source, [0], [2], [0, 1], bad_columns + "1 starts, 1 ends and 2 rows$"),
        ]
        for keys, starts, ends, rows, message in cases:
            with pytest.raises(ValueError, match=message):
                kernel(keys, starts, ends, rows, adjacency)
        with pytest.raises(IndexError, match=r"^segment rows must lie in \[0, 2\)"):
            kernel(source, [0, 1], [2, 3], [0, 2], adjacency)

    def test_unknown_kernel_name_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^unknown intersection kernel 'bogus'; known: \("):
            intersection.row_kernel("bogus")


@needs_compiled
@pytest.mark.parametrize("name", KERNEL_IDS)
class TestCompiledStampAndProbe:
    """The C kernels stamp each row into an order-id-indexed array, probe
    candidates against it and count comparisons by their kernel's mode:
    closed form for merge path and hash, a walk per candidate for binary
    search.  With the parity cases above (rows revisited non-consecutively,
    equal last keys), each case here breaks a wrong stamp, a shared stamp
    array or a wrong count."""

    def assert_reference(self, name, segments, seg_rows, rows, order_count=ROW_KEY_SPACE):
        kernel = ROW_KERNEL_TIERS["compiled"][name]
        contiguous_parity(INTERSECTION_KERNELS[name], kernel, segments, seg_rows, rows, order_count)

    def test_more_matches_than_source_keys(self, name):
        # Every nested suffix of one row matches in full: the match count is
        # the spans' total length, past len(source) — the output's size.
        row = list(range(0, 40, 2))
        source, spans = suffix_spans([row])
        kernel = ROW_KERNEL_TIERS["compiled"][name]
        matches, _ = assert_parity(
            INTERSECTION_KERNELS[name], kernel, source, spans, [0] * len(spans), [row]
        )
        assert len(matches) == sum(end - start for start, end in spans) > 4 * len(source)

    def test_candidates_above_and_below_every_row_key(self, name):
        # Keys outside [0, order_count) match nothing, not the row's key 0.
        rows = [[10, 20, 30], [0, 10, 20, 30]]
        outside = [-7, -1, 0, 5, 31, ROW_KEY_SPACE - 1, ROW_KEY_SPACE, ROW_KEY_SPACE + 9]
        segments = [outside, [-1, 20], [30, ROW_KEY_SPACE], outside, [-1, 0, ROW_KEY_SPACE]]
        self.assert_reference(name, segments, [0, 0, 0, 1, 1], rows)

    def test_large_segment(self, name):
        rng = numpy.random.default_rng(11)
        universe = 1 << 18
        row = numpy.sort(rng.choice(universe, size=100_000, replace=False)).tolist()
        # The binary-search reference is a Python loop per probe: 10^3 probes.
        size = 1_000 if name == "binary_search" else 100_000
        segment = numpy.sort(rng.choice(universe, size=size, replace=False)).tolist()
        self.assert_reference(name, [segment, segment[:10]], [0, 0], [row], universe)

    def test_two_threads_on_one_adjacency(self, name):
        """ctypes drops the GIL around the C call: concurrent calls on one
        RowAdjacency must each own their stamp array.  Every segment moves
        to another row, so each call spends its time re-stamping."""
        rng = numpy.random.default_rng(3)
        universe = 1 << 16
        rows = [
            numpy.sort(rng.choice(universe, size=20_000, replace=False)).tolist()
            for _ in range(4)
        ]
        adjacency = build_row_adjacency(rows, universe)
        seg_rows = [seg % len(rows) for seg in range(40)]
        calls = []
        for seed in range(2):
            draw = numpy.random.default_rng(100 + seed)
            segments = [
                numpy.sort(draw.choice(universe, size=500, replace=False)).tolist()
                for _ in seg_rows
            ]
            source, spans = end_to_end(segments)
            expected = row_pairwise_reference(
                INTERSECTION_KERNELS[name], source, spans, seg_rows, rows
            )
            starts, ends = zip(*spans)
            calls.append(((source, starts, ends, seg_rows), expected))
        kernel = ROW_KERNEL_TIERS["compiled"][name]
        start = threading.Barrier(len(calls))
        results = [None for _ in calls]

        def run(slot, args):
            start.wait()
            results[slot] = [kernel(*args, adjacency) for _ in range(20)]

        threads = [
            threading.Thread(target=run, args=(slot, args))
            for slot, (args, _expected) in enumerate(calls)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for (_args, expected), got in zip(calls, results):
            assert [as_matches(result) for result in got] == [expected] * 20

    def test_adjacency_key_outside_order_count_is_a_value_error(self, name):
        kernel = ROW_KERNEL_TIERS["compiled"][name]
        # The bad key sits in the first row, in a later one, below zero; or
        # no key can be valid at all.
        cases = [([[1, 3, 8]], 8), ([[1, 3], [1, 9]], 8), ([[-1, 1, 3]], 8), ([[1, 3]], -1)]
        for rows, order_count in cases:
            adjacency = build_row_adjacency(rows, order_count)
            message = rf"adjacency keys must lie in \[0, {order_count}\)"
            with pytest.raises(ValueError, match=message):
                kernel([1, 3, 1], [0, 2], [2, 3], [0, len(rows) - 1], adjacency)
