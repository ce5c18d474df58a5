"""The oracle's pairwise intersection kernels and the per-segment reference loop.

The legacy engine intersects one wedge check per call: a pushed candidate
list against the target's ``Adj+_m(q)`` records, both sorted by the ``<+``
order.  Each kernel returns its matches as ``(candidate index, adjacency
index)`` pairs and the comparisons it made, which the legacy engine books
as simulated compute.  :func:`reference_rows` loops them over a row
kernel's spans, one call per segment: what every row-kernel tier is held to.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

import numpy as _np

from ..core.intersection import RowAdjacency, RowBatchResult, _check_spans

__all__ = ["INTERSECTION_KERNELS", "reference_rows"]

class IntersectionResult:
    """Matches plus the comparison count of one intersection call."""

    __slots__ = ("matches", "comparisons")

    def __init__(self, matches: List[Tuple[int, int]], comparisons: int) -> None:
        self.matches = matches
        self.comparisons = comparisons

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self):
        return iter(self.matches)


def merge_path_intersection(
    candidates: Sequence[Any],
    adjacency: Sequence[Any],
    candidate_key: Callable[[Any], Any],
    adjacency_key: Callable[[Any], Any],
) -> IntersectionResult:
    """Simultaneous traversal of two sorted lists (the paper's kernel).

    Both inputs must be sorted ascending by their respective key functions,
    and the keys must be drawn from the same total order (the ``<+`` order).
    Complexity O(len(candidates) + len(adjacency)).
    """
    matches: List[Tuple[int, int]] = []
    comparisons = 0
    i = 0
    j = 0
    n_cand = len(candidates)
    n_adj = len(adjacency)
    while i < n_cand and j < n_adj:
        comparisons += 1
        ck = candidate_key(candidates[i])
        ak = adjacency_key(adjacency[j])
        if ck == ak:
            matches.append((i, j))
            i += 1
            j += 1
        elif ck < ak:
            i += 1
        else:
            j += 1
    return IntersectionResult(matches, comparisons)


def binary_search_intersection(
    candidates: Sequence[Any],
    adjacency: Sequence[Any],
    candidate_key: Callable[[Any], Any],
    adjacency_key: Callable[[Any], Any],
) -> IntersectionResult:
    """Binary-search each candidate in the (sorted) adjacency list.

    Complexity O(len(candidates) * log len(adjacency)); preferable when the
    candidate list is much shorter than the adjacency list (TriCore's choice
    on GPUs).
    """
    matches: List[Tuple[int, int]] = []
    comparisons = 0
    adj_keys = [adjacency_key(entry) for entry in adjacency]
    for i, candidate in enumerate(candidates):
        ck = candidate_key(candidate)
        lo, hi = 0, len(adj_keys)
        while lo < hi:
            comparisons += 1
            mid = (lo + hi) // 2
            if adj_keys[mid] < ck:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(adj_keys):
            comparisons += 1
            if adj_keys[lo] == ck:
                matches.append((i, lo))
    return IntersectionResult(matches, comparisons)


def hash_intersection(
    candidates: Sequence[Any],
    adjacency: Sequence[Any],
    candidate_key: Callable[[Any], Any],
    adjacency_key: Callable[[Any], Any],
) -> IntersectionResult:
    """Hash the adjacency list, probe with each candidate (TRUST/H-Index style).

    Complexity O(len(candidates) + len(adjacency)); does not require either
    input to be sorted.  The table is built even for no candidates.
    """
    matches: List[Tuple[int, int]] = []
    table = {}
    comparisons = 0
    for j, entry in enumerate(adjacency):
        table[adjacency_key(entry)] = j
        comparisons += 1
    for i, candidate in enumerate(candidates):
        comparisons += 1
        j = table.get(candidate_key(candidate))
        if j is not None:
            matches.append((i, j))
    return IntersectionResult(matches, comparisons)


#: The legacy engine's kernels, by the ``kernel=`` names.
INTERSECTION_KERNELS = {
    "merge_path": merge_path_intersection,
    "binary_search": binary_search_intersection,
    "hash": hash_intersection,
}


def reference_rows(
    name: str,
    source_keys: Sequence[int],
    seg_starts: Sequence[int],
    seg_ends: Sequence[int],
    seg_rows: Sequence[int],
    adjacency: RowAdjacency,
) -> RowBatchResult:
    """A row-kernel call made one pairwise ``name`` kernel call per segment.

    Segment ``s`` is the span ``source_keys[seg_starts[s]:seg_ends[s]]``,
    intersected with adjacency row ``seg_rows[s]``; a match reports its
    candidate's position in ``source_keys`` and its global edge position in
    ``adjacency``, and ``comparisons`` is the sum of the pairwise counts.
    The arguments are checked as every tier checks them.
    """
    starts, ends, rows = _check_spans(
        source_keys, seg_starts, seg_ends, seg_rows, len(adjacency.indptr) - 1
    )
    kernel = INTERSECTION_KERNELS[name]
    source = _np.asarray(source_keys, dtype=_np.int64).tolist()
    keys = _np.asarray(adjacency.keys, dtype=_np.int64).tolist()
    indptr = _np.asarray(adjacency.indptr, dtype=_np.int64).tolist()
    seg_out: List[int] = []
    cand_out: List[int] = []
    adj_out: List[int] = []
    comparisons = 0
    for seg, (lo, hi, row) in enumerate(zip(starts.tolist(), ends.tolist(), rows.tolist())):
        adj_lo = indptr[row]
        result = kernel(
            source[lo:hi], keys[adj_lo : indptr[row + 1]], int, int  # int keys: identity
        )
        comparisons += result.comparisons
        for cand_idx, adj_idx in result.matches:
            seg_out.append(seg)
            cand_out.append(lo + cand_idx)
            adj_out.append(adj_lo + adj_idx)
    return RowBatchResult(seg_out, cand_out, adj_out, comparisons)
