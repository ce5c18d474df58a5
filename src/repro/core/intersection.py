"""Adjacency-list intersection kernels.

The basic unit of work in triangle identification is the wedge check:
given the pivot's candidate list (a suffix of ``Adj+_m(p)``) and the target
vertex's adjacency ``Adj+_m(q)``, find the common vertices ``r`` — each one
closes a triangle Δpqr.  The paper uses a merge-path intersection (both lists
are sorted by the ``<+`` degree order); the related-work section surveys the
two main alternatives, binary search and hashing, which are provided here as
well so the ablation benchmark can compare them on identical inputs.

Every kernel returns the list of matches *with the positions* of the match in
both inputs, because the caller needs the metadata stored alongside each
entry, and reports the number of elementary comparisons performed so the
simulated compute cost reflects the kernel actually used.

Row kernels
-----------

The scalar kernels process one wedge check per call.  The columnar engine
coalesces every candidate suffix one source rank sends one destination rank
into a single call, by reference: segment ``s`` is the span
``source_keys[seg_starts[s]:seg_ends[s]]`` of one source key array (a push
or pull survey passes the source CSR's ``tgt_ids`` itself, so each wedge's
suffix is read in place and spans of one row may overlap), each segment
names the adjacency row it is checked against, and :func:`merge_path_rows` /
:func:`hash_rows` intersect *all* segments in one pass.  A match reports
its candidate's position in ``source_keys``.  The row kernels are drop-in
aggregates of the scalar kernels: per segment they produce exactly the
matches the scalar kernel would, and their ``comparisons`` total is exactly
the sum of the scalar kernels' counts, so the simulated-cost accounting of a
columnar survey is identical to the legacy per-wedge path.  The ``columnar``
tier copies the spans out (:func:`_expand_spans`) and runs a vectorized
pipeline over the copy; below a small-input cutoff it loops the scalar
kernels per segment instead (the ``scalar`` tier does so unconditionally).
Every row kernel also takes ``matches=False``, which a survey with no
callback passes: the result is then count-only — the same ``len()`` and
``comparisons``, no index arrays.  The compiled tier writes no match at
all; the columnar and scalar tiers compute the matches and drop them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as _np

__all__ = [
    "INTERSECTION_KERNELS",
    "RowAdjacency",
    "RowBatchResult",
    "ROW_KERNELS",
    "KERNEL_TIERS",
    "KERNEL_TIER_FALLBACK",
    "ROW_KERNEL_TIERS",
    "available_kernel_tiers",
    "compiled_tier_status",
    "resolve_kernel_tier",
    "row_kernel",
]

#: One match: (index into the candidate list, index into the adjacency list).
Match = Tuple[int, int]


class IntersectionResult:
    """Matches plus the comparison count of one intersection call."""

    __slots__ = ("matches", "comparisons")

    def __init__(self, matches: List[Match], comparisons: int) -> None:
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
    matches: List[Match] = []
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
    matches: List[Match] = []
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
    input to be sorted.
    """
    matches: List[Match] = []
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


#: Registry used by the survey engines and the ablation benchmark.
INTERSECTION_KERNELS = {
    "merge_path": merge_path_intersection,
    "binary_search": binary_search_intersection,
    "hash": hash_intersection,
}


# ---------------------------------------------------------------------------
# Row kernels (columnar engine)
# ---------------------------------------------------------------------------
#
# A single call intersects many candidate segments, each against its own
# adjacency row of one CSR, in one vectorized pass using composite keys: a
# CSR whose rows are each sorted by target order-id yields a globally sorted
# array under ``edge_row * order_count + tgt_id``, so one ``searchsorted`` of
# per-candidate composite keys finds every match against every row at once.


def _check_spans(source_keys, seg_starts, seg_ends, seg_rows, n_rows: int):
    """Every tier's argument check, run before any key is read.

    Segment ``s`` must be an in-range span, ``0 <= seg_starts[s] <=
    seg_ends[s] <= len(source_keys)`` (a ``ValueError`` otherwise, as for
    columns of unequal length), against a row in ``[0, n_rows)`` (an
    ``IndexError``: NumPy indexing would wrap a negative row onto the wrong
    one, C would read out of bounds).  Returns the three columns as
    contiguous int64 arrays.
    """
    starts, ends, rows = (
        _np.ascontiguousarray(column, dtype=_np.int64)
        for column in (seg_starts, seg_ends, seg_rows)
    )
    if not starts.shape == ends.shape == rows.shape == (starts.size,):
        raise ValueError(
            f"one start, end and row per segment; got {starts.size} starts, "
            f"{ends.size} ends and {rows.size} rows"
        )
    if starts.size and (
        starts.min() < 0 or (ends - starts).min() < 0 or ends.max() > len(source_keys)
    ):
        raise ValueError(
            f"segment spans must satisfy 0 <= start <= end <= {len(source_keys)}"
        )
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise IndexError(
            f"segment rows must lie in [0, {n_rows}); got "
            f"{int(rows.min())}..{int(rows.max())}"
        )
    return starts, ends, rows


#: At or below this many span keys (and at most
#: :data:`_SCALAR_ROW_SEGMENT_CUTOFF` segments) the vectorized row kernels
#: route through :func:`_rows_via_scalar` — the fixed overhead of a dozen
#: NumPy calls exceeds a short Python merge.
_SCALAR_ROW_CUTOFF = 96

#: A scalar merge costs one Python kernel call *per segment*, so a
#: many-segment call (the incremental engine's sparse delta streams)
#: amortizes the vectorized pipeline's fixed overhead even when the
#: candidate count alone would not.
_SCALAR_ROW_SEGMENT_CUTOFF = 4


def _identity(value: Any) -> Any:
    return value


class RowAdjacency:
    """One rank's CSR target-id arrays packaged for the row kernels.

    ``keys`` is the full edge-major target order-id array (each row's slice
    sorted ascending), ``indptr`` the row offsets, ``order_count`` the number
    of dense ``<+`` order ids (the composite-key stride).  ``composite`` —
    ``row_of_edge * order_count + key`` — is built lazily; the scalar
    small-input path never needs it.
    """

    __slots__ = ("keys", "indptr", "order_count", "_composite")

    def __init__(self, keys, indptr, order_count: int) -> None:
        self.keys = keys
        self.indptr = indptr
        self.order_count = order_count
        self._composite = None

    def composite(self):
        if self._composite is None:
            indptr = _np.asarray(self.indptr, dtype=_np.int64)
            lengths = indptr[1:] - indptr[:-1]
            edge_rows = _np.repeat(
                _np.arange(lengths.size, dtype=_np.int64), lengths
            )
            self._composite = edge_rows * _np.int64(self.order_count) + _np.asarray(
                self.keys, dtype=_np.int64
            )
        return self._composite

    def row_slice(self, row: int) -> Tuple[int, int]:
        return int(self.indptr[row]), int(self.indptr[row + 1])


class RowBatchResult:
    """Matches plus the aggregate comparison count of one row-batch call.

    ``seg``/``cand_pos``/``adj_pos`` are parallel index arrays (or lists in
    the scalar fallback): match ``i`` is segment ``seg[i]``'s candidate at
    position ``cand_pos[i]`` of the call's ``source_keys`` (inside the
    segment's span), matching the adjacency entry at *global* edge position
    ``adj_pos[i]`` of the :class:`RowAdjacency`.  Ascending segment order,
    ascending candidate position within a segment — the scalar kernels'
    order.  A count-only call (``matches=False``) holds no index arrays
    (all three None): ``len()`` is its match count and ``comparisons`` the
    same total as the full call's.
    """

    __slots__ = ("seg", "cand_pos", "adj_pos", "comparisons", "count")

    def __init__(
        self, seg, cand_pos, adj_pos, comparisons: int, count: Optional[int] = None
    ) -> None:
        self.seg = seg
        self.cand_pos = cand_pos
        self.adj_pos = adj_pos
        self.comparisons = comparisons
        self.count = len(seg) if count is None else count

    def __len__(self) -> int:
        return self.count


def _kept(result: RowBatchResult, matches: bool) -> RowBatchResult:
    """``result`` itself, or its count-only form when ``matches`` is False."""
    if matches:
        return result
    return RowBatchResult(None, None, None, result.comparisons, len(result))


def _rows_via_scalar(
    kernel: Callable[..., IntersectionResult],
    source_keys: Sequence[int],
    seg_starts: Sequence[int],
    seg_ends: Sequence[int],
    seg_rows: Sequence[int],
    adjacency: RowAdjacency,
    matches: bool = True,
) -> RowBatchResult:
    """Reference row-batch implementation: one scalar call per segment."""
    starts, ends, rows = _check_spans(
        source_keys, seg_starts, seg_ends, seg_rows, len(adjacency.indptr) - 1
    )
    keys = adjacency.keys
    seg_out: List[int] = []
    cand_out: List[int] = []
    adj_out: List[int] = []
    comparisons = 0
    for seg, (lo, hi, row) in enumerate(zip(starts.tolist(), ends.tolist(), rows.tolist())):
        cand_keys = source_keys[lo:hi]
        adj_lo, adj_hi = adjacency.row_slice(row)
        adj_keys = keys[adj_lo:adj_hi]
        result = kernel(
            cand_keys.tolist() if hasattr(cand_keys, "tolist") else cand_keys,
            adj_keys.tolist() if hasattr(adj_keys, "tolist") else adj_keys,
            _identity,
            _identity,
        )
        comparisons += result.comparisons
        for cand_idx, adj_idx in result.matches:
            seg_out.append(seg)
            cand_out.append(lo + cand_idx)
            adj_out.append(adj_lo + adj_idx)
    return _kept(RowBatchResult(seg_out, cand_out, adj_out, comparisons), matches)


def _expand_spans(source_keys, starts, ends):
    """Copy the spans out, concatenated: ``(keys, offsets, positions)``.

    Segment ``s`` occupies ``keys[offsets[s]:offsets[s + 1]]``, read from
    the source positions at the same slots of ``positions``.  The
    vectorized columnar pipeline runs over this copy; the compiled tier
    reads the spans in place.
    """
    lengths = ends - starts
    offsets = _np.concatenate(([0], _np.cumsum(lengths)))
    positions = _np.arange(offsets[-1], dtype=_np.int64) + _np.repeat(
        starts - offsets[:-1], lengths
    )
    keys = _np.asarray(source_keys)[positions].astype(_np.int64, copy=False)
    return keys, offsets, positions


def _scalar_route(starts, ends) -> bool:
    """Whether a call is small enough for the columnar tier's scalar loop."""
    return (
        starts.size <= _SCALAR_ROW_SEGMENT_CUTOFF
        and int(ends.sum() - starts.sum()) <= _SCALAR_ROW_CUTOFF
    )


def _row_matches(cand, offs, rows, adjacency: RowAdjacency):
    """Shared composite-key match lookup of the vectorized row kernels.

    Returns ``(seg_of_cand, pos, hits)``: per-candidate segment indices, the
    searchsorted position of every candidate's composite key in the
    adjacency's composite array, and the flat candidate positions that
    matched (ascending — segment order, candidate order within a segment).
    """
    lengths = offs[1:] - offs[:-1]
    seg_of_cand = _np.repeat(_np.arange(offs.size - 1, dtype=_np.int64), lengths)
    composite = adjacency.composite()
    cand_comp = rows[seg_of_cand] * _np.int64(adjacency.order_count) + cand
    pos = _np.searchsorted(composite, cand_comp)
    if composite.size:
        clipped = _np.minimum(pos, composite.size - 1)
        valid = (pos < composite.size) & (composite[clipped] == cand_comp)
    else:
        valid = _np.zeros(cand.size, dtype=bool)
    return seg_of_cand, pos, _np.nonzero(valid)[0]


def merge_path_rows(
    source_keys: Sequence[int],
    seg_starts: Sequence[int],
    seg_ends: Sequence[int],
    seg_rows: Sequence[int],
    adjacency: RowAdjacency,
    matches: bool = True,
) -> RowBatchResult:
    """Intersect segment ``s`` against adjacency row ``seg_rows[s]``, merge cost.

    Segment ``s`` is the span ``source_keys[seg_starts[s]:seg_ends[s]]``
    and must be sorted; spans may overlap and come in any order.  Keys must
    be integers drawn from a total order in which equality implies vertex
    identity (the dense ``<+`` order ids of
    :class:`~repro.graph.dodgr.CSRAdjacency`).  Matches and the aggregate
    comparison count are exactly what one :func:`merge_path_intersection`
    call per segment (against its row slice) would produce; the count is a
    closed form over searchsorted ranks, not a walk of the merge.  With
    ``matches=False`` the result is count-only (no index arrays; this tier
    computes them and drops them).
    """
    indptr = _np.asarray(adjacency.indptr, dtype=_np.int64)
    starts, ends, rows = _check_spans(source_keys, seg_starts, seg_ends, seg_rows, indptr.size - 1)
    if _scalar_route(starts, ends):
        return _rows_via_scalar(
            merge_path_intersection, source_keys, starts, ends, rows, adjacency, matches
        )
    cand, offs, source_pos = _expand_spans(source_keys, starts, ends)
    keys = _np.asarray(adjacency.keys, dtype=_np.int64)
    stride = _np.int64(adjacency.order_count)
    composite = adjacency.composite()
    if cand.size == 0 or composite.size == 0:
        # A merge against an empty side performs no comparisons.
        empty = _np.empty(0, dtype=_np.int64)
        return _kept(RowBatchResult(empty, empty, empty, 0), matches)

    n_seg = offs.size - 1
    lengths = offs[1:] - offs[:-1]
    adj_lo = indptr[rows]
    adj_len = indptr[rows + 1] - adj_lo

    seg_of_cand, pos, hits = _row_matches(cand, offs, rows, adjacency)
    seg_hits = seg_of_cand[hits]
    matches_per_seg = _np.bincount(seg_hits, minlength=n_seg)

    # Comparison replay.  A scalar merge performs ``consumed - matches``
    # comparisons, where ``consumed`` counts the elements taken from either
    # list before one side runs out; which side that is depends on how the
    # segment's last key compares with its row's last key.  Candidates run
    # out first (last_key < adj_last): every candidate is consumed, plus the
    # row prefix below the last candidate key (and that key itself on a
    # match).
    nonempty = (lengths > 0) & (adj_len > 0)
    last_key = cand[_np.where(lengths > 0, offs[1:] - 1, 0)]
    adj_last = keys[_np.where(adj_len > 0, adj_lo + adj_len - 1, 0)]
    last_comp = rows * stride + last_key
    rank_pos = _np.searchsorted(composite, last_comp, side="left")
    rank_of_last = rank_pos - adj_lo
    rank_clipped = _np.minimum(rank_pos, composite.size - 1)
    last_in_adj = (rank_of_last < adj_len) & (composite[rank_clipped] == last_comp)
    consumed_cand_side = lengths + rank_of_last + last_in_adj

    # The row runs out first (last_key > adj_last): the whole row is
    # consumed, plus the segment's candidates <= the row's last key, counted
    # per segment via the segment-composite trick (segments are concatenated
    # in ascending order).  Equal last keys consume both sides entirely.
    seg_comp = seg_of_cand * stride + cand
    below = (
        _np.searchsorted(
            seg_comp, _np.arange(n_seg, dtype=_np.int64) * stride + adj_last, side="right"
        )
        - offs[:-1]
    )
    consumed_adj_side = adj_len + below

    consumed = _np.where(
        last_key < adj_last,
        consumed_cand_side,
        _np.where(last_key == adj_last, lengths + adj_len, consumed_adj_side),
    )
    per_segment = _np.where(nonempty, consumed - matches_per_seg, 0)
    result = RowBatchResult(seg_hits, source_pos[hits], pos[hits], int(per_segment.sum()))
    return _kept(result, matches)


def hash_rows(
    source_keys: Sequence[int],
    seg_starts: Sequence[int],
    seg_ends: Sequence[int],
    seg_rows: Sequence[int],
    adjacency: RowAdjacency,
    matches: bool = True,
) -> RowBatchResult:
    """Row-batch counterpart of :func:`hash_intersection`.

    The comparison count models one table build per segment over its row:
    ``sum(row lengths) + sum(span lengths)``.
    """
    indptr = _np.asarray(adjacency.indptr, dtype=_np.int64)
    starts, ends, rows = _check_spans(source_keys, seg_starts, seg_ends, seg_rows, indptr.size - 1)
    if _scalar_route(starts, ends):
        return _rows_via_scalar(
            hash_intersection, source_keys, starts, ends, rows, adjacency, matches
        )
    cand, offs, source_pos = _expand_spans(source_keys, starts, ends)
    seg_of_cand, pos, hits = _row_matches(cand, offs, rows, adjacency)
    adj_len = indptr[rows + 1] - indptr[rows]
    comparisons = int(adj_len.sum()) + int(cand.size)
    result = RowBatchResult(seg_of_cand[hits], source_pos[hits], pos[hits], comparisons)
    return _kept(result, matches)


def binary_search_rows(
    source_keys: Sequence[int],
    seg_starts: Sequence[int],
    seg_ends: Sequence[int],
    seg_rows: Sequence[int],
    adjacency: RowAdjacency,
    matches: bool = True,
) -> RowBatchResult:
    """Row-batch binary-search intersection (scalar loop, parity-exact)."""
    return _rows_via_scalar(
        binary_search_intersection, source_keys, seg_starts, seg_ends, seg_rows, adjacency, matches
    )


#: Row-batch kernels keyed by the same names as :data:`INTERSECTION_KERNELS`.
ROW_KERNELS = {
    "merge_path": merge_path_rows,
    "binary_search": binary_search_rows,
    "hash": hash_rows,
}


# ---------------------------------------------------------------------------
# Kernel tiers
# ---------------------------------------------------------------------------
#
# The row kernels above are the *columnar* tier: NumPy array pipelines with
# a scalar small-input escape hatch.  Two more tiers share their exact
# contract (identical matches, identical aggregate comparison counts):
#
# * ``scalar``   — the reference loop (:func:`_rows_via_scalar`) applied
#   unconditionally; always available.
# * ``compiled`` — C row loops (:mod:`.intersection_compiled`): stamp and
#   probe with closed-form counts for merge/hash, the scalar binary-search
#   walk; built with the system compiler and loaded through ctypes at import;
#   registered only when that succeeded.  An unavailable tier follows the
#   declared fallback chain ``compiled -> columnar -> scalar`` silently.
#
# Tier selection travels as ``kernel_tier`` on
# :class:`~repro.core.engine.request.EngineConfig`/``SurveyRequest`` and is
# resolved here, in one place, for every engine.

#: Kernel tiers in preference order (fastest first).
KERNEL_TIERS = ("compiled", "columnar", "scalar")

#: Declared downgrade chain: the tier used when the requested one is
#: unavailable (``None`` terminates the chain).
KERNEL_TIER_FALLBACK = {"compiled": "columnar", "columnar": "scalar", "scalar": None}


def _scalar_tier_rows(name: str):
    scalar = INTERSECTION_KERNELS[name]

    def row_kernel_scalar(source_keys, seg_starts, seg_ends, seg_rows, adjacency, matches=True):
        return _rows_via_scalar(
            scalar, source_keys, seg_starts, seg_ends, seg_rows, adjacency, matches
        )

    row_kernel_scalar.__name__ = f"{name}_rows_scalar"
    return row_kernel_scalar


#: Tier -> {kernel name -> row kernel}.  The ``compiled`` entry is added at
#: the bottom of this module when the C library built and loaded.
ROW_KERNEL_TIERS = {
    "columnar": ROW_KERNELS,
    "scalar": {name: _scalar_tier_rows(name) for name in INTERSECTION_KERNELS},
}


def available_kernel_tiers() -> Tuple[str, ...]:
    """The tiers usable in this environment, in preference order.

    ``columnar`` and ``scalar`` are always listed; ``compiled`` appears
    only when its library loaded at import (see :func:`compiled_tier_status`).
    """
    return tuple(tier for tier in KERNEL_TIERS if tier in ROW_KERNEL_TIERS)


def resolve_kernel_tier(tier: Optional[str] = None) -> str:
    """Normalise a ``kernel_tier`` selector to an available tier name.

    ``None`` (and ``"auto"``) select the first available tier of
    :data:`KERNEL_TIERS`: ``compiled`` where a C compiler built it,
    ``columnar`` elsewhere.  A named tier must be one of
    :data:`KERNEL_TIERS`; if it is not available here it downgrades along
    :data:`KERNEL_TIER_FALLBACK`.  Results are identical whichever tier runs
    — the cross-tier property suite pins the contract.
    """
    if tier is None or tier == "auto":
        return available_kernel_tiers()[0]
    if tier not in KERNEL_TIERS:
        raise ValueError(
            f"unknown kernel tier {tier!r}; known: {KERNEL_TIERS}"
        )
    while tier not in ROW_KERNEL_TIERS:  # "scalar" is always there
        tier = KERNEL_TIER_FALLBACK[tier]
    return tier


def row_kernel(name: str, tier: Optional[str] = None):
    """The row-batch kernel ``name`` at (resolved) ``tier``."""
    if name not in INTERSECTION_KERNELS:
        raise ValueError(
            f"unknown intersection kernel {name!r}; known: {tuple(INTERSECTION_KERNELS)}"
        )
    return ROW_KERNEL_TIERS[resolve_kernel_tier(tier)][name]


# Import last: intersection_compiled imports this module's result classes and
# checks, and builds/loads its library as it is imported.
from .intersection_compiled import (  # noqa: E402
    COMPILED_ROW_KERNELS as _COMPILED_ROW_KERNELS,
    compiled_tier_status,
)

if _COMPILED_ROW_KERNELS:
    ROW_KERNEL_TIERS["compiled"] = _COMPILED_ROW_KERNELS
