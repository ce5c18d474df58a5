"""Adjacency-list intersection: the row kernels and their comparison counts.

The wedge check intersects the pivot's candidate suffix of ``Adj+_m(p)``
with the target's ``Adj+_m(q)``, both sorted by the ``<+`` order; every
common vertex ``r`` closes a triangle Δpqr.  The paper intersects by merge
path, and its related work compares binary search and hashing, which find
the same matches at another cost.  So each tier here finds matches one way,
and the kernel name (``kernel=``) picks only the formula that counts the
comparisons, from :data:`COMPARISON_COUNTS` — the count the named pairwise
kernel of the ``legacy`` oracle (:mod:`repro.oracle.kernels`) makes, so the
simulated compute cost is the same on every engine.  ``docs/kernels.md``
states the table.

A row kernel takes one call's segments by reference: segment ``s`` is the
span ``source_keys[seg_starts[s]:seg_ends[s]]`` (a push or pull survey
passes the source CSR's ``tgt_ids`` itself, so the spans of one row nest),
checked against adjacency row ``seg_rows[s]``; a match reports its
candidate's position in ``source_keys``.  Two tiers implement it:
``columnar`` (here: the spans copied out and matched by one composite-key
``searchsorted``) and ``compiled`` (:mod:`.intersection_compiled`: stamp
and probe in C over the spans in place).  ``matches=False``, which a survey
with no callback passes, returns the same ``len()`` and ``comparisons``
with no index arrays.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as _np

__all__ = [
    "COMPARISON_COUNTS",
    "RowAdjacency",
    "RowBatchResult",
    "ROW_KERNELS",
    "KERNEL_TIERS",
    "ROW_KERNEL_TIERS",
    "available_kernel_tiers",
    "compiled_tier_status",
    "resolve_kernel_tier",
    "row_kernel",
]


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


class RowAdjacency:
    """One rank's CSR target-id arrays packaged for the row kernels.

    ``keys`` is the full edge-major target order-id array (each row's slice
    sorted ascending), ``indptr`` the row offsets, ``order_count`` the number
    of dense ``<+`` order ids (the composite-key stride).  ``composite`` —
    ``row_of_edge * order_count + key``, globally sorted — is built lazily;
    the compiled tier never needs it.
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


class RowBatchResult:
    """Matches plus the aggregate comparison count of one row-batch call.

    ``seg``/``cand_pos``/``adj_pos`` are parallel index arrays: match ``i``
    is segment ``seg[i]``'s candidate at position ``cand_pos[i]`` of the
    call's ``source_keys`` (inside the segment's span), matching the
    adjacency entry at *global* edge position ``adj_pos[i]`` of the
    :class:`RowAdjacency`.  Ascending segment order, ascending candidate
    position within a segment — the pairwise kernels' order.  A count-only
    call (``matches=False``) holds no index arrays (all three None):
    ``len()`` is its match count and ``comparisons`` the same total as the
    full call's.
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


# ---------------------------------------------------------------------------
# The comparison-count table (docs/kernels.md)
# ---------------------------------------------------------------------------
#
# Every formula reads what it needs of: ``ranks()``, which gathers per
# candidate its ``rank`` in its segment's row (how many row keys are below
# it) and that row's length ``row_len``; whether each candidate matched
# (``hit``); and per segment, the span offsets ``offs`` into the candidate
# columns and its row's length ``seg_row_len``.


def _merge_path_count(ranks, hit, offs, seg_row_len) -> int:
    """The merge walk's ``consumed - matches``: it consumes every row key at
    or below the span's last candidate (that candidate's rank, plus its
    match) and every candidate at or below the row's last key (rank inside
    the row).  An empty span or row consumes nothing."""
    rank, row_len = ranks()
    last = offs[1:][offs[1:] > offs[:-1]] - 1
    below_row_end = _np.count_nonzero(rank < row_len)
    return int(below_row_end + rank[last].sum() + _np.count_nonzero(hit[last])) - int(
        _np.count_nonzero(hit)
    )


def _hash_count(ranks, hit, offs, seg_row_len) -> int:
    """One table build over the row and one probe per candidate, per
    segment; an empty span is charged its build, as the pairwise kernel
    builds before it probes.  No rank is read."""
    return int(seg_row_len.sum()) + int(hit.size)


def _binary_search_count(ranks, hit, offs, seg_row_len) -> int:
    """Every candidate's halving loop in its row, plus the final equality
    test when the search ends inside the row.  The path follows from the
    rank alone (``row[mid] < key`` exactly when ``mid < rank``), so it is
    replayed on the ranks, one NumPy pass per halving step: at most
    ⌈log2(longest row + 1)⌉ passes."""
    rank, row_len = ranks()
    count = int(_np.count_nonzero(rank < row_len))
    lo = _np.zeros_like(rank)
    hi = row_len
    while True:
        live = lo < hi
        if not live.any():
            return count
        lo, hi, rank = lo[live], hi[live], rank[live]
        count += lo.size
        mid = (lo + hi) >> 1
        right = mid < rank
        lo = _np.where(right, mid + 1, lo)
        hi = _np.where(right, hi, mid)


#: Kernel name -> the formula that counts its comparisons; the ``kernel=``
#: names.  The compiled tier computes the same counts in C.
COMPARISON_COUNTS = {
    "merge_path": _merge_path_count,
    "binary_search": _binary_search_count,
    "hash": _hash_count,
}


# ---------------------------------------------------------------------------
# The columnar tier
# ---------------------------------------------------------------------------
#
# A CSR whose rows are each sorted by target order id is globally sorted
# under ``edge_row * order_count + tgt_id``, so one ``searchsorted`` of
# per-candidate composite keys finds every match against every row at once,
# and each candidate's position there is its row's start plus its rank.


def _columnar_rows(
    name: str,
    source_keys: Sequence[int],
    seg_starts: Sequence[int],
    seg_ends: Sequence[int],
    seg_rows: Sequence[int],
    adjacency: RowAdjacency,
    matches: bool = True,
) -> RowBatchResult:
    """Intersect segment ``s`` against adjacency row ``seg_rows[s]``.

    Segment ``s`` is the span ``source_keys[seg_starts[s]:seg_ends[s]]``
    and must be sorted; spans may overlap and come in any order.  Keys must
    be integers in ``[0, order_count)``, drawn from a total order in which
    equality implies vertex identity (the dense ``<+`` order ids of
    :class:`~repro.graph.dodgr.CSRAdjacency`).  ``comparisons`` is
    :data:`COMPARISON_COUNTS` ``[name]`` over the candidates' ranks.
    """
    indptr = _np.asarray(adjacency.indptr, dtype=_np.int64)
    starts, ends, rows = _check_spans(source_keys, seg_starts, seg_ends, seg_rows, indptr.size - 1)
    # The spans copied out end to end: segment s is cand[offs[s]:offs[s + 1]],
    # read from source_keys[source_pos[...]].
    offs = _np.concatenate(([0], _np.cumsum(ends - starts)))
    seg_of_cand = _np.repeat(_np.arange(rows.size, dtype=_np.int64), ends - starts)
    source_pos = _np.arange(offs[-1], dtype=_np.int64) + (starts - offs[:-1])[seg_of_cand]
    cand = _np.asarray(source_keys)[source_pos].astype(_np.int64, copy=False)
    composite = adjacency.composite()
    cand_comp = rows[seg_of_cand] * _np.int64(adjacency.order_count) + cand
    pos = _np.searchsorted(composite, cand_comp)
    if composite.size:
        hit = composite[_np.minimum(pos, composite.size - 1)] == cand_comp
    else:
        hit = _np.zeros(cand.size, dtype=bool)
    adj_lo = indptr[rows]
    seg_row_len = indptr[rows + 1] - adj_lo
    comparisons = COMPARISON_COUNTS[name](
        lambda: (pos - adj_lo[seg_of_cand], seg_row_len[seg_of_cand]), hit, offs, seg_row_len
    )
    hits = _np.nonzero(hit)[0]
    if not matches:
        return RowBatchResult(None, None, None, comparisons, hits.size)
    return RowBatchResult(seg_of_cand[hits], source_pos[hits], pos[hits], comparisons)


#: Columnar-tier row kernels, keyed by the :data:`COMPARISON_COUNTS` names.
ROW_KERNELS = {name: partial(_columnar_rows, name) for name in COMPARISON_COUNTS}


# ---------------------------------------------------------------------------
# Kernel tiers: ``EngineConfig.kernel_tier``, resolved here for every engine
# ---------------------------------------------------------------------------

#: Kernel tiers in preference order (fastest first).
KERNEL_TIERS = ("compiled", "columnar")

#: Tier -> {kernel name -> row kernel}.  The ``compiled`` entry is added at
#: the bottom of this module when the C library built and loaded.
ROW_KERNEL_TIERS = {"columnar": ROW_KERNELS}


def available_kernel_tiers() -> Tuple[str, ...]:
    """The tiers usable here, in preference order: ``columnar`` always,
    ``compiled`` when its library loaded (:func:`compiled_tier_status`)."""
    return tuple(tier for tier in KERNEL_TIERS if tier in ROW_KERNEL_TIERS)


def resolve_kernel_tier(tier: Optional[str] = None) -> str:
    """Normalise a ``kernel_tier`` selector to an available tier name.

    ``None`` and ``"auto"`` select the first available tier; a named tier
    must be one of :data:`KERNEL_TIERS`, and ``compiled`` runs ``columnar``
    where it did not load.  Results are identical whichever tier runs.
    """
    if tier is None or tier == "auto":
        return available_kernel_tiers()[0]
    if tier not in KERNEL_TIERS:
        raise ValueError(
            f"unknown kernel tier {tier!r}; known: {KERNEL_TIERS}"
        )
    return tier if tier in ROW_KERNEL_TIERS else "columnar"


def row_kernel(name: str, tier: Optional[str] = None):
    """The row-batch kernel ``name`` at (resolved) ``tier``."""
    if name not in COMPARISON_COUNTS:
        raise ValueError(
            f"unknown intersection kernel {name!r}; known: {tuple(COMPARISON_COUNTS)}"
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
