"""Shared helpers for the columnar (array-native) construction pipeline.

The vectorized builders (`DistributedGraph.from_columns`,
`DODGraph._build_bulk_vectorized`) assemble per-vertex records from sorted
half-edge streams.  Their grouping step — find runs of equal keys in the
sorted columns — encodes the bit-identical insertion-order contract, so it
lives here once instead of being hand-rolled per call site.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as _np

__all__ = ["group_slices"]


def group_slices(*key_columns: Any) -> List[Tuple[int, int]]:
    """Contiguous runs of equal keys in pre-sorted parallel columns.

    Returns ``[(start, end), ...]`` slices such that every row in a slice
    has identical values across all ``key_columns`` (a run ends when *any*
    column changes).  Columns must already be grouped (e.g. via
    ``np.lexsort``); boundaries come from one vectorized ``diff`` instead of
    per-element Python comparisons.
    """
    first = key_columns[0]
    count = len(first)
    if count == 0:
        return []
    change = None
    for column in key_columns:
        delta = _np.diff(_np.asarray(column)) != 0
        change = delta if change is None else (change | delta)
    cuts = [0] + (_np.flatnonzero(change) + 1).tolist() + [count]
    return list(zip(cuts[:-1], cuts[1:]))
