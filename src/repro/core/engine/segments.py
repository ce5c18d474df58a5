"""Segment (ragged-array) utilities shared by the columnar drivers.

The columnar drivers all speak the same CSR/ragged dialect: a flat array of
values plus an ``offsets`` array such that segment ``w`` occupies
``flat[offsets[w]:offsets[w + 1]]``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as _np

from ...runtime.world import first_appearance_groups, stable_key_order

__all__ = ["ragged_gather", "positions_of_ids", "first_appearance_groups", "stable_key_order"]


def ragged_gather(starts, lengths) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """Flat gather index of ragged segments ``[starts[i], starts[i]+lengths[i])``.

    Returns ``(gather, offsets)`` where ``gather`` indexes the source array
    and ``offsets`` delimits the segments in the gathered result.  NumPy
    only — the columnar drivers that need it never run without it (the
    registry downgrades them first).
    """
    offsets = _np.concatenate(([0], _np.cumsum(lengths)))
    total = int(offsets[-1])
    if total == 0:
        return _np.empty(0, dtype=_np.int64), offsets
    return (
        _np.arange(total, dtype=_np.int64) + _np.repeat(starts - offsets[:-1], lengths)
    ), offsets


def positions_of_ids(inv_ids, inv_pos, ids):
    """Ragged lookup: for every id, the edge positions whose target is the id.

    ``inv_ids``/``inv_pos`` are the first two columns of
    :meth:`~repro.graph.dodgr.CSRAdjacency.inverted_target_index`.  Returns
    ``(owner, positions)`` where ``positions`` concatenates each id's edge
    positions (ascending) and ``owner[i]`` is the index into ``ids`` that
    produced ``positions[i]``.
    """
    lo = _np.searchsorted(inv_ids, ids, side="left")
    hi = _np.searchsorted(inv_ids, ids, side="right")
    counts = hi - lo
    gather, _offsets = ragged_gather(lo, counts)
    owner = _np.repeat(_np.arange(ids.size, dtype=_np.int64), counts)
    return owner, inv_pos[gather]
