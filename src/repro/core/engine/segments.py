"""Segment (ragged-array) utilities shared by the columnar drivers.

The columnar drivers all speak the same CSR/ragged dialect: a flat array of
values plus an ``offsets`` array such that segment ``w`` occupies
``flat[offsets[w]:offsets[w + 1]]``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as _np

from ...runtime.world import first_appearance_groups, stable_key_order

__all__ = [
    "ragged_gather",
    "positions_of_ids",
    "kept_offsets",
    "first_appearance_groups",
    "stable_key_order",
]


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


def positions_of_ids(offsets, positions, ids):
    """Ragged lookup: for every id, the edge positions whose target is the id.

    ``offsets``/``positions`` are the first two columns of
    :meth:`~repro.graph.dodgr.CSRAdjacency.inverted_target_index`: id ``t``'s
    positions are ``positions[offsets[t]:offsets[t + 1]]``, so each id is
    two loads, not a search.  Returns ``(owner, found)`` where ``found``
    concatenates each id's edge positions (ascending) and ``owner[i]`` is
    the index into ``ids`` that produced ``found[i]``.  An id outside
    ``[0, len(offsets) - 1)`` raises ``ValueError`` (a negative one would
    otherwise wrap onto the last slots).
    """
    ids = _np.asarray(ids, dtype=_np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= offsets.size - 1):
        raise ValueError(f"target ids must lie in [0, {offsets.size - 1})")
    lo = offsets[ids]
    counts = offsets[ids + 1] - lo
    gather, _offsets = ragged_gather(lo, counts)
    owner = _np.repeat(_np.arange(ids.size, dtype=_np.int64), counts)
    return owner, positions[gather]


def kept_offsets(offsets, keep):
    """``offsets`` re-read for the subsequence ``positions[keep]``.

    ``keep`` is a boolean mask over the positions an offsets array groups
    (each group's run contiguous, as :func:`positions_of_ids` reads them);
    a running count of kept positions at every group boundary delimits the
    same groups in ``positions[keep]``, so a lookup over the pair reads no
    dropped position.
    """
    return _np.concatenate(([0], _np.cumsum(keep)))[offsets]
