"""Shared column shapes of the columnar (array-native) construction pipeline.

``DistributedGraph.half_edge_columns`` hands a whole undirected graph to
``DODGraph.build(mode="bulk")`` as one :class:`HalfEdgeColumns`; the helpers
below are how both sides turn Python sequences into the two column kinds —
int64 ids where every id is a plain in-range ``int``, object columns for
everything else (metadata, string / tuple / beyond-int64 ids).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Sequence

import numpy as _np

__all__ = [
    "HalfEdgeColumns",
    "ValueMemo",
    "ValueColumn",
    "id_array",
    "id_column",
    "object_column",
    "unique_pair_indices",
]


class HalfEdgeColumns(NamedTuple):
    """An undirected decorated graph as parallel columns: a
    ``DistributedGraph`` is one of these.

    Store order: vertices rank-major, each rank's in the order the load
    first touched them; half edges (one per distinct partner, duplicates
    already resolved) grouped by their vertex in that same order, each group
    in the order its edges were first inserted — what walking per-rank
    ``{vertex: {"meta", "adj"}}`` dicts filled the same way reads
    (``repro.oracle.RecordStore.columns``).  Vertices are referred to by
    dense index.

    ``edge_meta_sizes`` optionally carries every half edge's exact
    serialized metadata size.  A load with one value shared by every edge
    (``from_columns`` without ``edge_metas``) sizes that value once and fills
    it; other bulk images (per-edge metadata, derived graphs, the oracle's
    flattened records) leave it None and the DODGr build sizes the metadata
    column; ``DeltaBuffer.apply`` fills it, sizing only each batch's new edges and
    carrying the old ones forward, so a streamed graph's rebuild never
    re-sizes stored metadata (a value's size depends on the value alone).
    ``edge_values`` and ``vertex_values`` ride the same way: the
    :class:`ValueMemo` of extracted edge values indexed by half edge and of
    vertex values indexed by vertex, which a DODGr built from the image
    reads (and fills) and the next ``DeltaBuffer.apply`` moves forward.
    """

    #: (V,) vertex ids: int64, or object for ids that are not in-range ints
    vertices: Any
    #: (V,) object column of vertex metadata
    vertex_meta: Any
    #: (nranks + 1,) rank ``r`` stores ``vertices[rank_offsets[r]:rank_offsets[r + 1]]``
    rank_offsets: Any
    #: (V,) number of distinct partners, i.e. each vertex's run of half edges
    degree: Any
    #: (H,) dense index of every half edge's partner
    tgt: Any
    #: (H,) object column of edge metadata
    edge_meta: Any
    #: (H,) int64 serialized size of every ``edge_meta`` value, or None
    edge_meta_sizes: Any = None
    #: :class:`ValueMemo` over the H half edges, or None
    edge_values: Any = None
    #: :class:`ValueMemo` over the V vertices, or None
    vertex_values: Any = None


#: Extractors one :class:`ValueMemo` keeps (oldest dropped first).  Each
#: costs 8 bytes per slot (0.44 MB for the rmat-13 closure survey's 55 529
#: edges); the service's analyses put two on a graph's edge memo
#: (``edge_timestamp``, its ``_edge_label``) and one on its vertex memo (the
#: default vertex label), so four keeps those plus one caller-supplied
#: extractor, and a fresh lambda per query recycles one slot.
VALUE_MEMO_EXTRACTORS = 4

_ABSENT = object()
#: What an unfilled slot holds, per dtype: values the typing rule never stores
_HOLES = {_np.dtype(_np.float64): _np.nan, _np.dtype(_np.int64): _np.iinfo(_np.int64).min}


def _holes(values) -> Any:
    """Where ``values`` (one memo's dtype) hold the unfilled-slot marker."""
    return _np.isnan(values) if values.dtype.kind == "f" else values == _HOLES[values.dtype]


class ValueMemo:
    """``extract(value)`` over one metadata column as typed arrays, per extractor.

    Filled sparsely: only slots some lookup asked for ever reach
    ``extract``, once.  An array is float64 when every extracted value is
    exactly a ``float``, int64 when exactly an ``int`` within ±2**62 (two
    stamps subtract without overflow; epoch nanoseconds never pass through a
    float).  Anything else has *no exact array form* and answers None for
    the rest of the memo's life: other or mixed types (``bool``, ``None``,
    ``str``), NaN (``sort``/``max`` have no total order to agree on), an
    unhashable extractor (no memo key), an extractor that raises (the
    caller's object loop then raises where it always did).  ``extract`` must
    be a pure function of the value.  An unfilled slot holds a value the
    rule refuses (NaN, int64 min), so a read is one gather and one hole test.
    """

    __slots__ = ("size", "_by_extract")

    def __init__(self, size: int) -> None:
        self.size = size
        #: extract -> values typed by the first fill (holes unfilled), or
        #: None once it has no array form
        self._by_extract: dict = {}

    def extractors(self) -> list:
        """The memoised extractors, oldest first."""
        return list(self._by_extract)

    def lookup(self, extract, slots, metas, positions) -> Optional[Any]:
        """``extract`` at ``slots`` as a typed array, or None.

        ``metas[positions]`` are the values at ``slots``: the column a
        missing slot is extracted from.
        """
        try:
            values = self._by_extract.get(extract, _ABSENT)
        except TypeError:
            return None
        if values is None:
            return None
        if values is _ABSENT:
            if not len(slots):
                return _np.empty(0)  # nothing asked yet
            out, missing = None, _np.arange(len(slots))
        else:
            out = values[slots]
            missing = _np.flatnonzero(_holes(out))
            if not missing.size:
                return out
        fresh_slots, first = _np.unique(slots[missing], return_index=True)
        fresh = _extract_column(extract, metas[positions[missing[first]]])
        if values is _ABSENT:
            if len(self._by_extract) >= VALUE_MEMO_EXTRACTORS:
                del self._by_extract[next(iter(self._by_extract))]
            values = None if fresh is None else _np.full(self.size, _HOLES[fresh.dtype])
        elif fresh is None or values.dtype != fresh.dtype:
            values = None
        self._by_extract[extract] = values
        if values is None:
            return None
        values[fresh_slots] = fresh
        if out is None:
            return values[slots]
        out[missing] = values[slots[missing]]
        return out

    def moved(self, destinations, size: int) -> "ValueMemo":
        """A copy of the memo re-indexed into a column of ``size`` slots.

        Slot ``i`` lands at ``destinations[i]``; the other slots start
        unfilled.  Extractors without an array form are not carried, so
        one odd value cannot turn the array path off for good.  This memo
        keeps its arrays: an epoch still surveyed (a pinned service epoch,
        a retained ``AppliedDelta.dodgr``) reads what it held at the move
        without extracting it again.
        """
        memo = ValueMemo(size)
        for extract, values in self._by_extract.items():
            if values is not None:
                moved = memo._by_extract[extract] = _np.full(size, _HOLES[values.dtype])
                moved[destinations] = values
        return memo

    def forget(self, slots) -> None:
        """Unfill ``slots``: their values changed, so the next read extracts them."""
        for values in self._by_extract.values():
            if values is not None:
                values[slots] = _HOLES[values.dtype]


def _extract_column(extract, metas) -> Optional[Any]:
    """Typed array of ``extract`` over the object column ``metas``, or None."""
    try:
        column = [extract(meta) for meta in metas.tolist()]
    except Exception:  # noqa: BLE001 - the object path re-raises it in place
        return None
    kinds = set(map(type, column))
    if kinds == {float}:
        out = _np.array(column, dtype=_np.float64)
        return None if _np.isnan(out).any() else out
    if kinds == {int}:
        try:
            out = _np.fromiter(column, dtype=_np.int64, count=len(column))
        except OverflowError:
            return None
        return out if -(2**62) < out.min() and out.max() < 2**62 else None
    return None


class ValueColumn:
    """One metadata column read through a :class:`ValueMemo`.

    Position ``i`` (plus ``base``) of the column is ``metas[i + base]`` and
    is memoised at slot ``slots[i + base]`` — or at ``i + base`` itself when
    ``slots`` is None.  A DODGr's rank CSRs read slices of its global
    columns this way; its edge column reaches the half-edge memo its image
    carries through the build's edge → half edge map, and its target column
    the vertex memo through edge → target vertex.
    """

    __slots__ = ("memo", "metas", "slots", "base")

    def __init__(self, memo: ValueMemo, metas, slots=None, base: int = 0) -> None:
        self.memo = memo
        self.metas = metas
        self.slots = slots
        self.base = base

    def values(self, extract, positions) -> Optional[Any]:
        """``extract`` over the column at ``positions`` as a typed array, or None."""
        if self.base:
            positions = positions + self.base
        slots = positions if self.slots is None else self.slots[positions]
        return self.memo.lookup(extract, slots, self.metas, positions)


def id_array(vertices: Sequence[Any]) -> Optional[Any]:
    """``vertices`` as an int64 array, or None unless all are in-range plain ints."""
    if isinstance(vertices, _np.ndarray):
        return vertices if vertices.dtype == _np.int64 else None
    if not all(type(v) is int for v in vertices):
        return None
    try:
        return _np.fromiter(vertices, dtype=_np.int64, count=len(vertices))
    except OverflowError:  # ids beyond int64
        return None


def object_column(values: Sequence[Any]) -> Any:
    """A 1-d object array holding ``values`` as they are (tuples stay tuples)."""
    return _np.fromiter(values, dtype=object, count=len(values))


def id_column(vertices: Sequence[Any]) -> Any:
    """The id column of ``vertices``: int64 when they allow it, object otherwise."""
    ids = id_array(vertices)
    return ids if ids is not None else object_column(vertices)


def unique_pair_indices(lo: Any, hi: Any) -> Any:
    """Where each distinct ``(lo[i], hi[i])`` pair first occurs, pairs ascending.

    The ``return_index`` of ``np.unique(np.stack([lo, hi], 1), axis=0)``
    without its void-dtype sort: a stable lexsort keeps equal pairs in index
    order, so each run of equal neighbours starts at its first occurrence.
    Two plain int64 sorts, and no composite key that could overflow.
    """
    order = _np.lexsort((hi, lo))
    lo_sorted, hi_sorted = lo[order], hi[order]
    fresh = _np.ones(order.size, dtype=bool)
    fresh[1:] = (lo_sorted[1:] != lo_sorted[:-1]) | (hi_sorted[1:] != hi_sorted[:-1])
    return order[fresh]
