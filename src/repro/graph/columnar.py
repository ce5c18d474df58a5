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
    "id_array",
    "id_column",
    "object_column",
    "dense_indices",
    "unique_pair_indices",
]


class HalfEdgeColumns(NamedTuple):
    """An undirected decorated graph as parallel columns.

    Exactly what walking the per-rank stores reads, in the order it reads
    it: vertices rank-major, each rank's in its store's insertion order;
    half edges (one per stored ``adj`` entry, duplicates already resolved)
    grouped by their vertex in that same order, each group in its adjacency
    dict's insertion order.  Vertices are referred to by dense index.

    ``edge_meta_sizes`` optionally carries every half edge's exact
    serialized metadata size.  Bulk images (``from_columns``, a flattened
    store) leave it None and the DODGr build sizes the metadata column;
    ``DeltaBuffer.apply`` fills it, sizing only each batch's new edges and
    carrying the old ones forward, so a streamed graph's rebuild never
    re-sizes stored metadata (a value's size depends on the value alone).
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


def dense_indices(vertices: Sequence[Any], references: Sequence[Any]) -> Any:
    """Position in ``vertices`` of every vertex named in ``references`` (int64)."""
    index_of = dict(zip(vertices, range(len(vertices))))
    return _np.fromiter(
        map(index_of.__getitem__, references), dtype=_np.int64, count=len(references)
    )


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
