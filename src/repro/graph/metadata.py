"""Metadata model for decorated temporal graphs.

The paper's input model (Section 3): every vertex ``v`` carries
``meta(v)`` and every undirected edge ``(u, v)`` carries
``meta(u, v) = meta(v, u)``.  Metadata values are arbitrary — discrete
labels, floating-point ratings, timestamps, free-form strings — and TriPoll
deliberately does not interpret them; only user callbacks do.

In this reproduction a metadata value is *any value the wire format can
serialize* (scalars, strings, tuples, dicts, registered dataclasses; see
:mod:`repro.runtime.serialization`).  This
module provides:

* :class:`TriangleMetadata` — the six pieces of metadata (plus the vertex
  ids) handed to a survey callback when a triangle ``Δpqr`` is identified,
  with ``p <+ q <+ r`` in degree order.
* small typed conveniences for the temporal edge decoration the examples
  and generators use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

__all__ = [
    "TriangleMetadata",
    "TriangleBatch",
    "ARRAY_VALUES_MIN_BATCH",
    "temporal_edge_meta",
    "edge_timestamp",
]


@dataclass(frozen=True)
class TriangleMetadata:
    """Everything a survey callback may inspect about one triangle Δpqr.

    Vertices satisfy the degree ordering ``p <+ q <+ r`` (Section 3), so
    callbacks that care about pivot/anchor roles can rely on the order.
    """

    #: vertex identifiers in degree order (p is the pivot / lowest degree)
    p: Any
    q: Any
    r: Any
    #: vertex metadata
    meta_p: Any
    meta_q: Any
    meta_r: Any
    #: edge metadata; ``meta_pq`` is the metadata of the undirected edge (p, q)
    meta_pq: Any
    meta_pr: Any
    meta_qr: Any

    def vertices(self) -> Tuple[Any, Any, Any]:
        return (self.p, self.q, self.r)

    def vertex_metadata(self) -> Tuple[Any, Any, Any]:
        return (self.meta_p, self.meta_q, self.meta_r)

    def edge_metadata(self) -> Tuple[Any, Any, Any]:
        return (self.meta_pq, self.meta_pr, self.meta_qr)

    def all_distinct_vertex_metadata(self) -> bool:
        """True when the three vertex metadata values are pairwise distinct.

        This is the filter used by Algorithm 3 (max edge label distribution)
        and Algorithm 4 / the FQDN survey ("only counting triangles with 3
        distinct FQDNs").
        """
        return (
            self.meta_p != self.meta_q
            and self.meta_q != self.meta_r
            and self.meta_p != self.meta_r
        )


#: Column names a :class:`TriangleBatch` can materialise, in the field order
#: of :class:`TriangleMetadata`.
TRIANGLE_COLUMNS = (
    "p",
    "q",
    "r",
    "meta_p",
    "meta_q",
    "meta_r",
    "meta_pq",
    "meta_pr",
    "meta_qr",
)


#: Batches shorter than this answer None from :meth:`TriangleBatch.edge_values`
#: / :meth:`TriangleBatch.vertex_values`.  An array-path reducer pays a fixed
#: few dozen NumPy calls per batch, the object loop pays per triangle; for
#: ``ClosureTimeSurvey.callback_batch`` on rmat-8..12 batches (median µs per
#: call, array vs loop): 1-8 triangles 115 vs 31, 32-64 159 vs 82, 96-128
#: 136 vs 138, 128-192 141 vs 195, 1024-2048 231 vs 1342.
ARRAY_VALUES_MIN_BATCH = 128


class TriangleBatch:
    """A columnar batch of triangles: one lazily-decoded list per column.

    The columnar survey engine identifies many triangles per intersection
    call but most reducers only touch a couple of the nine
    :class:`TriangleMetadata` fields (a counting callback touches none).
    Instead of materialising one metadata object per triangle, the engine
    hands reducers a :class:`TriangleBatch` whose columns — ``p``, ``q``,
    ``r`` and the six metadata columns — are *builder closures over the CSR
    match arrays*: a column is decoded into a list (triangle ``i`` at index
    ``i``) the first time it is read and cached, and unread columns cost
    nothing.  Triangle order within a batch is the engine's match order,
    which is also the order the scalar fallback invokes per-triangle
    callbacks in, so batch reducers that apply their side effects in column
    order are bit-identical to the scalar path.

    :meth:`edge_values` and :meth:`vertex_values` answer *typed arrays* of an
    extractor over the batch's edge / vertex metadata, gathered from the
    DODGr's value memos at the ``reads`` the engine supplies — ``{"edge" |
    "vertex": three (:class:`~repro.graph.columnar.ValueColumn`,
    positions), "ids": three (id column, positions)}`` — or None, and the
    reducer loops over the object columns.
    :meth:`vertex_ids` answers the ``p``, ``q``, ``r`` columns themselves as
    int64 arrays on the same terms.
    """

    __slots__ = ("_size", "_builders", "_columns", "_reads")

    def __init__(self, size: int, builders, reads=None) -> None:
        self._size = size
        self._builders = builders
        self._columns: dict = {}
        self._reads = reads

    def __len__(self) -> int:
        return self._size

    def column(self, name: str) -> list:
        """The named column as a list of length ``len(self)`` (cached)."""
        col = self._columns.get(name)
        if col is None:
            col = self._builders[name]()
            self._columns[name] = col
        return col

    @property
    def p(self) -> list:
        return self.column("p")

    @property
    def q(self) -> list:
        return self.column("q")

    @property
    def r(self) -> list:
        return self.column("r")

    @property
    def meta_p(self) -> list:
        return self.column("meta_p")

    @property
    def meta_q(self) -> list:
        return self.column("meta_q")

    @property
    def meta_r(self) -> list:
        return self.column("meta_r")

    @property
    def meta_pq(self) -> list:
        return self.column("meta_pq")

    @property
    def meta_pr(self) -> list:
        return self.column("meta_pr")

    @property
    def meta_qr(self) -> list:
        return self.column("meta_qr")

    def edge_values(self, extract):
        """``extract`` over ``(meta_pq, meta_pr, meta_qr)`` as three arrays, or None.

        The arrays share one dtype, float64 or int64, and hold exactly what
        ``[extract(m) for m in batch.meta_pq]`` etc. would
        (:class:`~repro.graph.columnar.ValueMemo` has the contract).  None means "loop over the object columns": no exact
        array form, a batch shorter than :data:`ARRAY_VALUES_MIN_BATCH`, or
        one built without a CSR behind it.
        """
        return self._extracted("edge", extract)

    def vertex_values(self, extract):
        """``extract`` over ``(meta_p, meta_q, meta_r)``; see :meth:`edge_values`."""
        return self._extracted("vertex", extract)

    def _extracted(self, kind: str, extract):
        if self._reads is None or self._size < ARRAY_VALUES_MIN_BATCH:
            return None
        columns = []
        # A kind's three reads share one memo (row and target the vertex
        # memo), which types all its values alike: no silent promotion.
        for source, positions in self._reads[kind]:
            column = source.values(extract, positions)
            if column is None:
                return None
            columns.append(column)
        return tuple(columns)

    def vertex_ids(self):
        """The ``(p, q, r)`` vertex ids as three int64 arrays, or None.

        None means "loop over the ``p`` / ``q`` / ``r`` lists": ids that are
        not int64 (strings, tuples, ints beyond it), a batch shorter than
        :data:`ARRAY_VALUES_MIN_BATCH`, or one built by hand.
        """
        if self._reads is None or self._size < ARRAY_VALUES_MIN_BATCH:
            return None
        reads = self._reads["ids"]
        if any(column.dtype != "int64" for column, _positions in reads):
            return None
        return tuple(column[positions] for column, positions in reads)

    def triangles(self):
        """Row view: yield one :class:`TriangleMetadata` per triangle, in order.

        The adapter the scalar fallback uses when a survey callback has no
        batch counterpart; it materialises every column.
        """
        for fields in zip(*(self.column(name) for name in TRIANGLE_COLUMNS)):
            yield TriangleMetadata(*fields)


# ---------------------------------------------------------------------------
# Conventional decorations used by the examples / generators
# ---------------------------------------------------------------------------


def temporal_edge_meta(timestamp: float, label: Any = None) -> Any:
    """Edge metadata for temporal graphs: a timestamp, optionally with a label.

    Stored as a bare float when there is no label (the common case for the
    Reddit experiment) to keep serialized messages small, otherwise as a
    ``(timestamp, label)`` tuple.
    """
    if label is None:
        return float(timestamp)
    return (float(timestamp), label)


def edge_timestamp(edge_meta: Any) -> float:
    """Extract the timestamp from metadata produced by :func:`temporal_edge_meta`."""
    if isinstance(edge_meta, tuple):
        return float(edge_meta[0])
    if isinstance(edge_meta, dict):
        return float(edge_meta["timestamp"])
    return float(edge_meta)
