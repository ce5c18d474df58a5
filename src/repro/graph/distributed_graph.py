"""Distributed undirected decorated graph (the pre-DODGr representation).

Vertices are partitioned across ranks by a :class:`~repro.graph.partition.Partitioner`;
each rank holds, for its local vertices, the vertex metadata and the full
undirected adjacency with per-edge metadata.  This is the structure the
degree-ordered directed graph (:mod:`repro.graph.dodgr`) is built from, and
it also backs the baseline algorithms that do not use degree ordering.

The graph *is* one :class:`~repro.graph.columnar.HalfEdgeColumns` image.
Two constructors make it: :meth:`DistributedGraph.from_columns` (and
:meth:`DistributedGraph.from_edges`, which unpacks its records into the same
array path) lays the image out in one pass, and ``DeltaBuffer.apply`` merges
a batch into it, which the graph adopts (:meth:`DistributedGraph.adopt_columns`).
Per-vertex reads go through a position index built on first use.  The
per-edge record store and the message-driven load it is held to live in
:mod:`repro.oracle.records`.
"""

from __future__ import annotations

from itertools import chain
from types import MappingProxyType
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..runtime.serialization import serialized_size
from ..runtime.world import World, stable_key_order
from .columnar import HalfEdgeColumns, id_array, id_column, object_column
from .edge_list import (
    DistributedEdgeList,
    canonical_pair,
    int64_id_columns,
    validate_edge_columns,
)
from .partition import HashPartitioner, Partitioner

import numpy as _np

__all__ = ["DistributedGraph"]


#: :func:`first_touch_labels` reads labels from an id-indexed table while the
#: largest id is below this many times the stream length, and scatters them
#: back through the sort order otherwise.
_TABLE_IDS_PER_ENTRY = 4


def first_touch_labels(stream: Any) -> Tuple[Any, Any]:
    """The distinct ids of an int64 ``stream`` in first-touch order, and the
    index among them of every entry: ``np.unique``'s ids and ``inverse``,
    renumbered by where each id first occurs.

    One stable radix order of the stream (:func:`stable_key_order`) puts
    each id's positions in one run, its first position at the run's head;
    marking those positions in a stream-length mask, the mask's ``cumsum``
    numbers the ids in touch order.  Every entry's label is read from an
    id-indexed table when the ids are non-negative and the largest is below
    a small multiple of the stream length, and scattered back through the
    sort order otherwise.
    """
    order = stable_key_order(stream)
    ordered = stream[order]
    head = _np.ones(stream.size, dtype=bool)
    _np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    firsts = order[head]
    first = _np.zeros(stream.size, dtype=bool)
    first[firsts] = True
    touched = stream[first]
    if stream.size and ordered[0] >= 0 and ordered[-1] < _TABLE_IDS_PER_ENTRY * stream.size:
        table = _np.empty(ordered[-1] + 1, dtype=_np.int64)
        table[touched] = _np.arange(touched.size, dtype=_np.int64)
        return touched, table[stream]
    labels = _np.empty(stream.size, dtype=_np.int64)
    labels[order] = (_np.cumsum(first) - 1)[firsts][_np.cumsum(head) - 1]
    return touched, labels


def _layout(
    partitioner: Partitioner, vertices: Any, vertex_meta: Any, lo: Any, hi: Any, edge_meta: Any
) -> HalfEdgeColumns:
    """The image of touching ``vertices`` in index order, then inserting the
    distinct undirected edges ``(lo[i], hi[i])`` (indices into ``vertices``) in
    order: each rank keeps its vertices in touch order, each vertex its half
    edges in edge order, as a per-rank store filled that way iterates them."""
    if vertices.dtype == _np.int64:
        owners = partitioner.owners_array(vertices).astype(_np.int64)
    else:  # an object column: partitioner.owner on the original ids
        owners = _np.fromiter(map(partitioner.owner, vertices.tolist()), _np.int64, len(vertices))
    order = stable_key_order(owners)
    row = _np.empty(order.size, dtype=_np.int64)
    row[order] = _np.arange(order.size, dtype=_np.int64)
    src = row[_np.column_stack((lo, hi)).reshape(-1)]
    tgt = row[_np.column_stack((hi, lo)).reshape(-1)]
    by_src = stable_key_order(src)
    return HalfEdgeColumns(
        vertices=vertices[order],
        vertex_meta=vertex_meta[order],
        rank_offsets=_np.concatenate(
            ([0], _np.cumsum(_np.bincount(owners, minlength=partitioner.nranks)))
        ),
        degree=_np.bincount(src, minlength=order.size),
        tgt=tgt[by_src],
        edge_meta=edge_meta[by_src >> 1],  # half edges 2i, 2i + 1 are edge i's
    )


def _relabel(us: Any, vs: Any, keys: List[Hashable]) -> Tuple[Any, Any, Any, List[Hashable]]:
    """Dense int64 labels for ids that are not all int64, by one ``{id: index}``
    dict in first-touch order (endpoints edge by edge, then ``keys``); returns
    the labelled columns and the id of every label."""
    index: Dict[Hashable, int] = {}

    def label(vertex: Hashable) -> int:
        return index.setdefault(vertex, len(index))

    if isinstance(us, _np.ndarray):
        us, vs = us.tolist(), vs.tolist()
    ends = _np.fromiter(map(label, chain.from_iterable(zip(us, vs))), _np.int64, 2 * len(us))
    labels = _np.fromiter(map(label, keys), _np.int64, len(keys))
    return ends[0::2], ends[1::2], labels, list(index)


class DistributedGraph:
    """An undirected graph with vertex/edge metadata, partitioned by vertex."""

    def __init__(
        self,
        world: World,
        partitioner: Optional[Partitioner] = None,
        name: Optional[str] = None,
        default_vertex_meta: Any = None,
    ) -> None:
        self.world = world
        self.partitioner = partitioner if partitioner is not None else HashPartitioner(world.nranks)
        if self.partitioner.nranks != world.nranks:
            raise ValueError(
                f"partitioner is for {self.partitioner.nranks} ranks but world has {world.nranks}"
            )
        if name is None:
            name = world.anonymous_name("graph")
        self.name = world.unique_name(name)
        self.default_vertex_meta = default_vertex_meta
        none, empty = _np.zeros(0, dtype=_np.int64), object_column([])
        self._image = _layout(self.partitioner, none, empty, none, none, empty)
        #: ``({vertex: position}, run bounds)`` over the image, built on first read
        self._index: Optional[Tuple[Dict[Hashable, int], List[int]]] = None

    # ------------------------------------------------------------------
    def owner(self, vertex: Hashable) -> int:
        return self.partitioner.owner(vertex)

    def half_edge_columns(self) -> HalfEdgeColumns:
        """The whole graph as :class:`~repro.graph.columnar.HalfEdgeColumns`:
        the bulk DODGr build's one input."""
        return self._image

    def adopt_columns(self, image: HalfEdgeColumns) -> None:
        """Make ``image`` the whole graph, as :meth:`from_columns` leaves it.

        ``image`` must list the vertices and half edges in store order (see
        :class:`~repro.graph.columnar.HalfEdgeColumns`).  ``DeltaBuffer.apply``
        writes every batch this way.
        """
        self._image = image
        self._index = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _load(
        self,
        us: Any,
        vs: Any,
        edge_meta: Any,
        edge_metas: Optional[Any],
        vertex_meta: Dict[Hashable, Any],
    ) -> "DistributedGraph":
        """Lay out the image ``from_edges(zip(us, vs, metas), vertex_meta)`` loads.

        Parallel edges keep the pair's first position and its last metadata;
        self loops are dropped; metadata-only vertices join their rank after
        every endpoint, in ``vertex_meta`` order.  A shared ``edge_meta``
        (``edge_metas`` None) is sized once, into the image's
        ``edge_meta_sizes``.
        """
        keys = list(vertex_meta)
        ids = [id_array(column) for column in (us, vs, keys)]
        if all(column is not None for column in ids):
            (us, vs, labels), originals = ids, None
        else:
            us, vs, labels, originals = _relabel(us, vs, keys)
        keep = _np.flatnonzero(us != vs)
        # The touch stream: both endpoints of every kept edge, then the keys.
        stream = _np.concatenate((_np.column_stack((us[keep], vs[keep])).reshape(-1), labels))
        touched, stream = first_touch_labels(stream)
        lo, hi = stream[0 : 2 * keep.size : 2], stream[1 : 2 * keep.size : 2]
        # One edge per unordered pair, where it first appears.
        pairs = _np.minimum(lo, hi) * _np.int64(touched.size) + _np.maximum(lo, hi)
        by_pair = stable_key_order(pairs)
        head = _np.ones(by_pair.size + 1, dtype=bool)
        head[1:-1] = pairs[by_pair[1:]] != pairs[by_pair[:-1]]
        firsts = by_pair[head[:-1]]
        # The first positions in edge order: a mask, not a sort.
        distinct = _np.zeros(keep.size, dtype=bool)
        distinct[firsts] = True
        if edge_metas is None:  # one value, sized once
            metas = _np.empty(firsts.size, dtype=object)
            metas.fill(edge_meta)
            size = serialized_size(edge_meta)
        else:  # the pair's last occurrence ends its run
            last = _np.empty(keep.size, dtype=_np.int64)
            last[firsts] = by_pair[head[1:]]
            metas, size = object_column(edge_metas)[keep[last[distinct]]], None
        if originals is not None:
            touched = id_column(object_column(originals)[touched].tolist())
        vertex_metas = _np.empty(touched.size, dtype=object)
        vertex_metas.fill(self.default_vertex_meta)
        vertex_metas[stream[2 * keep.size :]] = object_column(list(vertex_meta.values()))
        edges = _np.flatnonzero(distinct)
        image = _layout(self.partitioner, touched, vertex_metas, lo[edges], hi[edges], metas)
        if size is not None:
            image = image._replace(edge_meta_sizes=_np.full(image.tgt.size, size, _np.int64))
        self.adopt_columns(image)
        return self

    @classmethod
    def from_edges(
        cls,
        world: World,
        edges: Iterable[Tuple[Hashable, Hashable] | Tuple[Hashable, Hashable, Any]],
        vertex_meta: Optional[Dict[Hashable, Any]] = None,
        partitioner: Optional[Partitioner] = None,
        default_vertex_meta: Any = None,
        name: Optional[str] = None,
    ) -> "DistributedGraph":
        """Bulk-construct a graph from an iterable of edges.

        Edges may be ``(u, v)`` or ``(u, v, edge_meta)``.  Parallel edges keep
        the last metadata seen; self loops are dropped; each rank keeps its
        vertices in the order the records first name them.  Any hashable
        ids: ids that are not all int64 are relabelled densely for the
        layout, and the graph keeps (and callbacks see) the originals.
        """
        us: List[Hashable] = []
        vs: List[Hashable] = []
        metas: List[Any] = []
        for edge in edges:
            u, v, meta = edge if len(edge) == 3 else (*edge, None)
            us.append(u)
            vs.append(v)
            metas.append(meta)
        graph = cls(
            world, partitioner=partitioner, name=name, default_vertex_meta=default_vertex_meta
        )
        return graph._load(us, vs, None, metas, vertex_meta or {})

    @classmethod
    def from_columns(
        cls,
        world: World,
        us: Any,
        vs: Any,
        edge_meta: Any = None,
        edge_metas: Optional[List[Any]] = None,
        vertex_meta: Optional[Dict[Hashable, Any]] = None,
        partitioner: Optional[Partitioner] = None,
        default_vertex_meta: Any = None,
        name: Optional[str] = None,
    ) -> "DistributedGraph":
        """Bulk-construct from parallel integer endpoint columns.

        The graph ``from_edges(zip(us, vs, ...))`` loads — same vertex and
        half-edge order, same duplicate-edge overwrite semantics, same
        self-loop drops — with no per-edge Python: the columns are
        validated, deduplicated and laid out rank-major as one
        :class:`~repro.graph.columnar.HalfEdgeColumns` image, and *that* is
        the graph.  ``edge_meta`` is a value shared by every edge (the
        generator default); ``edge_metas`` supplies one value per input edge.

        Malformed columns — ragged lengths, non-integer dtype, negative
        ids — raise :class:`ValueError` naming the offending column.  Ids
        that do not fit int64 (Python ints or unsigned arrays ``>= 2**63``)
        are relabelled densely, as :meth:`from_edges` relabels any id.
        """
        validate_edge_columns(us, vs, edge_metas)
        ids = int64_id_columns(us, vs)
        if ids is None:
            ids = [int(u) for u in us], [int(v) for v in vs]
        graph = cls(
            world, partitioner=partitioner, name=name, default_vertex_meta=default_vertex_meta
        )
        return graph._load(*ids, edge_meta, edge_metas, vertex_meta or {})

    @classmethod
    def from_edge_list(
        cls,
        edge_list: DistributedEdgeList,
        vertex_meta: Optional[Dict[Hashable, Any]] = None,
        partitioner: Optional[Partitioner] = None,
        default_vertex_meta: Any = None,
        name: Optional[str] = None,
    ) -> "DistributedGraph":
        """Construct from a (preferably simplified) distributed edge list."""
        return cls.from_edges(
            edge_list.world,
            edge_list.records(),
            vertex_meta=vertex_meta,
            partitioner=partitioner,
            default_vertex_meta=default_vertex_meta,
            name=name,
        )

    def derive(
        self,
        name: str,
        vertex_meta: Any = None,
        keep_vertices: Any = None,
        keep_edges: Any = None,
        world: Optional[World] = None,
        partitioner: Optional[Partitioner] = None,
        default_vertex_meta: Any = None,
    ) -> "DistributedGraph":
        """A graph that touches this graph's vertices in store order, then
        inserts its edges in :meth:`edges` order, on ``world`` (default this
        one's) under ``partitioner`` (default this one's on the same world).

        ``vertex_meta`` replaces the vertex metadata column; ``keep_vertices``
        and ``keep_edges`` (over :meth:`edges`) are boolean masks, and an edge
        losing an endpoint is dropped.
        """
        cols = self._image
        lo, hi, canonical = self._canonical()
        metas = cols.edge_meta[canonical]
        vertices = cols.vertices
        vertex_meta = cols.vertex_meta if vertex_meta is None else vertex_meta
        if keep_edges is not None:
            lo, hi, metas = lo[keep_edges], hi[keep_edges], metas[keep_edges]
        if keep_vertices is not None:
            both = keep_vertices[lo] & keep_vertices[hi]
            renumber = _np.cumsum(keep_vertices) - 1
            lo, hi, metas = renumber[lo[both]], renumber[hi[both]], metas[both]
            vertices, vertex_meta = vertices[keep_vertices], vertex_meta[keep_vertices]
            vertices = id_column(vertices.tolist()) if vertices.dtype == object else vertices
        world = world or self.world
        if partitioner is None and world is self.world:
            partitioner = self.partitioner
        out = DistributedGraph(
            world, partitioner=partitioner, name=name, default_vertex_meta=default_vertex_meta
        )
        out.adopt_columns(_layout(out.partitioner, vertices, vertex_meta, lo, hi, metas))
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _run(self, vertex: Hashable) -> Tuple[Optional[int], int, int]:
        """``vertex``'s image position (None when absent) and ``[lo, hi)`` of
        its half edges, through the position index."""
        if self._index is None:
            cols = self._image
            positions = dict(zip(cols.vertices.tolist(), range(len(cols.vertices))))
            self._index = positions, _np.concatenate(([0], _np.cumsum(cols.degree))).tolist()
        positions, bounds = self._index
        position = positions.get(vertex)
        return (None, 0, 0) if position is None else (position, *bounds[position : position + 2])

    def _half_edge(self, u: Hashable, v: Hashable) -> Optional[int]:
        _, lo, hi = self._run(u)
        hits = _np.flatnonzero(self._image.tgt[lo:hi] == self._run(v)[0])
        return lo + int(hits[0]) if hits.size else None

    def has_vertex(self, vertex: Hashable) -> bool:
        return self._run(vertex)[0] is not None

    def vertex_meta(self, vertex: Hashable) -> Any:
        position = self._run(vertex)[0]
        if position is None:
            raise KeyError(f"vertex {vertex!r} not in graph")
        return self._image.vertex_meta[position]

    def edge_meta(self, u: Hashable, v: Hashable) -> Any:
        half_edge = self._half_edge(u, v)
        if half_edge is None:
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        return self._image.edge_meta[half_edge]

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return self._half_edge(u, v) is not None

    def neighbors(self, vertex: Hashable) -> List[Hashable]:
        _, lo, hi = self._run(vertex)
        return self._image.vertices[self._image.tgt[lo:hi]].tolist()

    def degree(self, vertex: Hashable) -> int:
        _, lo, hi = self._run(vertex)
        return hi - lo

    def num_vertices(self) -> int:
        return len(self._image.vertices)

    def num_undirected_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self.num_directed_edges() // 2

    def num_directed_edges(self) -> int:
        """Number of stored half edges — the paper's symmetrized edge count."""
        return len(self._image.tgt)

    def max_degree(self) -> int:
        return int(self._image.degree.max(initial=0))

    def vertices(self) -> Iterator[Hashable]:
        return iter(self._image.vertices.tolist())

    def local_vertices(self, rank: int) -> Iterator[Tuple[Hashable, Mapping[str, Any]]]:
        """``(vertex, record)`` for ``rank``'s vertices in store order; each
        record is a read-only ``{"meta", "adj": {partner: edge_meta}}``."""
        cols = self._image
        first, last = cols.rank_offsets[rank], cols.rank_offsets[rank + 1]
        bounds = _np.concatenate(([0], _np.cumsum(cols.degree[first:last]))).tolist()
        start = int(cols.degree[:first].sum())
        run = slice(start, start + bounds[-1])
        partners = cols.vertices[cols.tgt[run]].tolist()
        edge_metas = cols.edge_meta[run].tolist()
        records = zip(cols.vertices[first:last].tolist(), cols.vertex_meta[first:last].tolist())
        for (vertex, meta), lo, hi in zip(records, bounds, bounds[1:]):
            adj = MappingProxyType(dict(zip(partners[lo:hi], edge_metas[lo:hi])))
            yield vertex, MappingProxyType({"meta": meta, "adj": adj})

    def _canonical(self) -> Tuple[Any, Any, Any]:
        """``(lo, hi, half_edge)`` of every undirected edge: the half edge
        ``lo -> hi`` (vertex positions) with ``lo`` its canonical endpoint,
        in image order."""
        cols = self._image
        src = _np.repeat(_np.arange(len(cols.vertices)), cols.degree)
        if cols.vertices.dtype == _np.int64:
            first = cols.vertices[src] < cols.vertices[cols.tgt]
        else:
            ids = cols.vertices.tolist()
            pairs = zip(src.tolist(), cols.tgt.tolist())
            first = _np.fromiter(
                (canonical_pair(ids[u], ids[v])[0] == ids[u] for u, v in pairs),
                dtype=bool,
                count=len(src),
            )
        canonical = _np.flatnonzero(first)
        return src[canonical], cols.tgt[canonical], canonical

    def edges(self) -> Iterator[Tuple[Hashable, Hashable, Any]]:
        """Iterate undirected edges once each (canonical orientation), in store order."""
        lo, hi, canonical = self._canonical()
        vertices = self._image.vertices
        return zip(
            vertices[lo].tolist(),
            vertices[hi].tolist(),
            self._image.edge_meta[canonical].tolist(),
        )

    def degrees(self) -> Dict[Hashable, int]:
        return dict(zip(self._image.vertices.tolist(), self._image.degree.tolist()))

    def rank_vertex_counts(self) -> List[int]:
        return _np.diff(self._image.rank_offsets).tolist()

    def rank_edge_counts(self) -> List[int]:
        edges_before = _np.concatenate(([0], _np.cumsum(self._image.degree)))
        return _np.diff(edges_before[self._image.rank_offsets]).tolist()

    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a networkx Graph (test oracle / small-graph analysis)."""
        import networkx as nx

        g = nx.Graph()
        metas = ({"meta": meta} for meta in self._image.vertex_meta.tolist())
        g.add_nodes_from(zip(self._image.vertices.tolist(), metas))
        g.add_edges_from((u, v, {"meta": meta}) for u, v, meta in self.edges())
        return g
