"""Graphs as records: the per-edge load, the DODGr's object view, the routed build.

A :class:`~repro.graph.distributed_graph.DistributedGraph` is one column
image; :class:`RecordStore` holds the same graph as per-rank record dicts
filled edge by edge (:func:`load_records`, :func:`routed_load`), and its
flatten is the reference every image is held to.

A :class:`~repro.graph.dodgr.DODGraph` is its per-rank
:class:`~repro.graph.dodgr.CSRAdjacency` columns.  The scalar oracle walks
the same graph as TriPoll's C++ stores it (§4.2): per rank, a map from each
local vertex ``u`` to its record ``{"meta": meta(u), "degree": d(u), "adj":
Adj^m_+(u)}``, every adjacency entry a ``(v, d(v), meta(u, v), meta(v))``
tuple in the ``<+`` order of its target.  :func:`record_view` derives those
records from the columns, once per DODGr; :func:`routed_build` builds them
the paper's way, one routed message per half edge, and is the reference
``DODGraph.build`` is held to.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..graph.columnar import HalfEdgeColumns, id_column, object_column
from ..graph.degree import order_key
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..graph.partition import HashPartitioner, Partitioner
from ..runtime.world import World

__all__ = ["RecordStore", "load_records", "routed_load", "entry_key", "record_view", "routed_build"]

#: An Adj^m_+ entry: (target vertex, target degree, edge metadata, target vertex metadata)
AdjEntry = Tuple[Hashable, int, Any, Any]

#: One rank's records: vertex -> {"meta", "degree", "adj": [AdjEntry, ...]}
Records = Dict[Hashable, Dict[str, Any]]


class RecordStore:
    """A decorated graph as per-rank ``{vertex: {"meta", "adj": {partner:
    edge_meta}}}`` dicts (``stores[rank]``): vertices in first-touch order,
    partners in first-insertion order.  A repeated pair keeps its place and
    takes the new metadata, a self loop is dropped, and a vertex is created
    with ``default_vertex_meta`` on first touch."""

    def __init__(
        self, world: World, partitioner: Optional[Partitioner] = None, default_vertex_meta: Any = None
    ) -> None:
        self.world = world
        self.partitioner = partitioner or HashPartitioner(world.nranks)
        self.default_vertex_meta = default_vertex_meta
        self.stores: List[Dict[Hashable, Dict[str, Any]]] = [{} for _ in range(world.nranks)]

    def record(self, rank: int, vertex: Hashable) -> Dict[str, Any]:
        """``vertex``'s record on ``rank``, created on first touch."""
        if vertex not in self.stores[rank]:
            self.stores[rank][vertex] = {"meta": self.default_vertex_meta, "adj": {}}
        return self.stores[rank][vertex]

    def add_edge(self, u: Hashable, v: Hashable, edge_meta: Any = None) -> None:
        if u != v:
            self.record(self.partitioner.owner(u), u)["adj"][v] = edge_meta
            self.record(self.partitioner.owner(v), v)["adj"][u] = edge_meta

    def set_vertex_meta(self, vertex: Hashable, meta: Any) -> None:
        self.record(self.partitioner.owner(vertex), vertex)["meta"] = meta

    def columns(self) -> HalfEdgeColumns:
        """The stores flattened in store order: the image a graph of them holds."""
        records = [item for store in self.stores for item in store.items()]
        index_of = {vertex: index for index, (vertex, _) in enumerate(records)}
        adjs = [record["adj"] for _, record in records]
        return HalfEdgeColumns(
            vertices=id_column([vertex for vertex, _ in records]),
            vertex_meta=object_column([record["meta"] for _, record in records]),
            rank_offsets=np.cumsum([0] + [len(store) for store in self.stores]),
            degree=np.array([len(adj) for adj in adjs], dtype=np.int64),
            tgt=np.array([index_of[v] for adj in adjs for v in adj], dtype=np.int64),
            edge_meta=object_column([meta for adj in adjs for meta in adj.values()]),
        )

    def graph(self, name: Optional[str] = None) -> DistributedGraph:
        """A :class:`DistributedGraph` holding :meth:`columns`."""
        graph = DistributedGraph(self.world, self.partitioner, name, self.default_vertex_meta)
        graph.adopt_columns(self.columns())
        return graph


def load_records(
    world: World,
    edges: Iterable[tuple],
    vertex_meta: Optional[Dict[Hashable, Any]] = None,
    partitioner: Optional[Partitioner] = None,
    default_vertex_meta: Any = None,
) -> RecordStore:
    """``DistributedGraph.from_edges``' graph, loaded edge by edge into records."""
    store = RecordStore(world, partitioner, default_vertex_meta)
    for edge in edges:
        store.add_edge(*edge)
    for vertex, meta in (vertex_meta or {}).items():
        store.set_vertex_meta(vertex, meta)
    return store


def routed_load(
    world: World,
    edges_per_rank: List[List[Tuple[Hashable, Hashable, Any]]],
    vertex_meta_per_rank: Optional[List[Dict[Hashable, Any]]] = None,
) -> DistributedGraph:
    """Load edges through the runtime, one accounted RPC per half edge.

    ``edges_per_rank[r]`` holds the records initially on rank ``r`` (as if
    read from a partitioned file); each is routed to the owners of both
    endpoints, then each ``vertex_meta_per_rank[r]`` entry to its vertex's
    owner, in the phase ``"<graph name>.ingest"``.  The two handlers are
    released on return; the graph adopts the flattened records.
    """
    if len(edges_per_rank) != world.nranks:
        raise ValueError("edges_per_rank must have one entry per rank")
    if vertex_meta_per_rank is not None and len(vertex_meta_per_rank) != world.nranks:
        raise ValueError("vertex_meta_per_rank must have one entry per rank")
    graph = DistributedGraph(world)
    store = RecordStore(world, graph.partitioner)

    def add_half_edge(ctx, u: Hashable, v: Hashable, edge_meta: Any) -> None:
        store.record(ctx.rank, u)["adj"][v] = edge_meta

    def set_vertex_meta(ctx, vertex: Hashable, meta: Any) -> None:
        store.record(ctx.rank, vertex)["meta"] = meta

    add = world.register_handler(add_half_edge, f"{graph.name}.add_half_edge")
    set_meta = world.register_handler(set_vertex_meta, f"{graph.name}.set_vertex_meta")
    world.begin_phase(f"{graph.name}.ingest")
    for ctx, records in zip(world.ranks, edges_per_rank):
        for u, v, meta in records:
            if u != v:
                ctx.async_call(graph.owner(u), add, u, v, meta)
                ctx.async_call(graph.owner(v), add, v, u, meta)
    for ctx, metas in zip(world.ranks, vertex_meta_per_rank or ()):
        for vertex, meta in metas.items():
            ctx.async_call(graph.owner(vertex), set_meta, vertex, meta)
    world.barrier()
    world.registry.release(add)
    world.registry.release(set_meta)
    graph.adopt_columns(store.columns())
    return graph


def entry_key(entry: AdjEntry) -> Tuple[int, int, str]:
    """Sort key ordering adjacency entries by the ``<+`` relation of their target."""
    return order_key(entry[0], entry[1])


class RecordView:
    """Every rank's records and entry tuples, and the vertex-keyed ``<+`` ids.

    ``stores[rank]`` lists the rank's vertices in row order; each record's
    ``adj`` is a slice of ``entries[rank]``, the rank's entry tuples by edge
    position.  ``order_ids[v]`` is ``v``'s dense rank in the global ``<+``
    order (``id(u) < id(v)`` iff ``u <+ v``), the dict form of the columns'
    ``row_order_ids``.  Read-only.
    """

    def __init__(self, dodgr: DODGraph) -> None:
        self.stores: List[Records] = []
        self.entries: List[List[AdjEntry]] = []
        vertices: List[Hashable] = []
        ids: List[int] = []
        for rank in range(dodgr.world.nranks):
            csr = dodgr.csr(rank)
            entries = list(
                zip(
                    csr.tgt_vertex.tolist(),
                    csr.tgt_degree.tolist(),
                    csr.edge_meta.tolist(),
                    csr.tgt_meta.tolist(),
                )
            )
            indptr = csr.indptr.tolist()
            rows = csr.row_vertices.tolist()
            records = zip(csr.row_meta.tolist(), csr.row_degree.tolist(), indptr, indptr[1:])
            self.entries.append(entries)
            self.stores.append(
                {
                    vertex: {"meta": meta, "degree": degree, "adj": entries[lo:hi]}
                    for vertex, (meta, degree, lo, hi) in zip(rows, records)
                }
            )
            vertices.extend(rows)
            ids.extend(csr.row_order_ids.tolist())
        by_id = sorted(zip(ids, vertices), key=lambda pair: pair[0])
        self.order_ids: Dict[Hashable, int] = {vertex: k for k, vertex in by_id}

    def directed_edges(self) -> Iterator[Tuple[Hashable, Hashable]]:
        """Every directed edge ``(u, v)`` of G+, rank by rank, in store order."""
        for store in self.stores:
            for u, record in store.items():
                for entry in record["adj"]:
                    yield (u, entry[0])


_VIEWS: "weakref.WeakKeyDictionary[DODGraph, RecordView]" = weakref.WeakKeyDictionary()


def record_view(dodgr: DODGraph) -> RecordView:
    """The :class:`RecordView` of ``dodgr``, built on first use and cached
    for the graph's life.  A released graph raises, as its columns do."""
    dodgr.num_vertices()  # the liveness check: raises once released
    view = _VIEWS.get(dodgr)
    if view is None:
        view = _VIEWS[dodgr] = RecordView(dodgr)
    return view


def routed_build(graph: DistributedGraph, phase_name: Optional[str] = None) -> List[Records]:
    """Build every rank's records the paper's way, one message per half edge.

    Each owner first seeds its records with every local vertex's metadata
    and full degree, so the ``<+`` comparison can be evaluated on the
    owner.  Then every half edge ``(u -> v)`` of ``graph`` is sent to the
    owner of ``v`` under this build's own handler, charged to the phase
    ``phase_name`` (default ``"dodgr_<k>.build"``, the name a DODGr built
    here would take); the owner keeps
    ``(u, d(u), meta(u, v), meta(u))`` in ``Adj^m_+(v)`` when ``v <+ u``.
    Finally each list is sorted by the ``<+`` order of its targets.

    The handler takes one id, like a :class:`~repro.graph.dodgr.DODGraph`,
    and is released on return.  The result equals
    ``record_view(DODGraph.build(graph)).stores``, store order included.
    """
    world = graph.world
    name = world.unique_name(world.anonymous_name("dodgr"))
    image = graph.half_edge_columns()
    vertices, metas = image.vertices.tolist(), image.vertex_meta.tolist()
    degrees, offsets = image.degree.tolist(), image.rank_offsets.tolist()
    stores: List[Records] = [
        {
            vertices[g]: {"meta": metas[g], "degree": degrees[g], "adj": []}
            for g in range(offsets[rank], offsets[rank + 1])
        }
        for rank in range(world.nranks)
    ]

    def offer_edge(ctx, v: Hashable, u: Hashable, d_u: int, meta_u: Any, edge_meta: Any) -> None:
        record = stores[ctx.rank][v]
        if order_key(v, record["degree"]) < order_key(u, d_u):
            record["adj"].append((u, d_u, edge_meta, meta_u))
            ctx.add_compute(1)

    handle = world.register_handler(offer_edge, f"{name}.offer_edge")
    world.begin_phase(phase_name or f"{name}.build")
    # Half edges are grouped by source, rank-major: each rank sends in store order.
    sources = np.repeat(np.arange(len(vertices)), image.degree).tolist()
    rank_of = np.repeat(np.arange(world.nranks), np.diff(image.rank_offsets)).tolist()
    partners = image.vertices[image.tgt].tolist()
    for g, v, edge_meta in zip(sources, partners, image.edge_meta.tolist()):
        ctx = world.ranks[rank_of[g]]
        ctx.async_call(
            graph.owner(v), handle, v, vertices[g], degrees[g], metas[g], edge_meta
        )
    world.barrier()
    world.registry.release(handle)
    for store in stores:
        for record in store.values():
            record["adj"].sort(key=entry_key)
    return stores
