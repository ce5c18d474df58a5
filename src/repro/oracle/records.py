"""The DODGr as records: the object view of its columns and the routed build.

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
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from ..graph.degree import order_key
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph

__all__ = ["entry_key", "record_view", "routed_build"]

#: An Adj^m_+ entry: (target vertex, target degree, edge metadata, target vertex metadata)
AdjEntry = Tuple[Hashable, int, Any, Any]

#: One rank's records: vertex -> {"meta", "degree", "adj": [AdjEntry, ...]}
Records = Dict[Hashable, Dict[str, Any]]


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
    stores: List[Records] = [
        {u: {"meta": record["meta"], "degree": len(record["adj"]), "adj": []}
         for u, record in graph.local_vertices(rank)}
        for rank in range(world.nranks)
    ]

    def offer_edge(ctx, v: Hashable, u: Hashable, d_u: int, meta_u: Any, edge_meta: Any) -> None:
        record = stores[ctx.rank][v]
        if order_key(v, record["degree"]) < order_key(u, d_u):
            record["adj"].append((u, d_u, edge_meta, meta_u))
            ctx.add_compute(1)

    handle = world.register_handler(offer_edge, f"{name}.offer_edge")
    world.begin_phase(phase_name or f"{name}.build")
    for ctx in world.ranks:
        for u, record in graph.local_store(ctx).items():
            d_u, meta_u = len(record["adj"]), record["meta"]
            for v, edge_meta in record["adj"].items():
                ctx.async_call_sized(graph.owner(v), handle, v, u, d_u, meta_u, edge_meta)
    world.barrier()
    world.registry.release(handle)
    for store in stores:
        for record in store.values():
            record["adj"].sort(key=entry_key)
    return stores
