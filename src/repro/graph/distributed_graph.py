"""Distributed undirected decorated graph (the pre-DODGr representation).

Vertices are partitioned across ranks by a :class:`~repro.graph.partition.Partitioner`;
each rank stores, for its local vertices, the vertex metadata and the full
undirected adjacency with per-edge metadata.  This is the structure the
degree-ordered directed graph (:mod:`repro.graph.dodgr`) is built from, and
it also backs the baseline algorithms that do not use degree ordering.

Construction offers two paths:

* :meth:`DistributedGraph.from_edges` / :meth:`add_edge` — driver-side bulk
  loading, used by generators and benchmarks where graph construction is not
  the phase being measured;
* :meth:`DistributedGraph.ingest_async` — message-driven loading through the
  simulated YGM runtime, exercising the same code path a real deployment
  would use and accounted in the communication statistics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from itertools import repeat

from ..runtime.world import RankContext, World
from .columnar import group_slices
from .edge_list import DistributedEdgeList, canonical_pair, validate_edge_columns
from .partition import HashPartitioner, Partitioner

import numpy as _np

__all__ = ["DistributedGraph"]


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
        for ctx in world.ranks:
            ctx.local_state.setdefault(self._slot, {})
        self._h_add_half_edge = world.register_handler(
            self._handle_add_half_edge, f"{self.name}.add_half_edge"
        )
        self._h_set_vertex_meta = world.register_handler(
            self._handle_set_vertex_meta, f"{self.name}.set_vertex_meta"
        )

    # ------------------------------------------------------------------
    @property
    def _slot(self) -> str:
        return f"graph:{self.name}"

    def owner(self, vertex: Hashable) -> int:
        return self.partitioner.owner(vertex)

    def local_store(self, rank_or_ctx: int | RankContext) -> Dict[Hashable, Dict[str, Any]]:
        ctx = (
            rank_or_ctx
            if isinstance(rank_or_ctx, RankContext)
            else self.world.rank(rank_or_ctx)
        )
        return ctx.local_state[self._slot]

    def _vertex_record(
        self, store: Dict[Hashable, Dict[str, Any]], vertex: Hashable
    ) -> Dict[str, Any]:
        record = store.get(vertex)
        if record is None:
            record = {"meta": self.default_vertex_meta, "adj": {}}
            store[vertex] = record
        return record

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _handle_add_half_edge(
        self, ctx: RankContext, u: Hashable, v: Hashable, edge_meta: Any
    ) -> None:
        record = self._vertex_record(self.local_store(ctx), u)
        record["adj"][v] = edge_meta

    def _handle_set_vertex_meta(self, ctx: RankContext, vertex: Hashable, meta: Any) -> None:
        record = self._vertex_record(self.local_store(ctx), vertex)
        record["meta"] = meta

    # ------------------------------------------------------------------
    # Driver-side construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Hashable, meta: Any = None) -> None:
        record = self._vertex_record(self.local_store(self.owner(vertex)), vertex)
        if meta is not None or record["meta"] is None:
            record["meta"] = meta if meta is not None else self.default_vertex_meta

    def set_vertex_meta(self, vertex: Hashable, meta: Any) -> None:
        self._vertex_record(self.local_store(self.owner(vertex)), vertex)["meta"] = meta

    def add_edge(self, u: Hashable, v: Hashable, edge_meta: Any = None) -> None:
        """Insert the undirected edge (u, v); both half edges are stored."""
        if u == v:
            return
        self._vertex_record(self.local_store(self.owner(u)), u)["adj"][v] = edge_meta
        self._vertex_record(self.local_store(self.owner(v)), v)["adj"][u] = edge_meta

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
        the last metadata seen; self loops are dropped.
        """
        graph = cls(
            world,
            partitioner=partitioner,
            name=name,
            default_vertex_meta=default_vertex_meta,
        )
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                meta = None
            else:
                u, v, meta = edge  # type: ignore[misc]
            graph.add_edge(u, v, meta)
        if vertex_meta:
            for vertex, meta in vertex_meta.items():
                graph.set_vertex_meta(vertex, meta)
        return graph

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

        Bit-identical to ``from_edges(zip(us, vs, ...))`` — same per-rank
        store insertion order, same adjacency-dict key order, same
        duplicate-edge overwrite semantics, same self-loop drops — but the
        per-edge owner lookups collapse into one vectorized partition-map
        evaluation and the per-vertex records are assembled group-at-a-time
        from one stable sort of the half-edge stream.  ``edge_meta`` is a
        value shared by every edge (the generator default); ``edge_metas``
        supplies one value per input edge.

        Malformed columns — ragged lengths, non-integer dtype, negative
        ids — raise :class:`ValueError` naming the offending column.
        """
        validate_edge_columns(us, vs, edge_metas)
        graph = cls(
            world,
            partitioner=partitioner,
            name=name,
            default_vertex_meta=default_vertex_meta,
        )
        try:
            us_arr = _np.asarray(us, dtype=_np.int64)
            vs_arr = _np.asarray(vs, dtype=_np.int64)
        except OverflowError:  # ids beyond int64: per-edge fallback
            us_arr = None
        if us_arr is None:
            metas = edge_metas if edge_metas is not None else repeat(edge_meta)
            for u, v, meta in zip(us, vs, metas):
                graph.add_edge(int(u), int(v), meta)
        else:
            keep = us_arr != vs_arr
            us_arr, vs_arr = us_arr[keep], vs_arr[keep]
            edge_index = _np.flatnonzero(keep)
            num_edges = len(us_arr)
            if num_edges:
                # The half-edge stream of from_edges: edge i contributes
                # (u_i -> v_i) at position 2i and (v_i -> u_i) at 2i + 1.
                ends = _np.empty(2 * num_edges, dtype=_np.int64)
                partners = _np.empty(2 * num_edges, dtype=_np.int64)
                ends[0::2], ends[1::2] = us_arr, vs_arr
                partners[0::2], partners[1::2] = vs_arr, us_arr
                owners = graph.partitioner.owners_array(ends)
                order = _np.lexsort((ends, owners))
                own_sorted_arr = owners[order]
                vtx_sorted_arr = ends[order]
                own_sorted = own_sorted_arr.tolist()
                vtx_sorted = vtx_sorted_arr.tolist()
                part_sorted = partners[order].tolist()
                stream_sorted = order.tolist()
                # One group per (owner, vertex); lexsort stability keeps each
                # group's half edges in stream order, so the group's head is
                # the vertex's first appearance.
                groups = [
                    (own_sorted[start], stream_sorted[start], start, end)
                    for start, end in group_slices(own_sorted_arr, vtx_sorted_arr)
                ]
                # Store records in first-appearance order per rank — the
                # dict insertion order the per-edge loop produces.
                groups.sort()
                meta_by_edge = None
                if edge_metas is not None:
                    meta_by_edge = [edge_metas[k] for k in edge_index.tolist()]
                for owner_rank, _first, i, j in groups:
                    store = graph.local_store(owner_rank)
                    if meta_by_edge is None:
                        adj = dict(zip(part_sorted[i:j], repeat(edge_meta)))
                    else:
                        adj = dict(
                            zip(
                                part_sorted[i:j],
                                (meta_by_edge[s >> 1] for s in stream_sorted[i:j]),
                            )
                        )
                    store[vtx_sorted[i]] = {
                        "meta": graph.default_vertex_meta,
                        "adj": adj,
                    }
        if vertex_meta:
            for vertex, meta in vertex_meta.items():
                graph.set_vertex_meta(vertex, meta)
        return graph

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

    # ------------------------------------------------------------------
    # Message-driven construction (exercises the runtime)
    # ------------------------------------------------------------------
    def ingest_async(
        self,
        edges_per_rank: List[List[Tuple[Hashable, Hashable, Any]]],
        vertex_meta_per_rank: Optional[List[Dict[Hashable, Any]]] = None,
    ) -> None:
        """Load edges through the asynchronous runtime.

        ``edges_per_rank[r]`` is the list of records initially resident on
        rank ``r`` (as if read from a partitioned input file); each record is
        routed to the owners of both endpoints as half-edge insertions.
        """
        if len(edges_per_rank) != self.world.nranks:
            raise ValueError("edges_per_rank must have one entry per rank")
        self.world.begin_phase(f"{self.name}.ingest")
        for ctx, records in zip(self.world.ranks, edges_per_rank):
            for u, v, meta in records:
                if u == v:
                    continue
                ctx.async_call_sized(self.owner(u), self._h_add_half_edge, u, v, meta)
                ctx.async_call_sized(self.owner(v), self._h_add_half_edge, v, u, meta)
        if vertex_meta_per_rank is not None:
            if len(vertex_meta_per_rank) != self.world.nranks:
                raise ValueError("vertex_meta_per_rank must have one entry per rank")
            for ctx, metas in zip(self.world.ranks, vertex_meta_per_rank):
                for vertex, meta in metas.items():
                    ctx.async_call(self.owner(vertex), self._h_set_vertex_meta, vertex, meta)
        self.world.barrier()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_vertex(self, vertex: Hashable) -> bool:
        return vertex in self.local_store(self.owner(vertex))

    def vertex_meta(self, vertex: Hashable) -> Any:
        record = self.local_store(self.owner(vertex)).get(vertex)
        if record is None:
            raise KeyError(f"vertex {vertex!r} not in graph")
        return record["meta"]

    def edge_meta(self, u: Hashable, v: Hashable) -> Any:
        record = self.local_store(self.owner(u)).get(u)
        if record is None or v not in record["adj"]:
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        return record["adj"][v]

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        record = self.local_store(self.owner(u)).get(u)
        return record is not None and v in record["adj"]

    def neighbors(self, vertex: Hashable) -> List[Hashable]:
        record = self.local_store(self.owner(vertex)).get(vertex)
        if record is None:
            return []
        return list(record["adj"].keys())

    def degree(self, vertex: Hashable) -> int:
        record = self.local_store(self.owner(vertex)).get(vertex)
        return len(record["adj"]) if record is not None else 0

    def num_vertices(self) -> int:
        return sum(len(self.local_store(r)) for r in range(self.world.nranks))

    def num_undirected_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self.num_directed_edges() // 2

    def num_directed_edges(self) -> int:
        """Number of stored half edges — the paper's symmetrized edge count."""
        total = 0
        for rank in range(self.world.nranks):
            for record in self.local_store(rank).values():
                total += len(record["adj"])
        return total

    def max_degree(self) -> int:
        best = 0
        for rank in range(self.world.nranks):
            for record in self.local_store(rank).values():
                if len(record["adj"]) > best:
                    best = len(record["adj"])
        return best

    def vertices(self) -> Iterator[Hashable]:
        for rank in range(self.world.nranks):
            yield from self.local_store(rank).keys()

    def local_vertices(self, rank: int) -> Iterator[Tuple[Hashable, Dict[str, Any]]]:
        yield from self.local_store(rank).items()

    def edges(self) -> Iterator[Tuple[Hashable, Hashable, Any]]:
        """Iterate undirected edges once each (canonical orientation)."""
        for rank in range(self.world.nranks):
            for u, record in self.local_store(rank).items():
                for v, meta in record["adj"].items():
                    if canonical_pair(u, v)[0] == u:
                        yield (u, v, meta)

    def degrees(self) -> Dict[Hashable, int]:
        return {u: len(record["adj"]) for rank in range(self.world.nranks)
                for u, record in self.local_store(rank).items()}

    def rank_vertex_counts(self) -> List[int]:
        return [len(self.local_store(r)) for r in range(self.world.nranks)]

    def rank_edge_counts(self) -> List[int]:
        out = []
        for rank in range(self.world.nranks):
            out.append(sum(len(rec["adj"]) for rec in self.local_store(rank).values()))
        return out

    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a networkx Graph (test oracle / small-graph analysis)."""
        import networkx as nx

        g = nx.Graph()
        for rank in range(self.world.nranks):
            for u, record in self.local_store(rank).items():
                g.add_node(u, meta=record["meta"])
                for v, meta in record["adj"].items():
                    g.add_edge(u, v, meta=meta)
        return g
