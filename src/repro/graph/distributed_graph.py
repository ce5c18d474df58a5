"""Distributed undirected decorated graph (the pre-DODGr representation).

Vertices are partitioned across ranks by a :class:`~repro.graph.partition.Partitioner`;
each rank stores, for its local vertices, the vertex metadata and the full
undirected adjacency with per-edge metadata.  This is the structure the
degree-ordered directed graph (:mod:`repro.graph.dodgr`) is built from, and
it also backs the baseline algorithms that do not use degree ordering.

Construction offers three paths:

* :meth:`DistributedGraph.from_columns` — array-native bulk loading from
  endpoint columns (every generator): the graph is kept as one column image
  and its per-rank record dicts materialise only on first access
  (``DeltaBuffer.apply`` keeps a streamed graph the same way, merging each
  batch into the image through :meth:`DistributedGraph.adopt_columns`);
* :meth:`DistributedGraph.from_edges` / :meth:`add_edge` — driver-side
  per-edge loading into the record dicts;
* :meth:`DistributedGraph.ingest_async` — message-driven loading through the
  simulated YGM runtime, exercising the same code path a real deployment
  would use and accounted in the communication statistics.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from itertools import repeat

from ..runtime.world import RankContext, World, stable_key_order
from .columnar import HalfEdgeColumns, dense_indices, id_array, id_column, object_column
from .edge_list import (
    DistributedEdgeList,
    canonical_pair,
    int64_id_columns,
    validate_edge_columns,
)
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
        #: the whole graph as columns while a :meth:`from_columns` load is
        #: still authoritative; None once the per-rank stores are
        self._image: Optional[HalfEdgeColumns] = None

    # ------------------------------------------------------------------
    @property
    def _slot(self) -> str:
        return f"graph:{self.name}"

    @property
    def store_materialised(self) -> bool:
        """False while the graph still lives as a column image only.

        That is a :meth:`from_columns` graph, or any graph a
        ``DeltaBuffer.apply`` merged a batch into, until something reads or
        mutates its per-rank records.
        """
        return self._image is None

    def owner(self, vertex: Hashable) -> int:
        return self.partitioner.owner(vertex)

    def local_store(self, rank_or_ctx: int | RankContext) -> Dict[Hashable, Dict[str, Any]]:
        """The rank's ``{vertex: {"meta", "adj"}}`` records — the mutable view.

        Every per-vertex read and every mutation goes through here.  On a
        :meth:`from_columns` graph the first call builds all ranks' records
        from the column image and drops the image: from then on the stores
        are authoritative, exactly as on a :meth:`from_edges` graph.
        """
        if self._image is not None:
            self._materialise_stores()
        ctx = (
            rank_or_ctx
            if isinstance(rank_or_ctx, RankContext)
            else self.world.rank(rank_or_ctx)
        )
        return ctx.local_state[self._slot]

    def _materialise_stores(self) -> None:
        """Column image -> per-rank record dicts, in ``from_edges`` insertion order."""
        cols, self._image = self._image, None
        partners = cols.vertices[cols.tgt].tolist()
        edge_metas = cols.edge_meta.tolist()
        bounds = _np.concatenate(([0], _np.cumsum(cols.degree))).tolist()
        offsets = cols.rank_offsets.tolist()
        vertices, metas = cols.vertices.tolist(), cols.vertex_meta.tolist()
        for ctx in self.world.ranks:
            store = ctx.local_state[self._slot]
            for g in range(offsets[ctx.rank], offsets[ctx.rank + 1]):
                lo, hi = bounds[g], bounds[g + 1]
                store[vertices[g]] = {
                    "meta": metas[g],
                    "adj": dict(zip(partners[lo:hi], edge_metas[lo:hi])),
                }

    def half_edge_columns(self) -> HalfEdgeColumns:
        """The whole graph as :class:`~repro.graph.columnar.HalfEdgeColumns`.

        The bulk DODGr build's one input.  A graph kept as columns
        (:attr:`store_materialised` False) answers with its retained image;
        any other graph flattens its per-rank stores (one pass over the
        vertices, no per-edge Python beyond the partner -> dense index
        lookups).
        """
        if self._image is not None:
            return self._image
        vertices: List[Hashable] = []
        metas: List[Any] = []
        degrees: List[int] = []
        partners: List[Hashable] = []
        edge_metas: List[Any] = []
        offsets = [0]
        for ctx in self.world.ranks:
            for vertex, record in ctx.local_state[self._slot].items():
                vertices.append(vertex)
                metas.append(record["meta"])
                degrees.append(len(record["adj"]))
                partners.extend(record["adj"])
                edge_metas.extend(record["adj"].values())
            offsets.append(len(vertices))
        return HalfEdgeColumns(
            vertices=id_column(vertices),
            vertex_meta=object_column(metas),
            rank_offsets=_np.asarray(offsets, dtype=_np.int64),
            degree=_np.asarray(degrees, dtype=_np.int64),
            tgt=dense_indices(vertices, partners),
            edge_meta=object_column(edge_metas),
        )

    def adopt_columns(self, image: HalfEdgeColumns) -> None:
        """Make ``image`` the whole graph, as :meth:`from_columns` leaves it.

        ``image`` must list the vertices and half edges in store order (see
        :class:`~repro.graph.columnar.HalfEdgeColumns`).  The per-rank record
        dicts are cleared; :meth:`local_store` rebuilds them from the image
        if something asks.  ``DeltaBuffer.apply`` writes every batch this way.
        """
        for ctx in self.world.ranks:
            ctx.local_state[self._slot].clear()
        self._image = image

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
        duplicate-edge overwrite semantics, same self-loop drops — with no
        per-edge Python: the columns are validated, deduplicated and laid
        out rank-major as one :class:`~repro.graph.columnar.HalfEdgeColumns`
        image, and *that* is the graph.  ``DODGraph.build(mode="bulk")`` and
        the size queries (:meth:`num_vertices`, :meth:`num_directed_edges`,
        :meth:`max_degree`, :meth:`rank_vertex_counts`, ...) read the image;
        the per-rank record dicts are built only if something asks for them
        (:meth:`local_store` — any per-vertex read, any mutation such as
        :meth:`add_edge`), after which the image is dropped and the records
        are authoritative (:attr:`store_materialised`).  ``DeltaBuffer.apply``
        merges into the image instead and keeps the graph as columns.
        ``edge_meta`` is a value shared by every edge (the generator
        default); ``edge_metas`` supplies one value per input edge.

        Malformed columns — ragged lengths, non-integer dtype, negative
        ids — raise :class:`ValueError` naming the offending column.  Ids
        that do not fit int64 (Python ints or unsigned arrays ``>= 2**63``)
        are loaded edge by edge through :meth:`from_edges` instead.
        """
        validate_edge_columns(us, vs, edge_metas)
        vertex_meta = vertex_meta or {}
        ids = int64_id_columns(us, vs)
        meta_ids = id_array(list(vertex_meta))
        if ids is None or meta_ids is None:
            # Ids that are not int64 (beyond-range ints, odd vertex_meta keys).
            metas = edge_metas if edge_metas is not None else repeat(edge_meta)
            return cls.from_edges(
                world,
                ((int(u), int(v), meta) for u, v, meta in zip(us, vs, metas)),
                vertex_meta=vertex_meta,
                partitioner=partitioner,
                default_vertex_meta=default_vertex_meta,
                name=name,
            )
        graph = cls(
            world,
            partitioner=partitioner,
            name=name,
            default_vertex_meta=default_vertex_meta,
        )
        keep = _np.flatnonzero(ids[0] != ids[1])
        # The half-edge stream of from_edges: edge i contributes (u_i -> v_i)
        # at position 2i and (v_i -> u_i) at 2i + 1.
        ends = _np.empty(2 * keep.size, dtype=_np.int64)
        ends[0::2], ends[1::2] = ids[0][keep], ids[1][keep]
        uniq, first_seen, inverse = _np.unique(ends, return_index=True, return_inverse=True)
        # Metadata-only vertices join their rank after every endpoint, in
        # vertex_meta order (set_vertex_meta runs after the edge loop).
        known = _np.isin(meta_ids, uniq)
        meta_slot = _np.empty(meta_ids.size, dtype=_np.int64)
        meta_slot[known] = _np.searchsorted(uniq, meta_ids[known])
        meta_slot[~known] = uniq.size + _np.arange(meta_ids.size - int(known.sum()))
        first_seen = _np.concatenate((first_seen, ends.size + _np.flatnonzero(~known)))
        uniq = _np.concatenate((uniq, meta_ids[~known]))
        owners = graph.partitioner.owners_array(uniq).astype(_np.int64)
        # Rank-major, first appearance within a rank: the store insertion order.
        rank_major = _np.lexsort((first_seen, owners))
        dense = _np.empty(uniq.size, dtype=_np.int64)
        dense[rank_major] = _np.arange(uniq.size, dtype=_np.int64)
        vertex_metas = _np.empty(uniq.size, dtype=object)
        vertex_metas.fill(default_vertex_meta)
        vertex_metas[dense[meta_slot]] = object_column(list(vertex_meta.values()))
        src = dense[inverse]
        tgt = src.reshape(-1, 2)[:, ::-1].reshape(-1)
        # Duplicate half edges, as the adjacency dict resolves them: one
        # entry where the pair first appears, holding the last metadata.
        pair_keys = src * _np.int64(uniq.size) + tgt
        by_pair = stable_key_order(pair_keys)
        pair_keys = pair_keys[by_pair]
        head = _np.ones(by_pair.size, dtype=bool)
        head[1:] = pair_keys[1:] != pair_keys[:-1]
        first = by_pair[head]
        # Each vertex's half edges in first-appearance (adjacency dict) order.
        in_store_order = stable_key_order(src[first] * _np.int64(ends.size) + first)
        first = first[in_store_order]
        if edge_metas is None:
            half_edge_metas = _np.empty(first.size, dtype=object)
            half_edge_metas.fill(edge_meta)
        else:
            # A pair's last occurrence sits just before the next pair's head.
            last = by_pair[_np.concatenate((head[1:], [True]))[: head.size]][in_store_order]
            half_edge_metas = object_column(edge_metas)[keep[last >> 1]]
        graph._image = HalfEdgeColumns(
            vertices=uniq[rank_major],
            vertex_meta=vertex_metas,
            rank_offsets=_np.searchsorted(owners[rank_major], _np.arange(world.nranks + 1)),
            degree=_np.bincount(src[first], minlength=uniq.size),
            tgt=tgt[first],
            edge_meta=half_edge_metas,
        )
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
        return sum(self.rank_vertex_counts())

    def num_undirected_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self.num_directed_edges() // 2

    def num_directed_edges(self) -> int:
        """Number of stored half edges — the paper's symmetrized edge count."""
        return sum(self.rank_edge_counts())

    def max_degree(self) -> int:
        if self._image is not None:
            return int(self._image.degree.max(initial=0))
        return max(self.degrees().values(), default=0)

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
        if self._image is not None:
            return _np.diff(self._image.rank_offsets).tolist()
        return [len(self.local_store(r)) for r in range(self.world.nranks)]

    def rank_edge_counts(self) -> List[int]:
        if self._image is not None:
            edges_before = _np.concatenate(([0], _np.cumsum(self._image.degree)))
            return _np.diff(edges_before[self._image.rank_offsets]).tolist()
        return [
            sum(len(rec["adj"]) for rec in self.local_store(rank).values())
            for rank in range(self.world.nranks)
        ]

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
