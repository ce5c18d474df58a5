"""Degree-ordered directed graph (DODGr) with metadata-augmented adjacency.

Section 3/4.2: the undirected input graph G is rewritten into the directed
graph G+ where every undirected edge (u, v) becomes the single directed edge
u -> v with ``u <+ v`` in the degree ordering.  TriPoll stores G+ in a
distributed map keyed by vertex; the value for ``u`` is the pair
``(meta(u), Adj^m_+(u))`` where

    Adj^m_+(u) = { (v, meta(u, v), meta(v)) : v in Adj+(u) }

ordered by degree.  Storing the *target's* metadata along the edge raises
vertex-metadata storage from O(|V|) to O(|E|) but lets a triangle Δpqr be
surveyed without ever visiting r, the highest-degree vertex (the closing
edge (q, r) — and meta(r) — is found in Adj^m_+(q)).

An adjacency entry in this reproduction is ``(v, d(v), meta(u, v), meta(v))``.
The target degree ``d(v)`` is kept because the ``<+`` comparison (and hence
the merge-path intersection order) needs it; this mirrors the "small constant
amount of additional memory per edge" the paper mentions.

Two representations, one of them authoritative at a time:

* the *columns* — one :class:`CSRAdjacency` per rank, every adjacency list
  flattened into contiguous arrays (neighbour order-ids, owners,
  serialized-size prefix sums, metadata columns).  ``DODGraph.build(mode=
  "bulk")`` produces them for all ranks in one array pass straight from the
  graph's :class:`~repro.graph.columnar.HalfEdgeColumns`; they are what the
  production (``columnar``) engine and every size query read, and after a
  bulk build they *are* the graph;
* the *records* behind :meth:`DODGraph.local_store` — one dict per rank
  mapping each vertex to ``{"meta", "degree", "adj": [entries]}``, which the
  ``legacy`` per-wedge oracle walks.  After a bulk build they are a view,
  materialised from the columns on first access and to be treated as
  read-only; ``mode="async"`` — the routed reference build — fills them
  message by message, they are authoritative, and the columns are flattened
  from them on first :meth:`DODGraph.csr` call (as after any later mutation:
  :meth:`DODGraph.sort_adjacency`, an offered edge).

The other object-shaped views — ``CSRAdjacency.entries`` / ``vertex_rows``
and the :meth:`DODGraph.order_ids` dict — are likewise built on first access;
:meth:`DODGraph.materialised_views` reports which exist.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from ..runtime.serialization import int_size_array, serialized_size, uvarint_size
from ..runtime.world import RankContext, World
from .columnar import (
    VALUE_MEMO_EXTRACTORS,
    HalfEdgeColumns,
    ValueColumn,
    ValueMemo,
    dense_indices,
    id_column,
    object_column,
)
from .degree import order_key, order_positions
from .distributed_graph import DistributedGraph
from .ooc import StorageConfig, release_csr_segments, resolve_storage, spill_csr, unspill_csr
from .partition import Partitioner

import numpy as _np

__all__ = ["DODGraph", "CSRAdjacency", "AdjEntry", "entry_key", "VALUE_MEMO_EXTRACTORS"]

#: An Adj^m_+ entry: (target vertex, target degree, edge metadata, target vertex metadata)
AdjEntry = Tuple[Hashable, int, Any, Any]


def entry_key(entry: AdjEntry) -> Tuple[int, int, str]:
    """Sort key ordering adjacency entries by the ``<+`` relation of their target."""
    return order_key(entry[0], entry[1])


class CSRAdjacency:
    """One rank's Adj^m_+ store as flat columns (Section 4.2 layout).

    The in-memory analogue of the packed per-rank adjacency TriPoll's C++
    stores inside its distributed map.  Row ``i`` describes local vertex
    ``row_vertices[i]``; its entries occupy ``indptr[i]:indptr[i + 1]`` in
    every per-edge column.  Constructed from columns only
    (:attr:`COLUMNS`, all keyword arguments); each is stored once and is the
    attribute of that name:

    * per row — ``row_vertices`` (ids: int64, or object for ids that are not
      in-range ints), ``row_meta`` (object), ``row_degree``,
      ``row_order_ids`` (dense rank in the global ``<+`` order),
      ``row_wire_sizes`` (``size(vertex) + size(meta)``) and ``indptr``;
    * per edge — ``tgt_ids``, the target's dense ``<+`` rank (rows are sorted
      ascending and id equality is vertex equality, so kernels intersect rows
      with integer comparisons only); ``tgt_owner``, its owner rank;
      ``tgt_vertex`` / ``tgt_degree`` / ``edge_meta`` / ``tgt_meta``, the four
      fields of the ``(v, d(v), meta(u, v), meta(v))`` entry (kernels match
      on ids, then gather metadata by edge position);
    * exact serialized sizes (``cand_size_cumsum``, ``tgt_wire_sizes``) of
      the fragments a legacy per-wedge push message would carry, so the
      columnar engine accounts the byte-identical Table 4 communication
      volume without serializing each wedge (``tgt_vertex_wire``: the
      ``size(target)`` term of ``tgt_wire_sizes`` alone, which is what a
      dry-run proposal or advise reply carries).

    Integer columns are int64 arrays (``np.memmap`` under ``storage="mmap"``);
    code that indexes them one element at a time should ``.tolist()`` what it
    needs first.  :attr:`entries` (the entry tuples) and :attr:`vertex_rows`
    are views for the scalar oracles, zipped together on first access.

    Two derived views are cached on the snapshot and die with it: the row
    kernels' ``row_adj_cache`` and :meth:`inverted_target_index`.  A rank's
    columns are slices of its DODGr's global ones: row ``i`` is global row
    ``row_base + i`` and edge ``e`` global edge ``edge_base + e``.  Its
    ``value_columns`` read the DODGr's value memos through those slices
    (:meth:`extracted_values`), so a metadata reducer reads each stored
    edge once per snapshot — or, for the edge field of a streamed graph,
    once per stream — instead of once per triangle.
    """

    #: the constructor's keyword arguments, one column each
    COLUMNS = (
        "row_vertices",
        "row_meta",
        "row_degree",
        "row_order_ids",
        "row_wire_sizes",
        "indptr",
        "tgt_vertex",
        "tgt_degree",
        "edge_meta",
        "tgt_meta",
        "tgt_ids",
        "tgt_owner",
        "tgt_wire_sizes",
        "tgt_vertex_wire",
        "cand_size_cumsum",
    )

    __slots__ = COLUMNS + (
        "num_rows",
        "num_edges",
        "_vertex_rows",
        "_entries",
        "row_adj_cache",
        "_inv_index",
        "row_base",
        "edge_base",
        "value_columns",
        "storage",
        "segment_paths",
        "send_scratch",
    )

    def __init__(self, **columns: Any) -> None:
        if set(columns) != set(self.COLUMNS):
            raise TypeError(f"CSRAdjacency takes exactly the columns {self.COLUMNS}")
        for name, column in columns.items():
            setattr(self, name, column)
        self.num_rows = len(self.row_vertices)
        self.num_edges = len(self.tgt_ids)
        self._vertex_rows: Optional[Dict[Hashable, int]] = None
        self._entries: Optional[List[AdjEntry]] = None
        #: slot for the core engine's cached RowAdjacency view of this CSR
        self.row_adj_cache = None
        #: cache slot of :meth:`inverted_target_index`
        self._inv_index = None
        #: where this rank's rows and edges start in its DODGr's global columns
        self.row_base = 0
        self.edge_base = 0
        #: field -> :class:`~repro.graph.columnar.ValueColumn` of
        #: :meth:`extracted_values` (set by the owning DODGr)
        self.value_columns: Optional[Dict[str, ValueColumn]] = None
        #: storage mode of the column arrays ("resident" until spilled) and
        #: the tracked memmap segment files backing them when out-of-core
        self.storage = "resident"
        self.segment_paths: List[str] = []
        #: reusable disk-backed scratch for the columnar driver's staged
        #: send columns under mmap storage (see ooc.stage_send_columns)
        self.send_scratch = None

    @property
    def entries(self) -> List[AdjEntry]:
        """The ``(v, d(v), meta(u, v), meta(v))`` tuples, by edge position (lazy)."""
        if self._entries is None:
            self._entries = list(
                zip(
                    self.tgt_vertex.tolist(),
                    self.tgt_degree.tolist(),
                    self.edge_meta.tolist(),
                    self.tgt_meta.tolist(),
                )
            )
        return self._entries

    @property
    def vertex_rows(self) -> Dict[Hashable, int]:
        """Local vertex -> row index (lazy)."""
        if self._vertex_rows is None:
            self._vertex_rows = dict(zip(self.row_vertices.tolist(), range(self.num_rows)))
        return self._vertex_rows

    # ------------------------------------------------------------------
    @staticmethod
    def _vector_value_sizes(values: List[Any]) -> Optional[Any]:
        """Exact serialized sizes of a homogeneously typed column, or None.

        Handles the column shapes the generators emit — all-float, all-int,
        all-bool or all-None metadata, and fixed-arity tuples of such
        columns (``temporal_edge_meta(ts, label)``) — where per-value wire
        sizes are computable as one array expression; anything mixed or
        otherwise structured returns None and the caller sizes values one
        by one.
        """
        kinds = set(map(type, values))
        if len(kinds) != 1:
            return None
        kind = kinds.pop()
        if kind is float:
            return _np.full(len(values), 9, dtype=_np.int64)  # tag + double
        if kind is int:
            try:
                column = _np.fromiter(values, dtype=_np.int64, count=len(values))
            except OverflowError:  # beyond int64: scalar fallback
                return None
            return int_size_array(column)
        if kind is bool or kind is type(None):
            return _np.ones(len(values), dtype=_np.int64)  # the tag alone
        if kind is tuple:
            arity = len(values[0])
            if set(map(len, values)) != {arity}:
                return None
            sizes = _np.full(len(values), 1 + uvarint_size(arity), dtype=_np.int64)
            for k in range(arity):  # (zip(*values) unpacks one argument per value)
                field_sizes = CSRAdjacency._vector_value_sizes([v[k] for v in values])
                if field_sizes is None:
                    return None
                sizes += field_sizes
            return sizes
        return None

    def inverted_target_index(self):
        """The in-adjacency view: edge positions sorted by target id (cached).

        ``(sorted target ids, their edge positions, row of every edge)``,
        probed with :func:`~repro.core.engine.segments.positions_of_ids` to
        find every local pivot row holding a target (the incremental engine's
        old-old-new join; the columnar pull handler's waiting wedges).  The
        sort is stable: one target's positions come back row-major.
        """
        if self._inv_index is None:
            row_of_edge = _np.repeat(
                _np.arange(self.num_rows, dtype=_np.int64), _np.diff(self.indptr)
            )
            inv_order = _np.argsort(self.tgt_ids, kind="stable")
            self._inv_index = (self.tgt_ids[inv_order], inv_order, row_of_edge)
        return self._inv_index

    def extracted_values(self, extract, field: str, positions):
        """``extract(metadata)`` at ``positions`` as a typed array, or None.

        ``field`` names the metadata column read: ``"edge"`` (``edge_meta``),
        ``"target"`` (``tgt_meta``) or ``"row"`` (``row_meta``).  Values come
        from the DODGr's :class:`~repro.graph.columnar.ValueMemo` of that
        field, which has the typing contract: float64 / int64 arrays of
        exactly what ``extract`` returns, or None for no exact array form.
        The row and target memos live as long as the DODGr; the edge memo is
        indexed by half edge and rides a streamed graph's rebuilds.
        """
        columns = self.value_columns
        return None if columns is None else columns[field].values(extract, positions)

    # ------------------------------------------------------------------
    def row_of(self, vertex: Hashable) -> Optional[int]:
        """Row index of a local vertex, or None when the rank does not own it."""
        return self.vertex_rows.get(vertex)

    def row_slice(self, row: int) -> Tuple[int, int]:
        """Edge-array extent ``[lo, hi)`` of one row."""
        return int(self.indptr[row]), int(self.indptr[row + 1])

    def row_ids(self, row: int):
        """The row's target order-ids (sorted ascending)."""
        lo, hi = self.indptr[row], self.indptr[row + 1]
        return self.tgt_ids[lo:hi]

    def suffix_wire_bytes(self, qpos: int, hi: int) -> int:
        """Serialized bytes of the candidate tuples in edge range ``(qpos, hi)``."""
        return int(self.cand_size_cumsum[hi] - self.cand_size_cumsum[qpos + 1])


def _value_sizes(column: Any) -> Any:
    """Exact serialized size of every value of an id or object column (int64)."""
    if column.dtype == _np.int64:
        return int_size_array(column)
    values = column.tolist()
    sizes = CSRAdjacency._vector_value_sizes(values)
    if sizes is None:  # untyped or mixed values: one serialized_size call each
        sizes = _np.fromiter(map(serialized_size, values), dtype=_np.int64, count=len(values))
    return sizes


class DODGraph:
    """The degree-ordered directed graph G+ with metadata-augmented adjacency."""

    def __init__(
        self,
        world: World,
        partitioner: Partitioner,
        name: Optional[str] = None,
    ) -> None:
        self.world = world
        self.partitioner = partitioner
        if name is None:
            name = world.anonymous_name("dodgr")
        self.name = world.unique_name(name)
        for ctx in world.ranks:
            ctx.local_state.setdefault(self._slot, {})
        self._h_offer_edge = world.register_handler(
            self._handle_offer_edge, f"{self.name}.offer_edge"
        )
        #: every rank's columns in rank order, all built together (bulk build,
        #: or flattened from the records on first use); emptied whenever the
        #: records mutate
        self._csr: List[CSRAdjacency] = []
        #: False while a bulk build's records have not been asked for
        self._records_live = True
        #: lazily built derived views (cleared with the columns)
        self._order_ids: Optional[Dict[Hashable, int]] = None
        self._rows_by_order_id = None
        #: every rank's batch-read columns end to end and the value memos
        #: over them (:meth:`global_columns`); built and dropped with the CSRs
        self._global: Optional[Dict[str, Any]] = None
        #: CSR storage policy; None means resident (today's default)
        self._storage: Optional[StorageConfig] = None
        #: owners sharing this graph (:meth:`retain` / :meth:`release`)
        self._refs = 1

    # ------------------------------------------------------------------
    @property
    def _slot(self) -> str:
        return f"dodgr:{self.name}"

    def owner(self, vertex: Hashable) -> int:
        return self.partitioner.owner(vertex)

    def local_store(self, rank_or_ctx: int | RankContext) -> Dict[Hashable, Dict[str, Any]]:
        """The rank's ``{vertex: {"meta", "degree", "adj"}}`` records.

        After a bulk build the first call materialises every rank's records
        from the columns (sharing their ``entries`` tuples); treat them as
        read-only — the columns stay authoritative until the records are
        mutated through :meth:`sort_adjacency` or an offered edge.
        """
        if not self._records_live:
            self._materialise_records()
        ctx = (
            rank_or_ctx
            if isinstance(rank_or_ctx, RankContext)
            else self.world.rank(rank_or_ctx)
        )
        return ctx.local_state[self._slot]

    def _materialise_records(self) -> None:
        """Columns -> every rank's record dict (rows in store insertion order)."""
        self._records_live = True
        for rank, csr in enumerate(self._csr):
            store = self.world.rank(rank).local_state[self._slot]
            entries, indptr = csr.entries, csr.indptr.tolist()
            rows = zip(csr.row_vertices.tolist(), csr.row_meta.tolist(), csr.row_degree.tolist())
            for row, (vertex, meta, degree) in enumerate(rows):
                store[vertex] = {
                    "meta": meta,
                    "degree": degree,
                    "adj": entries[indptr[row] : indptr[row + 1]],
                }

    def materialised_views(self) -> frozenset:
        """Which object-shaped views exist right now (read-only introspection).

        A subset of ``{"records", "order_ids", "entries"}``: the
        :meth:`local_store` dicts, the :meth:`order_ids` dict, and any rank's
        ``CSRAdjacency.entries`` tuples.  The production engine and the size
        queries need none of them.
        """
        views = set()
        if self._records_live:
            views.add("records")
        if self._order_ids is not None:
            views.add("order_ids")
        if any(csr._entries is not None for csr in self._csr):
            views.add("entries")
        return frozenset(views)

    def _vertex_record(
        self, store: Dict[Hashable, Dict[str, Any]], vertex: Hashable
    ) -> Dict[str, Any]:
        record = store.get(vertex)
        if record is None:
            record = {"meta": None, "degree": 0, "adj": []}
            store[vertex] = record
        return record

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _handle_offer_edge(
        self,
        ctx: RankContext,
        v: Hashable,
        u: Hashable,
        d_u: int,
        meta_u: Any,
        edge_meta: Any,
    ) -> None:
        """Executed on the owner of ``v`` for every half edge (u -> v) of G.

        The owner knows d(v) and meta(v) locally; if ``v <+ u`` the directed
        edge (v, u) belongs to Adj^m_+(v) and all of its metadata is at hand.
        """
        store = self.local_store(ctx)
        record = store.get(v)
        if record is None:
            # v had no presence yet (can only happen for isolated metadata
            # updates); materialise it so degree comparisons stay defined.
            record = self._vertex_record(store, v)
        d_v = record["degree"]
        if order_key(v, d_v) < order_key(u, d_u):
            record["adj"].append((u, d_u, edge_meta, meta_u))
            self._invalidate_derived()
            ctx.add_compute(1)

    @classmethod
    def build(
        cls,
        graph: DistributedGraph,
        mode: str = "bulk",
        name: Optional[str] = None,
        phase_name: Optional[str] = None,
    ) -> "DODGraph":
        """Construct G+ from an undirected :class:`DistributedGraph`.

        Parameters
        ----------
        graph:
            The decorated undirected input graph.
        mode:
            ``"bulk"`` (the default) builds every rank's
            :class:`CSRAdjacency` columns on the driver in one array pass
            over ``graph.half_edge_columns()``: dense ``<+`` positions from
            one :func:`~repro.graph.degree.order_positions` argsort,
            orientation of every half edge as one array comparison, all
            adjacency lists in final order from one sort, ranks cut by
            offset, wire sizes computed per column — no per-edge Python, and
            :meth:`csr` afterwards is a lookup.  The columns are
            authoritative; :meth:`local_store`, :meth:`order_ids` and
            ``CSRAdjacency.entries`` materialise from them on first access.
            ``"async"`` routes every half edge through the simulated runtime
            exactly as the MPI implementation would, charging the traffic to
            the construction phase, and fills the record store, which is
            then authoritative (columns are flattened from it on first use);
            it is the reference the golden-parity tests hold ``"bulk"`` to.
            Both produce bit-identical graphs: same columns, same store
            insertion order, same adjacency tuples in the same
            ``<+``-sorted order, same :meth:`order_ids`.
        """
        if mode not in ("bulk", "async"):
            raise ValueError(f"unknown build mode {mode!r}")
        dodgr = cls(graph.world, graph.partitioner, name=name)
        world = graph.world
        if mode == "bulk":
            dodgr._adopt_half_edges(graph.half_edge_columns())
            return dodgr

        # Seed local records with each vertex's metadata and full degree so
        # the <+ comparison can be evaluated locally on the owner.
        for rank in range(world.nranks):
            store = dodgr.local_store(rank)
            for u, record in graph.local_vertices(rank):
                store[u] = {"meta": record["meta"], "degree": len(record["adj"]), "adj": []}
        world.begin_phase(phase_name or f"{dodgr.name}.build")
        for ctx in world.ranks:
            graph_store = graph.local_store(ctx)
            for u, record in graph_store.items():
                d_u = len(record["adj"])
                meta_u = record["meta"]
                for v, edge_meta in record["adj"].items():
                    ctx.async_call_sized(
                        dodgr.owner(v), dodgr._h_offer_edge, v, u, d_u, meta_u, edge_meta
                    )
        world.barrier()
        dodgr.sort_adjacency()
        return dodgr

    def _adopt_half_edges(self, graph: HalfEdgeColumns) -> None:
        """Half-edge columns -> every rank's columns (mode ``"bulk"``).

        The half edge stored at ``u`` for partner ``v`` becomes the entry for
        ``u`` in row ``v`` when ``v <+ u`` — the async build's offer of
        ``(u -> v)`` to the owner of ``v``, metadata taken from ``u``'s side.
        """
        positions, _ = order_positions(graph.vertices, graph.degree)
        src = _np.repeat(_np.arange(positions.size, dtype=_np.int64), graph.degree)
        keep = _np.flatnonzero(positions[graph.tgt] < positions[src])
        row, tgt = graph.tgt[keep], src[keep]
        # Row-major, each row in the <+ order of its targets (keys are unique).
        sorter = _np.argsort(row * _np.int64(positions.size) + positions[tgt])
        tgt, picked = tgt[sorter], keep[sorter]
        sizes = graph.edge_meta_sizes
        self._install_columns(
            graph.vertices,
            graph.vertex_meta,
            graph.degree,
            graph.rank_offsets,
            positions,
            out_degree=_np.bincount(row, minlength=positions.size),
            tgt=tgt,
            tgt_degree=graph.degree[tgt],
            edge_meta=graph.edge_meta[picked],
            tgt_meta=graph.vertex_meta[tgt],
            edge_meta_sizes=None if sizes is None else sizes[picked],
            # The image's half-edge memo, read through CSR edge -> half edge.
            edge_values=graph.edge_values,
            edge_slots=picked,
        )
        self._records_live = False

    def _flatten_records(self) -> None:
        """Record store -> every rank's columns (the store is authoritative)."""
        vertices: List[Hashable] = []
        metas: List[Any] = []
        degrees: List[int] = []
        out_degree: List[int] = []
        entries: List[AdjEntry] = []
        offsets = [0]
        for ctx in self.world.ranks:
            for vertex, record in ctx.local_state[self._slot].items():
                vertices.append(vertex)
                metas.append(record["meta"])
                degrees.append(record["degree"])
                out_degree.append(len(record["adj"]))
                entries.extend(record["adj"])
            offsets.append(len(vertices))
        targets, tgt_degree, edge_meta, tgt_meta = zip(*entries) if entries else ((),) * 4
        ids = id_column(vertices)
        degree = _np.asarray(degrees, dtype=_np.int64)
        self._install_columns(
            ids,
            object_column(metas),
            degree,
            _np.asarray(offsets, dtype=_np.int64),
            order_positions(ids, degree)[0],
            out_degree=_np.asarray(out_degree, dtype=_np.int64),
            tgt=dense_indices(vertices, targets),
            tgt_degree=_np.asarray(tgt_degree, dtype=_np.int64),
            edge_meta=object_column(edge_meta),
            tgt_meta=object_column(tgt_meta),
        )

    def _install_columns(
        self,
        vertices,
        vertex_meta,
        degree,
        rank_offsets,
        positions,
        out_degree,
        tgt,
        tgt_degree,
        edge_meta,
        tgt_meta,
        edge_meta_sizes=None,
        edge_values=None,
        edge_slots=None,
    ) -> None:
        """Size the global row-major columns and cut them into per-rank CSRs.

        The first five columns are per vertex (rank-major, as
        :class:`~repro.graph.columnar.HalfEdgeColumns` lists them) plus
        ``out_degree``; the rest per directed edge, rows end to end, ``tgt``
        being the target's dense vertex index.  ``edge_meta`` is sized here
        unless ``edge_meta_sizes`` already holds its values' sizes.  A rank's
        columns are slices of the global ones, so nothing per-edge is copied.
        ``edge_values`` is the memo of an image's half edges, read at
        ``edge_slots`` (each edge's half edge); without one this graph
        memoises its own edge values.
        """
        vertex_size = _value_sizes(vertices)
        size_target = vertex_size[tgt]
        size_meta = _value_sizes(edge_meta) if edge_meta_sizes is None else edge_meta_sizes
        # One candidate tuple (r, d(r), meta(p, r)) on the legacy wire: 2
        # framing bytes (tuple tag + arity) plus its fields.
        candidate = 2 + size_target + int_size_array(tgt_degree) + size_meta
        cand_cumsum = _np.concatenate(([0], _np.cumsum(candidate)))
        indptr = _np.concatenate(([0], _np.cumsum(out_degree)))
        nranks = self.world.nranks
        owner = _np.repeat(_np.arange(nranks, dtype=_np.int64), _np.diff(rank_offsets))
        per_row = {
            "row_vertices": vertices,
            "row_meta": vertex_meta,
            "row_degree": degree,
            "row_order_ids": positions,
            "row_wire_sizes": vertex_size + _value_sizes(vertex_meta),
        }
        per_edge = {
            "tgt_vertex": vertices[tgt],
            "tgt_degree": tgt_degree,
            "edge_meta": edge_meta,
            "tgt_meta": tgt_meta,
            "tgt_ids": positions[tgt],
            "tgt_owner": owner[tgt],
            "tgt_wire_sizes": size_target + size_meta,
            "tgt_vertex_wire": size_target,
        }
        values = {
            "row": ValueColumn(ValueMemo(len(vertices)), vertex_meta),
            "target": ValueColumn(ValueMemo(len(tgt)), tgt_meta),
            "edge": (
                ValueColumn(ValueMemo(len(tgt)), edge_meta)
                if edge_values is None
                else ValueColumn(edge_values, edge_meta, edge_slots)
            ),
        }
        self._global = {
            "row_vertices": vertices,
            "row_meta": vertex_meta,
            "tgt_vertex": per_edge["tgt_vertex"],
            "edge_meta": edge_meta,
            "tgt_meta": tgt_meta,
            "values": values,
        }
        for rank in range(nranks):
            row_lo, row_hi = int(rank_offsets[rank]), int(rank_offsets[rank + 1])
            lo, hi = int(indptr[row_lo]), int(indptr[row_hi])
            csr = CSRAdjacency(
                indptr=indptr[row_lo : row_hi + 1] - lo,
                cand_size_cumsum=cand_cumsum[lo : hi + 1] - cand_cumsum[lo],
                **{name: column[row_lo:row_hi] for name, column in per_row.items()},
                **{name: column[lo:hi] for name, column in per_edge.items()},
            )
            csr.row_base, csr.edge_base = row_lo, lo
            csr.value_columns = {
                field: ValueColumn(column.memo, column.metas, column.slots, base)
                for (field, column), base in zip(values.items(), (row_lo, lo, lo))
            }
            self._csr.append(csr)

    def sort_adjacency(self) -> None:
        """Sort every Adj^m_+ list by the ``<+`` order of the target vertex."""
        for rank in range(self.world.nranks):
            for record in self.local_store(rank).values():
                record["adj"].sort(key=entry_key)
        self._invalidate_derived()

    # ------------------------------------------------------------------
    # Columns and the views derived from them
    # ------------------------------------------------------------------
    def _invalidate_derived(self) -> None:
        """The records changed: they are authoritative, the columns are stale."""
        if not self._records_live:  # a bulk build's records must exist before its columns go
            self._materialise_records()
        self._drop_columns()

    def _drop_columns(self) -> None:
        for snapshot in self._csr:
            release_csr_segments(snapshot)
            snapshot.value_columns = None
        self._csr = []
        self._global = None
        self._order_ids = None
        self._rows_by_order_id = None

    def _snapshots(self) -> List[CSRAdjacency]:
        """Every rank's columns in rank order, flattened from the records if stale."""
        if not self._csr:
            self._flatten_records()
        return self._csr

    def global_columns(self) -> Dict[str, Any]:
        """Every rank's columns a triangle batch reads, end to end.

        ``row_vertices`` / ``row_meta`` per row and ``tgt_vertex`` /
        ``edge_meta`` / ``tgt_meta`` per edge, rank-major: a rank CSR's row
        ``i`` is global row ``csr.row_base + i`` and its edge ``e`` global
        edge ``csr.edge_base + e``, so a batch spanning several source ranks
        gathers each column once.  ``values`` maps ``"row"`` / ``"target"`` /
        ``"edge"`` to the :class:`~repro.graph.columnar.ValueColumn` over the
        same global positions.  These are the arrays the CSRs slice, so
        nothing is copied; they are dropped with the columns.
        """
        self._snapshots()
        return self._global

    def order_ids(self) -> Dict[Hashable, int]:
        """Dense integer ranks of every vertex in the global ``<+`` order.

        ``id(u) < id(v)`` iff ``u <+ v`` and id equality implies vertex
        identity, which collapses the composite ``(degree, hash, repr)``
        comparison into single-int comparisons.  The columns carry the same
        ids as arrays (``row_order_ids`` / ``tgt_ids``); this vertex-keyed
        dict is a view for the scalar oracles, built on first access in
        ascending id order and cached.
        """
        if self._order_ids is None:
            snapshots = self._snapshots()
            vertices = [v for snapshot in snapshots for v in snapshot.row_vertices.tolist()]
            order = _np.argsort(_np.concatenate([s.row_order_ids for s in snapshots]))
            self._order_ids = {vertices[g]: k for k, g in enumerate(order.tolist())}
        return self._order_ids

    def order_count(self) -> int:
        """Number of dense ``<+`` order ids (the columnar composite-key stride)."""
        return self.num_vertices()

    def rows_by_order_id(self):
        """Order-id → owner-local CSR row index, as one global int64 array.

        Every vertex is stored on exactly one rank, so a single array of
        length :meth:`order_count` maps any target's dense ``<+`` id to its
        row inside the *owning* rank's :class:`CSRAdjacency` — the lookup the
        columnar intersect handler does per wedge without a dict probe.
        Built lazily from the columns and invalidated with them.
        """
        if self._rows_by_order_id is None:
            out = _np.empty(self.order_count(), dtype=_np.int64)
            for snapshot in self._snapshots():
                out[snapshot.row_order_ids] = _np.arange(snapshot.num_rows, dtype=_np.int64)
            self._rows_by_order_id = out
        return self._rows_by_order_id

    # ------------------------------------------------------------------
    # Storage policy (out-of-core CSR)
    # ------------------------------------------------------------------
    def configure_storage(self, storage) -> "StorageConfig":
        """Set how CSR snapshots store their column arrays.

        ``storage`` is a mode string (``"resident"``/``"mmap"``), a
        :class:`~repro.graph.ooc.StorageConfig` (for a budget/directory), or
        ``None`` to reset to resident.  Snapshots spilled under ``"mmap"``
        are read back (their segment files unlinked) when the mode returns
        to resident; resident ones spill on their next :meth:`csr` call.
        """
        if storage is None or isinstance(storage, str):
            config = StorageConfig(mode=resolve_storage(storage))
        elif isinstance(storage, StorageConfig):
            config = storage.with_mode(storage.mode)
        else:
            raise TypeError(
                f"storage must be a mode string or StorageConfig, got {storage!r}"
            )
        self._storage = config
        if config.mode == "resident":
            for snapshot in self._csr:
                unspill_csr(snapshot)
        return config

    def storage_config(self) -> "StorageConfig":
        """The active CSR storage policy (resident unless configured)."""
        return self._storage if self._storage is not None else StorageConfig()

    def chunk_candidates(self) -> Optional[int]:
        """Candidate-stream chunk length the engine drivers should honour.

        ``None`` (resident storage) means unchunked — one batch per
        destination, today's exact behaviour.  Under mmap storage this bounds
        the concatenated candidate arrays a driver or intersect handler
        materializes at once, which is what keeps the survey's transient
        working set under the configured budget while the spilled columns
        page in from disk.
        """
        return self.storage_config().resolved_chunk_candidates()

    def csr(self, rank_or_ctx: int | RankContext) -> CSRAdjacency:
        """The rank's :class:`CSRAdjacency` columns.

        A lookup after a bulk build; flattened from the records (all ranks
        at once, then cached) when those are authoritative — after
        ``mode="async"``, or once the records mutated (new edges offered,
        adjacency re-sorted).  Under an ``"mmap"`` storage policy
        (:meth:`configure_storage`) the snapshot's integer per-edge columns
        are spilled to tracked memmap segment files on the first call;
        :meth:`release` (and any invalidation) unlinks them.
        """
        rank = rank_or_ctx.rank if isinstance(rank_or_ctx, RankContext) else rank_or_ctx
        snapshot = self._snapshots()[rank]
        config = self.storage_config()
        if config.mode == "mmap" and snapshot.storage != "mmap":
            spill_csr(snapshot, self.order_count(), config)
        return snapshot

    def retain(self) -> "DODGraph":
        """Add an owner: the graph now survives one more :meth:`release`.

        A graph starts with one owner, its builder.  The survey service
        retains each epoch's graph from its streaming ledger, so a query
        pinned to an epoch keeps it alive after the ledger lets it go.
        """
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one owner; the last one frees the graph, unusable after.

        Streaming surveys rebuild the DODGr once per batch — without this,
        every superseded rebuild stays pinned for the world's lifetime by
        its construction handler and per-rank store slots.  Freeing
        tombstones the handler (id allocation, and therefore every accounted
        message size, is unchanged — see
        :meth:`~repro.runtime.rpc.RpcRegistry.release`) and drops the rank
        stores, the columns, the global views over them, the value-memo
        references (a streamed image's edge memo has moved on by then) and
        every derived view.
        """
        self._refs -= 1
        if self._refs > 0:
            return
        self.world.registry.release(self._h_offer_edge)
        for ctx in self.world.ranks:
            ctx.local_state.pop(self._slot, None)
        self._records_live = True
        self._drop_columns()

    # ------------------------------------------------------------------
    # Queries (answered from the columns; none materialises a view)
    # ------------------------------------------------------------------
    def num_vertices(self) -> int:
        return sum(snapshot.num_rows for snapshot in self._snapshots())

    def num_directed_edges(self) -> int:
        return sum(self.rank_edge_counts())

    def rank_edge_counts(self) -> List[int]:
        return [snapshot.num_edges for snapshot in self._snapshots()]

    def _out_degrees(self) -> Any:
        """d+(v) of every vertex, rank-major."""
        return _np.concatenate([_np.diff(snapshot.indptr) for snapshot in self._snapshots()])

    def max_out_degree(self) -> int:
        return int(self._out_degrees().max(initial=0))

    def wedge_count(self) -> int:
        """|W+|: the number of wedge checks the push algorithm will generate.

        Each pivot p contributes C(d+(p), 2) candidate checks (Section 4.3).
        """
        degrees = self._out_degrees()
        return int((degrees * (degrees - 1) // 2).sum())

    def _row_of(self, vertex: Hashable) -> Tuple[CSRAdjacency, Optional[int]]:
        snapshot = self._snapshots()[self.owner(vertex)]
        return snapshot, snapshot.row_of(vertex)

    def out_degree(self, vertex: Hashable) -> int:
        snapshot, row = self._row_of(vertex)
        return 0 if row is None else int(snapshot.indptr[row + 1] - snapshot.indptr[row])

    def degree(self, vertex: Hashable) -> int:
        snapshot, row = self._row_of(vertex)
        return 0 if row is None else int(snapshot.row_degree[row])

    def vertex_meta(self, vertex: Hashable) -> Any:
        snapshot, row = self._row_of(vertex)
        if row is None:
            raise KeyError(f"vertex {vertex!r} not in DODGr")
        return snapshot.row_meta[row]

    def adjacency(self, vertex: Hashable) -> List[AdjEntry]:
        snapshot, row = self._row_of(vertex)
        if row is None:
            return []
        lo, hi = snapshot.row_slice(row)
        return snapshot.entries[lo:hi]

    def local_vertices(self, rank: int) -> Iterator[Tuple[Hashable, Dict[str, Any]]]:
        yield from self.local_store(rank).items()

    def vertices(self) -> Iterator[Hashable]:
        for rank in range(self.world.nranks):
            yield from self.local_store(rank).keys()

    def directed_edges(self) -> Iterator[Tuple[Hashable, Hashable]]:
        for rank in range(self.world.nranks):
            for u, record in self.local_store(rank).items():
                for entry in record["adj"]:
                    yield (u, entry[0])

    # ------------------------------------------------------------------
    def visit(self, ctx: RankContext, vertex: Hashable, func, *args: Any) -> None:
        """Send an RPC to the owner of ``vertex`` (DODGr.visit of Section 4.2).

        ``func(ctx, vertex, *args)`` executes on the owning rank where the
        vertex's record (metadata + Adj^m_+) is available via
        :meth:`local_store`.
        """
        ctx.async_call(self.owner(vertex), func, vertex, *args)
