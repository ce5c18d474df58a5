"""Degree-ordered directed graph (DODGr) with metadata-augmented adjacency.

Section 3/4.2: the undirected input graph G is rewritten into the directed
graph G+ where every undirected edge (u, v) becomes the single directed edge
u -> v with ``u <+ v`` in the degree ordering (Pearce, *Triangle counting
for scale-free graphs at scale in distributed memory*, HPEC 2017).  TriPoll
stores G+ in a distributed map keyed by vertex; the value for ``u`` is the
pair ``(meta(u), Adj^m_+(u))`` where

    Adj^m_+(u) = { (v, meta(u, v), meta(v)) : v in Adj+(u) }

ordered by degree.  Storing the *target's* metadata along the edge raises
vertex-metadata storage from O(|V|) to O(|E|) but lets a triangle Δpqr be
surveyed without ever visiting r, the highest-degree vertex (the closing
edge (q, r) — and meta(r) — is found in Adj^m_+(q)).

An adjacency entry in this reproduction is ``(v, d(v), meta(u, v), meta(v))``.
The target degree ``d(v)`` is kept because the ``<+`` comparison (and hence
the merge-path intersection order) needs it; this mirrors the "small constant
amount of additional memory per edge" the paper mentions.

The graph is its columns: one :class:`CSRAdjacency` per rank, every
adjacency list flattened into contiguous arrays (neighbour order-ids,
owners, serialized-size prefix sums, metadata columns).
:meth:`DODGraph.build` produces them for all ranks in one array pass
straight from the graph's :class:`~repro.graph.columnar.HalfEdgeColumns`,
and nothing changes them afterwards.  The object-shaped views the scalar
oracle walks — per-rank ``{"meta", "degree", "adj"}`` records, the entry
tuples, the vertex-keyed ``<+`` id dict — and the routed reference build
live in :mod:`repro.oracle`, derived from these columns.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..runtime.serialization import int_size_array, serialized_size, uvarint_size
from ..runtime.world import RankContext, World, stable_key_order
from .columnar import HalfEdgeColumns, ValueColumn, ValueMemo
from .degree import order_positions
from .distributed_graph import DistributedGraph
from .ooc import StorageConfig, release_csr_segments, resolve_storage, spill_csr, unspill_csr
from .partition import Partitioner

import numpy as _np

__all__ = ["DODGraph", "CSRAdjacency"]


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
    needs first.

    Two derived views are cached on the snapshot and die with it: the row
    kernels' ``row_adj_cache`` and :meth:`inverted_target_index`.  A rank's
    columns are slices of its DODGr's global ones: row ``i`` is global row
    ``row_base + i`` and edge ``e`` global edge ``edge_base + e``.  Its
    ``value_columns`` read the DODGr's value memos through those slices
    (:meth:`extracted_values`), so a metadata reducer extracts each stored
    edge and vertex value once per snapshot — once per stream for a
    streamed graph — instead of once per triangle.
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

    def inverted_target_index(self, order_count: int):
        """The in-adjacency view: edge positions grouped by target id (cached).

        ``(offsets, positions, row_of_edge)``: ``positions`` lists the edge
        positions sorted by target id (stably, so one target's positions
        come back row-major), ``offsets`` — ``order_count + 1`` slots, the
        owning DODGr's :meth:`~DODGraph.order_count` plus one — delimits
        target ``t``'s run as ``positions[offsets[t]:offsets[t + 1]]``, and
        ``row_of_edge`` is the row of every edge.  Probed with
        :func:`~repro.core.engine.segments.positions_of_ids` to find every
        local pivot row holding a target by offset (the incremental engine's
        old-old-new join; the columnar pull handler's waiting wedges).
        """
        cached = self._inv_index
        if cached is None or cached[0].size != order_count + 1:
            row_of_edge = _np.repeat(
                _np.arange(self.num_rows, dtype=_np.int64), _np.diff(self.indptr)
            )
            counts = _np.bincount(self.tgt_ids, minlength=order_count)
            offsets = _np.concatenate(([0], _np.cumsum(counts)))
            cached = self._inv_index = (offsets, stable_key_order(self.tgt_ids), row_of_edge)
        return cached

    def extracted_values(self, extract, field: str, positions):
        """``extract(metadata)`` at ``positions`` as a typed array, or None.

        ``field`` names the metadata column read: ``"edge"`` (``edge_meta``),
        ``"target"`` (``tgt_meta``) or ``"row"`` (``row_meta``).  Values come
        from the DODGr's :class:`~repro.graph.columnar.ValueMemo` of that
        field, which has the typing contract: float64 / int64 arrays of
        exactly what ``extract`` returns, or None for no exact array form.
        Row and target read one memo indexed by vertex (a target through
        its vertex's slot), the edge memo is indexed by half edge, and both
        ride a streamed graph's rebuilds.
        """
        columns = self.value_columns
        return None if columns is None else columns[field].values(extract, positions)

    # ------------------------------------------------------------------
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


def _id_slot(name: str):
    """The callable behind a DODGr's ``offer_edge`` handler id: never invoked."""

    def offer_edge(ctx: RankContext, *args: Any) -> None:
        raise RuntimeError(
            f"{name}.offer_edge only reserves a handler id; the routed build is "
            "repro.oracle.routed_build"
        )

    return offer_edge


class DODGraph:
    """The degree-ordered directed graph G+ with metadata-augmented adjacency.

    Built by :meth:`build` and read-only afterwards; :meth:`release` frees it.
    """

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
        # One handler id per graph, never invoked: every later handler id —
        # and so every accounted message size — counts this allocation.
        self._h_offer_edge = world.register_handler(
            _id_slot(self.name), f"{self.name}.offer_edge"
        )
        #: every rank's columns in rank order, all built together
        self._csr: List[CSRAdjacency] = []
        self._rows_by_order_id = None
        #: every rank's batch-read columns end to end and the value memos
        #: over them (:meth:`global_columns`)
        self._global: Optional[Dict[str, Any]] = None
        #: CSR storage policy; None means resident (today's default)
        self._storage: Optional[StorageConfig] = None
        #: owners sharing this graph (:meth:`retain` / :meth:`release`)
        self._refs = 1

    # ------------------------------------------------------------------
    def owner(self, vertex: Hashable) -> int:
        return self.partitioner.owner(vertex)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DistributedGraph,
        mode: str = "bulk",
        name: Optional[str] = None,
    ) -> "DODGraph":
        """Construct G+ from an undirected :class:`DistributedGraph`.

        Every rank's :class:`CSRAdjacency` columns are built on the driver in
        one array pass over ``graph.half_edge_columns()``: dense ``<+``
        positions from one :func:`~repro.graph.degree.order_positions`
        argsort, orientation of every half edge as one array comparison, all
        adjacency lists in final order from one
        :func:`~repro.runtime.world.stable_key_order`, ranks cut by offset,
        wire sizes computed per column — no per-edge Python, and :meth:`csr`
        afterwards is a lookup.  ``mode`` is ``"bulk"``, the only build; the
        routed build that sends every half edge through the runtime is the
        oracle's (:func:`repro.oracle.routed_build`), which the parity tests
        hold this one to.
        """
        if mode != "bulk":
            raise ValueError(
                f"unknown build mode {mode!r}: DODGraph.build is bulk only; the routed "
                "build is repro.oracle.routed_build"
            )
        dodgr = cls(graph.world, graph.partitioner, name=name)
        dodgr._adopt_half_edges(graph.half_edge_columns())
        return dodgr

    def _adopt_half_edges(self, graph: HalfEdgeColumns) -> None:
        """Half-edge columns -> the global row-major columns, cut per rank.

        The half edge stored at ``u`` for partner ``v`` becomes the entry for
        ``u`` in row ``v`` when ``v <+ u`` — the routed build's offer of
        ``(u -> v)`` to the owner of ``v``, metadata taken from ``u``'s side.
        Rows are vertices, rank-major as the image lists them.  The edge
        metadata is sized here unless the image carries its sizes; the value
        memos are the image's, the edge memo read through each edge's half
        edge (``picked``) and the vertex memo by row and through each edge's
        target (``tgt``), so a streamed graph's memos ride its rebuilds.  A
        rank's columns are slices of the global ones, so nothing per-edge is
        copied.
        """
        vertices, vertex_meta, degree = graph.vertices, graph.vertex_meta, graph.degree
        positions, _ = order_positions(vertices, degree)
        src = _np.repeat(_np.arange(positions.size, dtype=_np.int64), degree)
        keep = _np.flatnonzero(positions[graph.tgt] < positions[src])
        row, tgt = graph.tgt[keep], src[keep]
        # Row-major, each row in the <+ order of its targets (keys are unique).
        sorter = stable_key_order(row * _np.int64(positions.size) + positions[tgt])
        tgt, picked = tgt[sorter], keep[sorter]
        tgt_degree, edge_meta, tgt_meta = degree[tgt], graph.edge_meta[picked], vertex_meta[tgt]
        vertex_size = _value_sizes(vertices)
        size_target = vertex_size[tgt]
        sizes = graph.edge_meta_sizes
        size_meta = _value_sizes(edge_meta) if sizes is None else sizes[picked]
        # One candidate tuple (r, d(r), meta(p, r)) on the legacy wire: 2
        # framing bytes (tuple tag + arity) plus its fields.
        candidate = 2 + size_target + int_size_array(tgt_degree) + size_meta
        cand_cumsum = _np.concatenate(([0], _np.cumsum(candidate)))
        indptr = _np.concatenate(([0], _np.cumsum(_np.bincount(row, minlength=positions.size))))
        nranks, rank_offsets = self.world.nranks, graph.rank_offsets
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
        vertex_values = graph.vertex_values or ValueMemo(len(vertices))
        values = {
            "row": ValueColumn(vertex_values, vertex_meta),
            "target": ValueColumn(vertex_values, tgt_meta, tgt),
            "edge": (
                ValueColumn(ValueMemo(len(tgt)), edge_meta)
                if graph.edge_values is None
                else ValueColumn(graph.edge_values, edge_meta, picked)
            ),
        }
        self._global = {
            "row_vertices": vertices,
            "row_meta": vertex_meta,
            "indptr": indptr,
            "tgt_ids": per_edge["tgt_ids"],
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

    # ------------------------------------------------------------------
    # Columns and the views derived from them
    # ------------------------------------------------------------------
    def _snapshots(self) -> List[CSRAdjacency]:
        """Every rank's columns in rank order; a released graph has none."""
        if self._refs <= 0:
            raise RuntimeError(f"DODGr {self.name!r} has been released")
        return self._csr

    def global_columns(self) -> Dict[str, Any]:
        """Every rank's columns a triangle batch or a row kernel reads, end to end.

        ``row_vertices`` / ``row_meta`` / ``indptr`` per row and ``tgt_ids``
        / ``tgt_vertex`` / ``edge_meta`` / ``tgt_meta`` per edge, rank-major:
        a rank CSR's row ``i`` is global row ``csr.row_base + i`` and its edge
        ``e`` global edge ``csr.edge_base + e``, so a batch or a kernel call
        spanning several source ranks reads each column once.  ``values`` maps
        ``"row"`` / ``"target"`` / ``"edge"`` to the
        :class:`~repro.graph.columnar.ValueColumn` over the same global
        positions.  These are the arrays the CSRs slice, so nothing is
        copied; :meth:`release` drops them, ``"mmap"`` storage ``tgt_ids``.
        """
        self._snapshots()
        return self._global

    def row_frame(self, csr: CSRAdjacency) -> Tuple[Any, Any, int, int]:
        """``(keys, adjacency, row shift, edge shift)``: where row kernels read ``csr``.

        Resident snapshots share the global ``tgt_ids`` and one cached
        :class:`~repro.core.intersection.RowAdjacency` over the global
        columns (shifted by their bases); a spilled one reads its memmaps."""
        if csr.storage == "mmap":
            return csr.tgt_ids, csr.row_adj_cache, 0, 0
        columns = self.global_columns()
        if "adjacency" not in columns:
            from ..core.intersection import RowAdjacency  # deferred: core imports graph

            if "tgt_ids" not in columns:  # back from a spill: the ranks' ids end to end
                keys = columns["tgt_ids"] = _np.concatenate([s.tgt_ids for s in self._csr])
                for s in self._csr:
                    s.tgt_ids = keys[s.edge_base : s.edge_base + s.num_edges]
            columns["adjacency"] = RowAdjacency(
                columns["tgt_ids"], columns["indptr"], self.order_count()
            )
        adjacency = columns["adjacency"]
        return adjacency.keys, adjacency, csr.row_base, csr.edge_base

    def order_count(self) -> int:
        """Number of dense ``<+`` order ids (the columnar composite-key stride)."""
        return self.num_vertices()

    def rows_by_order_id(self):
        """Order-id → owner-local CSR row index, as one global int64 array.

        Every vertex is stored on exactly one rank, so a single array of
        length :meth:`order_count` maps any target's dense ``<+`` id to its
        row inside the *owning* rank's :class:`CSRAdjacency` — the lookup the
        columnar intersect handler does per wedge without a dict probe.
        Built from the columns on first use.
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
        elif self._global is not None:  # the spilled memmaps hold the ids
            self._global.pop("tgt_ids", None)
            self._global.pop("adjacency", None)
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
        """The rank's :class:`CSRAdjacency` columns (a lookup).

        Under an ``"mmap"`` storage policy (:meth:`configure_storage`) the
        snapshot's integer per-edge columns are spilled to tracked memmap
        segment files on the first call; :meth:`release` unlinks them.
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
        self._snapshots()
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one owner; the last one frees the graph, unusable after.

        Streaming surveys rebuild the DODGr once per batch — without this,
        every superseded rebuild stays pinned for the world's lifetime by
        its handler slot.  Freeing tombstones the handler (id allocation,
        and therefore every accounted message size, is unchanged — see
        :meth:`~repro.runtime.rpc.RpcRegistry.release`) and drops the
        columns, their segment files, the global views over them and the
        value-memo references.  Every later read raises
        :class:`RuntimeError`; releasing a freed graph again does nothing.
        """
        if self._refs <= 0:
            return
        self._refs -= 1
        if self._refs > 0:
            return
        self.world.registry.release(self._h_offer_edge)
        for snapshot in self._csr:
            release_csr_segments(snapshot)
            snapshot.value_columns = None
        self._csr = []
        self._global = None
        self._rows_by_order_id = None

    # ------------------------------------------------------------------
    # Size queries (answered from the columns)
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
