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

Adjacency entries in this reproduction are tuples

    (v, d(v), meta(u, v), meta(v))

The target degree ``d(v)`` is kept because the ``<+`` comparison (and hence
the merge-path intersection order) needs it; this mirrors the "small constant
amount of additional memory per edge" the paper mentions.

Two views of the same store coexist:

* the *record* view behind :meth:`DODGraph.local_store` — one dict per rank
  mapping each vertex to ``{"meta", "degree", "adj"}``, mutable during
  construction; this is what the legacy per-wedge survey walks, and
* a *CSR* view behind :meth:`DODGraph.csr` — per-rank
  :class:`CSRAdjacency` snapshots flattening every adjacency list into
  contiguous arrays (neighbour order-ids, owners, serialized-size prefix
  sums, metadata indices), built lazily once construction is finished.  The
  batched survey engine iterates and intersects over these arrays.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from ..runtime.serialization import int_size_array, serialized_size, uvarint_size
from ..runtime.world import RankContext, World
from .columnar import group_slices
from .degree import order_key, order_positions
from .distributed_graph import DistributedGraph
from .ooc import StorageConfig, release_csr_segments, resolve_storage, spill_csr
from .partition import Partitioner

import numpy as _np

__all__ = ["DODGraph", "CSRAdjacency", "AdjEntry", "entry_key"]

#: An Adj^m_+ entry: (target vertex, target degree, edge metadata, target vertex metadata)
AdjEntry = Tuple[Hashable, int, Any, Any]


#: Extractors memoised per CSR by :meth:`CSRAdjacency.extracted_values`
#: (oldest dropped first).  Each costs 9 bytes per stored position and field
#: it is read from (0.5 MB for the rmat-13 closure survey's 55 529 edges); the
#: service's analyses put three on one snapshot (``edge_timestamp``, its
#: ``_edge_label``, the default vertex label), so four keeps those plus one
#: caller-supplied extractor, and a fresh lambda per query recycles one slot.
VALUE_MEMO_EXTRACTORS = 4


def entry_key(entry: AdjEntry) -> Tuple[int, int, str]:
    """Sort key ordering adjacency entries by the ``<+`` relation of their target."""
    return order_key(entry[0], entry[1])


class CSRAdjacency:
    """Flat CSR snapshot of one rank's Adj^m_+ store (Section 4.2 layout).

    Where the record view keeps one Python list of tuples per vertex, this
    view concatenates every local adjacency into rank-contiguous arrays, the
    in-memory analogue of the packed per-rank adjacency TriPoll's C++ stores
    inside its distributed map.  Row ``i`` describes local vertex
    ``row_vertices[i]``; its entries occupy ``indptr[i]:indptr[i + 1]`` in
    every per-edge array.  Per-edge data is split into

    * ``tgt_ids`` — the target's dense rank in the global ``<+`` order
      (int64).  Rows are sorted ascending, and id
      equality is vertex equality, so batched kernels can intersect rows
      with integer comparisons only;
    * ``tgt_owner`` — precomputed owner rank of each target (partition map
      lookups hoisted out of the per-wedge hot loop);
    * ``entries`` — the original ``(v, d(v), meta(u, v), meta(v))`` tuples,
      shared with the record view, indexed by the same edge offsets (the
      "metadata-index" array: kernels match on ids, then fetch metadata by
      edge index);
    * exact serialized sizes (``cand_size_cumsum``, ``tgt_wire_sizes``,
      ``row_wire_sizes``) of the fragments a legacy per-wedge push message
      would carry, so the batched engine can account the byte-identical
      Table 4 communication volume without serializing each wedge
      (``tgt_vertex_wire``: the ``size(target)`` term of ``tgt_wire_sizes``
      alone, which is what a dry-run proposal or advise reply carries).

    The snapshot assumes the store is finished mutating (post
    :meth:`DODGraph.sort_adjacency`); :class:`DODGraph` invalidates cached
    snapshots if construction touches the records again.

    Three derived views are cached on the snapshot and die with it: the row
    kernels' ``row_adj_cache``, :meth:`inverted_target_index`, and the value
    memo of :meth:`extracted_values`, which lets a metadata reducer read each
    stored edge once per snapshot instead of once per triangle.
    """

    __slots__ = (
        "num_rows",
        "num_edges",
        "vertex_rows",
        "row_vertices",
        "row_meta",
        "row_degree",
        "row_wire_sizes",
        "indptr",
        "entries",
        "tgt_ids",
        "tgt_owner",
        "tgt_wire_sizes",
        "tgt_vertex_wire",
        "cand_size_cumsum",
        "row_order_ids",
        "_columns",
        "row_adj_cache",
        "_inv_index",
        "_value_memo",
        "storage",
        "segment_paths",
        "send_scratch",
    )

    def __init__(
        self,
        store: Dict[Hashable, Dict[str, Any]],
        order_ids: Dict[Hashable, int],
        owner_of: Any,
        partitioner: Optional[Partitioner] = None,
    ) -> None:
        self.num_rows = len(store)
        self.vertex_rows: Dict[Hashable, int] = {}
        self.row_vertices: List[Hashable] = []
        self.row_meta: List[Any] = []
        self.row_degree: List[int] = []
        self.row_wire_sizes: List[int] = []
        indptr: List[int] = [0]
        entries: List[AdjEntry] = []
        self.row_order_ids: List[int] = []
        for vertex, record in store.items():
            self.vertex_rows[vertex] = len(self.row_vertices)
            self.row_order_ids.append(order_ids[vertex])
            self.row_vertices.append(vertex)
            self.row_meta.append(record["meta"])
            self.row_degree.append(record["degree"])
            self.row_wire_sizes.append(
                serialized_size(vertex) + serialized_size(record["meta"])
            )
            entries.extend(record["adj"])
            indptr.append(len(entries))
        self.num_edges = len(entries)
        self.indptr = indptr
        self.entries = entries
        targets = [entry[0] for entry in entries]
        tgt_ids = [order_ids[target] for target in targets]
        all_int_targets = all(type(target) is int for target in targets)
        # Exact per-edge wire sizes: the whole candidate column at once when
        # the value types allow it, one serialized_size call per field else.
        if not (entries and self._vector_entry_sizes(entries, targets, all_int_targets)):
            tgt_wire_sizes: List[int] = []
            tgt_vertex_wire: List[int] = []
            cand_cumsum: List[int] = [0]
            running = 0
            for entry in entries:
                sz_target = serialized_size(entry[0])
                sz_degree = serialized_size(entry[1])
                sz_edge_meta = serialized_size(entry[2])
                # One candidate tuple (r, d(r), meta(p, r)) on the legacy
                # wire: 2 framing bytes (tuple tag + arity) plus its fields.
                running += 2 + sz_target + sz_degree + sz_edge_meta
                cand_cumsum.append(running)
                tgt_wire_sizes.append(sz_target + sz_edge_meta)
                tgt_vertex_wire.append(sz_target)
            self.tgt_wire_sizes = tgt_wire_sizes
            self.tgt_vertex_wire = tgt_vertex_wire
            self.cand_size_cumsum = cand_cumsum
        # Owner ranks: one vectorized partition-map evaluation over the whole
        # target column when ids are integers, scalar lookups otherwise.
        self.tgt_owner = None
        if partitioner is not None and all_int_targets and entries:
            try:
                targets_arr = _np.fromiter(targets, dtype=_np.int64, count=len(targets))
            except OverflowError:  # ids beyond int64: scalar fallback
                targets_arr = None
            if targets_arr is not None:
                self.tgt_owner = partitioner.owners_array(targets_arr).tolist()
        if self.tgt_owner is None:
            self.tgt_owner = [owner_of(target) for target in targets]
        self.tgt_ids = _np.asarray(tgt_ids, dtype=_np.int64)
        self._columns = None
        #: slot for the core engine's cached RowAdjacency view of this CSR
        self.row_adj_cache = None
        #: cache slot of :meth:`inverted_target_index`
        self._inv_index = None
        #: extractor -> field -> ``(values, filled)`` of :meth:`extracted_values`
        self._value_memo: Dict[Any, Dict[str, Any]] = {}
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
            for field in zip(*values):
                field_sizes = CSRAdjacency._vector_value_sizes(field)
                if field_sizes is None:
                    return None
                sizes += field_sizes
            return sizes
        return None

    def _vector_entry_sizes(
        self, entries: List[AdjEntry], targets: List[Hashable], all_int_targets: bool
    ) -> bool:
        """Try the columnar wire-size path; True when the arrays were built.

        Bit-identical to the scalar loop (``int_size_array``/constant sizes
        replay ``serialized_size`` exactly, pinned by
        ``tests/runtime/test_serialization.py``) but sizes the whole edge
        column in a handful of array expressions — the dominant cost of a
        CSR snapshot build, which streaming surveys pay once per batch.
        """
        if not all_int_targets:
            return False
        try:
            targets_arr = _np.fromiter(targets, dtype=_np.int64, count=len(targets))
        except OverflowError:
            return False
        meta_sizes = self._vector_value_sizes([entry[2] for entry in entries])
        if meta_sizes is None:
            return False
        degrees = _np.fromiter(
            (entry[1] for entry in entries), dtype=_np.int64, count=len(entries)
        )
        sz_target = int_size_array(targets_arr)
        sz_degree = int_size_array(degrees)
        # One candidate tuple (r, d(r), meta(p, r)) on the legacy wire:
        # 2 framing bytes (tuple tag + arity) plus its fields.
        per_edge = 2 + sz_target + sz_degree + meta_sizes
        cumsum = _np.concatenate(([0], _np.cumsum(per_edge)))
        self.tgt_wire_sizes = (sz_target + meta_sizes).tolist()
        self.tgt_vertex_wire = sz_target.tolist()
        self.cand_size_cumsum = cumsum.tolist()
        return True

    # ------------------------------------------------------------------
    def columns(self) -> "SimpleNamespace":
        """NumPy views of the accounting/driver columns (lazily built, cached).

        The list attributes stay authoritative (and are what the per-wedge
        paths index); the columnar driver reads these int64 array twins —
        ``indptr``, ``tgt_owner``, ``row_wire``, ``tgt_wire``,
        ``tgt_vertex_wire``, ``cand_cumsum``, ``row_order_ids`` — so
        per-wedge size/owner math becomes array arithmetic.
        """
        if self._columns is None:
            self._columns = SimpleNamespace(
                indptr=_np.asarray(self.indptr, dtype=_np.int64),
                tgt_owner=_np.asarray(self.tgt_owner, dtype=_np.int64),
                row_wire=_np.asarray(self.row_wire_sizes, dtype=_np.int64),
                tgt_wire=_np.asarray(self.tgt_wire_sizes, dtype=_np.int64),
                tgt_vertex_wire=_np.asarray(self.tgt_vertex_wire, dtype=_np.int64),
                cand_cumsum=_np.asarray(self.cand_size_cumsum, dtype=_np.int64),
                row_order_ids=_np.asarray(self.row_order_ids, dtype=_np.int64),
            )
        return self._columns

    def inverted_target_index(self):
        """The in-adjacency view: edge positions sorted by target id (cached).

        ``(sorted target ids, their edge positions, row of every edge)``,
        probed with :func:`~repro.core.engine.segments.positions_of_ids` to
        find every local pivot row holding a target (the incremental engine's
        old-old-new join; the columnar pull handler's waiting wedges).  The
        sort is stable: one target's positions come back row-major.
        """
        if self._inv_index is None:
            indptr = self.columns().indptr
            row_of_edge = _np.repeat(
                _np.arange(self.num_rows, dtype=_np.int64), indptr[1:] - indptr[:-1]
            )
            inv_order = _np.argsort(self.tgt_ids, kind="stable")
            self._inv_index = (self.tgt_ids[inv_order], inv_order, row_of_edge)
        return self._inv_index

    def extracted_values(self, extract, field: str, positions):
        """``extract(metadata)`` at ``positions`` as a typed array, or None.

        ``field`` names the metadata read: ``"edge"`` (``entries[pos][2]``),
        ``"target"`` (``entries[pos][3]``) or ``"row"`` (``row_meta[pos]``).
        Results are memoised per stored position and filled sparsely: only
        positions some triangle batch asked for ever reach ``extract``, once.
        The array is float64 when every extracted value is exactly a
        ``float``, int64 when exactly an ``int`` within ±2**62 (two stamps
        subtract without overflow; epoch nanoseconds never pass through a
        float).  Anything else has *no exact array form* and answers None
        for the rest of the snapshot's life: other or mixed types (``bool``,
        ``None``, ``str``), NaN (``sort``/``max`` have no total order to
        agree on), an unhashable extractor (no memo key), an extractor that
        raises (the caller's object loop then raises where it always did).
        ``extract`` must be a pure function of the value.
        """
        try:
            fields = self._value_memo.get(extract)
        except TypeError:
            return None
        if fields is None:
            if len(self._value_memo) >= VALUE_MEMO_EXTRACTORS:
                del self._value_memo[next(iter(self._value_memo))]
            fields = self._value_memo[extract] = {}
        if field not in fields:
            size = self.num_rows if field == "row" else self.num_edges
            # [values (typed by the first fill), which positions hold one]
            fields[field] = [None, _np.zeros(size, dtype=bool)]
        memo = fields[field]
        if memo is None:
            return None
        values, filled = memo
        have = filled[positions]
        if not have.all():
            missing = _np.unique(positions[~have])
            fresh = self._extract_column(extract, field, missing.tolist())
            if fresh is None or (values is not None and values.dtype != fresh.dtype):
                fields[field] = None
                return None
            if values is None:
                values = memo[0] = _np.empty(filled.size, dtype=fresh.dtype)
            values[missing] = fresh
            filled[missing] = True
        return values[positions]

    def _extract_column(self, extract, field: str, positions: List[int]):
        """Typed array of ``extract`` over the field at ``positions``, or None."""
        try:
            if field == "row":
                column = [extract(self.row_meta[pos]) for pos in positions]
            else:
                entries, slot = self.entries, 2 if field == "edge" else 3
                column = [extract(entries[pos][slot]) for pos in positions]
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

    # ------------------------------------------------------------------
    def row_of(self, vertex: Hashable) -> Optional[int]:
        """Row index of a local vertex, or None when the rank does not own it."""
        return self.vertex_rows.get(vertex)

    def row_slice(self, row: int) -> Tuple[int, int]:
        """Edge-array extent ``[lo, hi)`` of one row."""
        return self.indptr[row], self.indptr[row + 1]

    def row_ids(self, row: int):
        """The row's target order-ids (sorted ascending)."""
        lo, hi = self.indptr[row], self.indptr[row + 1]
        return self.tgt_ids[lo:hi]

    def suffix_wire_bytes(self, qpos: int, hi: int) -> int:
        """Serialized bytes of the candidate tuples in edge range ``(qpos, hi)``."""
        return self.cand_size_cumsum[hi] - self.cand_size_cumsum[qpos + 1]


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
        #: lazily built derived views (cleared whenever records mutate)
        self._order_ids: Optional[Dict[Hashable, int]] = None
        self._csr: Dict[int, CSRAdjacency] = {}
        self._rows_by_order_id = None
        #: CSR storage policy; None means resident (today's default)
        self._storage: Optional[StorageConfig] = None

    # ------------------------------------------------------------------
    @property
    def _slot(self) -> str:
        return f"dodgr:{self.name}"

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
            ``"bulk"`` (the default) constructs the structure directly on
            the driver with the vectorized pipeline: dense ``<+`` positions
            from one :func:`~repro.graph.degree.order_positions` argsort,
            orientation of every half edge as one array comparison, and
            per-target adjacency assembly from one ``lexsort`` — no
            per-edge ``order_key`` tuples, hash calls, or owner lookups.
            ``"async"`` routes every half edge through the simulated runtime
            exactly as the MPI implementation would, charging the traffic to
            the construction phase; it is the reference the golden-parity
            tests hold ``"bulk"`` to.  Both produce bit-identical graphs:
            same store insertion order, same adjacency tuples in the same
            ``<+``-sorted order, same :meth:`order_ids`.
        """
        if mode not in ("bulk", "async"):
            raise ValueError(f"unknown build mode {mode!r}")
        dodgr = cls(graph.world, graph.partitioner, name=name)
        world = graph.world

        # Seed local records with each vertex's metadata and full degree so
        # the <+ comparison can be evaluated locally on the owner.  The bulk
        # pipeline collects the vertex/degree/meta columns in the same pass;
        # the async mode skips the column bookkeeping entirely.
        vertices: List[Hashable] = []
        degrees: List[int] = []
        metas: List[Any] = []
        records: List[Dict[str, Any]] = []
        for rank in range(world.nranks):
            store = dodgr.local_store(rank)
            for u, record in graph.local_vertices(rank):
                d_u = len(record["adj"])
                rec = {"meta": record["meta"], "degree": d_u, "adj": []}
                store[u] = rec
                if mode == "bulk":
                    vertices.append(u)
                    degrees.append(d_u)
                    metas.append(record["meta"])
                    records.append(rec)

        if mode == "bulk":
            dodgr._build_bulk_vectorized(graph, vertices, degrees, metas, records)
            return dodgr

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

    def _build_bulk_vectorized(
        self,
        graph: DistributedGraph,
        vertices: List[Hashable],
        degrees: List[int],
        metas: List[Any],
        records: List[Dict[str, Any]],
    ) -> None:
        """Array-native orientation + adjacency assembly (mode ``"bulk"``).

        Works on dense vertex indices (position in the rank-major ``vertices``
        column), so everything after the one pass that flattens the
        adjacency dicts is NumPy: the ``<+`` positions come from
        :func:`order_positions`, the keep-this-half-edge decision is a single
        ``pos[tgt] < pos[src]`` comparison, and each target's entries land in
        final sorted order from one ``lexsort`` — matching the async build's
        ``sort_adjacency`` output without ever computing an ``order_key``
        per edge.
        """
        world = self.world
        index_of = {v: i for i, v in enumerate(vertices)}
        get_index = index_of.__getitem__
        src_counts: List[int] = []
        tgt_indices: List[int] = []
        edge_metas: List[Any] = []
        for rank in range(world.nranks):
            for _u, record in graph.local_vertices(rank):
                adj = record["adj"]
                src_counts.append(len(adj))
                tgt_indices.extend(map(get_index, adj.keys()))
                edge_metas.extend(adj.values())

        pos, order = order_positions(vertices, degrees)
        # Dense <+ ids double as the lazily-built order_ids cache: identical
        # by construction to what order_ids() would compute from the stores.
        self._order_ids = {vertices[g]: k for k, g in enumerate(order.tolist())}

        if tgt_indices:
            src = _np.repeat(
                _np.arange(len(vertices), dtype=_np.int64),
                _np.asarray(src_counts, dtype=_np.int64),
            )
            tgt = _np.asarray(tgt_indices, dtype=_np.int64)
            keep = pos[tgt] < pos[src]
            kept_src = src[keep]
            kept_tgt = tgt[keep]
            kept_meta = _np.flatnonzero(keep)
            # Group by target, entries in the target's final <+ order.
            sorter = _np.lexsort((pos[kept_src], kept_tgt))
            tgt_sorted = kept_tgt[sorter]
            src_list = kept_src[sorter].tolist()
            tgt_list = tgt_sorted.tolist()
            meta_list = kept_meta[sorter].tolist()
            for start, end in group_slices(tgt_sorted):
                records[tgt_list[start]]["adj"] = [
                    (vertices[s], degrees[s], edge_metas[m], metas[s])
                    for s, m in zip(src_list[start:end], meta_list[start:end])
                ]

    def sort_adjacency(self) -> None:
        """Sort every Adj^m_+ list by the ``<+`` order of the target vertex."""
        for rank in range(self.world.nranks):
            for record in self.local_store(rank).values():
                record["adj"].sort(key=entry_key)
        self._invalidate_derived()

    # ------------------------------------------------------------------
    # Derived flat views (batched engine backend)
    # ------------------------------------------------------------------
    def _invalidate_derived(self) -> None:
        for snapshot in self._csr.values():
            release_csr_segments(snapshot)
        self._order_ids = None
        self._csr.clear()
        self._rows_by_order_id = None

    def order_ids(self) -> Dict[Hashable, int]:
        """Dense integer ranks of every vertex in the global ``<+`` order.

        Ids are assigned by sorting all stored vertices by
        :func:`~repro.graph.degree.order_key`, so ``id(u) < id(v)`` iff
        ``u <+ v`` and id equality implies vertex identity.  This collapses
        the composite ``(degree, hash, repr)`` comparison into single-int
        comparisons that the vectorized batch kernels can use directly.
        Built lazily over the finished DODGr and cached.
        """
        if self._order_ids is None:
            keyed = [
                (order_key(vertex, record["degree"]), vertex)
                for rank in range(self.world.nranks)
                for vertex, record in self.local_store(rank).items()
            ]
            keyed.sort(key=lambda kv: kv[0])
            self._order_ids = {vertex: i for i, (_key, vertex) in enumerate(keyed)}
        return self._order_ids

    def order_count(self) -> int:
        """Number of dense ``<+`` order ids (the columnar composite-key stride)."""
        return len(self.order_ids())

    def rows_by_order_id(self):
        """Order-id → owner-local CSR row index, as one global int64 array.

        Every vertex is stored on exactly one rank, so a single array of
        length :meth:`order_count` maps any target's dense ``<+`` id to its
        row inside the *owning* rank's :class:`CSRAdjacency` — the lookup the
        columnar intersect handler does per wedge without a dict probe.
        Built lazily over all ranks' CSR snapshots and invalidated with
        them.
        """
        if self._rows_by_order_id is None:
            out = _np.zeros(self.order_count(), dtype=_np.int64)
            for rank in range(self.world.nranks):
                snapshot = self.csr(rank)
                if snapshot.num_rows:
                    ids = _np.asarray(snapshot.row_order_ids, dtype=_np.int64)
                    out[ids] = _np.arange(snapshot.num_rows, dtype=_np.int64)
            self._rows_by_order_id = out
        return self._rows_by_order_id

    # ------------------------------------------------------------------
    # Storage policy (out-of-core CSR)
    # ------------------------------------------------------------------
    def configure_storage(self, storage) -> "StorageConfig":
        """Set how CSR snapshots store their column arrays.

        ``storage`` is a mode string (``"resident"``/``"mmap"``), a
        :class:`~repro.graph.ooc.StorageConfig` (for a budget/directory), or
        ``None`` to reset to resident.  Cached snapshots built under a
        different mode are dropped (their segment files unlinked) so the next
        :meth:`csr` call rebuilds them under the new policy.
        """
        if storage is None or isinstance(storage, str):
            config = StorageConfig(mode=resolve_storage(storage))
        elif isinstance(storage, StorageConfig):
            config = storage.with_mode(storage.mode)
        else:
            raise TypeError(
                f"storage must be a mode string or StorageConfig, got {storage!r}"
            )
        previous = self.storage_config()
        self._storage = config
        if previous.mode != config.mode and self._csr:
            for snapshot in self._csr.values():
                release_csr_segments(snapshot)
            self._csr.clear()
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
        """The rank's :class:`CSRAdjacency` snapshot (lazily built, cached).

        Exposes the same per-rank store as :meth:`local_store` as contiguous
        arrays for the batched engine; invalidated automatically if the
        record view mutates (new edges offered, adjacency re-sorted).  Under
        an ``"mmap"`` storage policy (:meth:`configure_storage`) the
        snapshot's column arrays are spilled to tracked memmap segment files
        immediately after construction; :meth:`release` (and any derived-view
        invalidation) unlinks them.
        """
        rank = rank_or_ctx.rank if isinstance(rank_or_ctx, RankContext) else rank_or_ctx
        snapshot = self._csr.get(rank)
        config = self.storage_config()
        if snapshot is not None and snapshot.storage != config.mode:
            release_csr_segments(snapshot)
            self._csr.pop(rank, None)
            snapshot = None
        if snapshot is None:
            snapshot = CSRAdjacency(
                self.local_store(rank), self.order_ids(), self.owner, self.partitioner
            )
            if config.mode == "mmap":
                spill_csr(snapshot, self.order_count(), config)
            self._csr[rank] = snapshot
        return snapshot

    def release(self) -> None:
        """Free this graph's runtime footprint; the graph is unusable after.

        Streaming surveys rebuild the DODGr once per batch — without this,
        every superseded rebuild stays pinned for the world's lifetime by
        its construction handler and per-rank store slots.  Releasing
        tombstones the handler (id allocation, and therefore every accounted
        message size, is unchanged — see
        :meth:`~repro.runtime.rpc.RpcRegistry.release`) and drops the rank
        stores and derived views.
        """
        self.world.registry.release(self._h_offer_edge)
        for ctx in self.world.ranks:
            ctx.local_state.pop(self._slot, None)
        self._invalidate_derived()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def num_vertices(self) -> int:
        return sum(len(self.local_store(r)) for r in range(self.world.nranks))

    def num_directed_edges(self) -> int:
        total = 0
        for rank in range(self.world.nranks):
            for record in self.local_store(rank).values():
                total += len(record["adj"])
        return total

    def out_degree(self, vertex: Hashable) -> int:
        record = self.local_store(self.owner(vertex)).get(vertex)
        return len(record["adj"]) if record is not None else 0

    def degree(self, vertex: Hashable) -> int:
        record = self.local_store(self.owner(vertex)).get(vertex)
        return record["degree"] if record is not None else 0

    def vertex_meta(self, vertex: Hashable) -> Any:
        record = self.local_store(self.owner(vertex)).get(vertex)
        if record is None:
            raise KeyError(f"vertex {vertex!r} not in DODGr")
        return record["meta"]

    def adjacency(self, vertex: Hashable) -> List[AdjEntry]:
        record = self.local_store(self.owner(vertex)).get(vertex)
        if record is None:
            return []
        return list(record["adj"])

    def max_out_degree(self) -> int:
        best = 0
        for rank in range(self.world.nranks):
            for record in self.local_store(rank).values():
                if len(record["adj"]) > best:
                    best = len(record["adj"])
        return best

    def wedge_count(self) -> int:
        """|W+|: the number of wedge checks the push algorithm will generate.

        Each pivot p contributes C(d+(p), 2) candidate checks (Section 4.3);
        summed as one array expression per rank.
        """
        total = 0
        for rank in range(self.world.nranks):
            store = self.local_store(rank)
            degrees = _np.fromiter(
                (len(record["adj"]) for record in store.values()),
                dtype=_np.int64,
                count=len(store),
            )
            total += int((degrees * (degrees - 1) // 2).sum())
        return total

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

    def rank_edge_counts(self) -> List[int]:
        out = []
        for rank in range(self.world.nranks):
            out.append(sum(len(rec["adj"]) for rec in self.local_store(rank).values()))
        return out

    # ------------------------------------------------------------------
    def visit(self, ctx: RankContext, vertex: Hashable, func, *args: Any) -> None:
        """Send an RPC to the owner of ``vertex`` (DODGr.visit of Section 4.2).

        ``func(ctx, vertex, *args)`` executes on the owning rank where the
        vertex's record (metadata + Adj^m_+) is available via
        :meth:`local_store`.
        """
        ctx.async_call(self.owner(vertex), func, vertex, *args)
