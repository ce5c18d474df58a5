"""Streaming edge-batch ingestion: the delta layer of incremental surveys.

TriPoll's evaluation graphs are *temporal* — comments, crawls and
transactions arrive over time — yet a classic survey run sees only one
frozen snapshot.  This module provides the ingestion half of the streaming
subsystem (the survey half lives in :mod:`repro.core.incremental`):

* :class:`DeltaBuffer` stages one batch of timestamped edge insertions as
  endpoint and metadata columns (arbitrary edge/vertex metadata, timestamps
  by convention in the edge metadata as produced by
  :func:`~repro.graph.metadata.temporal_edge_meta`);
* :meth:`DeltaBuffer.apply` merges the staged batch into a live
  :class:`~repro.graph.distributed_graph.DistributedGraph` as one column
  write — the sorted-batch-into-sorted-adjacency merge of Makkar, Bader &
  Green (HiPC 2017), here at the DODGr's input: the batch is deduplicated
  and checked against the graph's sorted half-edge keys with array
  operations, and the accepted edges are laid into a new
  :class:`~repro.graph.columnar.HalfEdgeColumns` image the graph keeps.
  The image carries every half edge's metadata wire size and the memos of
  its extracted edge and vertex values
  (:class:`~repro.graph.columnar.ValueMemo`): only the batch's new edges
  are sized or extracted, and only its new or rewritten vertices; the rest
  ride forward from the previous image.
  It then rebuilds the degree-ordered :class:`~repro.graph.dodgr.DODGraph`
  from that image through the vectorized ``mode="bulk"`` pipeline — the
  global ``<+`` order ids are remapped in the single
  :func:`~repro.graph.degree.order_positions` argsort that pipeline already
  performs, so the rebuilt graph is *bit-identical* to a from-scratch build
  over the merged edge set.  What a step still re-derives over the whole
  graph is that argsort, the orientation, and (on first use) each rank's
  ``inverted_target_index`` and new-edge mask;
* :class:`AppliedDelta` describes the applied batch to the incremental
  survey: the accepted edges as columns and — per rank — a boolean mask
  over the rebuilt CSR's edge positions marking the *new directed edges*.

Merge semantics are **first write wins**: a staged edge whose unordered pair
already exists in the graph (or appeared earlier in the same batch) is
dropped, and staged vertex metadata never overwrites metadata that is
already set.  This mirrors ``DistributedEdgeList.simplify("first")`` and is
what makes incremental surveys exactly replayable: the graph state after
``k`` batches equals the graph built from the first-seen edge set, so a full
recompute at any step is a well-defined parity oracle (see
``tests/core/test_incremental.py``).  The image is exactly what inserting
the accepted edges one by one (canonical endpoint first) and then setting
the staged vertex metadata leaves in the oracle's per-rank record store
(``repro.oracle.RecordStore``, flattened): new vertices at the end of their
rank, new half edges at the end of their vertex's run
(``tests/properties/test_property_dodgr.py`` replays that loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from ..runtime.world import stable_key_order
from .columnar import (
    HalfEdgeColumns,
    ValueMemo,
    id_array,
    id_column,
    object_column,
    unique_pair_indices,
)
from .distributed_graph import DistributedGraph, first_touch_labels
from .dodgr import DODGraph, _value_sizes
from .edge_list import canonical_pair, validate_edge_columns

import numpy as _np

__all__ = ["DeltaBuffer", "AppliedDelta"]


@dataclass(eq=False)
class AppliedDelta:
    """One applied edge batch, described for the incremental survey engines.

    Produced by :meth:`DeltaBuffer.apply`.  ``dodgr`` is the *rebuilt*
    degree-ordered graph over the merged edge set; the accepted edges are
    kept as columns of DODGr rows (a row index counts the vertices of all
    ranks, rank-major — the order of ``dodgr.csr(0).row_vertices``,
    ``dodgr.csr(1).row_vertices``, ...) in canonical endpoint order, and
    ``batch_index`` counts applied batches per buffer.
    """

    #: the DODGr rebuilt over the merged graph (``mode="bulk"``)
    dodgr: DODGraph
    #: (A,) DODGr row of each accepted edge's canonically first endpoint
    src_rows: Any
    #: (A,) DODGr row of each accepted edge's canonically second endpoint
    dst_rows: Any
    #: (A,) object column of the accepted edges' metadata (first write wins)
    edge_meta: Any
    #: 0-based index of this batch within its :class:`DeltaBuffer`
    batch_index: int
    #: per-rank new-directed-edge masks, built lazily (see :meth:`edge_mask`)
    _masks: Dict[int, Any] = field(default_factory=dict, repr=False)
    _new_keys: Optional[Any] = field(default=None, repr=False)

    def num_edges(self) -> int:
        """Number of accepted (new) undirected edges in this batch."""
        return len(self.src_rows)

    def row_column(self, name: str) -> Any:
        """A per-row :class:`~repro.graph.dodgr.CSRAdjacency` column, all ranks."""
        return _np.concatenate(
            [getattr(self.dodgr.csr(rank), name) for rank in range(self.dodgr.world.nranks)]
        )

    # ------------------------------------------------------------------
    def directed_edge_keys(self) -> Any:
        """Composite ``src_order * order_count + tgt_order`` keys of new edges.

        Every DODGr directed edge points from the ``<+``-smaller vertex to
        the larger, so the directed form of an accepted pair is fixed by the
        rebuilt order ids (``row_order_ids`` of the edge's two rows); the
        sorted key array lets any rank test "is this directed edge new?"
        with one vectorized ``isin``/``searchsorted``.
        """
        if self._new_keys is None:
            order_ids = self.row_column("row_order_ids")
            a, b = order_ids[self.src_rows], order_ids[self.dst_rows]
            stride = _np.int64(self.dodgr.order_count())
            self._new_keys = _np.sort(_np.minimum(a, b) * stride + _np.maximum(a, b))
        return self._new_keys

    def edge_mask(self, rank: int) -> Any:
        """Boolean mask over rank ``rank``'s CSR edge positions: True = new.

        Position ``e`` of the mask corresponds to edge position ``e`` of
        ``dodgr.csr(rank)`` (the flattened ``Adj^m_+`` arrays); a True entry
        marks a directed edge whose undirected pair arrived in this batch.
        Built with one vectorized ``searchsorted`` over the rank's composite
        edge keys and cached.
        """
        mask = self._masks.get(rank)
        if mask is None:
            csr = self.dodgr.csr(rank)
            src_order = _np.repeat(csr.row_order_ids, _np.diff(csr.indptr))
            composite = src_order * _np.int64(self.dodgr.order_count()) + csr.tgt_ids
            new_keys = self.directed_edge_keys()
            if new_keys.size:
                pos = _np.searchsorted(new_keys, composite)
                clipped = _np.minimum(pos, new_keys.size - 1)
                mask = (pos < new_keys.size) & (new_keys[clipped] == composite)
            else:
                mask = _np.zeros(composite.size, dtype=bool)
            self._masks[rank] = mask
        return mask


class DeltaBuffer:
    """A staging buffer of edge-batch insertions for streaming surveys.

    Typical use (see ``examples/streaming_closure_times.py``)::

        delta = DeltaBuffer(world)
        delta.stage_edges(batch_records)          # (u, v, meta) tuples
        applied = delta.apply(graph)              # merge + bulk DODGr rebuild
        incremental_triangle_survey(applied.dodgr, applied, reducer.callback)

    The buffer is reusable: :meth:`apply` clears the staged edges and bumps
    the batch counter, so one buffer drives a whole batch schedule.
    """

    def __init__(self, world) -> None:
        self.world = world
        #: the staged batch as three parallel columns
        self._us: List[Hashable] = []
        self._vs: List[Hashable] = []
        self._metas: List[Any] = []
        self._vertex_meta: Dict[Hashable, Any] = {}
        self._applied_batches = 0

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def stage_edge(self, u: Hashable, v: Hashable, meta: Any = None) -> None:
        """Stage one undirected edge insertion (:meth:`apply` drops self loops)."""
        self._us.append(u)
        self._vs.append(v)
        self._metas.append(meta)

    def stage_edges(
        self, edges: Iterable[Tuple[Hashable, Hashable] | Tuple[Hashable, Hashable, Any]]
    ) -> None:
        """Stage an iterable of ``(u, v)`` or ``(u, v, meta)`` records."""
        records = edges if isinstance(edges, list) else list(edges)
        try:
            us, vs, metas = zip(*records)
        except ValueError:  # no records, or some without exactly one meta
            us = [edge[0] for edge in records]
            vs = [edge[1] for edge in records]
            metas = [None if len(edge) == 2 else edge[2] for edge in records]
        self._us.extend(us)
        self._vs.extend(vs)
        self._metas.extend(metas)

    def stage_columns(
        self, us: Any, vs: Any, edge_metas: Optional[List[Any]] = None, edge_meta: Any = None
    ) -> None:
        """Stage parallel endpoint columns (one shared or one per-edge meta).

        Malformed columns — ragged lengths, non-integer dtype, negative
        ids — raise :class:`ValueError` naming the offending column before
        anything is staged.
        """
        validate_edge_columns(us, vs, edge_metas)
        self._us.extend(int(u) for u in us)
        self._vs.extend(int(v) for v in vs)
        self._metas.extend(edge_metas if edge_metas is not None else [edge_meta] * len(us))

    def stage_vertex_meta(self, vertex: Hashable, meta: Any) -> None:
        """Stage vertex metadata (applied only where none is set yet)."""
        self._vertex_meta[vertex] = meta

    @property
    def pending_edges(self) -> int:
        """Number of staged (not yet applied) edge records."""
        return len(self._us)

    @property
    def applied_batches(self) -> int:
        """Number of batches this buffer has applied so far."""
        return self._applied_batches

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def apply(self, graph: DistributedGraph, name: Optional[str] = None) -> AppliedDelta:
        """Merge the staged batch into ``graph`` and rebuild the DODGr.

        Self loops are dropped, and so are staged edges whose unordered pair
        already exists in ``graph`` — or appeared earlier in this batch
        (first write wins); staged vertex metadata is set only on vertices
        that are new or carry ``None``.  The merge is one column write:
        the graph's image (``graph.half_edge_columns()``) is merged with the
        accepted edges into a new image that ``graph`` adopts
        (:meth:`~repro.graph.distributed_graph.DistributedGraph.adopt_columns`)
        — no per-edge Python on int64 ids.  The DODGr is then rebuilt from
        scratch through ``DODGraph.build(graph, mode="bulk")``: the
        vectorized pipeline re-derives the global ``<+`` order ids in its
        single argsort pass, so the result is bit-identical to a cold build
        over the merged edge set (degree changes from the new edges
        re-orient old directed edges exactly as a full rebuild would).

        Parameters
        ----------
        graph:
            The live decorated graph; mutated in place.
        name:
            Optional name of the rebuilt DODGr (defaults to
            ``"<graph.name>@<batch index>"``).

        Returns the :class:`AppliedDelta` describing the accepted edges and
        carrying the rebuilt :class:`~repro.graph.dodgr.DODGraph`.
        """
        image, src_rows, dst_rows, edge_meta = _merge_batch(
            graph, self._us, self._vs, self._metas, self._vertex_meta
        )
        graph.adopt_columns(image)
        self._us, self._vs, self._metas = [], [], []
        self._vertex_meta = {}
        batch_index = self._applied_batches
        self._applied_batches += 1
        dodgr = DODGraph.build(
            graph, mode="bulk", name=name or f"{graph.name}@{batch_index}"
        )
        return AppliedDelta(
            dodgr=dodgr,
            src_rows=src_rows,
            dst_rows=dst_rows,
            edge_meta=edge_meta,
            batch_index=batch_index,
        )


# ---------------------------------------------------------------------------
# The column merge
# ---------------------------------------------------------------------------


class _BatchIds(NamedTuple):
    """A batch's vertex references as dense indices of the merged vertex set.

    Existing vertices keep their image index; vertices the batch introduces
    follow, numbered by first appearance — edge endpoints (canonical endpoint
    first, edges in staged order) before metadata-only vertices.
    """

    #: staged records that are not self loops
    keep: Any
    #: canonical first / second endpoint of each kept record
    lo: Any
    hi: Any
    #: each staged vertex-metadata key
    meta_keys: Any
    #: ids of the vertices the batch introduces, in index order
    new_vertices: Any


def _int_batch_ids(old_vertices: Any, us: Any, vs: Any, keys: Any) -> _BatchIds:
    """:class:`_BatchIds` for int64 ids: one first-touch labelling of the old
    vertices (distinct, so they keep their index) followed by the batch's
    references, no Python loop."""
    keep = _np.flatnonzero(us != vs)
    lo, hi = _np.minimum(us[keep], vs[keep]), _np.maximum(us[keep], vs[keep])
    refs = _np.concatenate((old_vertices, _np.column_stack((lo, hi)).reshape(-1), keys))
    touched, labels = first_touch_labels(refs)
    dense = labels[old_vertices.size :]
    ends = 2 * keep.size
    return _BatchIds(
        keep, dense[0:ends:2], dense[1:ends:2], dense[ends:], touched[old_vertices.size :]
    )


def _object_batch_ids(old_vertices: Any, us: List, vs: List, keys: List) -> _BatchIds:
    """:class:`_BatchIds` for any other ids, through one ``{id: index}`` dict."""
    keep = [i for i, (u, v) in enumerate(zip(us, vs)) if not u == v]
    refs = [end for i in keep for end in canonical_pair(us[i], vs[i])]
    refs.extend(keys)
    index_of = dict(zip(old_vertices, range(len(old_vertices))))
    new_vertices: List[Hashable] = []
    for ref in refs:
        if ref not in index_of:
            index_of[ref] = len(index_of)
            new_vertices.append(ref)
    dense = _np.fromiter(map(index_of.__getitem__, refs), dtype=_np.int64, count=len(refs))
    ends = 2 * len(keep)
    return _BatchIds(
        _np.asarray(keep, dtype=_np.int64),
        dense[0:ends:2],
        dense[1:ends:2],
        dense[ends:],
        new_vertices,
    )


def _merge_batch(
    graph: DistributedGraph,
    us: List[Hashable],
    vs: List[Hashable],
    metas: List[Any],
    vertex_meta: Dict[Hashable, Any],
) -> Tuple[HalfEdgeColumns, Any, Any, Any]:
    """Merge a staged batch into ``graph``'s half-edge image (the graph is not touched).

    Returns the new image and the accepted edges: the image rows of their
    canonical endpoints and their metadata column.  The new image lists what
    a per-rank record store would hold after inserting the accepted edges
    ``(lo, hi, meta)`` in staged order and then applying the
    first-write-wins vertex-metadata rule: new vertices join the end of
    their rank, new half edges the end of their vertex's run.  Its
    ``edge_meta_sizes`` is the only place the old edges' metadata sizes are
    computed, and only when the old image has none; its ``edge_values`` and
    ``vertex_values`` are the old image's memos moved to the new positions
    (fresh ones when the old image had none).
    """
    old = graph.half_edge_columns()
    keys = list(vertex_meta)
    int_ids = [id_array(column) for column in (us, vs, keys)]
    if old.vertices.dtype == _np.int64 and all(ids is not None for ids in int_ids):
        batch = _int_batch_ids(old.vertices, *int_ids)
    else:
        batch = _object_batch_ids(old.vertices.tolist(), us, vs, keys)
    num_old = len(old.vertices)
    num_new = len(batch.new_vertices)
    total = num_old + num_new

    # First write wins: the first of each distinct pair in the batch, unless
    # the graph already holds it (one searchsorted over its canonical keys).
    a, b = _np.minimum(batch.lo, batch.hi), _np.maximum(batch.lo, batch.hi)
    accepted = _np.sort(unique_pair_indices(a, b))
    stride = _np.int64(total)
    old_src = _np.repeat(_np.arange(num_old, dtype=_np.int64), old.degree)
    canonical = old_src < old.tgt
    held = _np.sort(old_src[canonical] * stride + old.tgt[canonical])
    wanted = a[accepted] * stride + b[accepted]
    if held.size:
        at = _np.minimum(_np.searchsorted(held, wanted), held.size - 1)
        accepted = accepted[held[at] != wanted]
    lo, hi = batch.lo[accepted], batch.hi[accepted]
    edge_meta = object_column(metas)[batch.keep[accepted]]

    # Vertex metadata: the graph default on vertices the edges introduce,
    # then the staged values where the vertex is new to the batch's edges
    # (metadata-only) or its metadata is still None.
    default_meta = _np.empty(num_new, dtype=object)
    default_meta.fill(graph.default_vertex_meta)
    vertex_metas = _np.concatenate((old.vertex_meta, default_meta))
    # The edges introduce a prefix of the new vertices (a rejected edge's
    # endpoints were all seen before it); the rest are metadata-only.
    ends = _np.concatenate((lo, hi))
    metadata_only = max(num_old, int(ends.max(initial=-1)) + 1)
    if keys:
        current = vertex_metas[batch.meta_keys].tolist()
        unset = _np.fromiter((meta is None for meta in current), dtype=bool, count=len(current))
        write = unset | (batch.meta_keys >= metadata_only)
        vertex_metas[batch.meta_keys[write]] = object_column(list(vertex_meta.values()))[write]

    # Rank-major layout: a stable sort by owner keeps every rank's old
    # vertices first and appends its new ones in first-appearance order.
    if isinstance(batch.new_vertices, _np.ndarray):
        new_owner = graph.partitioner.owners_array(batch.new_vertices)
    else:
        new_owner = [graph.partitioner.owner(vertex) for vertex in batch.new_vertices]
    nranks = graph.world.nranks
    owner = _np.concatenate(
        (
            _np.repeat(_np.arange(nranks, dtype=_np.int64), _np.diff(old.rank_offsets)),
            _np.asarray(new_owner, dtype=_np.int64),
        )
    )
    order = stable_key_order(owner)
    row_of = _np.empty(total, dtype=_np.int64)
    row_of[order] = _np.arange(total, dtype=_np.int64)

    # Half edges: every vertex keeps its old run and appends its new half
    # edges in staged edge order (one per endpoint of each accepted edge).
    old_degree = _np.concatenate((old.degree, _np.zeros(num_new, dtype=_np.int64)))
    degree = old_degree + _np.bincount(ends, minlength=total)
    run_start = _np.concatenate(([0], _np.cumsum(degree[order])))[row_of]
    old_bounds = _np.concatenate(([0], _np.cumsum(old.degree)))
    old_pos = run_start[old_src] + _np.arange(old_src.size) - old_bounds[old_src]
    half_src = _np.column_stack((lo, hi)).reshape(-1)
    half_tgt = _np.column_stack((hi, lo)).reshape(-1)
    by_src = stable_key_order(half_src)
    grouped = half_src[by_src]
    new_pos = _np.empty(half_src.size, dtype=_np.int64)
    new_pos[by_src] = (
        run_start[grouped]
        + old_degree[grouped]
        + _np.arange(grouped.size)
        - _np.searchsorted(grouped, grouped)
    )
    num_half = old_src.size + half_src.size
    tgt = _np.empty(num_half, dtype=_np.int64)
    tgt[old_pos] = row_of[old.tgt]
    tgt[new_pos] = row_of[half_tgt]
    half_meta = _np.empty(num_half, dtype=object)
    half_meta[old_pos] = old.edge_meta
    half_meta[new_pos] = _np.repeat(edge_meta, 2)
    # Metadata wire sizes ride the image: old half edges keep theirs (sized
    # once if the old image came without), only the batch is sized.
    old_sizes = old.edge_meta_sizes
    half_sizes = _np.empty(num_half, dtype=_np.int64)
    half_sizes[old_pos] = _value_sizes(old.edge_meta) if old_sizes is None else old_sizes
    half_sizes[new_pos] = _np.repeat(_value_sizes(edge_meta), 2)
    # So do the extracted values: each memo is copied to the new positions
    # (the old image keeps its own); the batch's half edges and new vertices
    # start unfilled, and so do old vertices whose metadata the batch wrote.
    half_values = (old.edge_values or ValueMemo(0)).moved(old_pos, num_half)
    vertex_values = (old.vertex_values or ValueMemo(0)).moved(row_of[:num_old], total)
    if keys:
        vertex_values.forget(row_of[batch.meta_keys[write]])

    if isinstance(batch.new_vertices, _np.ndarray):
        vertices = _np.concatenate((old.vertices, batch.new_vertices))[order]
    else:
        merged_ids = object_column(old.vertices.tolist() + batch.new_vertices)
        vertices = id_column(merged_ids[order].tolist())
    image = HalfEdgeColumns(
        vertices=vertices,
        vertex_meta=vertex_metas[order],
        rank_offsets=_np.concatenate(([0], _np.cumsum(_np.bincount(owner, minlength=nranks)))),
        degree=degree[order],
        tgt=tgt,
        edge_meta=half_meta,
        edge_meta_sizes=half_sizes,
        edge_values=half_values,
        vertex_values=vertex_values,
    )
    return image, row_of[lo], row_of[hi], edge_meta
