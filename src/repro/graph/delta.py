"""Streaming edge-batch ingestion: the delta layer of incremental surveys.

TriPoll's evaluation graphs are *temporal* — comments, crawls and
transactions arrive over time — yet a classic survey run sees only one
frozen snapshot.  This module provides the ingestion half of the streaming
subsystem (the survey half lives in :mod:`repro.core.incremental`):

* :class:`DeltaBuffer` stages one batch of timestamped edge insertions
  (arbitrary edge/vertex metadata, timestamps by convention in the edge
  metadata as produced by :func:`~repro.graph.metadata.temporal_edge_meta`);
* :meth:`DeltaBuffer.apply` merges the staged batch into a live
  :class:`~repro.graph.distributed_graph.DistributedGraph` and rebuilds the
  degree-ordered :class:`~repro.graph.dodgr.DODGraph` through the vectorized
  ``mode="bulk"`` pipeline — the global ``<+`` order ids are remapped in the
  single :func:`~repro.graph.degree.order_positions` argsort that pipeline
  already performs, so the rebuilt graph is *bit-identical* to a from-scratch
  build over the merged edge set;
* :class:`AppliedDelta` describes the applied batch to the incremental
  survey: which undirected pairs are new, and — per rank — a boolean mask
  over the rebuilt CSR's edge positions marking the *new directed edges*.

Merge semantics are **first write wins**: a staged edge whose unordered pair
already exists in the graph (or appeared earlier in the same batch) is
dropped, and staged vertex metadata never overwrites metadata that is
already set.  This mirrors ``DistributedEdgeList.simplify("first")`` and is
what makes incremental surveys exactly replayable: the graph state after
``k`` batches equals the graph built from the first-seen edge set, so a full
recompute at any step is a well-defined parity oracle (see
``tests/core/test_incremental.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from .distributed_graph import DistributedGraph
from .dodgr import DODGraph
from .edge_list import canonical_pair, validate_edge_columns

import numpy as _np

__all__ = ["DeltaBuffer", "AppliedDelta"]


@dataclass(eq=False)
class AppliedDelta:
    """One applied edge batch, described for the incremental survey engines.

    Produced by :meth:`DeltaBuffer.apply`.  ``dodgr`` is the *rebuilt*
    degree-ordered graph over the merged edge set; ``edges`` holds the
    accepted records (canonically ordered endpoints, first-write-wins
    metadata) and ``batch_index`` counts applied batches per buffer.
    """

    #: the DODGr rebuilt over the merged graph (``mode="bulk"``)
    dodgr: DODGraph
    #: accepted edge records ``(u, v, meta)`` with ``(u, v)`` canonical
    edges: List[Tuple[Hashable, Hashable, Any]]
    #: canonical unordered pairs of the accepted edges
    new_pairs: Set[Tuple[Hashable, Hashable]]
    #: 0-based index of this batch within its :class:`DeltaBuffer`
    batch_index: int
    #: per-rank new-directed-edge masks, built lazily (see :meth:`edge_mask`)
    _masks: Dict[int, Any] = field(default_factory=dict, repr=False)
    _new_keys: Optional[Any] = field(default=None, repr=False)

    def num_edges(self) -> int:
        """Number of accepted (new) undirected edges in this batch."""
        return len(self.edges)

    def is_new(self, u: Hashable, v: Hashable) -> bool:
        """True when the undirected edge (u, v) arrived in this batch."""
        return canonical_pair(u, v) in self.new_pairs

    # ------------------------------------------------------------------
    def directed_edge_keys(self) -> Any:
        """Composite ``src_order * order_count + tgt_order`` keys of new edges.

        Every DODGr directed edge points from the ``<+``-smaller vertex to
        the larger, so the directed form of an accepted pair is fixed by the
        rebuilt order ids; the sorted key array lets any rank test "is this
        directed edge new?" with one vectorized ``isin``/``searchsorted``.
        Requires NumPy (the scalar engines use :meth:`is_new` instead).
        """
        if self._new_keys is None:
            order_ids = self.dodgr.order_ids()
            stride = self.dodgr.order_count()
            keys = []
            for u, v, _meta in self.edges:
                a, b = order_ids[u], order_ids[v]
                if a > b:
                    a, b = b, a
                keys.append(a * stride + b)
            self._new_keys = _np.asarray(sorted(keys), dtype=_np.int64)
        return self._new_keys

    def edge_mask(self, rank: int) -> Any:
        """Boolean mask over rank ``rank``'s CSR edge positions: True = new.

        Position ``e`` of the mask corresponds to edge position ``e`` of
        ``dodgr.csr(rank)`` (the flattened ``Adj^m_+`` arrays); a True entry
        marks a directed edge whose undirected pair arrived in this batch.
        Built with one vectorized ``searchsorted`` over the rank's composite
        edge keys and cached.  Requires NumPy.
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

    def new_adjacency(self, rank: int) -> Dict[Hashable, List[Tuple[Any, int]]]:
        """Per-vertex new entries of rank ``rank``'s store (scalar engines).

        Maps each local vertex ``q`` with at least one new directed edge to
        the list of ``(adjacency entry, position in Adj^m_+(q))`` pairs of
        its new entries, in adjacency order.  The scalar incremental engine
        intersects old-old wedges against these filtered lists.
        """
        out: Dict[Hashable, List[Tuple[Any, int]]] = {}
        store = self.dodgr.local_store(rank)
        for q, record in store.items():
            filtered = [
                (entry, i)
                for i, entry in enumerate(record["adj"])
                if canonical_pair(q, entry[0]) in self.new_pairs
            ]
            if filtered:
                out[q] = filtered
        return out


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
        self._edges: List[Tuple[Hashable, Hashable, Any]] = []
        self._vertex_meta: Dict[Hashable, Any] = {}
        self._applied_batches = 0

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def stage_edge(self, u: Hashable, v: Hashable, meta: Any = None) -> None:
        """Stage one undirected edge insertion (self loops are dropped)."""
        if u == v:
            return
        self._edges.append((u, v, meta))

    def stage_edges(
        self, edges: Iterable[Tuple[Hashable, Hashable] | Tuple[Hashable, Hashable, Any]]
    ) -> None:
        """Stage an iterable of ``(u, v)`` or ``(u, v, meta)`` records."""
        for edge in edges:
            if len(edge) == 2:
                self.stage_edge(edge[0], edge[1])
            else:
                self.stage_edge(edge[0], edge[1], edge[2])

    def stage_columns(
        self, us: Any, vs: Any, edge_metas: Optional[List[Any]] = None, edge_meta: Any = None
    ) -> None:
        """Stage parallel endpoint columns (one shared or one per-edge meta).

        Malformed columns — ragged lengths, non-integer dtype, negative
        ids — raise :class:`ValueError` naming the offending column before
        anything is staged.
        """
        validate_edge_columns(us, vs, edge_metas)
        for i, (u, v) in enumerate(zip(us, vs)):
            meta = edge_metas[i] if edge_metas is not None else edge_meta
            self.stage_edge(int(u), int(v), meta)

    def stage_vertex_meta(self, vertex: Hashable, meta: Any) -> None:
        """Stage vertex metadata (applied only where none is set yet)."""
        self._vertex_meta[vertex] = meta

    @property
    def pending_edges(self) -> int:
        """Number of staged (not yet applied) edge records."""
        return len(self._edges)

    @property
    def applied_batches(self) -> int:
        """Number of batches this buffer has applied so far."""
        return self._applied_batches

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def apply(self, graph: DistributedGraph, name: Optional[str] = None) -> AppliedDelta:
        """Merge the staged batch into ``graph`` and rebuild the DODGr.

        Staged edges whose unordered pair already exists in ``graph`` — or
        appeared earlier in this batch — are dropped (first write wins), as
        is staged vertex metadata for vertices that already carry some.  The
        DODGr is rebuilt from scratch through ``DODGraph.build(graph,
        mode="bulk")``: the vectorized pipeline re-derives the global ``<+``
        order ids in its single argsort pass, so the result is bit-identical
        to a cold build over the merged edge set (degree changes from the
        new edges re-orient old directed edges exactly as a full rebuild
        would).

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
        accepted: List[Tuple[Hashable, Hashable, Any]] = []
        new_pairs: Set[Tuple[Hashable, Hashable]] = set()
        for u, v, meta in self._edges:
            pair = canonical_pair(u, v)
            if pair in new_pairs or graph.has_edge(pair[0], pair[1]):
                continue
            new_pairs.add(pair)
            accepted.append((pair[0], pair[1], meta))
            graph.add_edge(pair[0], pair[1], meta)
        for vertex, meta in self._vertex_meta.items():
            if not graph.has_vertex(vertex) or graph.vertex_meta(vertex) is None:
                graph.set_vertex_meta(vertex, meta)
        self._edges = []
        self._vertex_meta = {}
        batch_index = self._applied_batches
        self._applied_batches += 1
        dodgr = DODGraph.build(
            graph, mode="bulk", name=name or f"{graph.name}@{batch_index}"
        )
        return AppliedDelta(
            dodgr=dodgr, edges=accepted, new_pairs=new_pairs, batch_index=batch_index
        )
