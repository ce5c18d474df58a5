"""k-truss decomposition driven by TriPoll edge-support surveys.

The paper lists truss decomposition [Cohen 2008] as one of the applications
whose callbacks "merely increment local counters": the k-truss of a graph is
its maximal subgraph in which every edge participates in at least ``k - 2``
triangles *within the subgraph*.  Computing the full decomposition (the
trussness of every edge) requires iterative peeling: repeatedly remove the
edge with the lowest remaining support and decrement the support of the edges
it formed triangles with.

This module runs the distributed support survey
(:class:`~repro.core.callbacks.EdgeSupportCounter`) to obtain the initial
supports and then performs the standard peeling on the gathered graph — the
same "survey in parallel, post-process the much smaller result" split the
paper uses for the FQDN analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..core.callbacks import EdgeSupportCounter
from ..core.engine import EngineSelector
from ..core.push_pull import triangle_survey
from ..core.results import SurveyReport
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph

__all__ = ["truss_decomposition"]

Edge = Tuple[Hashable, Hashable]


def _edge_key(u: Hashable, v: Hashable) -> Edge:
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass
class TrussDecomposition:
    """Result of a full truss decomposition."""

    report: SurveyReport
    #: trussness per edge: the largest k such that the edge is in the k-truss
    trussness: Dict[Edge, int]
    #: initial triangle support per edge (before any peeling)
    initial_support: Dict[Edge, int]

    def max_trussness(self) -> int:
        return max(self.trussness.values(), default=2)

    def k_truss_edges(self, k: int) -> Set[Edge]:
        """Edges belonging to the k-truss (every edge with trussness >= k)."""
        return {edge for edge, value in self.trussness.items() if value >= k}

    def truss_sizes(self) -> Dict[int, int]:
        """Number of edges whose trussness is exactly k, for every k present."""
        out: Dict[int, int] = {}
        for value in self.trussness.values():
            out[value] = out.get(value, 0) + 1
        return out


def truss_decomposition(
    graph: DistributedGraph,
    dodgr: Optional[DODGraph] = None,
    algorithm: str = "push_pull",
    graph_name: Optional[str] = None,
    engine: EngineSelector = None,
) -> TrussDecomposition:
    """Compute the trussness of every edge of ``graph``.

    The triangle-support survey runs distributed (on the columnar engine by
    default, so the initial supports come out of
    :meth:`~repro.core.callbacks.EdgeSupportCounter.callback_batch`); the
    peeling post-processing runs on the gathered (graph, support) pair,
    which is proportional to the edge count — the quantity the paper's
    applications treat as small enough to post-process on one machine.

    The peel itself is a bucket queue over support values fed by a
    triangle-incidence index: every triangle is enumerated exactly once up
    front (index-ordered neighbour intersection), and peeling an edge walks
    its incident triangles directly instead of recomputing an
    ``adjacency[u] & adjacency[v]`` set intersection per peeled edge — the
    former hot spot of the decomposition.
    """
    world = graph.world
    if dodgr is None:
        dodgr = DODGraph.build(graph, mode="bulk")

    counter = EdgeSupportCounter(world)
    report = triangle_survey(
        dodgr, counter.callback, algorithm, graph_name=graph_name, engine=engine
    )
    counter.finalize()
    initial_support = counter.result()

    # ------------------------------------------------------------------
    # Peeling on the gathered graph.
    # ------------------------------------------------------------------
    adjacency: Dict[Hashable, Set[Hashable]] = {}
    for u, v, _meta in graph.edges():
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    support: Dict[Edge, int] = {}
    for u, v, _meta in graph.edges():
        support[_edge_key(u, v)] = initial_support.get(_edge_key(u, v), 0)

    # One-shot triangle incidence: enumerate each triangle once (vertices in
    # insertion-index order, so Δuvw is found exactly at its lowest-index
    # edge) and invert into edge -> incident triangle ids.
    index_of: Dict[Hashable, int] = {v: i for i, v in enumerate(adjacency)}
    triangles: List[Tuple[Edge, Edge, Edge]] = []
    triangles_of: Dict[Edge, List[int]] = {}
    for u, neighbours in adjacency.items():
        iu = index_of[u]
        for v in neighbours:
            if index_of[v] <= iu:
                continue
            iv = index_of[v]
            for w in neighbours & adjacency[v]:
                if index_of[w] <= iv:
                    continue
                tri = (_edge_key(u, v), _edge_key(u, w), _edge_key(v, w))
                tri_id = len(triangles)
                triangles.append(tri)
                for edge in tri:
                    triangles_of.setdefault(edge, []).append(tri_id)

    # Bucket queue over support values (supports only ever decrease).
    trussness: Dict[Edge, int] = {}
    remaining = set(support)
    buckets: Dict[int, Set[Edge]] = {}
    for edge, value in support.items():
        buckets.setdefault(value, set()).add(edge)

    current_support = dict(support)
    empty: List[int] = []
    level = 0
    processed = 0
    while processed < len(support):
        while level not in buckets or not buckets[level]:
            level += 1
            if level > len(support) + 2:  # pragma: no cover - safety valve
                break
        if level not in buckets or not buckets[level]:
            break
        edge = buckets[level].pop()
        if edge not in remaining:
            continue
        # Trussness of an edge peeled at support s is s + 2.
        trussness[edge] = level + 2
        remaining.discard(edge)
        processed += 1
        # Every surviving triangle through this edge loses it; the two other
        # edges (if both still present) each lose one unit of support.
        for tri_id in triangles_of.get(edge, empty):
            e1, e2, e3 = triangles[tri_id]
            if e1 == edge:
                others = (e2, e3)
            elif e2 == edge:
                others = (e1, e3)
            else:
                others = (e1, e2)
            if others[0] not in remaining or others[1] not in remaining:
                continue
            for other in others:
                old = current_support[other]
                new = max(level, old - 1)
                if new != old:
                    buckets[old].discard(other)
                    buckets.setdefault(new, set()).add(other)
                    current_support[other] = new

    return TrussDecomposition(
        report=report, trussness=trussness, initial_support=dict(support)
    )
