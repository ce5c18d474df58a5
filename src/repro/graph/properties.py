"""Graph properties reported in Table 1 of the paper.

For every dataset the paper lists ``|V|``, ``|E|`` (symmetrized/directed edge
count), ``|T|`` (triangle count), ``d_max`` (maximum degree) and ``d+_max``
(maximum out-degree in the degree-ordered directed graph).  This module
computes those quantities from raw edge records or a
:class:`GeneratedGraph`, including a fast serial
forward-algorithm triangle counter that doubles as the ground-truth oracle
for the distributed algorithms' tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from .degree import order_key
from .generators import GeneratedGraph

__all__ = [
    "build_adjacency",
    "serial_triangle_count",
    "serial_triangle_list",
    "dodgr_wedge_count",
    "summarize_edges",
]


@dataclass(frozen=True)
class GraphSummary:
    """The row of Table 1 for one dataset."""

    name: str
    num_vertices: int
    num_directed_edges: int
    num_triangles: int
    max_degree: int
    max_dodgr_out_degree: int
    wedge_count: int

    def as_row(self) -> Dict[str, Any]:
        return {
            "Graph": self.name,
            "|V|": self.num_vertices,
            "|E|": self.num_directed_edges,
            "|T|": self.num_triangles,
            "d_max": self.max_degree,
            "d+_max": self.max_dodgr_out_degree,
            "|W+|": self.wedge_count,
        }


# ---------------------------------------------------------------------------
# Serial reference computations
# ---------------------------------------------------------------------------


def build_adjacency(
    edges: Iterable[Tuple[Hashable, Hashable] | Tuple[Hashable, Hashable, Any]],
) -> Dict[Hashable, Set[Hashable]]:
    """Undirected adjacency sets from edge records (self loops dropped)."""
    adjacency: Dict[Hashable, Set[Hashable]] = {}
    for edge in edges:
        u, v = edge[0], edge[1]
        if u == v:
            continue
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return adjacency


def _dodgr_out_neighbours(
    adjacency: Dict[Hashable, Set[Hashable]],
) -> Dict[Hashable, List[Hashable]]:
    """Out-neighbour lists of the degree-ordered orientation of ``adjacency``."""
    keys = {u: order_key(u, len(neigh)) for u, neigh in adjacency.items()}
    out: Dict[Hashable, List[Hashable]] = {}
    for u, neighbours in adjacency.items():
        ku = keys[u]
        out[u] = sorted((v for v in neighbours if ku < keys[v]), key=lambda v: keys[v])
    return out


def serial_triangle_count(
    edges: Iterable[Tuple[Hashable, Hashable] | Tuple[Hashable, Hashable, Any]],
) -> int:
    """Exact triangle count via the serial forward (degree-ordered) algorithm."""
    adjacency = build_adjacency(edges)
    dodgr = _dodgr_out_neighbours(adjacency)
    out_sets = {u: set(nbrs) for u, nbrs in dodgr.items()}
    count = 0
    for p, out_p in dodgr.items():
        for i, q in enumerate(out_p):
            out_q = out_sets[q]
            for r in out_p[i + 1 :]:
                if r in out_q:
                    count += 1
    return count


def serial_triangle_list(
    edges: Iterable[Tuple[Hashable, Hashable] | Tuple[Hashable, Hashable, Any]],
) -> List[Tuple[Hashable, Hashable, Hashable]]:
    """All triangles as (p, q, r) tuples with p <+ q <+ r (test oracle)."""
    adjacency = build_adjacency(edges)
    dodgr = _dodgr_out_neighbours(adjacency)
    out_sets = {u: set(nbrs) for u, nbrs in dodgr.items()}
    triangles: List[Tuple[Hashable, Hashable, Hashable]] = []
    for p, out_p in dodgr.items():
        for i, q in enumerate(out_p):
            out_q = out_sets[q]
            for r in out_p[i + 1 :]:
                if r in out_q:
                    triangles.append((p, q, r))
    return triangles


def dodgr_wedge_count(
    edges: Iterable[Tuple[Hashable, Hashable] | Tuple[Hashable, Hashable, Any]],
) -> int:
    """|W+| — the number of wedge checks the push algorithm generates."""
    adjacency = build_adjacency(edges)
    dodgr = _dodgr_out_neighbours(adjacency)
    return sum(len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in dodgr.values())


# ---------------------------------------------------------------------------
# Summaries (Table 1 rows)
# ---------------------------------------------------------------------------


def summarize_edges(
    edges: List[Tuple[Hashable, Hashable, Any]] | GeneratedGraph,
    name: Optional[str] = None,
) -> GraphSummary:
    """Compute a Table 1 row from raw edge records or a generated graph."""
    if isinstance(edges, GeneratedGraph):
        records = edges.edges
        graph_name = name or edges.name
    else:
        records = list(edges)
        graph_name = name or "graph"
    adjacency = build_adjacency(records)
    dodgr = _dodgr_out_neighbours(adjacency)
    out_sets = {u: set(nbrs) for u, nbrs in dodgr.items()}
    triangles = 0
    for p, out_p in dodgr.items():
        for i, q in enumerate(out_p):
            out_q = out_sets[q]
            for r in out_p[i + 1 :]:
                if r in out_q:
                    triangles += 1
    return GraphSummary(
        name=graph_name,
        num_vertices=len(adjacency),
        num_directed_edges=sum(len(neigh) for neigh in adjacency.values()),
        num_triangles=triangles,
        max_degree=max((len(neigh) for neigh in adjacency.values()), default=0),
        max_dodgr_out_degree=max((len(nbrs) for nbrs in dodgr.values()), default=0),
        wedge_count=sum(len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in dodgr.values()),
    )
