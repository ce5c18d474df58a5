"""Clustering coefficients and truss support from local triangle counts.

The paper lists local triangle counting applications — clustering
coefficients, truss decomposition, community detection, vertex role
analysis — as the workloads whose callbacks "merely increment local
counters".  This module drives those workloads end-to-end: run a survey with
the local-counting callbacks, then derive clustering coefficients (per
vertex and averaged) and truss support / k-truss membership from the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..core.callbacks import EdgeSupportCounter, LocalTriangleCounter
from ..core.engine import EngineSelector
from ..core.push_pull import triangle_survey
from ..core.results import SurveyReport
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph

__all__ = [
    "run_clustering_coefficients",
    "run_truss_support",
]


@dataclass
class ClusteringResult:
    report: SurveyReport
    #: per-vertex triangle participation
    local_counts: Dict[Hashable, int]
    #: per-vertex clustering coefficient
    coefficients: Dict[Hashable, float]

    def average_clustering(self) -> float:
        if not self.coefficients:
            return 0.0
        return sum(self.coefficients.values()) / len(self.coefficients)

    def global_triangles(self) -> int:
        return sum(self.local_counts.values()) // 3


@dataclass
class TrussResult:
    report: SurveyReport
    #: per-edge triangle support, keyed by canonically ordered vertex pair
    support: Dict[Tuple[Hashable, Hashable], int]

    def max_support(self) -> int:
        return max(self.support.values(), default=0)

    def edges_with_support_at_least(self, k: int) -> int:
        """Number of edges with support >= k (the k+2-truss candidate set)."""
        return sum(1 for value in self.support.values() if value >= k)


def run_clustering_coefficients(
    graph: DistributedGraph,
    dodgr: Optional[DODGraph] = None,
    algorithm: str = "push_pull",
    graph_name: Optional[str] = None,
    engine: EngineSelector = None,
) -> ClusteringResult:
    """Compute per-vertex clustering coefficients with a local-count survey.

    Runs on the columnar engine by default — the per-vertex counts flow
    through :meth:`LocalTriangleCounter.callback_batch`.  ``engine`` accepts
    any registered engine name or an
    :class:`~repro.core.engine.EngineConfig`.
    """
    world = graph.world
    if dodgr is None:
        dodgr = DODGraph.build(graph, mode="bulk")
    counter = LocalTriangleCounter(world)
    report = triangle_survey(
        dodgr, counter.callback, algorithm, graph_name=graph_name, engine=engine
    )
    counter.finalize()
    local_counts = counter.result()

    coefficients: Dict[Hashable, float] = {}
    for rank in range(world.nranks):
        for vertex, record in graph.local_vertices(rank):
            degree = len(record["adj"])
            possible = degree * (degree - 1) / 2
            triangles = local_counts.get(vertex, 0)
            coefficients[vertex] = (triangles / possible) if possible > 0 else 0.0
    return ClusteringResult(report=report, local_counts=local_counts, coefficients=coefficients)


def run_truss_support(
    graph: DistributedGraph,
    dodgr: Optional[DODGraph] = None,
    algorithm: str = "push_pull",
    graph_name: Optional[str] = None,
    engine: EngineSelector = None,
) -> TrussResult:
    """Compute per-edge triangle support (truss decomposition input)."""
    world = graph.world
    if dodgr is None:
        dodgr = DODGraph.build(graph, mode="bulk")
    counter = EdgeSupportCounter(world)
    report = triangle_survey(
        dodgr, counter.callback, algorithm, graph_name=graph_name, engine=engine
    )
    counter.finalize()
    return TrussResult(report=report, support=counter.result())
