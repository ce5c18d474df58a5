"""Strong- and weak-scaling drivers (Figs. 4, 5, 7, 9 of the paper).

A "compute node" in these drivers is one virtual rank of the simulated world
(the paper runs 24 MPI ranks per physical node; the simulation collapses that
distinction — scaling behaviour is governed by the number of partitions, not
by what they are called).  Node counts are scaled down from the paper's
2-256 range to keep laptop runtimes reasonable; the *relative* behaviour
(speedups, stagnation at the largest counts, shrinking pull opportunities)
is what the benchmarks compare against the published trends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.engine import EngineSelector
from ..core.push_pull import triangle_survey
from ..core.results import SurveyReport
from ..core.wedges import work_rate
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..graph.generators import GeneratedGraph, rmat
from ..runtime.world import World

__all__ = [
    "run_survey_at_scale",
    "strong_scaling",
    "weak_scaling_rmat",
]

#: Factory for survey callbacks; receives the world and the distributed graph
#: and returns (callback, finalize) — finalize may be None.
CallbackFactory = Callable[[World, DistributedGraph], Any]


@dataclass
class ScalingPoint:
    """One (node count, survey run) measurement."""

    nodes: int
    report: SurveyReport
    wedges: int
    #: seconds of real time the simulation took (not simulated time)
    host_seconds: float

    @property
    def simulated_seconds(self) -> float:
        return self.report.simulated_seconds

    @property
    def work_rate(self) -> float:
        """Wedges processed per node per simulated second (Fig. 5 metric)."""
        return work_rate(self.wedges, self.nodes, self.simulated_seconds)


@dataclass
class ScalingResult:
    """A scaling sweep over node counts for one dataset + algorithm."""

    dataset: str
    algorithm: str
    points: List[ScalingPoint] = field(default_factory=list)

    def speedups(self) -> List[float]:
        """Speedup of each point relative to the smallest node count."""
        if not self.points:
            return []
        base = self.points[0].simulated_seconds
        return [base / p.simulated_seconds if p.simulated_seconds > 0 else 0.0 for p in self.points]

    def node_counts(self) -> List[int]:
        return [p.nodes for p in self.points]

    def phase_breakdowns(self) -> List[Dict[str, float]]:
        return [p.report.phase_breakdown() for p in self.points]

    def communication_bytes(self) -> List[int]:
        return [p.report.communication_bytes for p in self.points]

    def pulls_per_rank(self) -> List[float]:
        return [p.report.pulls_per_rank for p in self.points]

    def work_rates(self) -> List[float]:
        return [p.work_rate for p in self.points]


def run_survey_at_scale(
    dataset: GeneratedGraph,
    nodes: int,
    algorithm: str = "push_pull",
    callback_factory: Optional[CallbackFactory] = None,
    decorate: Optional[Callable[[DistributedGraph], DistributedGraph]] = None,
    engine: EngineSelector = None,
) -> ScalingPoint:
    """Distribute ``dataset`` over ``nodes`` ranks and run one survey.

    ``engine`` selects the execution strategy: any registered engine name
    (``columnar`` — the default, or ``legacy``) or an
    :class:`~repro.core.engine.EngineConfig`, which also picks the backend
    (``simulated`` — the default, or ``process`` with ``workers`` forked
    rank-shard workers).  Every engine and backend produces identical
    reports, differing only in host wall-clock, so the paper figures can be
    regenerated on any of them.
    """
    world = World(nodes)
    graph = dataset.to_distributed(world)
    if decorate is not None:
        graph = decorate(graph)
    dodgr = DODGraph.build(graph, mode="bulk")
    wedges = dodgr.wedge_count()

    callback = None
    finalize = None
    if callback_factory is not None:
        produced = callback_factory(world, graph)
        if isinstance(produced, tuple):
            callback, finalize = produced
        else:
            callback = produced

    host_start = time.perf_counter()
    report = triangle_survey(
        dodgr, callback, algorithm, graph_name=dataset.name, engine=engine
    )
    if finalize is not None:
        finalize()
    host_seconds = time.perf_counter() - host_start
    return ScalingPoint(nodes=nodes, report=report, wedges=wedges, host_seconds=host_seconds)


def strong_scaling(
    dataset: GeneratedGraph,
    node_counts: Sequence[int],
    algorithm: str = "push_pull",
    callback_factory: Optional[CallbackFactory] = None,
    decorate: Optional[Callable[[DistributedGraph], DistributedGraph]] = None,
    engine: EngineSelector = None,
) -> ScalingResult:
    """Fixed dataset, growing node counts (Figs. 4 and 7, Tables 3 and 4)."""
    result = ScalingResult(dataset=dataset.name, algorithm=algorithm)
    for nodes in node_counts:
        result.points.append(
            run_survey_at_scale(
                dataset,
                nodes,
                algorithm=algorithm,
                callback_factory=callback_factory,
                decorate=decorate,
                engine=engine,
            )
        )
    return result


def weak_scaling_rmat(
    node_counts: Sequence[int],
    scale_per_node: int = 10,
    edge_factor: int = 8,
    algorithm: str = "push_pull",
    callback_factory: Optional[CallbackFactory] = None,
    decorate: Optional[Callable[[DistributedGraph], DistributedGraph]] = None,
    seed: int = 99,
    engine: EngineSelector = None,
) -> ScalingResult:
    """R-MAT weak scaling: one R-MAT scale step per node-count doubling (Figs. 5/9).

    The paper uses a scale-24 R-MAT per node, from scale 24 on 1 node to
    scale 32 on 256 nodes; this driver keeps the same "scale grows with
    log2(nodes)" rule at a laptop-sized base scale.
    """
    result = ScalingResult(dataset=f"rmat_weak_s{scale_per_node}", algorithm=algorithm)
    for nodes in node_counts:
        scale = scale_per_node + max(0, (nodes - 1)).bit_length()
        graph = rmat(scale, edge_factor=edge_factor, seed=seed + scale, name=f"rmat_s{scale}")
        result.points.append(
            run_survey_at_scale(
                graph,
                nodes,
                algorithm=algorithm,
                callback_factory=callback_factory,
                decorate=decorate,
                engine=engine,
            )
        )
    return result
