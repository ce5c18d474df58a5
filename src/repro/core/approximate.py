"""Approximate triangle counting by edge sparsification (DOULION-style).

The paper's introduction notes that "techniques that approximate triangle
counts suffice for an application" in many cases, and positions TriPoll for
the cases where they do not.  For completeness this module provides the
classic sparsification estimator on top of the same survey machinery: keep
each undirected edge independently with probability ``p``, count triangles in
the sparsified graph exactly with TriPoll, and scale by ``1 / p^3``.  The
estimator is unbiased; its variance shrinks as ``p`` grows and as the triangle
count grows.

Because the sparsified survey is a full TriPoll run, it inherits the
callback interface: callbacks can also be surveyed approximately, with each
surveyed triangle representative of ``1/p^3`` real ones in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..graph.columnar import object_column
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..runtime.world import World
from .push_pull import triangle_survey_push_pull
from .results import SurveyReport
from .survey import TriangleCallback, triangle_survey_push

__all__ = [
    "SurvivorEstimate",
    "approximate_triangle_count",
    "survivor_triangle_estimate",
]


@dataclass
class ApproximateCount:
    """Result of one sparsified counting run."""

    #: estimated triangle count of the original graph (sampled count / p^3)
    estimate: float
    #: exact triangle count of the sparsified graph
    sampled_triangles: int
    #: edge-keeping probability used
    probability: float
    #: edges kept / edges in the original graph
    kept_edges: int
    original_edges: int
    #: telemetry of the survey over the sparsified graph
    report: SurveyReport

    @property
    def scale_factor(self) -> float:
        return 1.0 / self.probability**3

    @property
    def stderr(self) -> float:
        """Binomial-thinning standard error of :attr:`estimate` (heuristic).

        Each of the ``~estimate`` true triangles keeps all three edges with
        probability ``p^3``, so the scaled-up count carries a standard
        error of ``sqrt(estimate * (1/p^3 - 1))`` — the same heuristic as
        :attr:`SurvivorEstimate.stderr`, here over edge sampling.  (The
        DOULION variance also has cross terms from triangles sharing
        edges; this is the independent-thinning floor, exact at ``p = 1``.)
        """
        p3 = self.probability**3
        return float(np.sqrt(max(self.estimate, 0.0) * (1.0 / p3 - 1.0)))

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """``z``-sigma interval around the estimate (clamped at zero)."""
        spread = z * self.stderr
        return (max(0.0, self.estimate - spread), self.estimate + spread)

    def relative_error(self, exact: int) -> float:
        """|estimate - exact| / exact (for evaluation against a known truth)."""
        if exact == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - exact) / exact


def sparsify_graph(
    graph: DistributedGraph,
    probability: float,
    seed: int = 0,
    name: Optional[str] = None,
) -> DistributedGraph:
    """Keep each undirected edge of ``graph`` independently with ``probability``.

    Vertex metadata is preserved for every vertex (including those that lose
    all their edges); edge metadata is carried over for surviving edges.
    """
    if not 0.0 < probability <= 1.0:
        raise ValueError("probability must be in (0, 1]")
    default = graph.default_vertex_meta
    metas = graph.half_edge_columns().vertex_meta.tolist()
    # One draw per edge, in edges() order: m scalar rng.random() calls.
    draws = np.random.default_rng(seed).random(graph.num_undirected_edges())
    return graph.derive(
        name or f"{graph.name}.sparsified",
        vertex_meta=object_column([default if meta is None else meta for meta in metas]),
        keep_edges=draws < probability,
        default_vertex_meta=default,
    )


def approximate_triangle_count(
    graph: DistributedGraph,
    probability: float = 0.3,
    seed: int = 0,
    algorithm: str = "push_pull",
    callback: Optional[TriangleCallback] = None,
    graph_name: Optional[str] = None,
) -> ApproximateCount:
    """Estimate the triangle count of ``graph`` by edge sparsification.

    Parameters
    ----------
    probability:
        Edge keeping probability ``p``; the estimate is the sampled count
        times ``1/p^3``.  ``p = 1`` degenerates to exact counting.
    callback:
        Optional survey callback run on the triangles of the *sparsified*
        graph (each surviving triangle stands for ``1/p^3`` originals in
        expectation).
    """
    sparsified = sparsify_graph(graph, probability, seed=seed)
    dodgr = DODGraph.build(sparsified, mode="bulk")
    if algorithm == "push":
        report = triangle_survey_push(dodgr, callback, graph_name=graph_name or graph.name)
    elif algorithm == "push_pull":
        report = triangle_survey_push_pull(dodgr, callback, graph_name=graph_name or graph.name)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    sampled = report.triangles
    return ApproximateCount(
        estimate=sampled / probability**3,
        sampled_triangles=sampled,
        probability=probability,
        kept_edges=sparsified.num_undirected_edges(),
        original_edges=graph.num_undirected_edges(),
        report=report,
    )


# ---------------------------------------------------------------------------
# Degraded surveys: estimate from the survivors of a permanent rank loss
# ---------------------------------------------------------------------------


@dataclass
class SurvivorEstimate:
    """Triangle estimate from the ranks that outlived a permanent crash.

    Losing rank ``r`` forever loses its vertex partition.  Hash
    partitioning assigns vertices (pseudo-)uniformly, so the surviving
    vertex set behaves like a uniform vertex sample of rate ``p`` — a
    triangle survives iff all three corners do, i.e. with probability
    ``~p^3`` — which makes the DOULION-style scale-up
    ``survivors / p^3`` the natural estimator, now over *vertex* instead of
    edge sampling.  The error bound is the matching binomial-thinning
    heuristic: each of the ``~estimate`` true triangles survives
    independently with probability ``p^3``, giving the scaled count a
    standard error of ``sqrt(estimate * (1/p^3 - 1))``.
    """

    #: estimated triangle count of the full graph
    estimate: float
    #: exact triangle count among the surviving partitions
    surviving_triangles: int
    #: fraction of vertices owned by surviving ranks
    survival_probability: float
    lost_ranks: Tuple[int, ...]
    surviving_vertices: int
    total_vertices: int
    #: telemetry of the survey over the survivor subgraph
    report: SurveyReport

    @property
    def scale_factor(self) -> float:
        return 1.0 / self.survival_probability**3

    @property
    def stderr(self) -> float:
        """Binomial-thinning standard error of :attr:`estimate` (heuristic)."""
        p3 = self.survival_probability**3
        return float(np.sqrt(max(self.estimate, 0.0) * (1.0 / p3 - 1.0)))

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """``z``-sigma interval around the estimate (clamped at zero)."""
        spread = z * self.stderr
        return (max(0.0, self.estimate - spread), self.estimate + spread)

    def relative_error(self, exact: int) -> float:
        """|estimate - exact| / exact (for evaluation against a known truth)."""
        if exact == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - exact) / exact


def survivor_triangle_estimate(
    graph: DistributedGraph,
    lost_ranks: Iterable[int],
    algorithm: str = "push",
    graph_name: Optional[str] = None,
) -> SurvivorEstimate:
    """Estimate the triangle count of ``graph`` after permanently losing ranks.

    This is the graceful-degradation path of the checkpoint/restart layer
    (``core/engine/checkpoint.py``): when a crashed rank exceeds its restart
    budget (or the fault plan marks the crash unrecoverable), the survey
    routes here instead of failing.  The estimate surveys the *survivor
    subgraph* — every edge whose two endpoints live on surviving ranks — on a
    fresh world of the surviving size, then scales by ``1 / p^3`` where
    ``p`` is the surviving vertex fraction (see :class:`SurvivorEstimate`).
    """
    world = graph.world
    lost = {rank % world.nranks for rank in lost_ranks}
    if not lost:
        raise ValueError("survivor estimate requires at least one lost rank")
    if len(lost) >= world.nranks:
        raise ValueError("no surviving ranks to estimate from")
    counts = np.asarray(graph.rank_vertex_counts())
    surviving = np.ones(world.nranks, dtype=bool)
    surviving[list(lost)] = False
    total_vertices, surviving_vertices = int(counts.sum()), int(counts[surviving].sum())
    if not surviving_vertices:
        raise ValueError("surviving ranks own no vertices")
    survivors = graph.derive(
        f"{graph.name}.survivors",
        keep_vertices=np.repeat(surviving, counts),
        world=World(world.nranks - len(lost)),
    )
    dodgr = DODGraph.build(survivors, mode="bulk")
    name = graph_name or f"{graph.name}.survivors"
    if algorithm == "push":
        report = triangle_survey_push(dodgr, None, graph_name=name)
    elif algorithm == "push_pull":
        report = triangle_survey_push_pull(dodgr, None, graph_name=name)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    probability = surviving_vertices / total_vertices
    return SurvivorEstimate(
        estimate=report.triangles / probability**3,
        surviving_triangles=report.triangles,
        survival_probability=probability,
        lost_ranks=tuple(sorted(lost)),
        surviving_vertices=surviving_vertices,
        total_vertices=total_vertices,
        report=report,
    )
