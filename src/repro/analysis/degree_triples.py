"""Degree-triple survey (Section 5.9: impact of metadata on performance).

The paper's metadata-impact experiment replaces the dummy boolean metadata of
the weak-scaling runs with each vertex's degree, and the callback counts
occurrences of ``(ceil(log2 d(p)), ceil(log2 d(q)), ceil(log2 d(r)))`` over
all triangles — a small amount of real metadata plus a non-trivial callback.
This module decorates a graph with its degrees and runs that survey.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.callbacks import DegreeTripleSurvey
from ..core.engine import EngineSelector
from ..core.push_pull import triangle_survey
from ..core.results import SurveyReport
from ..graph.columnar import object_column
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..graph.partition import Partitioner

__all__ = ["decorate_with_degrees", "run_degree_triple_survey"]


@dataclass
class DegreeTripleResult:
    report: SurveyReport
    #: histogram keyed by (log2-bucket of d(p), d(q), d(r))
    triples: Dict[Tuple[int, int, int], int]

    def triangles_surveyed(self) -> int:
        return sum(self.triples.values())


def decorate_with_degrees(
    graph: DistributedGraph,
    partitioner: Optional[Partitioner] = None,
    name: Optional[str] = None,
) -> DistributedGraph:
    """Return a copy of ``graph`` whose vertex metadata is the vertex degree.

    Edge metadata is preserved.  The copy keeps the original partitioner
    unless a different one is supplied.
    """
    return graph.derive(
        name or f"{graph.name}.degree_decorated",
        vertex_meta=object_column(graph.half_edge_columns().degree.tolist()),
        partitioner=partitioner,
    )


def run_degree_triple_survey(
    graph: DistributedGraph,
    dodgr: Optional[DODGraph] = None,
    algorithm: str = "push_pull",
    graph_name: Optional[str] = None,
    already_decorated: bool = False,
    engine: EngineSelector = None,
) -> DegreeTripleResult:
    """Decorate with degrees (unless told otherwise) and run the triple survey.

    ``engine`` accepts any registered engine name or an
    :class:`~repro.core.engine.EngineConfig`.
    """
    world = graph.world
    decorated = graph if already_decorated else decorate_with_degrees(graph)
    if dodgr is None:
        dodgr = DODGraph.build(decorated, mode="bulk")
    survey = DegreeTripleSurvey(world)
    report = triangle_survey(
        dodgr, survey.callback, algorithm, graph_name=graph_name, engine=engine
    )
    survey.finalize()
    return DegreeTripleResult(report=report, triples=survey.result())
