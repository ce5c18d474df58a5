"""repro — a reproduction of TriPoll (Steil et al., SC 2021).

TriPoll computes *surveys of triangles* in massive graphs whose vertices and
edges carry metadata (labels, timestamps, strings): every triangle in the
graph is identified and a user-supplied callback runs on its six pieces of
metadata at the rank where they are colocated.

This package reimplements the complete system in Python on a simulated
distributed runtime (no MPI required):

* :mod:`repro.runtime` — the YGM-style asynchronous communication substrate
  (buffered fire-and-forget RPC, serialization, cost model).
* :mod:`repro.containers` — the distributed counting set every survey
  histogram lives in.
* :mod:`repro.graph` — decorated temporal graph storage, the degree-ordered
  directed graph (DODGr), generators, and I/O.
* :mod:`repro.core` — the TriPoll surveys (Push-Only and Push-Pull) and the
  callback library.
* :mod:`repro.baselines` — Pearce-, Tom & Karypis- and TriC-style triangle
  counting baselines plus serial/networkx oracles.
* :mod:`repro.analysis` — the paper's application studies (closure times,
  FQDN surveys, degree triples, clustering/truss).
* :mod:`repro.bench` — dataset stand-ins, scaling drivers and reporting used
  by the benchmark suite.

Quickstart::

    from repro import World, DODGraph, rmat, triangle_survey, TriangleCounter

    world = World(nranks=8)
    graph = rmat(12, edge_factor=8).to_distributed(world)
    dodgr = DODGraph.build(graph)
    counter = TriangleCounter(world)
    report = triangle_survey(dodgr, counter.callback)
    print(counter.result(), report.simulated_seconds)
"""

from .containers import DistributedCountingSet
from .core import (
    ClosureTimeSurvey,
    DegreeTripleSurvey,
    EdgeSupportCounter,
    EngineConfig,
    EngineSpec,
    FqdnTripleSurvey,
    LocalTriangleCounter,
    MaxEdgeLabelDistribution,
    StreamingSurvey,
    SurveyReport,
    TriangleCounter,
    engine_names,
    incremental_triangle_survey,
    triangle_survey,
    triangle_survey_push,
    triangle_survey_push_pull,
)
from .graph import (
    AppliedDelta,
    DeltaBuffer,
    DODGraph,
    DistributedEdgeList,
    DistributedGraph,
    GeneratedGraph,
    TriangleMetadata,
    chung_lu_power_law,
    clustered_web_graph,
    community_host_graph,
    erdos_renyi,
    fqdn_web_graph,
    reddit_like_temporal_graph,
    rmat,
)
from .runtime import CostModel, RankContext, World

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "World",
    "RankContext",
    "CostModel",
    "DistributedCountingSet",
    "DistributedGraph",
    "DistributedEdgeList",
    "DODGraph",
    "GeneratedGraph",
    "TriangleMetadata",
    "rmat",
    "erdos_renyi",
    "chung_lu_power_law",
    "clustered_web_graph",
    "community_host_graph",
    "reddit_like_temporal_graph",
    "fqdn_web_graph",
    "triangle_survey",
    "triangle_survey_push",
    "triangle_survey_push_pull",
    "incremental_triangle_survey",
    "EngineSpec",
    "EngineConfig",
    "engine_names",
    "StreamingSurvey",
    "DeltaBuffer",
    "AppliedDelta",
    "SurveyReport",
    "TriangleCounter",
    "LocalTriangleCounter",
    "EdgeSupportCounter",
    "MaxEdgeLabelDistribution",
    "ClosureTimeSurvey",
    "DegreeTripleSurvey",
    "FqdnTripleSurvey",
]
