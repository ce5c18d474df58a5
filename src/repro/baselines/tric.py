"""TriC-style edge-centric triangle counting baseline.

Reimplementation (on the simulated runtime) of the algorithmic skeleton of
TriC (Ghosh & Halappanavar, HPEC 2020 Graph Challenge): edges are spread
across ranks in *edge-balanced* partitions and triangles are identified by
per-edge enumeration — for every owned edge (u, v) the rank obtains the
adjacency lists of both endpoints from their (vertex-partitioned) owners and
intersects them.

Because adjacency lists are shipped once per incident edge rather than once
per rank, the communication volume is far higher than either TriPoll
formulation; combined with the extra state kept per in-flight edge this is
what makes the baseline the slowest (and most memory-hungry) entry of
Table 2, which is exactly the behaviour the published numbers show (minutes
where TriPoll needs seconds, out-of-memory on Twitter).
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Tuple

from ..graph.degree import order_key
from ..graph.distributed_graph import DistributedGraph
from ..core.results import SurveyReport

__all__ = ["tric_triangle_count"]

REQUEST_PHASE = "adjacency_request"
DELIVER_PHASE = "adjacency_deliver"
INTERSECT_PHASE = "edge_intersect"


def tric_triangle_count(
    graph: DistributedGraph,
    reset_stats: bool = True,
    graph_name: Optional[str] = None,
) -> SurveyReport:
    """Count triangles with the TriC-style per-edge enumeration.

    Parameters
    ----------
    graph:
        The decorated undirected input graph (metadata is ignored — this
        baseline counts only).
    reset_stats:
        Clear the world's counters first so the report covers only this run.
    graph_name:
        Name recorded in the returned report (defaults to ``graph.name``).

    Returns a :class:`~repro.core.results.SurveyReport` whose
    ``adjacency_request`` / ``edge_intersect`` phases carry the Table 2
    communication breakdown.
    """
    world = graph.world
    nranks = world.nranks
    if reset_stats:
        world.reset_stats()

    degrees: Dict[Hashable, int] = graph.degrees()
    keys = {v: order_key(v, d) for v, d in degrees.items()}

    # Degree-ordered out-adjacency, stored at the vertex owner (the structure
    # adjacency requests are answered from).
    out_adjacency: List[Dict[Hashable, List[Hashable]]] = [dict() for _ in range(nranks)]
    for rank in range(nranks):
        for u, record in graph.local_vertices(rank):
            ku = keys[u]
            out_adjacency[rank][u] = sorted(
                (v for v in record["adj"] if ku < keys[v]), key=lambda v: keys[v]
            )

    # Edge-balanced partition: oriented edges dealt round-robin to ranks.
    edge_partitions: List[List[Tuple[Hashable, Hashable]]] = [[] for _ in range(nranks)]
    next_rank = 0
    for rank in range(nranks):
        for u, adjacency in out_adjacency[rank].items():
            for v in adjacency:
                edge_partitions[next_rank].append((u, v))
                next_rank = (next_rank + 1) % nranks

    # Per-rank in-flight state: edge -> {vertex: adjacency list}
    pending: List[Dict[Tuple[Hashable, Hashable], Dict[Hashable, List[Hashable]]]] = [
        dict() for _ in range(nranks)
    ]
    triangle_counts = [0] * nranks

    def _request_handler(ctx, vertex: Hashable, edge: Tuple[Hashable, Hashable], requester: int) -> None:
        adjacency = out_adjacency[ctx.rank].get(vertex, [])
        ctx.async_call(requester, h_deliver, vertex, edge, adjacency)

    def _deliver_handler(ctx, vertex: Hashable, edge: Tuple[Hashable, Hashable], adjacency: List[Hashable]) -> None:
        pending[ctx.rank].setdefault(tuple(edge), {})[vertex] = adjacency

    h_request = world.register_handler(_request_handler)
    h_deliver = world.register_handler(_deliver_handler)

    host_start = time.perf_counter()

    # ------------------------------------------------------------------
    # Phase 1: every edge owner requests both endpoint adjacency lists.
    # ------------------------------------------------------------------
    world.begin_phase(REQUEST_PHASE)
    for ctx in world.ranks:
        for (u, v) in edge_partitions[ctx.rank]:
            ctx.async_call(graph.owner(u), h_request, u, (u, v), ctx.rank)
            ctx.async_call(graph.owner(v), h_request, v, (u, v), ctx.rank)
    world.barrier()

    # The deliveries triggered by the requests complete inside the same
    # barrier (fire-and-forget chains run to quiescence), so by now every
    # edge owner holds both adjacency lists.  The phase split below exists to
    # attribute intersection work separately from the traffic.

    # ------------------------------------------------------------------
    # Phase 2: per-edge intersection of the two endpoint adjacency lists.
    # ------------------------------------------------------------------
    world.begin_phase(INTERSECT_PHASE)
    for ctx in world.ranks:
        rank = ctx.rank
        for (u, v) in edge_partitions[rank]:
            lists = pending[rank].get((u, v))
            if lists is None:
                continue
            adj_u = lists.get(u, [])
            adj_v = set(lists.get(v, []))
            ctx.add_counter("wedge_checks", len(adj_u))
            for candidate in adj_u:
                ctx.add_compute(1)
                if candidate in adj_v:
                    triangle_counts[rank] += 1
                    ctx.add_counter("triangles_found", 1)
    world.barrier()

    host_seconds = time.perf_counter() - host_start
    phases = [REQUEST_PHASE, INTERSECT_PHASE]
    simulated = world.simulated_time(phases=phases)
    report = SurveyReport.from_world_stats(
        algorithm="tric",
        graph_name=graph_name or graph.name,
        world_stats=world.stats,
        simulated=simulated,
        phases=phases,
        host_seconds=host_seconds,
    )
    report.triangles = sum(triangle_counts)
    return report
