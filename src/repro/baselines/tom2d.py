"""Tom & Karypis-style 2D triangle counting baseline.

Reimplementation (on the simulated runtime) of the algorithmic skeleton of
"A 2D Parallel Triangle Counting Algorithm for Distributed-Memory
Architectures" (ICPP 2019): the degree-ordered adjacency matrix A is
partitioned over a sqrt(P) x sqrt(P) process grid, and the count is the
number of nonzeros of (A · A) masked by A, computed block-wise like Cannon's
matrix multiplication — process (i, j) accumulates contributions from
A(i, k) · A(k, j) for every k, receiving the row and column blocks it does
not own as bulk messages.

Characteristics this reproduces faithfully:

* requires a perfect-square number of ranks (the paper notes this constraint
  when choosing 1024-core runs for Table 2);
* communication is a small number of very large block transfers — total
  volume O(|E| · sqrt(P)) — instead of per-wedge traffic, which is why it
  achieves the best raw throughput on mid-sized social graphs but loses
  ground as P grows;
* no metadata support: this is a counting-only system.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..graph.degree import order_key
from ..graph.distributed_graph import DistributedGraph
from ..runtime.world import stable_hash
from ..core.results import SurveyReport

__all__ = ["tom2d_triangle_count", "is_perfect_square"]

EXCHANGE_PHASE = "block_exchange"
MULTIPLY_PHASE = "block_multiply"


def is_perfect_square(value: int) -> bool:
    """True when ``value`` is a perfect square (the 2D grid constraint)."""
    root = math.isqrt(value)
    return root * root == value


def _vertex_group(vertex: Hashable, grid: int) -> int:
    """Row/column group of a vertex on the sqrt(P) x sqrt(P) process grid."""
    return stable_hash(("tom2d", vertex)) % grid


def tom2d_triangle_count(
    graph: DistributedGraph,
    reset_stats: bool = True,
    graph_name: Optional[str] = None,
) -> SurveyReport:
    """Count triangles with the 2D block algorithm.

    Parameters
    ----------
    graph:
        The decorated undirected input graph (metadata is ignored — this
        baseline counts only).
    reset_stats:
        Clear the world's counters first so the report covers only this run.
    graph_name:
        Name recorded in the returned report (defaults to ``graph.name``).

    Returns a :class:`~repro.core.results.SurveyReport` with the
    ``block_exchange`` / ``block_multiply`` phase breakdown.  Raises
    ``ValueError`` if the world size is not a perfect square.
    """
    world = graph.world
    nranks = world.nranks
    if not is_perfect_square(nranks):
        raise ValueError(
            f"the 2D algorithm requires a perfect-square number of ranks, got {nranks}"
        )
    grid = math.isqrt(nranks)
    if reset_stats:
        world.reset_stats()

    def block_rank(i: int, j: int) -> int:
        return i * grid + j

    # ------------------------------------------------------------------
    # Build the degree-ordered directed edge blocks A(i, j).  In the real
    # system this is the (re)distribution step of the input; edges move from
    # the vertex-partitioned input graph to their block owner.
    # ------------------------------------------------------------------
    degrees: Dict[Hashable, int] = graph.degrees()
    keys = {v: order_key(v, d) for v, d in degrees.items()}

    blocks: List[List[Tuple[Hashable, Hashable]]] = [[] for _ in range(nranks)]
    for rank in range(world.nranks):
        for u, record in graph.local_vertices(rank):
            ku = keys[u]
            for v in record["adj"]:
                if ku < keys[v]:
                    i = _vertex_group(u, grid)
                    j = _vertex_group(v, grid)
                    blocks[block_rank(i, j)].append((u, v))

    triangle_counts = [0] * nranks
    # Received blocks per destination rank, keyed by ("row"/"col", k).
    received: List[Dict[Tuple[str, int], List[Tuple[Hashable, Hashable]]]] = [
        {} for _ in range(nranks)
    ]

    def _deliver_block_handler(ctx, kind: str, k: int, edges: List[Tuple[Hashable, Hashable]]) -> None:
        received[ctx.rank][(kind, k)] = edges

    h_deliver = world.register_handler(_deliver_block_handler)

    host_start = time.perf_counter()

    # ------------------------------------------------------------------
    # Phase 1: block exchange.  Process (i, j) needs A(i, k) (its row) and
    # A(k, j) (its column) for every k; each block owner ships its block to
    # the 2*(grid-1) processes that need it.
    # ------------------------------------------------------------------
    world.begin_phase(EXCHANGE_PHASE)
    for i in range(grid):
        for k in range(grid):
            owner_ctx = world.ranks[block_rank(i, k)]
            block_edges = blocks[block_rank(i, k)]
            for j in range(grid):
                dest = block_rank(i, j)
                if dest == owner_ctx.rank:
                    received[dest][("row", k)] = block_edges
                else:
                    owner_ctx.async_call(dest, h_deliver, "row", k, block_edges)
    # Column shipment: A(k, j) goes to every process (i, j) in column j.
    for k in range(grid):
        for j in range(grid):
            owner_ctx = world.ranks[block_rank(k, j)]
            block_edges = blocks[block_rank(k, j)]
            for i in range(grid):
                dest = block_rank(i, j)
                if dest == owner_ctx.rank:
                    received[dest][("col", k)] = block_edges
                else:
                    owner_ctx.async_call(dest, h_deliver, "col", k, block_edges)
    world.barrier()

    # ------------------------------------------------------------------
    # Phase 2: local block multiplication masked by the local block.
    # Process (i, j) counts, for every local edge (p, r) in A(i, j), the
    # number of x with (p, x) in A(i, k) and (x, r) in A(k, j).
    # ------------------------------------------------------------------
    world.begin_phase(MULTIPLY_PHASE)
    for i in range(grid):
        for j in range(grid):
            rank_id = block_rank(i, j)
            ctx = world.ranks[rank_id]
            local_mask: Set[Tuple[Hashable, Hashable]] = set(blocks[rank_id])
            if not local_mask:
                continue
            for k in range(grid):
                row_block = received[rank_id].get(("row", k), [])
                col_block = received[rank_id].get(("col", k), [])
                if not row_block or not col_block:
                    continue
                # Index the row block by its target x: x -> [p, ...]
                by_target: Dict[Hashable, List[Hashable]] = {}
                for p, x in row_block:
                    by_target.setdefault(x, []).append(p)
                for x, r in col_block:
                    sources = by_target.get(x)
                    if not sources:
                        ctx.add_compute(1)
                        continue
                    for p in sources:
                        ctx.add_compute(1)
                        ctx.add_counter("wedge_checks", 1)
                        if (p, r) in local_mask:
                            triangle_counts[rank_id] += 1
                            ctx.add_counter("triangles_found", 1)
    world.barrier()

    host_seconds = time.perf_counter() - host_start
    phases = [EXCHANGE_PHASE, MULTIPLY_PHASE]
    simulated = world.simulated_time(phases=phases)
    report = SurveyReport.from_world_stats(
        algorithm="tom2d",
        graph_name=graph_name or graph.name,
        world_stats=world.stats,
        simulated=simulated,
        phases=phases,
        host_seconds=host_seconds,
    )
    report.triangles = sum(triangle_counts)
    return report
