"""Collective reductions for the simulated world.

TriPoll's callbacks accumulate *local* state on each rank (a triangle
counter, a local counting-set cache, per-vertex participation counts); the
final survey result is obtained with an MPI ``All_Reduce``.  The helper here
provides the equivalent for the simulated world: it takes one value per
rank, sums them, and accounts the communication a binomial-tree reduction
would have cost (``log2(P)`` rounds of one message per participating rank),
so that the collective shows up in the simulated time and communication
volume like it would in the real system.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from .serialization import serialized_size
from .world import World

__all__ = ["all_reduce_sum"]


def _account_collective(world: World, values: Sequence[Any]) -> None:
    """Charge a binomial-tree reduction's traffic to the current phase."""
    if world.nranks <= 1:
        return
    rounds = max(1, int(math.ceil(math.log2(world.nranks))))
    for rank, value in enumerate(values):
        try:
            nbytes = serialized_size(value)
        except Exception:  # pragma: no cover - non-serializable reduction values
            nbytes = 64
        stats = world.stats.ranks[rank].current
        stats.wire_messages += rounds
        stats.wire_bytes += rounds * (nbytes + 64)
        stats.bytes_sent_remote += rounds * nbytes


def all_reduce_sum(world: World, per_rank_values: Sequence[Any]) -> Any:
    """Sum-reduce one value per rank (ints, floats, or anything supporting +);
    every rank gets the result."""
    if len(per_rank_values) != world.nranks:
        raise ValueError(
            f"expected {world.nranks} values (one per rank), got {len(per_rank_values)}"
        )
    _account_collective(world, per_rank_values)
    result = per_rank_values[0]
    for value in per_rank_values[1:]:
        result = result + value
    return result
