"""Vertex partitioners: assign each vertex id to an owning rank.

Section 4.2: "We use random or cyclic partitionings of vertices across MPI
ranks and do not attempt to do more sophisticated partitionings in this
work."  Constructing G+ tames the hub vertices enough that cyclic/random
placement is palatable.  These partitioners are small strategy objects so
that the graph structures, the baselines (which use different schemes — 2D
blocks for Tom et al., edge-balanced for TriC) and the tests can all share
one interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, Iterable, List

import numpy as _np

from ..runtime.world import stable_hash, stable_hash_int_array, stable_tuple_hash_array

__all__ = [
    "Partitioner",
    "CyclicPartitioner",
    "HashPartitioner",
    "BlockPartitioner",
    "ExplicitPartitioner",
    "partition_balance",
]


class Partitioner(ABC):
    """Maps vertex identifiers to owner ranks."""

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        self.nranks = nranks

    @abstractmethod
    def owner(self, vertex: Hashable) -> int:
        """Rank that owns ``vertex`` (0 <= owner < nranks)."""

    def owners(self, vertices: Iterable[Hashable]) -> List[int]:
        return [self.owner(v) for v in vertices]

    def owners_array(self, ids: Any) -> Any:
        """Owner ranks of a column of *integer* vertex ids, elementwise.

        ``owners_array(a)[i] == owner(int(a[i]))`` for int64-representable
        ids.  The base implementation loops; partitioners with arithmetic
        placement rules override it with vectorized NumPy paths — this is
        the bulk-ingest analogue of hoisting the per-vertex owner lookup out
        of the per-edge loop.  Boolean ids are out of scope (columns are
        genuine integer id spaces).
        """
        ids = _np.asarray(ids)
        return _np.fromiter(
            (self.owner(v) for v in ids.tolist()), dtype=_np.int64, count=len(ids)
        )


class CyclicPartitioner(Partitioner):
    """Round-robin by integer vertex id: vertex ``i`` lives on rank ``i % P``.

    Requires integer vertex ids; non-integers fall back to a stable hash.
    """

    def owner(self, vertex: Hashable) -> int:
        if isinstance(vertex, bool) or not isinstance(vertex, int):
            return stable_hash(vertex) % self.nranks
        return vertex % self.nranks

    def owners_array(self, ids: Any) -> Any:
        return _np.asarray(ids, dtype=_np.int64) % self.nranks


class HashPartitioner(Partitioner):
    """Pseudo-random placement via a deterministic 64-bit mix of the vertex id.

    This is the partitioner the paper's distributed map effectively uses
    (keys are hashed to ranks); it is the default for TriPoll graphs.
    """

    def __init__(self, nranks: int, seed: int = 0) -> None:
        super().__init__(nranks)
        self.seed = seed

    def owner(self, vertex: Hashable) -> int:
        if self.seed:
            return stable_hash((self.seed, vertex)) % self.nranks
        return stable_hash(vertex) % self.nranks

    def owners_array(self, ids: Any) -> Any:
        hashes = stable_hash_int_array(_np.asarray(ids, dtype=_np.int64))
        if self.seed:
            # Replay stable_hash((seed, vertex)) with the shared combiner.
            hashes = stable_tuple_hash_array([stable_hash(self.seed), hashes])
        return hashes % self.nranks


class BlockPartitioner(Partitioner):
    """Contiguous blocks of the integer id space: rank ``r`` owns ids in
    ``[r * ceil(n / P), (r+1) * ceil(n / P))``.

    Useful as a deliberately *bad* partitioner for scale-free graphs in the
    load-balance tests (hubs cluster in id ranges for some generators).
    """

    def __init__(self, nranks: int, num_vertices: int) -> None:
        super().__init__(nranks)
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.num_vertices = num_vertices
        self.block = (num_vertices + nranks - 1) // nranks if num_vertices else 1

    def owner(self, vertex: Hashable) -> int:
        if isinstance(vertex, bool) or not isinstance(vertex, int):
            return stable_hash(vertex) % self.nranks
        if vertex < 0:
            return stable_hash(vertex) % self.nranks
        return min(vertex // self.block, self.nranks - 1)

    def owners_array(self, ids: Any) -> Any:
        ids = _np.asarray(ids, dtype=_np.int64)
        owners = _np.minimum(ids // self.block, self.nranks - 1)
        negative = ids < 0
        if negative.any():
            owners[negative] = stable_hash_int_array(ids[negative]) % self.nranks
        return owners


class ExplicitPartitioner(Partitioner):
    """Placement given by an explicit vertex -> rank dictionary.

    Vertices missing from the assignment fall back to hash placement, so the
    structure stays usable when new vertices appear (e.g. during ingestion of
    a streamed edge list).
    """

    def __init__(self, nranks: int, assignment: Dict[Hashable, int]) -> None:
        super().__init__(nranks)
        for vertex, rank in assignment.items():
            if rank < 0 or rank >= nranks:
                raise ValueError(f"vertex {vertex!r} assigned to invalid rank {rank}")
        self.assignment = dict(assignment)

    def owner(self, vertex: Hashable) -> int:
        rank = self.assignment.get(vertex)
        if rank is None:
            return stable_hash(vertex) % self.nranks
        return rank


def partition_balance(partitioner: Partitioner, vertices: Iterable[Hashable]) -> Dict[str, float]:
    """Summarise how evenly a partitioner spreads ``vertices`` over ranks.

    Returns counts per rank plus the max/mean imbalance factor — the quantity
    that motivates the paper's observation that DODGr construction makes
    cyclic partitioning palatable.
    """
    counts = [0] * partitioner.nranks
    total = 0
    for vertex in vertices:
        counts[partitioner.owner(vertex)] += 1
        total += 1
    mean = total / partitioner.nranks if partitioner.nranks else 0.0
    imbalance = (max(counts) / mean) if mean > 0 else 1.0
    return {
        "counts": counts,
        "total": total,
        "mean": mean,
        "max": max(counts) if counts else 0,
        "imbalance": imbalance,
    }
