"""Vertex partitioners: assign each vertex id to an owning rank.

Section 4.2: "We use random or cyclic partitionings of vertices across MPI
ranks and do not attempt to do more sophisticated partitionings in this
work."  Constructing G+ tames the hub vertices enough that cyclic/random
placement is palatable.  These partitioners are small strategy objects so
that the graph structures and the tests share one interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, Iterable, List

import numpy as _np

from ..runtime.world import stable_hash, stable_hash_int_array, stable_tuple_hash_array

__all__ = ["Partitioner", "CyclicPartitioner", "HashPartitioner"]


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
