"""Distributed counting set (histogram) with per-rank write caches.

Section 4.1.4 of the paper describes a "distributed counting set that keeps
individual counts of different items seen across ranks", used by every
non-trivial survey (max-edge-label distribution, Reddit closure times, FQDN
3-tuples, degree triples).  Each rank keeps a small cache of recently seen
items; when the cache fills (or at a barrier) the cached counts are flushed
to the owner ranks as asynchronous increments that interleave freely with
triangle-identification messages.

The counting set counts *hashable* items: ints, strings, tuples of such —
e.g. the pair ``(ceil(log2 dt_open), ceil(log2 dt_close))`` of Algorithm 4.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..runtime.world import RankContext, World, stable_hash

__all__ = ["DistributedCountingSet"]

#: Default number of distinct cached items per rank before a flush.
DEFAULT_CACHE_CAPACITY = 1024


class DistributedCountingSet:
    """Hash-partitioned item -> count histogram with write-back caches (the
    counting set of Section 4.5, used by the closure-time and FQDN surveys)."""

    def __init__(
        self,
        world: World,
        name: Optional[str] = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        if cache_capacity < 1:
            raise ValueError("cache_capacity must be at least 1")
        self.world = world
        if name is None:
            name = world.anonymous_name("counting_set")
        self.name = world.unique_name(name)
        self.cache_capacity = cache_capacity
        for ctx in world.ranks:
            ctx.local_state.setdefault(self._counts_slot, {})
            ctx.local_state.setdefault(self._cache_slot, {})
        self._h_increment = world.register_handler(
            self._handle_increment, f"{self.name}.increment"
        )

    # ------------------------------------------------------------------
    @property
    def _counts_slot(self) -> str:
        return f"container:{self.name}:counts"

    @property
    def _cache_slot(self) -> str:
        return f"container:{self.name}:cache"

    def _counts(self, ctx_or_rank: RankContext | int) -> Dict[Any, int]:
        ctx = (
            ctx_or_rank
            if isinstance(ctx_or_rank, RankContext)
            else self.world.rank(ctx_or_rank)
        )
        return ctx.local_state[self._counts_slot]

    def _cache(self, ctx: RankContext) -> Dict[Any, int]:
        return ctx.local_state[self._cache_slot]

    def owner(self, item: Any) -> int:
        """Rank that stores ``item``'s count (stable hash of name/item)."""
        return stable_hash((self.name, item)) % self.world.nranks

    # ------------------------------------------------------------------
    def _handle_increment(self, ctx: RankContext, item: Any, amount: int) -> None:
        counts = self._counts(ctx)
        counts[item] = counts.get(item, 0) + amount

    # ------------------------------------------------------------------
    def async_increment(self, ctx: RankContext, item: Any, amount: int = 1) -> None:
        """Count ``item`` from rank ``ctx`` (cached, flushed when the cache fills)."""
        if amount == 0:
            return
        cache = self._cache(ctx)
        cache[item] = cache.get(item, 0) + amount
        if len(cache) >= self.cache_capacity:
            self.flush_cache(ctx)

    def increment_run(self, ctx: RankContext, items: Iterable[Any]) -> None:
        """Apply one unit increment per item, in order, through the cache.

        Bit-identical to calling :meth:`async_increment` once per item —
        same cache contents, same eviction (capacity-flush) boundaries, same
        increment messages in the same order — with the per-item call
        overhead hoisted out.  This is the primitive the batch reducers
        (``callback_batch``) use to keep the columnar survey engine's
        communication byte-for-byte equal to the scalar callback path.
        """
        cache = self._cache(ctx)
        capacity = self.cache_capacity
        get = cache.get
        for item in items:
            cache[item] = get(item, 0) + 1
            if len(cache) >= capacity:
                self.flush_cache(ctx)

    def increment_grouped_run(
        self, ctx: RankContext, keys: List[Any], counts: List[int], inverse: Iterable[int]
    ) -> None:
        """:meth:`increment_run` over a run handed over pre-aggregated.

        The run is ``[keys[i] for i in inverse]``; ``keys`` are its distinct
        items in first-appearance order and ``counts`` their multiplicities.
        When the cache has room for every key it has not seen no eviction
        can fire during the run, so adding each key's count once leaves the
        cache (contents and insertion order) and the message stream exactly
        as the item-by-item walk would; otherwise the run is replayed
        through :meth:`increment_run`.
        """
        cache = self._cache(ctx)
        unseen = sum(key not in cache for key in keys)
        if len(cache) + unseen < self.cache_capacity:
            get = cache.get
            for key, count in zip(keys, counts):
                cache[key] = get(key, 0) + count
        else:
            self.increment_run(ctx, [keys[i] for i in inverse])

    def flush_cache(self, ctx: RankContext) -> None:
        """Send this rank's cached counts to their owner ranks."""
        cache = self._cache(ctx)
        if not cache:
            return
        items = list(cache.items())
        cache.clear()
        for item, amount in items:
            ctx.async_call(self.owner(item), self._h_increment, item, amount)

    def flush_all_caches(self) -> None:
        """Driver-side: flush every rank's cache (call before a barrier)."""
        for ctx in self.world.ranks:
            self.flush_cache(ctx)

    # ------------------------------------------------------------------
    # Driver-side inspection (after a barrier)
    # ------------------------------------------------------------------
    def local_counts(self, rank: int) -> Dict[Any, int]:
        return dict(self._counts(rank))

    def pending_cached(self) -> int:
        """Total count amount still sitting in caches (0 after a full flush + barrier)."""
        total = 0
        for ctx in self.world.ranks:
            total += sum(self._cache(ctx).values())
        return total

    def counts(self) -> Dict[Any, int]:
        """Gather the global histogram (item -> count)."""
        merged: Dict[Any, int] = {}
        for rank in range(self.world.nranks):
            for item, amount in self._counts(rank).items():
                merged[item] = merged.get(item, 0) + amount
        return merged

    def count_of(self, item: Any) -> int:
        return self._counts(self.owner(item)).get(item, 0)

    def total(self) -> int:
        """Sum of all counts (e.g. total number of triangles surveyed)."""
        return sum(self.counts().values())

    def distinct_items(self) -> int:
        return sum(len(self._counts(rank)) for rank in range(self.world.nranks))

    def items(self) -> Iterator[Tuple[Any, int]]:
        yield from self.counts().items()

    def top_k(self, k: int) -> List[Tuple[Any, int]]:
        """The ``k`` most frequent items (ties broken by item repr for determinism)."""
        return sorted(self.counts().items(), key=lambda kv: (-kv[1], repr(kv[0])))[:k]

    def clear(self) -> None:
        for rank in range(self.world.nranks):
            self._counts(rank).clear()
        for ctx in self.world.ranks:
            self._cache(ctx).clear()
