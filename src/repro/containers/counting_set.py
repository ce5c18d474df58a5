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

The wire is columnar.  A flush books the stream of per-key ``(item, amount)``
increment messages it stands for — one owner and one exact serialized size
per cached key, in cache order — with a single ``account_rpc_bulk`` and
delivers one batched call per owner rank; no payload is ever encoded or
decoded.  Every ``World.stats`` counter reads as if each key had travelled
as its own RPC.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.serialization import int_size_array, serialized_size, uvarint_size
from ..runtime.world import (
    RankContext,
    World,
    stable_hash,
    stable_hash_int_array,
    stable_key_order,
    stable_tuple_hash_array,
)

__all__ = ["DistributedCountingSet"]

#: Default number of distinct cached items per rank before a flush.
DEFAULT_CACHE_CAPACITY = 1024


def _int_matrix(values: Sequence[Any]) -> Optional[Any]:
    """``values`` as an int64 array, or None when they have no exact array form.

    Shape ``(n,)`` for items that are all exactly ``int``, ``(n, arity)`` for
    same-arity tuples of exactly ``int``; ``bool`` (hashed and sized
    differently), ints beyond int64, strings, mixed and nested items answer
    None and are walked one by one.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        flat, shape = values, (len(values),)
    elif kinds == {tuple} and len(set(map(len, values))) == 1:
        flat = list(chain.from_iterable(values))
        if set(map(type, flat)) != {int}:  # also the empty tuple: no elements
            return None
        shape = (len(values), -1)
    else:
        return None
    try:
        return np.fromiter(flat, dtype=np.int64, count=len(flat)).reshape(shape)
    except OverflowError:  # an int beyond int64
        return None


def _scalar_column(function, values: Sequence[Any], dtype=np.int64) -> Any:
    """``function`` over ``values``, one Python call each, as an array."""
    return np.fromiter(map(function, values), dtype=dtype, count=len(values))


def item_hashes_and_sizes(items: Sequence[Any]) -> Tuple[Any, Any]:
    """``stable_hash(item)`` and ``serialized_size(item)`` of every item, as arrays."""
    matrix = _int_matrix(items)
    if matrix is None:
        # uint64: ``stable_hash(True)`` does not fit int64.
        return (
            _scalar_column(stable_hash, items, np.uint64),
            _scalar_column(serialized_size, items),
        )
    hashes = stable_hash_int_array(matrix)
    sizes = int_size_array(matrix)
    if matrix.ndim == 1:
        return hashes, sizes
    # A tuple is its tag, its length varint and its elements.
    framing = 1 + uvarint_size(matrix.shape[1])
    return stable_tuple_hash_array(list(hashes.T)), framing + sizes.sum(axis=1)


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
            self._handle_increments, f"{self.name}.increment"
        )
        self._name_hash = stable_hash(self.name)
        # What one ``(item, amount)`` increment message weighs beside its
        # two arguments: the call framing and this handler's id varint.
        self._framing_bytes = world.registry.call_size(
            self._h_increment, (0, 0)
        ) - 2 * serialized_size(0)

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
    def _handle_increments(self, ctx: RankContext, items: Any, amounts: Any) -> None:
        """Owner side of a flush: one source rank's increments, as two columns."""
        counts = self._counts(ctx)
        get = counts.get
        for item, amount in zip(items.tolist(), amounts.tolist()):
            counts[item] = get(item, 0) + amount

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
        self,
        ctx: RankContext,
        keys: List[Any],
        counts: List[int],
        inverse: Callable[[], Any],
    ) -> None:
        """:meth:`increment_run` over a run handed over pre-aggregated.

        The run is ``[keys[i] for i in inverse()]``; ``keys`` are its distinct
        items in first-appearance order and ``counts`` their multiplicities.
        Bit-identical to the item-by-item walk — cache contents and insertion
        order, every flush and what it carries — at one cache update per
        distinct key per flush window.  When the cache has room for every key
        it has not seen, no eviction can fire and each key's count is added
        once; ``inverse`` is never called.  Otherwise the run is *split*: it
        is walked in spans; in each, the items that would grow the cache are
        the first appearances (within the span) of keys the cache does not
        hold, so the item at which the cache reaches capacity is known
        without replaying the run — the span is applied aggregated up to and
        including that item, the cache is flushed there, and the walk
        continues behind it.

        Raises TypeError, on every call, when ``inverse`` is not callable
        (an array, as this method took before the inverse became lazy).
        """
        if not callable(inverse):
            raise TypeError(
                "increment_grouped_run: inverse must be a zero-argument callable "
                f"returning the run's key indices, not {type(inverse).__name__}"
            )
        cache = self._cache(ctx)
        get = cache.get
        capacity = self.cache_capacity
        if len(cache.keys() | keys) < capacity:
            for key, count in zip(keys, counts):
                cache[key] = get(key, 0) + count
            return
        inverse = np.asarray(inverse(), dtype=np.int64)
        total = inverse.size
        # previous[i]: where item i's key last occurred before i (-1: nowhere),
        # so "first appearance at or after s" reads ``previous[i] < s``.
        order = stable_key_order(inverse)
        repeats = np.flatnonzero(np.diff(inverse[order]) == 0)
        previous = np.full(total, -1, dtype=np.int64)
        previous[order[repeats + 1]] = order[repeats]
        slot = np.empty(len(keys), dtype=np.int64)
        span = max(4 * capacity, 256)
        start = 0
        while start < total:
            chunk = inverse[start : start + span]
            firsts = np.flatnonzero(previous[start : start + span] < start)
            ids = chunk[firsts]
            if cache:
                held = [keys[i] in cache for i in ids.tolist()]
                growing = firsts[~np.fromiter(held, dtype=bool, count=len(held))]
            else:
                growing = firsts
            # len(cache) < capacity between calls: every path in flushes at it.
            room = capacity - len(cache)
            fills = growing.size >= room
            if fills:
                stop = int(growing[room - 1]) + 1
                chunk = chunk[:stop]
                ids = ids[: np.searchsorted(firsts, stop)]
            slot[ids] = np.arange(ids.size)
            amounts = np.bincount(slot[chunk], minlength=ids.size)
            for i, amount in zip(ids.tolist(), amounts.tolist()):
                key = keys[i]
                cache[key] = get(key, 0) + amount
            if fills:
                self.flush_cache(ctx)
            start += chunk.size

    def flush_cache(self, ctx: RankContext) -> None:
        """Send this rank's cached counts to their owner ranks.

        Stands for one ``(item, amount)`` increment message per cached key,
        in cache order: each is booked at its owner and exact serialized
        size, and each owner rank receives its keys as one batched call.
        """
        cache = self._cache(ctx)
        if not cache:
            return
        items = list(cache)
        amounts = list(cache.values())
        cache.clear()
        hashes, item_sizes = item_hashes_and_sizes(items)
        owners = stable_tuple_hash_array([self._name_hash, hashes]) % self.world.nranks
        amount_column = _int_matrix(amounts)
        if amount_column is None:  # a float or beyond-int64 amount
            amount_sizes = _scalar_column(serialized_size, amounts)
            amount_column = np.fromiter(amounts, dtype=object, count=len(amounts))
        else:
            amount_sizes = int_size_array(amount_column)
        ctx.send_coalesced(
            self._h_increment,
            owners,
            self._framing_bytes + item_sizes + amount_sizes,
            (),
            (np.fromiter(items, dtype=object, count=len(items)), amount_column),
        )

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
