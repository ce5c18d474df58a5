"""Callback library: the surveys described in the paper, ready to use.

TriPoll's defining feature is that the user supplies a callback executed on
the metadata of every triangle as it is identified.  This module packages the
callbacks the paper uses in its evaluation (plus the local-counting variants
it discusses) as small factory classes: each survey object owns whatever
distributed state it needs (counting sets, per-rank counters), exposes a
``callback`` bound method to hand to the survey engine, and a ``result()``
accessor to read after the run.

Included surveys
----------------

* :class:`TriangleCounter` — global triangle count (Algorithm 2).
* :class:`LocalTriangleCounter` — per-vertex triangle participation counts
  (clustering coefficients, vertex roles).
* :class:`EdgeSupportCounter` — per-edge triangle participation (truss
  decomposition support values).
* :class:`MaxEdgeLabelDistribution` — Algorithm 3: distribution of the
  maximum edge label over triangles whose vertex labels are pairwise
  distinct.
* :class:`ClosureTimeSurvey` — Algorithm 4: joint distribution of wedge
  opening time and triangle closing time for temporal graphs.
* :class:`DegreeTripleSurvey` — Section 5.9: counts of
  ``(ceil(log2 d(p)), ceil(log2 d(q)), ceil(log2 d(r)))`` triples.
* :class:`FqdnTripleSurvey` — Section 5.8: counts of FQDN 3-tuples over
  triangles whose three FQDNs are pairwise distinct.

Columnar delivery
-----------------

Every reducer exposes two entry points: the scalar ``callback(ctx, tri)``
(one :class:`~repro.graph.metadata.TriangleMetadata` per triangle — the
parity oracle, and what the legacy engine invokes) and a vectorized
``callback_batch(ctx, batch)`` consuming a
:class:`~repro.graph.metadata.TriangleBatch` of columns, which the columnar
engine (``triangle_survey(..., engine="columnar")``) prefers.  The batch
methods are contract-exact aggregates of the scalar ones: they derive their
keys column-wise (NumPy where it helps) but apply every counting-set
increment with the effect of the scalar invocation order — item by item
through
:meth:`~repro.containers.counting_set.DistributedCountingSet.increment_run`,
or pre-aggregated through ``increment_grouped_run`` — so reducer outputs
*and* every communication counter (cache evictions included) are
bit-identical to running the scalar callback per triangle of the same
batches.

:class:`ClosureTimeSurvey`, :class:`MaxEdgeLabelDistribution` and
:class:`DegreeTripleSurvey` first ask the batch for typed arrays
(``batch.edge_values`` / ``batch.vertex_values``),
:class:`LocalTriangleCounter` and :class:`EdgeSupportCounter` for the vertex
ids themselves (``batch.vertex_ids``); they derive their keys as array
expressions and hand the counting set the run pre-aggregated
(``increment_grouped_run``, which splits the run wherever the cache fills;
:func:`_grouped_run` groups it).
When the batch answers None they run the object loop, which stays the oracle.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..containers.counting_set import DistributedCountingSet
from ..graph.metadata import TriangleBatch, TriangleMetadata, edge_timestamp
from ..runtime.reductions import all_reduce_sum
from ..runtime.world import RankContext, World, stable_key_order
from .engine.segments import first_appearance_groups

import numpy as _np

__all__ = [
    "TriangleCounter",
    "LocalTriangleCounter",
    "EdgeSupportCounter",
    "MaxEdgeLabelDistribution",
    "ClosureTimeSurvey",
    "closure_marginals",
    "DegreeTripleSurvey",
    "FqdnTripleSurvey",
    "reducer_names",
    "registered_reducers",
    "get_reducer",
    "log2_bucket",
    "log2_bucket_array",
    "merge_count_dicts",
]


def merge_count_dicts(snapshots: "Any") -> Dict[Any, int]:
    """Sum an iterable of ``key -> count`` histograms into one.

    The merge half of the reducer ``snapshot``/``merge`` contract used by
    sliding-window streaming surveys (see :mod:`repro.core.incremental` and
    ``docs/reducers.md``): counts are additive, so a window's histogram is
    the sum of its per-batch panel snapshots.
    """
    merged: Dict[Any, int] = {}
    for snap in snapshots:
        for key, amount in snap.items():
            merged[key] = merged.get(key, 0) + amount
    return merged


class _SnapshotMerge:
    """``snapshot()``/``merge()`` for histogram-shaped reducers.

    ``snapshot()`` freezes the reducer's current :meth:`result` as a plain
    dict (one *panel* of a streaming survey); the :meth:`merge` classmethod
    sums any number of panels back into one result of the same shape.  Both
    are pure — they never touch distributed state — so panels survive after
    the reducer (and its counting set) is discarded, which is what lets a
    sliding window retire old batches by simply dropping their panels.
    """

    def snapshot(self) -> Dict[Any, int]:
        """A frozen copy of :meth:`result` (safe to keep after the reducer dies)."""
        return dict(self.result())

    @classmethod
    def merge(cls, snapshots) -> Dict[Any, int]:
        """Sum panel snapshots produced by :meth:`snapshot`."""
        return merge_count_dicts(snapshots)

    # -- worker-state protocol (process backend) ---------------------------
    # Counting-set reducers keep all per-rank state in ``container:`` slots
    # of ``ctx.local_state``, which the process backend ships home wholesale;
    # there is nothing extra to transfer.
    def worker_rank_state(self, rank: int) -> None:
        """Per-rank reducer state to ship from a worker (none: slots cover it)."""
        return None

    def absorb_rank_state(self, rank: int, state: Any) -> None:
        """Absorb a worker's shipped per-rank state (none to absorb)."""
        return None


def log2_bucket(value: float) -> int:
    """``ceil(log2(value))`` with the conventions the paper's callbacks need.

    Values of zero or below (possible when two comments carry an identical
    timestamp) fall into bucket 0, as does any value below one second.
    Computed from the float's exponent (``frexp``) rather than a rounded
    ``log2`` so the result is the exact mathematical ceiling for every
    representable value — and so the vectorized
    :func:`log2_bucket_array` can reproduce it bit-for-bit.
    """
    if value <= 1.0:
        return 0
    mantissa, exponent = math.frexp(value)
    # value == mantissa * 2**exponent with 0.5 <= mantissa < 1, so
    # ceil(log2(value)) is `exponent`, except exactly at powers of two.
    return exponent - 1 if mantissa == 0.5 else exponent


#: Bit pattern of +inf: read as unsigned, every float64 at or above it is
#: inf, a NaN or negative (sign bit set).
_INF_BITS = 0x7FF0000000000000


def log2_bucket_array(values: Any) -> Any:
    """Vectorized :func:`log2_bucket` over a float array of any shape.

    Reads the exponent from the IEEE-754 bits: a finite ``v > 1`` with
    biased exponent ``e`` and fraction ``m`` has ``ceil(log2 v) = e - 1023
    + (m != 0)``, which is ``((bits - 1) >> 52) - 1022`` — subtracting one
    borrows out of a zero fraction into the exponent.  Below one that is at
    most zero, so a floor at zero buckets it; inf, NaN and negative values
    (including ``-0.0``) are zeroed by their unsigned bits, as
    :func:`log2_bucket` (``frexp`` of inf or NaN has exponent 0) has it.
    """
    bits = _np.asarray(values, dtype=_np.float64).view(_np.int64)
    buckets = (bits - 1) >> 52
    buckets -= 1022
    _np.maximum(buckets, 0, out=buckets)
    buckets[bits.view(_np.uint64) >= _INF_BITS] = 0
    return buckets


def _grouped_run(codes: Any) -> Tuple[Any, List[int], Callable[[], Any]]:
    """Aggregate a run of per-item codes (a non-empty int or float array).

    Returns ``(first, counts, inverse)`` for
    :meth:`DistributedCountingSet.increment_grouped_run`: the index of each
    distinct code's first item, in first-appearance order, how often each
    occurs, and a zero-argument callable building every item's position in
    that sequence (the counting set asks for it only when the run splits).

    Int codes in ``[0, len(codes))`` are tallied densely
    (:func:`_dense_groups`): the tally then has no more slots than the run
    has items, so the dense pass is linear in the run.  Any other run — a
    code range wider than the run, negative or float codes — is grouped by
    :func:`_sorted_groups`.
    """
    if (
        codes.dtype.kind == "i"
        and int(codes.max()) < codes.size
        and int(codes.min()) >= 0
    ):
        return _dense_groups(codes)
    return _sorted_groups(codes)


def _dense_groups(codes: Any) -> Tuple[Any, List[int], Callable[[], Any]]:
    """:func:`_grouped_run` of non-negative int codes by one ``bincount``,
    each code's first position by ``minimum.at`` and one sort of the
    distinct first positions; costs ``O(len(codes) + codes.max())``."""
    tally = _np.bincount(codes)
    firsts = _np.full(tally.size, codes.size, dtype=_np.int64)
    _np.minimum.at(firsts, codes, _np.arange(codes.size))
    present = _np.flatnonzero(tally)
    # First positions are distinct, so any sort of them is the stable one.
    present = present[_np.argsort(firsts[present])]

    def inverse() -> Any:
        labels = _np.empty(tally.size, dtype=_np.int64)
        labels[present] = _np.arange(present.size)
        return labels[codes]

    return firsts[present], tally[present].tolist(), inverse


def _sorted_groups(codes: Any) -> Tuple[Any, List[int], Callable[[], Any]]:
    """:func:`_grouped_run` of any codes by
    :func:`first_appearance_groups`' stable sort of the whole run."""
    order, starts, ends = first_appearance_groups(codes)
    counts = ends - starts

    def inverse() -> Any:
        # The sorted items run group by group in key order: label each run
        # with its group's first-appearance rank, scattered through order.
        by_key = stable_key_order(starts)
        labels = _np.empty(codes.size, dtype=_np.int64)
        labels[order] = _np.repeat(by_key, counts[by_key])
        return labels

    return order[starts], counts.tolist(), inverse


def _bucket_codes(*buckets: Any) -> Any:
    """One int code per item of parallel bucket columns: mixed-radix over each
    column's own range, which keeps real data inside one 16-bit digit of
    :func:`~repro.runtime.world.stable_key_order`."""
    codes = buckets[0]
    for column in buckets[1:]:
        codes = codes * (int(column.max()) + 1) + column
    return codes


def _identity(meta: Any) -> Any:
    """Default label extractor: the metadata value is the label."""
    return meta


class TriangleCounter:
    """Algorithm 2: count triangles with a per-rank counter + all-reduce."""

    def __init__(self, world: World) -> None:
        self.world = world
        self._per_rank: List[int] = [0] * world.nranks

    def callback(self, ctx: RankContext, tri: TriangleMetadata) -> None:
        self._per_rank[ctx.rank] += 1

    def callback_batch(self, ctx: RankContext, batch: TriangleBatch) -> None:
        self._per_rank[ctx.rank] += len(batch)

    def local_count(self, rank: int) -> int:
        return self._per_rank[rank]

    def result(self) -> int:
        """Global triangle count (the All_Reduce of Algorithm 2)."""
        return all_reduce_sum(self.world, self._per_rank)

    def snapshot(self) -> int:
        """The current global count as a plain int (streaming panel)."""
        return self.result()

    @classmethod
    def merge(cls, snapshots) -> int:
        """Sum panel counts produced by :meth:`snapshot`."""
        return sum(snapshots)

    # -- worker-state protocol (process backend) ---------------------------
    # Unlike the counting-set reducers this one holds its state on the
    # reducer object itself, so each worker ships its owned ranks' counters
    # home explicitly.
    def worker_rank_state(self, rank: int) -> int:
        """This rank's local counter, shipped from the owning worker."""
        return self._per_rank[rank]

    def absorb_rank_state(self, rank: int, state: int) -> None:
        """Adopt a worker's counter for ``rank`` (replaces, never sums)."""
        self._per_rank[rank] = state


class LocalTriangleCounter(_SnapshotMerge):
    """Per-vertex triangle participation counts.

    Every triangle Δpqr increments the count of all three vertices.  Counts
    for remote vertices are accumulated through a distributed counting set,
    exactly like a local clustering-coefficient or vertex-role workload
    would.
    """

    def __init__(
        self,
        world: World,
        cache_capacity: int = 1024,
        name: Optional[str] = None,
    ) -> None:
        self.world = world
        self.counts = DistributedCountingSet(
            world, name=name, cache_capacity=cache_capacity
        )

    def callback(self, ctx: RankContext, tri: TriangleMetadata) -> None:
        self.counts.async_increment(ctx, tri.p)
        self.counts.async_increment(ctx, tri.q)
        self.counts.async_increment(ctx, tri.r)

    def callback_batch(self, ctx: RankContext, batch: TriangleBatch) -> None:
        ids = batch.vertex_ids()
        if ids is not None:
            run = _np.stack(ids, axis=1).ravel()  # p0 q0 r0 p1 q1 r1 ...
            first, counts, inverse = _grouped_run(run)
            self.counts.increment_grouped_run(ctx, run[first].tolist(), counts, inverse)
            return
        items = [
            vertex
            for triple in zip(batch.p, batch.q, batch.r)
            for vertex in triple
        ]
        self.counts.increment_run(ctx, items)

    def finalize(self) -> None:
        """Flush caches; call before the final barrier completes the survey."""
        self.counts.flush_all_caches()
        self.world.barrier()

    def result(self) -> Dict[Any, int]:
        return self.counts.counts()

    def count_of(self, vertex: Any) -> int:
        return self.counts.count_of(vertex)


class EdgeSupportCounter(_SnapshotMerge):
    """Per-edge triangle participation (truss support values).

    Edges are keyed canonically as ``(min, max)`` by vertex ordering so the
    counts of (u, v) and (v, u) coincide.
    """

    def __init__(
        self,
        world: World,
        cache_capacity: int = 1024,
        name: Optional[str] = None,
    ) -> None:
        self.world = world
        self.counts = DistributedCountingSet(
            world, name=name, cache_capacity=cache_capacity
        )

    @staticmethod
    def _edge_key(u: Any, v: Any) -> Tuple[Any, Any]:
        try:
            return (u, v) if u <= v else (v, u)
        except TypeError:
            return (u, v) if repr(u) <= repr(v) else (v, u)

    def callback(self, ctx: RankContext, tri: TriangleMetadata) -> None:
        self.counts.async_increment(ctx, self._edge_key(tri.p, tri.q))
        self.counts.async_increment(ctx, self._edge_key(tri.p, tri.r))
        self.counts.async_increment(ctx, self._edge_key(tri.q, tri.r))

    def callback_batch(self, ctx: RankContext, batch: TriangleBatch) -> None:
        ids = batch.vertex_ids()
        if ids is not None:
            # Dense ranks order as the ids do, so min/max of ranks is the
            # canonical edge and ``low * size + high`` cannot overflow.
            vertices, ranks = _np.unique(_np.concatenate(ids), return_inverse=True)
            p, q, r = ranks.reshape(3, -1)
            left = _np.stack((p, p, q), axis=1).ravel()  # pq0 pr0 qr0 pq1 ...
            right = _np.stack((q, r, r), axis=1).ravel()
            codes = _np.minimum(left, right) * vertices.size + _np.maximum(left, right)
            first, counts, inverse = _grouped_run(codes)
            low, high = _np.divmod(codes[first], vertices.size)
            keys = list(zip(vertices[low].tolist(), vertices[high].tolist()))
            self.counts.increment_grouped_run(ctx, keys, counts, inverse)
            return
        edge_key = self._edge_key
        items: List[Tuple[Any, Any]] = []
        append = items.append
        for p, q, r in zip(batch.p, batch.q, batch.r):
            append(edge_key(p, q))
            append(edge_key(p, r))
            append(edge_key(q, r))
        self.counts.increment_run(ctx, items)

    def finalize(self) -> None:
        self.counts.flush_all_caches()
        self.world.barrier()

    def result(self) -> Dict[Tuple[Any, Any], int]:
        return self.counts.counts()

    def support(self, u: Any, v: Any) -> int:
        return self.counts.count_of(self._edge_key(u, v))


class MaxEdgeLabelDistribution(_SnapshotMerge):
    """Algorithm 3: distribution of the maximum edge label over triangles
    whose three vertex labels are pairwise distinct."""

    def __init__(
        self,
        world: World,
        edge_label: Optional[Callable[[Any], Any]] = None,
        vertex_label: Optional[Callable[[Any], Any]] = None,
        cache_capacity: int = 1024,
        name: Optional[str] = None,
    ) -> None:
        self.world = world
        self.edge_label = edge_label if edge_label is not None else _identity
        self.vertex_label = vertex_label if vertex_label is not None else _identity
        self.counters = DistributedCountingSet(
            world, name=name, cache_capacity=cache_capacity
        )

    def callback(self, ctx: RankContext, tri: TriangleMetadata) -> None:
        labels = (
            self.vertex_label(tri.meta_p),
            self.vertex_label(tri.meta_q),
            self.vertex_label(tri.meta_r),
        )
        if labels[0] == labels[1] or labels[1] == labels[2] or labels[0] == labels[2]:
            return
        max_edge = max(
            self.edge_label(tri.meta_pq),
            self.edge_label(tri.meta_pr),
            self.edge_label(tri.meta_qr),
        )
        self.counters.async_increment(ctx, max_edge)

    def callback_batch(self, ctx: RankContext, batch: TriangleBatch) -> None:
        vertex_label = self.vertex_label
        edge_label = self.edge_label
        labels = batch.vertex_values(vertex_label)
        edges = batch.edge_values(edge_label) if labels is not None else None
        if edges is not None:
            lp, lq, lr = labels
            # Python's max(): the first argument unless a later one is greater.
            top = edges[0]
            top = _np.where(edges[1] > top, edges[1], top)
            top = _np.where(edges[2] > top, edges[2], top)
            top = top[(lp != lq) & (lq != lr) & (lp != lr)]
            if top.size:
                first, counts, inverse = _grouped_run(top)
                self.counters.increment_grouped_run(
                    ctx, top[first].tolist(), counts, inverse
                )
            return
        items: List[Any] = []
        for mp, mq, mr, mpq, mpr, mqr in zip(
            batch.meta_p, batch.meta_q, batch.meta_r,
            batch.meta_pq, batch.meta_pr, batch.meta_qr,
        ):
            lp, lq, lr = vertex_label(mp), vertex_label(mq), vertex_label(mr)
            if lp == lq or lq == lr or lp == lr:
                continue
            items.append(max(edge_label(mpq), edge_label(mpr), edge_label(mqr)))
        self.counters.increment_run(ctx, items)

    def finalize(self) -> None:
        self.counters.flush_all_caches()
        self.world.barrier()

    def result(self) -> Dict[Any, int]:
        return self.counters.counts()


class ClosureTimeSurvey(_SnapshotMerge):
    """Algorithm 4: joint distribution of wedge-opening and triangle-closing times.

    For each triangle the three edge timestamps ``t1 <= t2 <= t3`` define the
    wedge opening time ``t2 - t1`` and the closing time ``t3 - t1``; the
    counter keyed by ``(ceil(log2 dt_open), ceil(log2 dt_close))`` is
    incremented.  Unlike Algorithm 4's listing (which inherits the distinct-
    vertex-label filter from Algorithm 3), vertex metadata is not consulted:
    the Reddit experiment stores timestamps only on edges (Section 5.7).
    """

    def __init__(
        self,
        world: World,
        timestamp: Optional[Callable[[Any], float]] = None,
        cache_capacity: int = 4096,
        name: Optional[str] = None,
    ) -> None:
        self.world = world
        self.timestamp = timestamp if timestamp is not None else edge_timestamp
        self.counters = DistributedCountingSet(
            world, name=name, cache_capacity=cache_capacity
        )

    def callback(self, ctx: RankContext, tri: TriangleMetadata) -> None:
        t_pq = self.timestamp(tri.meta_pq)
        t_pr = self.timestamp(tri.meta_pr)
        t_qr = self.timestamp(tri.meta_qr)
        t1, t2, t3 = sorted((t_pq, t_pr, t_qr))
        open_bucket = log2_bucket(t2 - t1)
        close_bucket = log2_bucket(t3 - t1)
        self.counters.async_increment(ctx, (open_bucket, close_bucket))

    def callback_batch(self, ctx: RankContext, batch: TriangleBatch) -> None:
        timestamp = self.timestamp
        # Sort and subtract per triangle in the stamps' own arithmetic —
        # casting raw stamps to float64 first would lose sub-ULP resolution
        # for integer timestamps beyond 2**53 (epoch nanoseconds) and
        # diverge from the scalar callback's exact subtraction.  Only the
        # bucketing is vectorized: log2_bucket rounds its argument to float
        # exactly like the float64 cast of the *differences* does.
        stamps = batch.edge_values(timestamp)
        if stamps is not None:  # float64 or int64: the stamps' own dtype
            # t1 <= t2 <= t3 by a three-element sorting network: each result
            # is one of the inputs, as sorted() picks, at a tenth of the
            # cost of np.sort(axis=1) on an (n, 3) stack (21 vs 201 µs at
            # 5 000 triangles).
            a, b, c = stamps
            low, high = _np.minimum(a, b), _np.maximum(a, b)
            t1 = _np.minimum(low, c)
            # Both differences side by side, bucketed in one pass.
            gaps = _np.empty((2, a.size), dtype=a.dtype)
            _np.subtract(_np.maximum(low, _np.minimum(high, c)), t1, out=gaps[0])
            _np.subtract(_np.maximum(high, c), t1, out=gaps[1])
            opens, closes = log2_bucket_array(gaps)
            first, counts, inverse = _grouped_run(_bucket_codes(opens, closes))
            keys = list(zip(opens[first].tolist(), closes[first].tolist()))
            self.counters.increment_grouped_run(ctx, keys, counts, inverse)
            return
        opens: List[Any] = []
        closes: List[Any] = []
        for meta_pq, meta_pr, meta_qr in zip(
            batch.meta_pq, batch.meta_pr, batch.meta_qr
        ):
            t1, t2, t3 = sorted(
                (timestamp(meta_pq), timestamp(meta_pr), timestamp(meta_qr))
            )
            opens.append(t2 - t1)
            closes.append(t3 - t1)
        self.counters.increment_run(
            ctx, list(zip(*log2_bucket_array([opens, closes]).tolist()))
        )

    def finalize(self) -> None:
        self.counters.flush_all_caches()
        self.world.barrier()

    def result(self) -> Dict[Tuple[int, int], int]:
        """Joint histogram keyed by (open bucket, close bucket)."""
        return self.counters.counts()

    def closing_time_distribution(self) -> Dict[int, int]:
        """Marginal distribution of the closing-time bucket (Fig. 6 top)."""
        return closure_marginals(self.result())[0]

    def opening_time_distribution(self) -> Dict[int, int]:
        """Marginal distribution of the opening-time bucket."""
        return closure_marginals(self.result())[1]


def closure_marginals(
    joint: Dict[Tuple[int, int], int]
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(closing, opening) marginal histograms of a joint closure histogram
    (a :meth:`ClosureTimeSurvey.result`, or a merge of its panels)."""
    closing: Dict[int, int] = {}
    opening: Dict[int, int] = {}
    for (open_bucket, close_bucket), count in joint.items():
        closing[close_bucket] = closing.get(close_bucket, 0) + count
        opening[open_bucket] = opening.get(open_bucket, 0) + count
    return closing, opening


class DegreeTripleSurvey(_SnapshotMerge):
    """Section 5.9: histogram of log2-bucketed degree triples (d(p), d(q), d(r)).

    Vertex metadata must carry the vertex's degree (an integer); the
    benchmark harness decorates the graph accordingly.  Note for streaming
    use: the triple is *role-ordered* (p, q, r) and the degree decoration is
    a snapshot in time, so unlike the other stock reducers its merged panels
    are not guaranteed to equal a full recompute on the merged graph.
    """

    def __init__(
        self,
        world: World,
        degree_of: Optional[Callable[[Any], int]] = None,
        cache_capacity: int = 4096,
        name: Optional[str] = None,
    ) -> None:
        self.world = world
        self.degree_of = degree_of if degree_of is not None else int
        self.counters = DistributedCountingSet(
            world, name=name, cache_capacity=cache_capacity
        )

    def callback(self, ctx: RankContext, tri: TriangleMetadata) -> None:
        triple = (
            log2_bucket(self.degree_of(tri.meta_p)),
            log2_bucket(self.degree_of(tri.meta_q)),
            log2_bucket(self.degree_of(tri.meta_r)),
        )
        self.counters.async_increment(ctx, triple)

    def callback_batch(self, ctx: RankContext, batch: TriangleBatch) -> None:
        degree_of = self.degree_of
        degrees = batch.vertex_values(degree_of)
        if degrees is not None:
            b_p, b_q, b_r = (log2_bucket_array(column) for column in degrees)
            first, counts, inverse = _grouped_run(_bucket_codes(b_p, b_q, b_r))
            keys = list(zip(b_p[first].tolist(), b_q[first].tolist(), b_r[first].tolist()))
            self.counters.increment_grouped_run(ctx, keys, counts, inverse)
            return
        d_p = [degree_of(meta) for meta in batch.meta_p]
        d_q = [degree_of(meta) for meta in batch.meta_q]
        d_r = [degree_of(meta) for meta in batch.meta_r]
        items = list(
            zip(
                log2_bucket_array(d_p).tolist(),
                log2_bucket_array(d_q).tolist(),
                log2_bucket_array(d_r).tolist(),
            )
        )
        self.counters.increment_run(ctx, items)

    def finalize(self) -> None:
        self.counters.flush_all_caches()
        self.world.barrier()

    def result(self) -> Dict[Tuple[int, int, int], int]:
        return self.counters.counts()


class FqdnTripleSurvey(_SnapshotMerge):
    """Section 5.8: count 3-tuples of FQDNs over triangles with three distinct FQDNs.

    Vertex metadata is the FQDN string.  Tuples are stored sorted so the
    count of a domain triple does not depend on the degree ordering of the
    triangle's vertices.
    """

    def __init__(
        self,
        world: World,
        cache_capacity: int = 4096,
        name: Optional[str] = None,
    ) -> None:
        self.world = world
        self.counters = DistributedCountingSet(
            world, name=name, cache_capacity=cache_capacity
        )

    def callback(self, ctx: RankContext, tri: TriangleMetadata) -> None:
        if not tri.all_distinct_vertex_metadata():
            return
        key = tuple(sorted((str(tri.meta_p), str(tri.meta_q), str(tri.meta_r))))
        self.counters.async_increment(ctx, key)

    def callback_batch(self, ctx: RankContext, batch: TriangleBatch) -> None:
        items: List[Tuple[str, str, str]] = []
        for mp, mq, mr in zip(batch.meta_p, batch.meta_q, batch.meta_r):
            if mp == mq or mq == mr or mp == mr:
                continue
            items.append(tuple(sorted((str(mp), str(mq), str(mr)))))
        self.counters.increment_run(ctx, items)

    def finalize(self) -> None:
        self.counters.flush_all_caches()
        self.world.barrier()

    def result(self) -> Dict[Tuple[str, str, str], int]:
        return self.counters.counts()

    def triangles_with_domain(self, domain: str) -> Dict[Tuple[str, str], int]:
        """2D distribution of the other two FQDNs over triangles containing ``domain``.

        This is the "triangles involving amazon.com" post-processing step of
        Section 5.8 (Fig. 8): the result maps (other domain 1, other domain 2)
        pairs — sorted — to counts.
        """
        out: Dict[Tuple[str, str], int] = {}
        for triple, count in self.counters.counts().items():
            if domain in triple:
                others = tuple(sorted(d for d in triple if d != domain))
                if len(others) == 2:
                    out[others] = out.get(others, 0) + count
        return out


# ---------------------------------------------------------------------------
# Reducer registry
# ---------------------------------------------------------------------------

#: Every stock reducer by name.  Tooling iterates this to enforce the
#: reducer contract fleet-wide: ``tools/check_engines.py`` asserts each
#: entry exposes the ``snapshot()`` / ``merge()`` / ``callback_batch``
#: trio, and ``tests/properties/test_property_reducers.py`` checks that
#: ``merge()`` over arbitrarily sharded snapshots equals the unsharded
#: result.  All entries construct with ``reducer(world)``.
REDUCER_REGISTRY: Dict[str, type] = {
    "triangle": TriangleCounter,
    "local-triangle": LocalTriangleCounter,
    "edge-support": EdgeSupportCounter,
    "max-edge-label": MaxEdgeLabelDistribution,
    "closure-time": ClosureTimeSurvey,
    "degree-triple": DegreeTripleSurvey,
    "fqdn-triple": FqdnTripleSurvey,
}


def reducer_names() -> Tuple[str, ...]:
    """Registered reducer names, in registration order."""
    return tuple(REDUCER_REGISTRY)


def registered_reducers() -> Dict[str, type]:
    """A copy of the name → reducer-class registry."""
    return dict(REDUCER_REGISTRY)


def get_reducer(name: str) -> type:
    """Look up a reducer class by registry name."""
    try:
        return REDUCER_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown reducer {name!r}; registered: {', '.join(REDUCER_REGISTRY)}"
        ) from None
