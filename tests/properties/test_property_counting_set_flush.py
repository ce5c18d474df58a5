"""The columnar counting-set flush against the per-key wire it replaced.

``DistributedCountingSet.flush_cache`` books one ``(item, amount)`` increment
message per cached key — owner and exact serialized size as arrays, one
``account_rpc_bulk`` — and delivers one batched call per owner rank.  The
oracle here is the wire it replaced, kept only in this file: one real
``ctx.async_call`` per key, every payload encoded and decoded.

What must be identical: every per-rank, per-phase ``World.stats`` counter
(``rpcs_sent``, ``rpcs_executed``, ``bytes_sent_local``,
``bytes_sent_remote``, ``bytes_received``, ``wire_messages``,
``wire_bytes``) and ``counts()`` as a dict.  What may shift is the
*insertion order* of an owner's count dict, and only where the scalar flush
would have crossed a buffer threshold mid-flush: its early keys then reach
the owner ahead of another rank's, whereas a batched call always executes
in the barrier's first sweep.  That is the caveat documented on
``RankContext.async_call_batched``; no total, panel or counter depends on
it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.callbacks as callbacks_module
from repro.containers.counting_set import DistributedCountingSet, item_hashes_and_sizes
from repro.core.callbacks import EdgeSupportCounter, LocalTriangleCounter
from repro.core.engine import EngineConfig
from repro.core.survey import triangle_survey_push
from repro.graph.dodgr import DODGraph
from repro.graph.generators import rmat
from repro.runtime import World, active_segment_names
from repro.runtime.faults import FaultPlan
from repro.runtime.serialization import serialized_size
from repro.runtime.world import stable_hash

NRANKS = 4
PHASES = ("load", "drain")


class ScalarCountingSet(DistributedCountingSet):
    """The per-key wire: one ``async_call`` per cached key (the oracle).

    The scalar handler takes the batched one's registration, so handler ids
    — and with them every accounted size — are those of the real class.
    """

    def _handle_increments(self, ctx, item, amount):
        counts = self._counts(ctx)
        counts[item] = counts.get(item, 0) + amount

    def flush_cache(self, ctx):
        cache = self._cache(ctx)
        if not cache:
            return
        items = list(cache.items())
        cache.clear()
        for item, amount in items:
            ctx.async_call(self.owner(item), self._h_increment, item, amount)


# Key shapes: the vectorised ones (ints, negative too; int tuples of one
# arity) and everything that must take the scalar walk instead.
small_ints = st.integers(min_value=-40, max_value=40)
int_keys = st.one_of(small_ints, st.integers(min_value=-(2**63), max_value=2**63 - 1))
pair_keys = st.tuples(small_ints, st.integers(min_value=-(2**40), max_value=2**40))
triple_keys = st.tuples(small_ints, small_ints, small_ints)
bool_keys = st.one_of(st.booleans(), st.tuples(st.booleans(), small_ints))
big_keys = st.one_of(
    st.integers(min_value=2**63, max_value=2**70),
    st.tuples(small_ints, st.integers(min_value=-(2**70), max_value=-(2**63) - 1)),
)
str_keys = st.one_of(
    st.text(max_size=4), st.tuples(st.text(max_size=3), st.text(max_size=3))
)
mixed_keys = st.one_of(
    small_ints, pair_keys, triple_keys, bool_keys, big_keys, str_keys,
    st.tuples(small_ints, st.tuples(small_ints, st.text(max_size=2))),
    st.just(()), st.none(),
)
key_shapes = st.one_of(
    *(
        st.lists(shape, max_size=80)
        for shape in (int_keys, pair_keys, triple_keys, bool_keys, big_keys,
                      str_keys, mixed_keys)
    )
)
streams = st.tuples(
    key_shapes,
    st.lists(st.integers(min_value=0, max_value=NRANKS - 1), min_size=80, max_size=80),
    st.lists(st.integers(min_value=1, max_value=2**40), min_size=80, max_size=80),
)

CONFIGURATIONS = list(itertools.product((64, 300, 65536), (1, 2), (1, 5, 64)))


def per_phase_stats(world):
    """Every counter the flush may touch, per (phase, rank)."""
    return {
        (name, rank_stats.rank): (
            phase.rpcs_sent,
            phase.rpcs_executed,
            phase.bytes_sent_local,
            phase.bytes_sent_remote,
            phase.bytes_received,
            phase.wire_messages,
            phase.wire_bytes,
        )
        for name in world.stats.phase_names()
        for rank_stats in world.stats.ranks
        for phase in [rank_stats.phase(name)]
    }


def replay(cls, stream, threshold, ranks_per_node, capacity, plan=None):
    """Run an increment stream in two phases; return (stats, counts)."""
    world = World(NRANKS, flush_threshold_bytes=threshold, ranks_per_node=ranks_per_node)
    if plan is not None:
        world.install_fault_plan(plan)
    counting = cls(world, name="c", cache_capacity=capacity)
    keys, ranks, amounts = stream
    world.begin_phase(PHASES[0])
    for key, rank, amount in zip(keys, ranks, amounts):
        counting.async_increment(world.ranks[rank], key, amount)
    world.barrier()
    world.begin_phase(PHASES[1])
    counting.flush_all_caches()
    world.barrier()
    assert counting.pending_cached() == 0
    return per_phase_stats(world), counting.counts()


@given(streams)
@settings(max_examples=40, deadline=None)
def test_columnar_flush_books_the_scalar_message_stream(stream):
    for threshold, ranks_per_node, capacity in CONFIGURATIONS:
        config = (threshold, ranks_per_node, capacity)
        scalar_stats, scalar_counts = replay(ScalarCountingSet, stream, *config)
        stats, counts = replay(DistributedCountingSet, stream, *config)
        assert stats == scalar_stats, config
        assert counts == scalar_counts, config
        assert set(map(type, counts)) == set(map(type, scalar_counts))


@given(key_shapes)
@settings(max_examples=150, deadline=None)
def test_vectorised_hashes_and_sizes_are_the_scalar_ones(keys):
    hashes, sizes = item_hashes_and_sizes(keys)
    assert hashes.tolist() == [stable_hash(key) for key in keys]
    assert sizes.tolist() == [serialized_size(key) for key in keys]


@given(streams)
@settings(max_examples=25, deadline=None)
def test_booked_sizes_are_the_scalar_call_sizes(stream):
    """The size column of a flush is ``call_size(h_increment, (item, amount))``."""
    world = World(NRANKS)
    # Enough earlier registrations for the handler id to need two bytes.
    for index in range(70):
        world.register_handler(lambda ctx: None, f"filler{index}")
    counting = DistributedCountingSet(world, name="c", cache_capacity=10**6)
    ctx = world.ranks[1]
    booked = []
    ctx.account_rpc_bulk = lambda dests, sizes: booked.append((dests, sizes))
    keys, _ranks, amounts = stream
    for key, amount in zip(keys, amounts):
        counting.async_increment(ctx, key, amount)
    cached = list(counting._cache(ctx).items())
    counting.flush_cache(ctx)
    if not cached:
        assert booked == []
        return
    (dests, sizes), = booked
    assert dests.tolist() == [counting.owner(key) for key, _ in cached]
    assert sizes.tolist() == [
        world.registry.call_size(counting._h_increment, entry) for entry in cached
    ]


def test_counts_survive_drops_and_duplicates():
    """Under a fault plan one batched call per owner is what gets dropped,
    retried and deduplicated; every count still lands exactly once."""
    plan = FaultPlan(name="chaos", seed=5, drop_rate=0.3, duplicate_rate=0.3)
    rng = np.random.default_rng(3)
    keys = [(int(a), int(b)) for a, b in rng.integers(0, 30, size=(400, 2))]
    stream = (keys, rng.integers(0, NRANKS, 400).tolist(), [1] * 400)
    _, expected = replay(ScalarCountingSet, stream, 300, 1, 5)
    world_stats, counts = replay(DistributedCountingSet, stream, 300, 1, 5, plan=plan)
    assert counts == expected
    assert sum(counts.values()) == 400


@pytest.mark.parametrize("reducer", [LocalTriangleCounter, EdgeSupportCounter])
def test_process_backend_matches_the_scalar_wire(reducer, monkeypatch):
    """Evictions inside forked workers ship their batched increments across
    the worker boundary; counters and counts equal the simulated scalar run."""
    graph = rmat(6, edge_factor=8, seed=9)

    def run(engine):
        world = World(NRANKS)
        dodgr = DODGraph.build(graph.to_distributed(world), mode="bulk")
        survey = reducer(world, cache_capacity=5, name="r")
        report = triangle_survey_push(dodgr, survey.callback, engine=engine)
        survey.finalize()
        return report.triangles, per_phase_stats(world), survey.result()

    got = run(EngineConfig(backend="process", workers=2))
    assert active_segment_names() == frozenset()
    monkeypatch.setattr(callbacks_module, "DistributedCountingSet", ScalarCountingSet)
    assert got == run("columnar")
