"""Unit tests for the simulated world: RPC delivery, barriers, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import World, WorldError
from repro.runtime.message_buffer import Message
from repro.runtime.stats import PhaseStats
from repro.runtime.world import first_appearance_groups, stable_hash


class TestBasics:
    def test_requires_positive_rank_count(self):
        with pytest.raises(WorldError):
            World(0)

    def test_rank_accessor_bounds(self, world4):
        assert world4.rank(0).rank == 0
        with pytest.raises(WorldError):
            world4.rank(4)

    def test_single_rank_world_works(self):
        world = World(1)
        hits = []
        handler = world.register_handler(lambda ctx, x: hits.append(x))
        world.ranks[0].async_call(0, handler, 7)
        world.barrier()
        assert hits == [7]


class TestDelivery:
    def test_async_call_executes_on_destination_rank(self, world4):
        executed = []
        handler = world4.register_handler(lambda ctx, tag: executed.append((ctx.rank, tag)))
        world4.ranks[0].async_call(2, handler, "hello")
        assert executed == []  # fire-and-forget: nothing until the barrier
        world4.barrier()
        assert executed == [(2, "hello")]

    def test_arguments_pass_by_reference(self, world4):
        """The simulated wire builds no payload: the receiver runs on the
        sender's objects, which is why senders must not mutate them."""
        received = []
        handler = world4.register_handler(lambda ctx, values: received.append(values))
        payload = [1, 2, 3]
        world4.ranks[0].async_call(1, handler, payload)
        world4.barrier()
        assert received[0] is payload

    def test_chained_handlers_complete_within_one_barrier(self, world4):
        """Handlers may fire further RPCs; the barrier runs to quiescence."""
        log = []

        def hop(ctx, remaining):
            log.append(ctx.rank)
            if remaining > 0:
                ctx.async_call((ctx.rank + 1) % ctx.nranks, hop_handle, remaining - 1)

        hop_handle = world4.register_handler(hop)
        world4.ranks[0].async_call(1, hop_handle, 5)
        world4.barrier()
        assert log == [1, 2, 3, 0, 1, 2]

    def test_all_to_all_counts(self, world4):
        counts = [0] * 4
        handler = world4.register_handler(lambda ctx: counts.__setitem__(ctx.rank, counts[ctx.rank] + 1))
        for ctx in world4.ranks:
            for dest in range(4):
                ctx.async_call(dest, handler)
        world4.barrier()
        assert counts == [4, 4, 4, 4]

    def test_delivery_is_deterministic(self):
        def run_once():
            world = World(3)
            order = []
            handler = world.register_handler(lambda ctx, src: order.append((ctx.rank, src)))
            for ctx in world.ranks:
                for dest in range(3):
                    ctx.async_call(dest, handler, ctx.rank)
            world.barrier()
            return order

        assert run_once() == run_once()

    def test_barrier_inside_handler_is_rejected(self, world4):
        def bad(ctx):
            ctx.world.barrier()

        handler = world4.register_handler(bad)
        world4.ranks[0].async_call(1, handler)
        with pytest.raises(WorldError):
            world4.barrier()

    def test_drain_hooks_run_when_the_inboxes_drain_and_rerun_when_rescheduled(self, world4):
        """A scheduled hook runs once on empty inboxes, again only when it
        reschedules itself, and what it sends is delivered within the same
        barrier."""
        log = []
        handler = world4.register_handler(lambda ctx, tag: log.append((ctx.rank, tag)))
        staged = [("a", 2), ("b", 3)]

        def hook():
            assert not any(world4._inboxes)
            log.append("drained")
            if staged:
                tag, dest = staged.pop(0)
                world4.ranks[0].async_call(dest, handler, tag)
                world4.on_drained(hook)

        world4.ranks[0].async_call(1, handler, "first")
        world4.on_drained(hook)
        world4.barrier()
        # Sends buffer until the flush pass, which runs once no hook is due.
        assert log == ["drained"] * 3 + [(1, "first"), (2, "a"), (3, "b")]
        world4.barrier()
        assert log.count("drained") == 3

    def test_a_hook_scheduled_by_a_hook_runs_in_the_same_pass(self, world4):
        """The process backend's worker runs one drain pass per round, then
        flushes: a hook a hook schedules must not wait for the next round."""
        ran = []

        def first():
            ran.append("first")
            world4.on_drained(lambda: ran.append("second"))

        world4.on_drained(first)
        assert world4.run_drain_hooks() and ran == ["first", "second"]
        assert not world4.run_drain_hooks()

    def test_a_failed_barrier_drops_its_drain_hooks(self, world4):
        ran = []

        def fail(ctx):
            raise RuntimeError("handler failed")

        handler = world4.register_handler(fail)
        world4.on_drained(lambda: ran.append("stale"))
        world4.ranks[0].async_call(1, handler)
        world4.ranks[0].buffers.flush_all()
        with pytest.raises(RuntimeError, match="handler failed"):
            world4.barrier()
        world4.barrier()
        assert ran == []


class TestStatsAndPhases:
    def test_remote_and_local_bytes_are_separated(self, world4):
        handler = world4.register_handler(lambda ctx, x: None)
        world4.ranks[0].async_call(0, handler, "local")
        world4.ranks[0].async_call(1, handler, "remote")
        world4.barrier()
        total = world4.stats.total()
        assert total.bytes_sent_local > 0
        assert total.bytes_sent_remote > 0
        assert total.rpcs_sent == 2
        assert total.rpcs_executed == 2

    def test_bytes_received_only_counts_remote(self, world4):
        handler = world4.register_handler(lambda ctx, x: None)
        world4.ranks[0].async_call(0, handler, "local")
        world4.barrier()
        assert world4.stats.total().bytes_received == 0
        world4.ranks[0].async_call(1, handler, "remote")
        world4.barrier()
        assert world4.stats.total().bytes_received > 0

    def test_execution_books_every_rpc_and_byte_a_message_carries(self):
        """One path books a 1-RPC ``async_call`` carrier and an n-RPC
        coalesced one: ``rpcs`` executed, ``nbytes`` received when remote."""
        for rpcs in (1, 7):
            for source in (0, 1):
                world = World(2)
                seen = []
                handle = world.register_handler(lambda ctx, x: seen.append((ctx.rank, x)))
                world.begin_phase("p")
                world._execute_message(Message(source, 1, handle, ("x",), rpcs, 40))
                phase = world.stats.ranks[1].phases["p"]
                assert seen == [(1, "x")]
                assert phase.rpcs_executed == rpcs
                assert phase.bytes_received == (40 if source != 1 else 0)

    def test_phase_attribution(self, world4):
        handler = world4.register_handler(lambda ctx: None)
        world4.begin_phase("first")
        world4.ranks[0].async_call(1, handler)
        world4.barrier()
        world4.begin_phase("second")
        world4.ranks[0].async_call(1, handler)
        world4.ranks[0].async_call(2, handler)
        world4.barrier()
        assert world4.stats.phase_total("first").rpcs_sent == 1
        assert world4.stats.phase_total("second").rpcs_sent == 2
        assert world4.phase_order == ["first", "second"]

    def test_reset_stats_clears_counters_and_phases(self, world4):
        handler = world4.register_handler(lambda ctx: None)
        world4.begin_phase("p")
        world4.ranks[0].async_call(1, handler)
        world4.barrier()
        world4.reset_stats()
        assert world4.stats.total().rpcs_sent == 0
        assert world4.phase_order == []

    def test_simulated_time_is_positive_and_additive(self, world4):
        handler = world4.register_handler(lambda ctx, blob: ctx.add_compute(100))
        world4.begin_phase("a")
        for ctx in world4.ranks:
            ctx.async_call((ctx.rank + 1) % 4, handler, "x" * 500)
        world4.barrier()
        world4.begin_phase("b")
        world4.ranks[0].async_call(1, handler, "y")
        world4.barrier()
        sim = world4.simulated_time()
        assert sim.total_seconds > 0
        assert sim.total_seconds == pytest.approx(
            sim.phase_seconds("a") + sim.phase_seconds("b")
        )

    def test_add_counter_lands_in_current_phase(self, world4):
        world4.begin_phase("x")
        world4.ranks[2].add_counter("things", 3)
        assert world4.stats.phase_total("x").app_counters["things"] == 3


class TestCoalescedStreams:
    def test_first_appearance_groups_of_no_keys_is_no_groups(self):
        order, starts, ends = first_appearance_groups(np.empty(0, dtype=np.int64))
        assert order.size == starts.size == ends.size == 0

    def test_send_coalesced_of_an_empty_stream_sends_nothing(self, world4):
        calls = []
        handler = world4.register_handler(lambda ctx, *args: calls.append(args))
        world4.begin_phase("x")
        empty = np.empty(0, dtype=np.int64)
        world4.ranks[1].send_coalesced(handler, empty, empty, (1,), (empty,))
        world4.barrier()
        assert calls == []
        assert world4.stats.phase_total("x") == PhaseStats()


class TestStableHash:
    def test_deterministic_for_ints_and_strings(self):
        assert stable_hash(12345) == stable_hash(12345)
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash((1, "a")) == stable_hash((1, "a"))

    def test_distinct_inputs_rarely_collide(self):
        values = {stable_hash(i) for i in range(10000)}
        assert len(values) == 10000

    def test_non_negative(self):
        for value in (0, -1, -(2**63), "x", (1, 2), None, 3.5, True):
            assert stable_hash(value) >= 0

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash([1, 2, 3])

    def test_owner_of_spreads_keys(self, world8):
        owners = [world8.owner_of(i) for i in range(800)]
        counts = [owners.count(r) for r in range(8)]
        assert min(counts) > 0
        assert max(counts) < 3 * (800 // 8)
