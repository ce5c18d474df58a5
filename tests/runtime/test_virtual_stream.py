"""Virtual-stream accounting and batched delivery (the coalesced-call runtime).

``BufferBank.send_virtual`` must be byte-for-byte indistinguishable — in
every counter the simulation reports — from ``send`` of a message of the
same size, and ``RankContext.async_call_batched`` must account execution
as the legacy messages it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.message_buffer import (
    WIRE_ENVELOPE_BYTES,
    BufferBank,
    Message,
    MessageBuffer,
)
from repro.runtime.stats import RankStats
from repro.runtime.world import World


def make_bank(threshold=64, rank=0, nranks=4):
    stats = RankStats(rank)
    delivered = []
    bank = BufferBank(
        rank,
        nranks,
        stats,
        deliver=delivered.extend,
        flush_threshold_bytes=threshold,
    )
    return bank, stats, delivered


class TestSendVirtualEquivalence:
    @pytest.mark.parametrize(
        "sizes",
        [
            [10, 10, 10],
            [100],  # single oversized message: immediate flush
            [63, 1, 5],  # flush exactly at the threshold boundary
            [1] * 200,
            [30, 40, 2, 90, 3, 3],
        ],
    )
    def test_wire_counters_match_real_sends(self, sizes):
        real_bank, real_stats, _ = make_bank()
        virt_bank, virt_stats, _ = make_bank()
        for size in sizes:
            real_bank.send(Message(0, 2, None, (), 1, size))
            virt_bank.send_virtual(2, size)
        real_bank.flush_all()
        virt_bank.flush_all()
        real, virt = real_stats.current, virt_stats.current
        assert virt.rpcs_sent == real.rpcs_sent
        assert virt.bytes_sent_remote == real.bytes_sent_remote
        assert virt.wire_messages == real.wire_messages
        assert virt.wire_bytes == real.wire_bytes

    def test_local_virtual_send_bypasses_wire(self):
        bank, stats, delivered = make_bank()
        bank.send_virtual(0, 500)
        phase = stats.current
        assert phase.rpcs_sent == 1
        assert phase.bytes_sent_local == 500
        assert phase.bytes_sent_remote == 0
        assert phase.wire_messages == 0
        assert delivered == []

    def test_virtual_only_buffer_still_flushes(self):
        bank, stats, delivered = make_bank(threshold=1000)
        bank.send_virtual(1, 10)
        assert bank.has_pending()
        assert bank.pending_bytes() == 10
        bank.flush_all()
        assert not bank.has_pending()
        assert stats.current.wire_messages == 1
        assert stats.current.wire_bytes == 10 + WIRE_ENVELOPE_BYTES
        assert delivered == []  # nothing deliverable rode the virtual bytes

    def test_out_of_range_destination_rejected(self):
        bank, _, _ = make_bank()
        with pytest.raises(ValueError):
            bank.send_virtual(99, 10)

    def test_negative_virtual_size_rejected(self):
        buf = MessageBuffer(0, 1, 64)
        with pytest.raises(ValueError):
            buf.append_virtual(-1)


class TestWorldBatchedDelivery:
    def test_batched_call_runs_once_with_virtual_accounting(self):
        world = World(3)
        seen = []

        def handler(ctx, payload):
            seen.append((ctx.rank, payload))

        handle = world.register_handler(handler)
        src = world.rank(0)
        src.account_rpc_bulk(np.array([2, 2]), np.array([40, 60]))
        src.async_call_batched(2, handle, "batch", virtual_rpcs=2, virtual_bytes=100)
        world.barrier()

        assert seen == [(2, "batch")]
        sender = world.stats.ranks[0].current
        receiver = world.stats.ranks[2].current
        assert sender.rpcs_sent == 2
        assert sender.bytes_sent_remote == 100
        assert sender.wire_messages == 1
        assert sender.wire_bytes == 100 + WIRE_ENVELOPE_BYTES
        assert receiver.rpcs_executed == 2
        assert receiver.bytes_received == 100

    def test_local_batched_call_counts_no_received_bytes(self):
        world = World(2)
        seen = []
        handle = world.register_handler(lambda ctx, x: seen.append(x))
        src = world.rank(1)
        src.account_rpc_bulk(np.array([1]), np.array([25]))
        src.async_call_batched(1, handle, 7, virtual_rpcs=1, virtual_bytes=25)
        world.barrier()
        assert seen == [7]
        stats = world.stats.ranks[1].current
        assert stats.bytes_sent_local == 25
        assert stats.bytes_received == 0
        assert stats.rpcs_executed == 1
        assert stats.wire_messages == 0

    def test_batched_args_pass_by_reference(self):
        world = World(2)
        received = []
        handle = world.register_handler(lambda ctx, obj: received.append(obj))
        marker = object()  # not serializable: proves no size is taken
        world.rank(0).async_call_batched(
            1, handle, marker, virtual_rpcs=1, virtual_bytes=0
        )
        world.barrier()
        assert received[0] is marker

    def test_batched_call_rejects_bad_rank(self):
        from repro.runtime.world import WorldError

        world = World(2)
        handle = world.register_handler(lambda ctx: None)
        with pytest.raises(WorldError):
            world.rank(0).async_call_batched(5, handle, virtual_rpcs=1, virtual_bytes=0)

    def test_barrier_flushes_virtual_only_pending(self):
        world = World(2)
        world.rank(0).account_rpc_bulk(np.array([1]), np.array([12]))
        world.barrier()
        stats = world.stats.ranks[0].current
        assert stats.wire_messages == 1
        assert stats.wire_bytes == 12 + WIRE_ENVELOPE_BYTES


class TestSendVirtualBulk:
    """``send_virtual_bulk`` must replay the per-message walk exactly."""

    def compare_streams(self, dests, sizes, threshold=64, rank=0, nranks=4,
                        ranks_per_node=1, preload=0):
        numpy = pytest.importorskip("numpy")

        def make():
            stats = RankStats(rank)
            delivered = []
            bank = BufferBank(
                rank, nranks, stats, deliver=delivered.extend,
                flush_threshold_bytes=threshold, ranks_per_node=ranks_per_node,
            )
            if preload:
                # Pre-existing occupancy: the first bulk flush must carry it.
                first_remote = next(d for d in range(nranks) if d != rank)
                bank.send_virtual(first_remote, preload)
            return bank, stats

    # sequential reference
        seq_bank, seq_stats = make()
        for dest, size in zip(dests, sizes):
            seq_bank.send_virtual(dest, size)
    # bulk replay
        bulk_bank, bulk_stats = make()
        bulk_bank.send_virtual_bulk(
            numpy.asarray(dests, dtype=numpy.int64),
            numpy.asarray(sizes, dtype=numpy.int64),
        )
        seq, bulk = seq_stats.current, bulk_stats.current
        for attr in ("rpcs_sent", "bytes_sent_local", "bytes_sent_remote",
                     "wire_messages", "wire_bytes"):
            assert getattr(bulk, attr) == getattr(seq, attr), attr
        for key, buf in seq_bank._buffers.items():
            twin = bulk_bank._buffers.get(key)
            assert (twin.pending_bytes if twin is not None else 0) == buf.pending_bytes
            assert (twin.flush_count if twin is not None else 0) == buf.flush_count

    def test_empty_stream(self):
        self.compare_streams([], [])

    def test_local_only(self):
        self.compare_streams([0, 0, 0], [10, 20, 30])

    def test_mixed_destinations_with_flushes(self):
        self.compare_streams([1, 2, 1, 0, 3, 1, 2], [30, 40, 40, 9, 100, 1, 63])

    def test_oversized_single_message(self):
        self.compare_streams([2], [500])

    def test_threshold_boundary_exact(self):
        self.compare_streams([1, 1], [63, 1])

    def test_preexisting_occupancy_flushes_with_first_bulk(self):
        self.compare_streams([1, 1, 1], [40, 40, 40], preload=30)

    def test_node_level_aggregation_grouping(self):
        self.compare_streams(
            [1, 2, 3, 1, 2, 3], [30, 30, 30, 30, 30, 30], ranks_per_node=2
        )

    @pytest.mark.parametrize("ranks_per_node", [1, 2])
    def test_destinations_past_one_byte(self, ranks_per_node):
        # 300 ranks put destination keys past 2**8, and 3 000 messages past
        # the radix crossover, so the bulk grouping runs the radix passes.
        rng = np.random.default_rng(300)
        dests = rng.integers(0, 300, 3000)
        dests[:5] = [299, 256, 255, 0, 7]
        sizes = rng.integers(0, 120, dests.size)
        self.compare_streams(
            dests.tolist(), sizes.tolist(), threshold=256, rank=7, nranks=300,
            ranks_per_node=ranks_per_node,
        )

    def test_random_fuzz(self):
        import random

        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(0, 60)
            nranks = rng.randint(1, 5)
            dests = [rng.randrange(nranks) for _ in range(n)]
            sizes = [rng.randint(0, 120) for _ in range(n)]
            self.compare_streams(
                dests, sizes,
                threshold=rng.choice([32, 64, 128]),
                rank=rng.randrange(nranks),
                nranks=nranks,
                ranks_per_node=rng.choice([1, 2]),
            )
