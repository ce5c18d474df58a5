"""Unit tests for YGM-style message buffering and its accounting."""

from __future__ import annotations

import pytest

from repro.runtime.message_buffer import (
    WIRE_ENVELOPE_BYTES,
    BufferBank,
    Message,
    MessageBuffer,
)
from repro.runtime.stats import RankStats


def message(dest, nbytes, source=0, args=()):
    """A one-RPC carrier of ``nbytes`` serialized bytes (no handler needed:
    a bank never runs one)."""
    return Message(source, dest, None, args, 1, nbytes)


def make_bank(flush_threshold=100, rank=0, nranks=4):
    delivered = []
    stats = RankStats(rank)
    bank = BufferBank(
        rank,
        nranks,
        stats,
        deliver=lambda msgs: delivered.extend(msgs),
        flush_threshold_bytes=flush_threshold,
    )
    return bank, stats, delivered


class TestMessageBuffer:
    def test_append_reports_threshold_crossing(self):
        buf = MessageBuffer(0, 1, flush_threshold_bytes=10)
        assert buf.append(message(1, 5)) is False
        assert buf.append(message(1, 5)) is True
        assert buf.pending_bytes == 10
        assert len(buf) == 2

    def test_drain_empties_and_counts_flushes(self):
        buf = MessageBuffer(0, 1, flush_threshold_bytes=10)
        buf.append(message(1, 3, args=("abc",)))
        messages, nbytes = buf.drain()
        assert [m.args for m in messages] == [("abc",)]
        assert nbytes == 3
        assert buf.flush_count == 1
        assert len(buf) == 0

    def test_drain_empty_buffer_does_not_count_flush(self):
        buf = MessageBuffer(0, 1, flush_threshold_bytes=10)
        messages, nbytes = buf.drain()
        assert messages == [] and nbytes == 0
        assert buf.flush_count == 0


class TestBufferBank:
    def test_local_messages_bypass_the_wire(self):
        bank, stats, delivered = make_bank()
        bank.send(message(0, 4))
        assert len(delivered) == 1
        phase = stats.current
        assert phase.bytes_sent_local == 4
        assert phase.bytes_sent_remote == 0
        assert phase.wire_messages == 0

    def test_remote_messages_buffer_until_threshold(self):
        bank, stats, delivered = make_bank(flush_threshold=10)
        bank.send(message(1, 4))
        assert delivered == []
        bank.send(message(1, 6))
        assert len(delivered) == 2  # one aggregated flush of two messages
        phase = stats.current
        assert phase.wire_messages == 1
        assert phase.wire_bytes == 10 + WIRE_ENVELOPE_BYTES
        assert phase.rpcs_sent == 2

    def test_flush_all_delivers_pending(self):
        bank, stats, delivered = make_bank(flush_threshold=1000)
        bank.send(message(1, 2))
        bank.send(message(2, 2))
        assert delivered == []
        assert bank.pending_messages() == 2
        bank.flush_all()
        assert len(delivered) == 2
        assert bank.pending_messages() == 0
        assert stats.current.wire_messages == 2

    def test_aggregation_reduces_wire_messages(self):
        # 100 tiny messages to the same destination must produce far fewer
        # wire messages than the naive one-message-per-send.
        bank, stats, _ = make_bank(flush_threshold=64)
        for _ in range(100):
            bank.send(message(1, 10))
        bank.flush_all()
        assert stats.current.rpcs_sent == 100
        assert stats.current.wire_messages < 25

    def test_destination_out_of_range_rejected(self):
        bank, _, _ = make_bank(nranks=2)
        with pytest.raises(ValueError):
            bank.send(message(5, 1))
        with pytest.raises(ValueError):
            bank.send(message(-1, 1))

    def test_invalid_threshold_rejected(self):
        stats = RankStats(0)
        with pytest.raises(ValueError):
            BufferBank(0, 2, stats, deliver=lambda m: None, flush_threshold_bytes=0)

    def test_destinations_lists_only_pending(self):
        bank, _, _ = make_bank(flush_threshold=1000)
        bank.send(message(2, 2))
        bank.send(message(3, 2))
        assert bank.destinations() == [2, 3]
        bank.flush_all()
        assert bank.destinations() == []
