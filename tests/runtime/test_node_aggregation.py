"""Tests for node-level message aggregation (the Section 5.4 improvement)."""

from __future__ import annotations

import pytest

from repro.core import triangle_survey_push
from repro.graph import DODGraph
from repro.runtime import World, WorldError
from repro.runtime.message_buffer import BufferBank, Message
from repro.runtime.stats import RankStats


class TestBufferBankGrouping:
    def _bank(self, ranks_per_node, nranks=8, threshold=10_000):
        delivered = []
        stats = RankStats(0)
        bank = BufferBank(
            0,
            nranks,
            stats,
            deliver=lambda msgs: delivered.extend(msgs),
            flush_threshold_bytes=threshold,
            ranks_per_node=ranks_per_node,
        )
        return bank, stats, delivered

    def test_per_rank_buffering_by_default(self):
        bank, _, _ = self._bank(ranks_per_node=1)
        bank.send(Message(0, 2, None, (), 1, 1))
        bank.send(Message(0, 3, None, (), 1, 1))
        assert bank.pending_messages() == 2
        assert len(bank._buffers) == 2

    def test_same_node_destinations_share_a_buffer(self):
        bank, stats, _ = self._bank(ranks_per_node=4)
        bank.send(Message(0, 1, None, (), 1, 1))  # node 0
        bank.send(Message(0, 2, None, (), 1, 1))  # node 0
        bank.send(Message(0, 5, None, (), 1, 1))  # node 1
        assert len(bank._buffers) == 2
        bank.flush_all()
        assert stats.current.wire_messages == 2

    def test_delivery_targets_actual_ranks(self):
        bank, _, delivered = self._bank(ranks_per_node=4)
        bank.send(Message(0, 1, None, (), 1, 1))
        bank.send(Message(0, 2, None, (), 1, 1))
        bank.flush_all()
        assert sorted(msg.dest for msg in delivered) == [1, 2]

    def test_invalid_ranks_per_node_rejected(self):
        stats = RankStats(0)
        with pytest.raises(ValueError):
            BufferBank(0, 4, stats, deliver=lambda m: None, ranks_per_node=0)


class TestWorldIntegration:
    def test_world_validates_ranks_per_node(self):
        with pytest.raises(WorldError):
            World(4, ranks_per_node=0)

    def test_results_unchanged_by_node_aggregation(self, small_rmat):
        from repro.graph import serial_triangle_count

        expected = serial_triangle_count(small_rmat.edges)
        for ranks_per_node in (1, 4):
            world = World(8, ranks_per_node=ranks_per_node)
            dodgr = DODGraph.build(small_rmat.to_distributed(world))
            report = triangle_survey_push(dodgr)
            assert report.triangles == expected

    def test_node_aggregation_reduces_wire_messages(self, small_rmat):
        """With many ranks and small buffers, grouping by node must cut the
        number of wire messages without changing the payload volume much."""
        def run(ranks_per_node):
            world = World(16, flush_threshold_bytes=2048, ranks_per_node=ranks_per_node)
            dodgr = DODGraph.build(small_rmat.to_distributed(world))
            return triangle_survey_push(dodgr)

        per_rank = run(1)
        per_node = run(8)
        assert per_node.triangles == per_rank.triangles
        assert per_node.wire_messages < per_rank.wire_messages
        payload_per_rank = per_rank.communication_bytes - 64 * per_rank.wire_messages
        payload_per_node = per_node.communication_bytes - 64 * per_node.wire_messages
        assert payload_per_node == payload_per_rank
