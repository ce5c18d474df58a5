"""Unit tests for the collective sum reduction."""

from __future__ import annotations

import pytest

from repro.runtime import World, all_reduce_sum


class TestAllReduce:
    def test_sum(self, world4):
        assert all_reduce_sum(world4, [1, 2, 3, 4]) == 10

    def test_sum_of_floats(self, world4):
        assert all_reduce_sum(world4, [0.5, 0.25, 0.125, 0.125]) == pytest.approx(1.0)

    def test_wrong_length_rejected(self, world4):
        with pytest.raises(ValueError):
            all_reduce_sum(world4, [1, 2])

    def test_reduction_charges_communication(self, world4):
        before = world4.stats.total().wire_bytes
        all_reduce_sum(world4, [1, 2, 3, 4])
        after = world4.stats.total().wire_bytes
        assert after > before

    def test_single_rank_reduction_is_free(self):
        world = World(1)
        assert all_reduce_sum(world, [5]) == 5
        assert world.stats.total().wire_bytes == 0

