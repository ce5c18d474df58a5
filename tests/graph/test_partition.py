"""Unit tests for vertex partitioners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.partition import CyclicPartitioner, HashPartitioner


class TestCyclic:
    def test_integer_ids_round_robin(self):
        part = CyclicPartitioner(4)
        assert [part.owner(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_non_integer_ids_fall_back_to_hash(self):
        part = CyclicPartitioner(4)
        assert 0 <= part.owner("vertex") < 4

    def test_bool_not_treated_as_int(self):
        part = CyclicPartitioner(4)
        assert 0 <= part.owner(True) < 4


class TestHash:
    def test_deterministic(self):
        part = HashPartitioner(8)
        assert part.owner(123) == part.owner(123)

    def test_seed_changes_assignment(self):
        a = HashPartitioner(16, seed=1)
        b = HashPartitioner(16, seed=2)
        moved = sum(1 for i in range(200) if a.owner(i) != b.owner(i))
        assert moved > 100

    def test_spreads_evenly(self):
        part = HashPartitioner(8)
        counts = np.bincount(part.owners(range(4000)), minlength=8)
        assert counts.max() / counts.mean() < 1.3


class TestCommon:
    def test_nranks_must_be_positive(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_owners_batch_helper(self):
        part = CyclicPartitioner(3)
        assert part.owners([0, 1, 2, 3]) == [0, 1, 2, 0]
