"""Unit tests for the degree ordering (<+ relation)."""

from __future__ import annotations

import itertools

from repro.graph.degree import order_key


def precedes(u, du, v, dv):
    """``u <+ v``: the order the DODGr build sorts vertices by."""
    return order_key(u, du) < order_key(v, dv)


class TestOrderKey:
    def test_lower_degree_precedes(self):
        assert precedes("a", 1, "b", 5)
        assert not precedes("b", 5, "a", 1)

    def test_ties_broken_deterministically(self):
        assert precedes(1, 3, 2, 3) != precedes(2, 3, 1, 3)

    def test_strict_total_order_on_sample(self):
        vertices = [(v, d) for v, d in zip(range(20), [3, 1, 4, 1, 5, 9, 2, 6] * 3)]
        # Antisymmetry and totality.
        for (u, du), (v, dv) in itertools.combinations(vertices, 2):
            assert precedes(u, du, v, dv) != precedes(v, dv, u, du)
        # Transitivity via sort consistency.
        keys = [order_key(v, d) for v, d in vertices]
        assert sorted(keys) == sorted(keys, key=lambda k: k)

    def test_irreflexive(self):
        assert not precedes("x", 4, "x", 4)

