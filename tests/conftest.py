"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.containers import DistributedCountingSet
from repro.graph import erdos_renyi, rmat
from repro.runtime import World


@pytest.fixture
def world4() -> World:
    """A small 4-rank simulated world."""
    return World(4)


@pytest.fixture
def world8() -> World:
    """An 8-rank simulated world."""
    return World(8)


@pytest.fixture(scope="session")
def small_rmat():
    """A small R-MAT graph with a healthy number of triangles (session cached)."""
    return rmat(8, edge_factor=8, seed=42)


@pytest.fixture(scope="session")
def small_er():
    """A small dense-ish Erdos-Renyi graph (session cached)."""
    return erdos_renyi(60, 0.15, seed=7)


@pytest.fixture
def grouped_runs(monkeypatch):
    """Distinct-key count of every ``increment_grouped_run`` call, in order.

    Non-empty means some batch reducer took its array path (typed
    ``edge_values``/``vertex_values`` + a pre-aggregated counting-set run).
    """
    calls = []
    original = DistributedCountingSet.increment_grouped_run

    def spy(self, ctx, keys, counts, inverse):
        calls.append(len(keys))
        original(self, ctx, keys, counts, inverse)

    monkeypatch.setattr(DistributedCountingSet, "increment_grouped_run", spy)
    return calls
