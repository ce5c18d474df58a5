"""Streaming bench helpers: schedule construction and the recompute baseline."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.bench.streaming import full_recompute_survey, make_streaming_schedule
from repro.core.callbacks import TriangleCounter
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import erdos_renyi
from repro.graph.properties import serial_triangle_count
from repro.runtime.world import World


def records(n):
    return [(i, i + 1, float(i)) for i in range(n)]


def test_schedule_partitions_exactly():
    schedule = make_streaming_schedule(records(100), num_batches=3, delta_fraction=0.05)
    assert schedule.num_edges() == 100
    assert len(schedule.batches) == 3
    assert all(batch for batch in schedule.batches)
    assert len(schedule.base) == 100 - sum(len(b) for b in schedule.batches)
    replayed = schedule.base + [r for batch in schedule.batches for r in batch]
    assert sorted(replayed) == sorted(records(100))  # a permutation, no dups
    assert schedule.delta_fraction() == pytest.approx(0.05)


def test_schedule_deterministic_and_sortable():
    a = make_streaming_schedule(records(50), seed=3)
    b = make_streaming_schedule(records(50), seed=3)
    assert a.base == b.base and a.batches == b.batches
    ordered = make_streaming_schedule(
        records(50), sort_key=lambda record: record[2]
    )
    assert ordered.base == records(50)[: len(ordered.base)]


def test_schedule_rejects_impossible_splits():
    with pytest.raises(ValueError):
        make_streaming_schedule(records(10), num_batches=2, delta_fraction=0.5)
    # Tiny input: the 1-record-per-batch floor would leave no base.
    with pytest.raises(ValueError):
        make_streaming_schedule(records(2), num_batches=3, delta_fraction=0.01)


def test_full_recompute_survey_matches_oracle():
    world = World(4)
    generated = erdos_renyi(50, 0.15, seed=6)
    graph = DistributedGraph.from_edges(world, generated.edges, name="g")
    recompute = full_recompute_survey(graph, TriangleCounter)
    oracle = serial_triangle_count([(u, v) for u, v, _m in generated.edges])
    assert recompute.result == oracle
    assert recompute.report.triangles == oracle
    assert recompute.host_seconds > 0
