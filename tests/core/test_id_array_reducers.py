"""``LocalTriangleCounter`` / ``EdgeSupportCounter`` on ``TriangleBatch.vertex_ids()``.

Both reducers ask the batch for its ``(p, q, r)`` int64 columns and hand the
counting set one grouped run per batch (interleaved vertex ids / canonical
``(min, max)`` pair codes); the object loop stays as the None branch.  The
contract is the one ``test_columnar_callbacks.py`` pins for the value-array
reducers: with the crossover forced to "all arrays" and to "all loops" the
reducer output, every per-rank per-phase counter and the eviction stream
(which keys each cache flush carried, in which order) equal the scalar
callback's, at cache capacities where every run splits, some do, none does.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.metadata as metadata_module
from repro.containers.counting_set import DistributedCountingSet
from repro.core.callbacks import EdgeSupportCounter, LocalTriangleCounter
from repro.core.push_pull import triangle_survey_push_pull
from repro.core.survey import resolve_batch_callback, triangle_survey_push
from repro.graph.dodgr import DODGraph
from repro.graph.generators import GeneratedGraph, rmat
from repro.graph.metadata import TriangleBatch
from repro.runtime.world import World

NRANKS = 5
ALL_ARRAYS, ALL_LOOPS = 0, 10**9
REDUCERS = {"local": LocalTriangleCounter, "support": EdgeSupportCounter}


@pytest.fixture(scope="module")
def int_graph():
    return rmat(7, edge_factor=8, seed=5)


def relabelled(graph, label, name):
    edges = [(label(u), label(v), meta) for u, v, meta in graph.edges]
    return GeneratedGraph(name=name, edges=edges)


@pytest.fixture(scope="module")
def wide_graph(int_graph):
    """Negative ids and ids near the int64 limits: pair codes must not overflow."""
    return relabelled(
        int_graph, lambda v: (v - 40) * (2**56) if v % 2 else -(v + 1), "wide"
    )


@pytest.fixture(scope="module")
def string_graph(int_graph):
    return relabelled(int_graph, lambda v: f"v{v}", "strings")


@pytest.fixture
def eviction_stream(monkeypatch):
    """Every cache flush as ``(rank, [(item, amount), ...])``, in order."""
    stream = []
    original = DistributedCountingSet.flush_cache

    def spy(self, ctx):
        stream.append((ctx.rank, list(self._cache(ctx).items())))
        original(self, ctx)

    monkeypatch.setattr(DistributedCountingSet, "flush_cache", spy)
    return stream


def run_survey(dataset, reducer_name, algorithm, engine, hide_batch, capacity):
    world = World(NRANKS)
    dodgr = DODGraph.build(dataset.to_distributed(world), mode="bulk")
    reducer = REDUCERS[reducer_name](world, cache_capacity=capacity, name="reducer")
    if hide_batch:
        callback = lambda ctx, tri: reducer.callback(ctx, tri)  # noqa: E731
        assert resolve_batch_callback(callback) is None
    else:
        callback = reducer.callback
    survey = triangle_survey_push if algorithm == "push" else triangle_survey_push_pull
    report = survey(dodgr, callback, engine=engine)
    reducer.finalize()
    stats = {
        (name, rank_stats.rank): rank_stats.phase(name).copy()
        for name in world.stats.phase_names()
        for rank_stats in world.stats.ranks
    }
    return report.triangles, reducer.result(), stats


@pytest.mark.parametrize("capacity", [4, 24, 4096])
@pytest.mark.parametrize(
    "graph_name, algorithm",
    [("int_graph", "push"), ("int_graph", "push_pull"), ("wide_graph", "push")],
)
@pytest.mark.parametrize("reducer_name", sorted(REDUCERS))
def test_arrays_and_loop_match_scalar_and_legacy(
    reducer_name, graph_name, algorithm, capacity,
    request, monkeypatch, grouped_runs, eviction_stream,
):
    dataset = request.getfixturevalue(graph_name)
    args = (dataset, reducer_name, algorithm)
    legacy = run_survey(*args, "legacy", hide_batch=True, capacity=capacity)
    del eviction_stream[:]
    scalar = run_survey(*args, "columnar", hide_batch=True, capacity=capacity)
    scalar_evictions = list(eviction_stream)
    assert scalar[:2] == legacy[:2]
    for crossover in (ALL_ARRAYS, ALL_LOOPS):
        del grouped_runs[:], eviction_stream[:]
        monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", crossover)
        batch = run_survey(*args, "columnar", hide_batch=False, capacity=capacity)
        assert eviction_stream == scalar_evictions, "eviction streams differ"
        assert batch == scalar
        assert bool(grouped_runs) == (crossover == ALL_ARRAYS)
    if capacity == 4:
        assert len(scalar_evictions) > NRANKS, "the fixture must evict mid-survey"


@pytest.mark.parametrize("reducer_name", sorted(REDUCERS))
def test_non_integer_ids_keep_the_object_loop(
    reducer_name, string_graph, monkeypatch, grouped_runs
):
    monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", ALL_ARRAYS)
    args = (string_graph, reducer_name, "push")
    batch = run_survey(*args, "columnar", hide_batch=False, capacity=24)
    assert batch == run_survey(*args, "columnar", hide_batch=True, capacity=24)
    assert grouped_runs == []


def test_support_keys_are_canonical_python_int_pairs(wide_graph, monkeypatch):
    monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", ALL_ARRAYS)
    _, support, _ = run_survey(wide_graph, "support", "push", "columnar", False, 64)
    assert support
    for low, high in support:
        assert type(low) is int and type(high) is int and low < high


class TestVertexIds:
    def test_hand_built_batch_has_no_id_arrays(self, monkeypatch):
        monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", ALL_ARRAYS)
        batch = TriangleBatch(1, {"p": lambda: [0], "q": lambda: [1], "r": lambda: [2]})
        assert batch.vertex_ids() is None

    @staticmethod
    def batch(p_column, size=3):
        positions = np.arange(size)
        ints = np.arange(10, 10 + size)
        reads = {"ids": ((p_column, positions), (ints, positions), (ints, positions[::-1]))}
        return TriangleBatch(size, {}, reads)

    def test_int64_columns_are_gathered_at_their_positions(self, monkeypatch):
        monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", ALL_ARRAYS)
        p, q, r = self.batch(np.array([7, 8, 9])).vertex_ids()
        assert (p.tolist(), q.tolist(), r.tolist()) == ([7, 8, 9], [10, 11, 12], [12, 11, 10])
        assert p.dtype == q.dtype == r.dtype == np.int64

    def test_an_object_id_column_answers_none(self, monkeypatch):
        monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", ALL_ARRAYS)
        strings = np.array(["a", "b", "c"], dtype=object)
        assert self.batch(strings).vertex_ids() is None

    def test_short_batches_answer_none(self):
        assert metadata_module.ARRAY_VALUES_MIN_BATCH > 3
        assert self.batch(np.array([7, 8, 9])).vertex_ids() is None
