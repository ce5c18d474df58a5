"""Golden parity: every reducer's ``callback_batch`` vs its scalar ``callback``.

The columnar engine's reducer contract (ISSUE 3) is that batch delivery is a
*bit-identical* drop-in for scalar delivery: running a survey with the
reducer's ``callback_batch`` engaged must produce the same reducer output
AND the same per-rank, per-phase communication/compute counters as running
the very same engine with the scalar callback (batch hidden behind a
wrapper).  That includes the counting-set cache-eviction paths — batch
reducers must apply increments in scalar invocation order so evictions fire
at the same triangle boundaries and the increment message stream is
byte-identical.

Scalar-vs-batch runs share one engine (columnar) so everything is pinned
exactly; a third run on the legacy engine pins reducer *outputs* across
engines (legacy byte accounting parity is covered by
``test_coalesced_survey.py``).

The three reducers with an array path (``edge_values``/``vertex_values`` +
``increment_grouped_run``) choose it per batch from the batch length, so
``TestBothSidesOfTheCrossover`` pins the same parity with the crossover
constant forced to 0 (every batch on arrays) and to a huge value (every
batch on the object loop), at cache capacities that replay, mix and
aggregate the counting-set runs.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.graph.metadata as metadata_module
from repro.analysis.degree_triples import decorate_with_degrees
from repro.containers.counting_set import DistributedCountingSet
from repro.core.callbacks import (
    ClosureTimeSurvey,
    DegreeTripleSurvey,
    EdgeSupportCounter,
    FqdnTripleSurvey,
    LocalTriangleCounter,
    MaxEdgeLabelDistribution,
    TriangleCounter,
    log2_bucket,
    log2_bucket_array,
)
from repro.core.engine import EngineConfig
from repro.core.engine import driver
from repro.core.engine.driver import CandidateStage
from repro.core.intersection import ROW_KERNEL_TIERS, resolve_kernel_tier
from repro.core.push_pull import triangle_survey_push_pull
from repro.core import triangle_survey
from repro.core.survey import resolve_batch_callback, triangle_survey_push
from repro.graph.dodgr import DODGraph
from repro.graph.generators import GeneratedGraph, chung_lu_power_law, rmat
from repro.graph.metadata import TriangleBatch
from repro.graph.ooc import StorageConfig, active_segment_paths
from repro.runtime import active_segment_names
from repro.runtime.world import World

#: Small enough to force mid-survey cache evictions on every fixture.
EVICTING_CACHE = 4
NRANKS = 6


@pytest.fixture(scope="module")
def rmat_graph():
    return rmat(7, edge_factor=8, seed=42)


@pytest.fixture(scope="module")
def chung_lu_graph():
    """Chung-Lu input decorated with per-edge timestamps + vertex labels.

    The generator itself carries one shared boolean edge meta; the survey
    contract cares about *metadata-bearing* triangles, so rebuild the edge
    list with a deterministic timestamp per edge and a small label alphabet
    per vertex (shared labels exercise the distinct-metadata filters).
    """
    base = chung_lu_power_law(220, average_degree=10.0, seed=11)
    edges = [
        (u, v, float((37 * i) % 4096 + 1)) for i, (u, v, _meta) in enumerate(base.edges)
    ]
    vertices = {endpoint for u, v, _meta in edges for endpoint in (u, v)}
    vertex_meta = {v: f"label_{v % 12}" for v in vertices}
    return GeneratedGraph(name="chung_lu_meta", edges=edges, vertex_meta=vertex_meta)


@pytest.fixture(scope="module")
def numeric_graph(chung_lu_graph):
    """The Chung-Lu input with *numeric* vertex labels.

    Float edge stamps and int vertex labels: every extractor of the three
    array-path reducers has an exact array form here (the string labels of
    ``chung_lu_graph`` and the shared ``True`` of ``rmat_graph`` do not).
    """
    vertex_meta = {v: v % 12 for v in chung_lu_graph.vertex_meta}
    return GeneratedGraph(
        name="chung_lu_numeric", edges=chung_lu_graph.edges, vertex_meta=vertex_meta
    )


GRAPHS = ["rmat", "chung_lu"]


def counting(cls):
    """Factory of a counting-set reducer at a given cache capacity."""
    return lambda world, capacity: cls(world, cache_capacity=capacity, name="reducer")


#: reducer name -> (factory(world, cache capacity), needs degree decoration)
REDUCERS = {
    "triangle_counter": (lambda world, capacity: TriangleCounter(world), False),
    "local_counter": (counting(LocalTriangleCounter), False),
    "edge_support": (counting(EdgeSupportCounter), False),
    "max_edge_label": (counting(MaxEdgeLabelDistribution), False),
    "closure_time": (counting(ClosureTimeSurvey), False),
    "degree_triple": (counting(DegreeTripleSurvey), True),
    "fqdn_triple": (counting(FqdnTripleSurvey), False),
}


def stats_snapshot(world, phases):
    snapshot = {}
    for name in phases:
        for rank_stats in world.stats.ranks:
            phase = rank_stats.phases.get(name)
            if phase is None:
                continue
            snapshot[(name, rank_stats.rank)] = (
                phase.bytes_sent_remote,
                phase.bytes_sent_local,
                phase.rpcs_sent,
                phase.rpcs_executed,
                phase.wire_messages,
                phase.wire_bytes,
                phase.bytes_received,
                phase.compute_units,
                dict(phase.app_counters),
            )
    return snapshot


def run_survey(
    dataset, reducer_name, algorithm, engine, hide_batch, capacity=EVICTING_CACHE
):
    world = World(NRANKS)
    factory, decorate = REDUCERS[reducer_name]
    graph = dataset.to_distributed(world)
    if decorate:
        graph = decorate_with_degrees(graph)
    dodgr = DODGraph.build(graph, mode="bulk")
    reducer = factory(world, capacity)
    if hide_batch:
        # Wrapping hides callback_batch from resolve_batch_callback: the
        # columnar engine takes its scalar fallback — the parity oracle.
        callback = lambda ctx, tri: reducer.callback(ctx, tri)  # noqa: E731
        assert resolve_batch_callback(callback) is None
    else:
        callback = reducer.callback
    survey = triangle_survey_push if algorithm == "push" else triangle_survey_push_pull
    report = survey(dodgr, callback, engine=engine)
    if hasattr(reducer, "finalize"):
        reducer.finalize()
    else:
        world.barrier()
    stats = stats_snapshot(world, report.phases)
    dodgr.release()
    return report, reducer.result(), stats


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("algorithm", ["push", "push_pull"])
@pytest.mark.parametrize("reducer_name", sorted(REDUCERS))
class TestScalarVsBatch:
    def test_batch_is_bit_identical_to_scalar(
        self, reducer_name, algorithm, graph_name, rmat_graph, chung_lu_graph
    ):
        dataset = rmat_graph if graph_name == "rmat" else chung_lu_graph
        scalar = run_survey(dataset, reducer_name, algorithm, "columnar", hide_batch=True)
        batch = run_survey(dataset, reducer_name, algorithm, "columnar", hide_batch=False)
        assert batch[0].triangles == scalar[0].triangles
        assert batch[1] == scalar[1], "reducer outputs differ"
        assert batch[2] == scalar[2], "per-rank per-phase accounting differs"
        assert batch[0].communication_bytes == scalar[0].communication_bytes
        assert batch[0].wire_messages == scalar[0].wire_messages

    def test_batch_output_matches_legacy_engine(
        self, reducer_name, algorithm, graph_name, rmat_graph, chung_lu_graph
    ):
        dataset = rmat_graph if graph_name == "rmat" else chung_lu_graph
        legacy = run_survey(dataset, reducer_name, algorithm, "legacy", hide_batch=True)
        batch = run_survey(dataset, reducer_name, algorithm, "columnar", hide_batch=False)
        assert batch[0].triangles == legacy[0].triangles
        assert batch[1] == legacy[1], "reducer outputs differ from the legacy engine"


#: The reducers that ask the batch for typed arrays.
ARRAY_REDUCERS = ["closure_time", "degree_triple", "max_edge_label"]
#: Every batch on the array path / every batch on the object loop.
ALL_ARRAYS, ALL_LOOPS = 0, 10**9


@pytest.fixture
def eviction_stream(monkeypatch):
    """Every cache flush as ``(rank, [(item, amount), ...])``, in order.

    The counters above see message counts and bytes; this sees *which*
    increments a flush carried and in which order — the cache's insertion
    order, which an aggregated run must leave as the item-by-item walk does.
    """
    stream = []
    original = DistributedCountingSet.flush_cache

    def spy(self, ctx):
        stream.append((ctx.rank, list(self._cache(ctx).items())))
        original(self, ctx)

    monkeypatch.setattr(DistributedCountingSet, "flush_cache", spy)
    return stream


#: Capacities at which a grouped run always replays item by item, sometimes
#: fits the cache's headroom, and always does (no eviction ever fires).
@pytest.mark.parametrize("capacity", [EVICTING_CACHE, 24, 4096])
@pytest.mark.parametrize("graph_name", ["chung_lu", "numeric"])
@pytest.mark.parametrize("algorithm", ["push", "push_pull"])
@pytest.mark.parametrize("reducer_name", ARRAY_REDUCERS)
class TestBothSidesOfTheCrossover:
    def test_arrays_and_loop_match_scalar_and_legacy(
        self, reducer_name, algorithm, graph_name, capacity,
        chung_lu_graph, numeric_graph, monkeypatch, grouped_runs, eviction_stream,
    ):
        dataset = chung_lu_graph if graph_name == "chung_lu" else numeric_graph
        args = (dataset, reducer_name, algorithm)
        legacy = run_survey(*args, "legacy", hide_batch=True, capacity=capacity)
        del eviction_stream[:]
        scalar = run_survey(*args, "columnar", hide_batch=True, capacity=capacity)
        scalar_evictions = list(eviction_stream)
        for crossover in (ALL_ARRAYS, ALL_LOOPS):
            del grouped_runs[:], eviction_stream[:]
            monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", crossover)
            batch = run_survey(*args, "columnar", hide_batch=False, capacity=capacity)
            assert eviction_stream == scalar_evictions, "eviction streams differ"
            assert batch[0].triangles == scalar[0].triangles == legacy[0].triangles
            assert batch[1] == scalar[1] == legacy[1], "reducer outputs differ"
            assert batch[2] == scalar[2], "per-rank per-phase accounting differs"
            assert batch[0].communication_bytes == scalar[0].communication_bytes
            assert batch[0].wire_messages == scalar[0].wire_messages
            # The string vertex labels of chung_lu have no array form: its
            # max-edge-label survey stays on the loop at any crossover.
            arrays = crossover == ALL_ARRAYS and (
                graph_name == "numeric" or reducer_name != "max_edge_label"
            )
            assert bool(grouped_runs) == arrays


class TestArrayPathOnOtherAxes:
    """One all-arrays run each on the process backend and mmap storage."""

    @pytest.fixture(autouse=True)
    def all_arrays(self, monkeypatch):
        monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", ALL_ARRAYS)

    @staticmethod
    def assert_matches_oracles(dataset, engine):
        for reducer_name in ARRAY_REDUCERS:
            args = (dataset, reducer_name, "push_pull")
            got = run_survey(*args, engine, hide_batch=False)
            scalar = run_survey(*args, "columnar", hide_batch=True)
            legacy = run_survey(*args, "legacy", hide_batch=True)
            assert got[1] == scalar[1] == legacy[1], reducer_name
            assert got[2] == scalar[2], reducer_name

    def test_process_backend_matches_and_leaks_no_shm(self, numeric_graph):
        # Forked workers inherit the CSRs and fill their own copy-on-write
        # memos; nothing of a memo crosses the worker boundary.
        self.assert_matches_oracles(
            numeric_graph, EngineConfig(backend="process", workers=2)
        )
        assert active_segment_names() == frozenset()
        if os.path.isdir("/dev/shm"):
            assert [n for n in os.listdir("/dev/shm") if n.startswith("repro-pb")] == []

    def test_mmap_storage_matches_and_leaks_no_segments(self, numeric_graph, tmp_path):
        storage = StorageConfig(mode="mmap", directory=str(tmp_path))
        self.assert_matches_oracles(numeric_graph, EngineConfig(storage=storage))
        assert active_segment_paths() == frozenset()
        assert list(tmp_path.iterdir()) == []


class TestCacheEvictionPaths:
    def test_evictions_fire_during_survey(self, rmat_graph):
        """The golden fixtures genuinely exercise the eviction branch."""
        world = World(NRANKS)
        dodgr = DODGraph.build(rmat_graph.to_distributed(world), mode="bulk")
        reducer = LocalTriangleCounter(world, cache_capacity=EVICTING_CACHE, name="r")
        flushes = []
        original = reducer.counts.flush_cache

        def spy(ctx):
            flushes.append(ctx.rank)
            original(ctx)

        reducer.counts.flush_cache = spy
        triangle_survey_push(dodgr, reducer.callback, engine="columnar")
        assert flushes, "cache never filled: raise the fixture size or lower capacity"


class TestCandidatesByReference:
    """Push and pull hand the row kernel a frame's key column itself, each
    wedge's suffix a span of it: the snapshot's global ``tgt_ids`` when
    resident, a rank's own memmap when spilled, never a copy.  Only the
    delta stream's explicit candidates are gathered."""

    @staticmethod
    def recorded_sources(rmat_graph, monkeypatch, storage):
        """(key arrays of every kernel call, resident global ids, rank ids)."""
        tier = resolve_kernel_tier(None)
        kernel = ROW_KERNEL_TIERS[tier]["merge_path"]
        sources = []

        def recording_kernel(source_keys, *args, matches):
            # A reducer survey asks for the match columns.
            assert matches is True
            sources.append(source_keys)
            return kernel(source_keys, *args, matches=matches)

        monkeypatch.setitem(ROW_KERNEL_TIERS[tier], "merge_path", recording_kernel)
        world = World(NRANKS)
        dodgr = DODGraph.build(rmat_graph.to_distributed(world), mode="bulk")
        global_ids = dodgr.global_columns()["tgt_ids"]
        reducer = LocalTriangleCounter(world)
        report = triangle_survey_push_pull(
            dodgr, reducer.callback, engine=EngineConfig(storage=storage)
        )
        assert report.triangles and world.stats.phase_total("pull").rpcs_executed
        rank_ids = [dodgr.csr(rank).tgt_ids for rank in range(NRANKS)]
        dodgr.release()
        return sources, global_ids, rank_ids

    def test_full_surveys_pass_tgt_ids_in_place(self, rmat_graph, monkeypatch):
        sources, global_ids, rank_ids = self.recorded_sources(rmat_graph, monkeypatch, None)
        # One call per rank per phase, each over the global column itself.
        assert 0 < len(sources) <= 2 * NRANKS
        assert all(s is global_ids for s in sources)
        assert all(ids.base is global_ids for ids in rank_ids)

    def test_spilled_surveys_pass_each_rank_memmap_in_place(
        self, rmat_graph, monkeypatch, tmp_path
    ):
        storage = StorageConfig(mode="mmap", directory=str(tmp_path))
        sources, _, rank_ids = self.recorded_sources(rmat_graph, monkeypatch, storage)
        assert all(isinstance(ids, np.memmap) for ids in rank_ids)
        assert sources and all(any(s is t for t in rank_ids) for s in sources)
        assert active_segment_paths() == frozenset()


@settings(max_examples=16, deadline=None)
@given(
    chunk=st.integers(min_value=256, max_value=2048),
    algorithm=st.sampled_from(["push", "push_pull"]),
    spilled=st.booleans(),
    seed=st.integers(min_value=0, max_value=3),
)
def test_large_phases_stay_within_the_chunk(tmp_path_factory, chunk, algorithm, spilled, seed):
    """Under ``storage="mmap"`` (a ``chunk_candidates()`` of ``chunk``) or
    resident (``RESIDENT_PART_CANDIDATES`` set to ``chunk``), no row-kernel
    call spans more than ``chunk`` candidates unless one oversize wedge alone
    does, no delivered part holds more unless one message alone does, and
    the survey still matches the unbounded resident one.  A draw whose
    ``chunk`` no multi-message part of the unbounded survey exceeds cuts
    nothing, so it is skipped."""
    tier = resolve_kernel_tier(None)
    kernel = ROW_KERNEL_TIERS[tier]["merge_path"]
    spans, parts = [], []
    matched = CandidateStage._matched
    unbounded = driver.RESIDENT_PART_CANDIDATES

    def recording_kernel(source_keys, starts, ends, *args, matches):
        lengths = np.asarray(ends) - np.asarray(starts)
        spans.append((int(lengths.sum()), len(lengths), int(lengths.max(initial=0))))
        return kernel(source_keys, starts, ends, *args, matches=matches)

    def recording_matched(self, ctx, messages):
        parts.append((sum(m.checks for m in messages), len(messages)))
        return matched(self, ctx, messages)

    graph = rmat(scale=9, edge_factor=8, seed=seed)

    def survey(storage, resident_part):
        world = World(NRANKS)
        dodgr = DODGraph.build(graph.to_distributed(world), mode="bulk")
        reducer = LocalTriangleCounter(world)
        ROW_KERNEL_TIERS[tier]["merge_path"] = recording_kernel
        CandidateStage._matched = recording_matched
        driver.RESIDENT_PART_CANDIDATES = resident_part
        try:
            report = triangle_survey(
                dodgr, reducer.callback, algorithm, engine=EngineConfig(storage=storage)
            )
        finally:
            ROW_KERNEL_TIERS[tier]["merge_path"] = kernel
            CandidateStage._matched = matched
            driver.RESIDENT_PART_CANDIDATES = unbounded
            dodgr.release()
        reducer.finalize()
        return reducer.snapshot(), report.triangles, report.communication_bytes

    resident = survey(None, unbounded)
    whole = len(parts)
    assert whole <= 2 * NRANKS  # one part per rank per phase
    assume(chunk < max((total for total, count in parts if count > 1), default=0))
    spans.clear()
    parts.clear()
    if spilled:
        directory = str(tmp_path_factory.mktemp("ooc"))
        storage = StorageConfig(mode="mmap", chunk_candidates=chunk, directory=directory)
        assert storage.resolved_chunk_candidates() == chunk
        assert survey(storage, unbounded) == resident
    else:
        assert survey(None, chunk) == resident
    assert spans and all(
        total <= chunk or (count == 1 and largest > chunk) for total, count, largest in spans
    )
    assert parts and all(total <= chunk or count == 1 for total, count in parts)
    assert len(parts) > whole  # the phases really were cut
    assert active_segment_paths() == frozenset()


class TestBatchResolution:
    def test_bound_reducer_callback_resolves(self):
        world = World(2)
        reducer = TriangleCounter(world)
        assert resolve_batch_callback(reducer.callback) == reducer.callback_batch

    def test_plain_function_with_attribute_resolves(self):
        def callback(ctx, tri):
            pass

        def callback_batch(ctx, batch):
            pass

        callback.callback_batch = callback_batch
        assert resolve_batch_callback(callback) is callback_batch

    def test_plain_function_without_attribute_is_scalar(self):
        assert resolve_batch_callback(lambda ctx, tri: None) is None
        assert resolve_batch_callback(None) is None

    def test_other_bound_methods_do_not_resolve(self):
        world = World(2)
        reducer = LocalTriangleCounter(world, name="r")
        # finalize is a bound method of an object that has callback_batch,
        # but it is not the reducer's callback — must not engage batching.
        assert resolve_batch_callback(reducer.finalize) is None

    def test_scalar_override_disables_inherited_batch(self):
        """A subclass overriding only ``callback`` must NOT inherit batching.

        The scalar/batch entry points are a contract pair; running the base
        class's batch aggregation against a specialised scalar callback
        would silently change results on the columnar engine.
        """

        class FilteredCounter(TriangleCounter):
            def callback(self, ctx, tri):
                if tri.p == 0 or tri.q == 0 or tri.r == 0:
                    super().callback(ctx, tri)

        world = World(2)
        filtered = FilteredCounter(world)
        assert resolve_batch_callback(filtered.callback) is None

        class FilteredCounterWithBatch(FilteredCounter):
            def callback_batch(self, ctx, batch):
                for tri in batch.triangles():
                    self.callback(ctx, tri)

        paired = FilteredCounterWithBatch(world)
        assert (
            resolve_batch_callback(paired.callback) == paired.callback_batch
        )

    def test_scalar_override_runs_identically_on_columnar(self, rmat_graph):
        class FilteredCounter(TriangleCounter):
            def callback(self, ctx, tri):
                if tri.p % 3 == 0:
                    super().callback(ctx, tri)

        results = {}
        for engine in ("legacy", "columnar"):
            world = World(NRANKS)
            dodgr = DODGraph.build(rmat_graph.to_distributed(world), mode="bulk")
            reducer = FilteredCounter(world)
            triangle_survey_push(dodgr, reducer.callback, engine=engine)
            results[engine] = reducer.result()
        assert results["columnar"] == results["legacy"]
        assert results["legacy"] > 0


class TestTriangleBatch:
    def test_columns_are_lazy_and_cached(self):
        built = []

        def make(name, values):
            def build():
                built.append(name)
                return values

            return build

        batch = TriangleBatch(2, {"p": make("p", [1, 2]), "q": make("q", [3, 4])})
        assert len(batch) == 2
        assert built == []
        assert batch.p == [1, 2]
        assert batch.p == [1, 2]
        assert built == ["p"]
        assert batch.q == [3, 4]
        assert built == ["p", "q"]

    def test_batch_without_a_csr_has_no_array_form(self, monkeypatch):
        monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", ALL_ARRAYS)
        batch = TriangleBatch(2, {"meta_pq": lambda: [1.0, 2.0]})
        assert batch.edge_values(float) is None
        assert batch.vertex_values(float) is None
        assert batch.meta_pq == [1.0, 2.0]

    def test_triangles_adapter_round_trips(self):
        columns = {
            "p": [0, 1],
            "q": [2, 3],
            "r": [4, 5],
            "meta_p": ["a", "b"],
            "meta_q": ["c", "d"],
            "meta_r": ["e", "f"],
            "meta_pq": [10, 11],
            "meta_pr": [12, 13],
            "meta_qr": [14, 15],
        }
        batch = TriangleBatch(
            2, {name: (lambda values=values: values) for name, values in columns.items()}
        )
        tris = list(batch.triangles())
        assert [(t.p, t.q, t.r) for t in tris] == [(0, 2, 4), (1, 3, 5)]
        assert [t.meta_qr for t in tris] == [14, 15]


def closure_panels(edges, timestamp, nranks=2):
    """Closure-time panels of ``edges`` on the legacy and columnar engines."""
    dataset = GeneratedGraph(name="stamped", edges=edges)
    results = {}
    for engine in ("legacy", "columnar"):
        world = World(nranks)
        dodgr = DODGraph.build(dataset.to_distributed(world), mode="bulk")
        survey = ClosureTimeSurvey(world, timestamp=timestamp, name="s")
        triangle_survey_push(dodgr, survey.callback, engine=engine)
        survey.finalize()
        results[engine] = survey.result()
    return results


class TestClosureTimePrecision:
    def test_integer_nanosecond_timestamps_beyond_2_53(self):
        """Batch bucketing must subtract in the stamps' own arithmetic.

        Epoch-nanosecond integers exceed 2**53; casting raw stamps to
        float64 before subtracting would collapse sub-ULP differences and
        diverge from the scalar callback's exact integer subtraction.
        """
        base = 1_700_000_000_000_000_000
        edges = [(0, 1, base), (1, 2, base + 513), (0, 2, base + 1025)]
        results = closure_panels(edges, lambda meta: meta)
        assert results["legacy"] == results["columnar"] == {(10, 11): 1}

    def test_integer_nanosecond_timestamps_take_the_int64_path(
        self, monkeypatch, grouped_runs
    ):
        """The same stamps through ``edge_values``: int64, never float64."""
        monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", ALL_ARRAYS)
        base = 1_700_000_000_000_000_000
        edges = [(0, 1, base), (1, 2, base + 513), (0, 2, base + 1025)]
        results = closure_panels(edges, lambda meta: meta)
        assert results["legacy"] == results["columnar"] == {(10, 11): 1}
        assert grouped_runs == [1]


class TestValuesWithoutAnArrayForm:
    """Stamps the memo refuses keep the object loop — and its exact output."""

    @pytest.fixture(autouse=True)
    def all_arrays(self, monkeypatch):
        monkeypatch.setattr(metadata_module, "ARRAY_VALUES_MIN_BATCH", ALL_ARRAYS)

    @pytest.mark.parametrize(
        "stamp_of",
        [
            lambda i: 2**62 + 1000 * i,
            lambda i: 2**70 + 3 * i,
            lambda i: float(i) if i % 2 else 7 * i,
            lambda i: bool(i % 3),
        ],
        ids=["int_beyond_2_62", "int_beyond_int64", "mixed_int_float", "bool"],
    )
    def test_reducer_output_equals_the_scalar_path(self, stamp_of, grouped_runs):
        edges = [
            (u, v, stamp_of(i))
            for i, (u, v) in enumerate((u, v) for u in range(7) for v in range(u + 1, 7))
        ]
        results = closure_panels(edges, lambda meta: meta)
        assert results["legacy"] == results["columnar"]
        assert sum(results["columnar"].values()) == 35
        assert grouped_runs == []

    def test_extractor_never_sees_an_edge_outside_every_triangle(self, grouped_runs):
        """Sparse fill: a stamp no triangle touches is never extracted."""
        edges = [(0, 1, 1.0), (1, 2, 5.0), (0, 2, 9.0), (2, 3, "not a stamp")]
        results = closure_panels(edges, float, nranks=1)  # float("not a stamp") raises
        assert results["legacy"] == results["columnar"] == {(2, 3): 1}
        assert grouped_runs == [1]


class TestLog2Bucket:
    def test_matches_ceil_log2(self):
        for value in [0.0, -3.0, 0.5, 1.0, 1.0000001, 1.5, 2.0, 3.0, 4.0, 1024.0,
                      1025.0, 2.0 ** 40, 2.0 ** 40 + 1.0, 7.25e8]:
            if value <= 1.0:
                assert log2_bucket(value) == 0
            else:
                assert log2_bucket(value) == math.ceil(math.log2(value)), value

    def test_array_matches_scalar(self):
        numpy = pytest.importorskip("numpy")
        values = numpy.array(
            [0.0, 0.25, 1.0, 1.5, 2.0, 2.5, 4.0, 1023.0, 1024.0, 1025.0, 2.0 ** 52]
        )
        assert log2_bucket_array(values).tolist() == [
            log2_bucket(v) for v in values.tolist()
        ]

    @staticmethod
    def assert_array_is_scalar(values):
        values = np.asarray(values)
        assert log2_bucket_array(values).tolist() == [
            log2_bucket(v) for v in values.tolist()
        ]

    def test_non_finite_signed_zero_and_subnormals(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        self.assert_array_is_scalar(
            [math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, tiny, -tiny,
             2.0 ** -1022, np.nextafter(2.0 ** -1022, 0.0), -1.0, -math.ulp(1.0)]
        )

    def test_powers_of_two_and_one_ulp_either_side(self):
        powers = [2.0 ** k for k in range(-3, 1024)]
        neighbours = [
            np.nextafter(power, direction)
            for power in powers
            for direction in (0.0, math.inf)
        ]
        self.assert_array_is_scalar(powers + neighbours)
        assert log2_bucket_array([2.0 ** 1023]).tolist() == [1023]
        assert log2_bucket_array([np.finfo(np.float64).max]).tolist() == [1024]
        assert log2_bucket_array([np.nextafter(2.0, 3.0)]).tolist() == [2]

    def test_int64_differences_beyond_2_53(self):
        values = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 54 + 3, 2 ** 62 + 1, 2 ** 63 - 1]
        self.assert_array_is_scalar(np.array(values, dtype=np.int64))

    @given(st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_any_float64_bit_pattern(self, patterns):
        self.assert_array_is_scalar(np.array(patterns, dtype=np.int64).view(np.float64))

    @given(st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_any_int64_difference(self, differences):
        self.assert_array_is_scalar(np.array(differences, dtype=np.int64))

    def test_a_two_row_array_buckets_each_row(self):
        gaps = np.array([[0.5, 3.0, 1024.0], [2.0, 1025.0, math.inf]])
        assert log2_bucket_array(gaps).tolist() == [[0, 2, 10], [1, 11, 0]]
