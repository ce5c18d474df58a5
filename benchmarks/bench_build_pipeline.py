"""Construction pipeline — routed per-edge ingest/build vs the columns-first path.

Not a figure from the paper: this benchmark holds the columns-first
construction pipeline (ISSUE 2, ISSUE 19) to the routed reference.  PR 1
made the survey hot loop fast, which left ``DODGraph.build`` (and the
`DistributedGraph` ingest feeding it) as the dominant host-time cost of
every figure benchmark.  The bulk path keeps the paper's bulk,
communication-light preprocessing semantics but never leaves arrays:
columnar generator output feeds ``DistributedGraph.from_columns`` (kept as
one half-edge column image, no per-vertex dicts), and
``DODGraph.build(mode="bulk")`` turns that image into every rank's
``CSRAdjacency`` columns — one ``order_positions`` argsort for the ``<+``
order, one comparison to orient, one sort for all adjacency lists.  The
DODGr is those columns; the records, entry tuples and order-id dict are the
oracle's view of them (``repro.oracle.record_view``).

Contract: the bulk builder is **bit-identical** to the reference builder
(``repro.oracle.routed_build`` — the paper-faithful build that routes every
half edge through the simulated runtime — over the oracle's per-edge record
load, ``repro.oracle.load_records``): the routed records equal the bulk
DODGr's record view in store insertion order and in every adjacency tuple,
its dense order ids equal the scalar ``<+`` sort, the bulk columns of the
record-loaded and ``from_columns`` graphs are equal, and therefore survey
communication accounting is byte-identical.

Expected shape:

* every parity column (records, order ids, every ``CSRAdjacency.COLUMNS``
  column, survey comm bytes / wire messages / triangles) exactly equal;
* host seconds of both builders and both ingest paths reported side by
  side.  The ratio is informational: a gate against an in-repo slow path
  stays green while the fast path regresses, so the build's absolute cost
  is gated by the repo benchmark's ``build_s`` instead (``perf/``).
"""

from __future__ import annotations

import time

from _artifacts import emit
from repro.bench import format_table
from repro.core.survey import triangle_survey_push
from repro.graph.degree import order_key
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dodgr import CSRAdjacency, DODGraph
from repro.graph.generators import rmat
from repro.oracle import load_records, record_view, routed_build
from repro.runtime.world import World

#: Weak-scaling construction points: (R-MAT scale, simulated node count).
WEAK_SCALING_POINTS = [(11, 8), (12, 16)]
EDGE_FACTOR = 8
SEED = 19


def _build_once(dataset, nranks, vectorized, repeats=1):
    """One full construction pipeline on a fresh world; returns timings.

    Each stage is repeated ``repeats`` times (ingest on a fresh world per
    repeat, build over the final graph) and the minimum is reported, keeping
    the reported ratio out of reach of GC pauses.  The routed lane returns
    the last routed build's records and a bulk DODGr of its graph for the
    column and survey parity; the vectorized lane its last bulk DODGr.
    """
    ingest_seconds = None
    for _ in range(repeats):
        world = World(nranks)
        start = time.perf_counter()
        if vectorized:
            us, vs = dataset.edge_columns()
            graph = DistributedGraph.from_columns(
                world, us, vs, edge_meta=True, name=dataset.name
            )
        else:
            graph = load_records(world, dataset.edges).graph(name=dataset.name)
        elapsed = time.perf_counter() - start
        if ingest_seconds is None or elapsed < ingest_seconds:
            ingest_seconds = elapsed
    build_seconds = None
    for _ in range(repeats):
        start = time.perf_counter()
        built = DODGraph.build(graph, mode="bulk") if vectorized else routed_build(graph)
        elapsed = time.perf_counter() - start
        if build_seconds is None or elapsed < build_seconds:
            build_seconds = elapsed
    if vectorized:
        return world, graph, built, ingest_seconds, build_seconds
    return world, graph, (built, DODGraph.build(graph)), ingest_seconds, build_seconds


def _assert_bit_identical(legacy, vectorized, nranks):
    """Exact-equality parity: routed records vs the bulk record view (store
    order included), order ids vs the scalar ``<+`` sort, CSR arrays."""
    (routed, from_edges), graph = legacy, vectorized
    view = record_view(graph)
    assert len(routed) == len(view.stores) == nranks
    for store_a, store_b in zip(routed, view.stores):
        assert list(store_a.keys()) == list(store_b.keys())
        for vertex in store_a:
            assert store_a[vertex]["meta"] == store_b[vertex]["meta"]
            assert store_a[vertex]["degree"] == store_b[vertex]["degree"]
            assert store_a[vertex]["adj"] == store_b[vertex]["adj"]
    degree = {
        vertex: record["degree"] for store in routed for vertex, record in store.items()
    }
    in_order = sorted(degree, key=lambda v: order_key(v, degree[v]))
    assert view.order_ids == {vertex: k for k, vertex in enumerate(in_order)}
    for rank in range(nranks):
        csr_a, csr_b = from_edges.csr(rank), graph.csr(rank)
        for name in CSRAdjacency.COLUMNS:
            assert getattr(csr_a, name).tolist() == getattr(csr_b, name).tolist(), name


def _survey_parity(legacy, vectorized):
    """Byte-identical communication when the same survey runs on each graph."""
    report_a = triangle_survey_push(legacy, engine="columnar")
    report_b = triangle_survey_push(vectorized, engine="columnar")
    assert report_a.triangles == report_b.triangles
    assert report_a.communication_bytes == report_b.communication_bytes
    assert report_a.wire_messages == report_b.wire_messages
    return report_a


def test_build_pipeline_weak_scaling(benchmark):
    """R-MAT weak scaling: exact parity, build and ingest timings reported."""

    def run_all():
        # Warm both code paths (NumPy kernel dispatch, import-time caches)
        # so the timed points measure steady-state construction.
        warmup = rmat(8, edge_factor=4, seed=SEED)
        _build_once(warmup, 4, vectorized=False)
        _build_once(warmup, 4, vectorized=True)
        points = []
        for scale, nranks in WEAK_SCALING_POINTS:
            dataset = rmat(scale, edge_factor=EDGE_FACTOR, seed=SEED)
            _, _, legacy, legacy_ingest, legacy_build = _build_once(
                dataset, nranks, vectorized=False, repeats=3
            )
            _, _, vec_dodgr, vec_ingest, vec_build = _build_once(
                dataset, nranks, vectorized=True, repeats=3
            )
            _assert_bit_identical(legacy, vec_dodgr, nranks)
            report = _survey_parity(legacy[1], vec_dodgr)
            points.append(
                {
                    "scale": scale,
                    "nodes": nranks,
                    "edges": dataset.num_edges(),
                    "triangles": report.triangles,
                    "comm_bytes": report.communication_bytes,
                    "legacy_ingest_s": legacy_ingest,
                    "vectorized_ingest_s": vec_ingest,
                    "legacy_build_s": legacy_build,
                    "vectorized_build_s": vec_build,
                    "build_speedup": legacy_build / vec_build,
                    "ingest_speedup": legacy_ingest / vec_ingest,
                }
            )
        return points

    points = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for point in points:
        rows.append(
            {
                "input": f"rmat s{point['scale']} x{point['nodes']} nodes",
                "edges": point["edges"],
                "triangles": point["triangles"],
                "comm bytes": point["comm_bytes"],
                "routed build": f"{point['legacy_build_s']:.3f}s",
                "vector build": f"{point['vectorized_build_s']:.3f}s",
                "build speedup": f"{point['build_speedup']:.2f}x",
                "ingest speedup": f"{point['ingest_speedup']:.2f}x",
                "parity": "bit-identical",
            }
        )
    emit(
        format_table(
            rows, title="Construction pipeline — routed vs vectorized builder"
        )
    )

    benchmark.extra_info.update(
        {
            "points": [(p["scale"], p["nodes"]) for p in points],
            "build_speedups": [p["build_speedup"] for p in points],
            "ingest_speedups": [p["ingest_speedup"] for p in points],
        }
    )


def test_build_pipeline_adversarial_inputs(benchmark):
    """Self-loops, duplicates and both orientations: still bit-identical."""
    edges = []
    for i in range(400):
        edges.append((i % 40, (i * 7 + 3) % 40, f"m{i}"))
    edges += [(5, 5, "loop"), (7, 7, None)]
    edges += [(1, 2, "dup-a"), (2, 1, "dup-b"), (1, 2, "dup-c")]

    def run_once():
        nranks = 8
        world_a, world_b = World(nranks), World(nranks)
        graph_a = load_records(world_a, edges).graph(name="adv")
        us = [e[0] for e in edges]
        vs = [e[1] for e in edges]
        metas = [e[2] for e in edges]
        graph_b = DistributedGraph.from_columns(
            world_b, us, vs, edge_metas=metas, name="adv"
        )
        routed = routed_build(graph_a)
        vectorized = DODGraph.build(graph_b, mode="bulk")
        _assert_bit_identical((routed, DODGraph.build(graph_a)), vectorized, nranks)
        return sum(len(record["adj"]) for store in routed for record in store.values())

    directed_edges = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert directed_edges > 0
