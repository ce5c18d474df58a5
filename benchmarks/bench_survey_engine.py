"""Columnar survey engine — batch reducers vs scalar callbacks (ISSUE 3).

Not a figure from the paper: this benchmark validates and gates the columnar
survey execution engine.  The columnar engine coalesces one RPC per (source
rank, destination rank) pair, intersects every wedge of the pair in one
row-kernel call, drives candidate generation with array ops instead of the
per-wedge Python walk, and delivers triangles to reducers as
``TriangleBatch`` columns consumed by ``callback_batch``.

Contract, pinned by the parity tests below (these run before — and fail the
CI smoke job independently of — the timing gates):

* **cross-engine**: the parity matrix iterates the *engine registry*
  (:func:`repro.core.engine.engine_names` — so any future registration
  joins automatically) against the legacy oracle:
  identical triangle counts, reducer outputs, communicated bytes, wire
  messages and simulated seconds, on the push path and the push-pull path
  (including real pulls);
* **within the columnar engine** (scalar parity oracle vs ``callback_batch``):
  bit-identical *everything*, including the counting-set increment streams
  of metadata reducers — batch reducers apply increments in scalar
  invocation order, so cache evictions land on the same triangle.

Two gates: the engine layer's dispatch must not add more than 5% host time
over driving the columnar internals directly
(``test_engine_layer_no_regression``); and — the
one production-vs-production ratio — a ``columnar`` Push-Pull count must cost
at most 1.5x a ``columnar`` Push-Only count on rmat-14 / 8 ranks
(``test_pushpull_over_push``, ROADMAP target 1.3).  The columnar engine's
speed against scalar callbacks is measured by the ``closure_push`` row of
``python -m perf``, not gated here.
"""

from __future__ import annotations

import time

import pytest

from _artifacts import emit
from repro.analysis.degree_triples import decorate_with_degrees
from repro.bench import format_table, load_dataset
from repro.core.callbacks import DegreeTripleSurvey, TriangleCounter
from repro.core.engine import DEFAULT_CALLBACK_COMPUTE_UNITS, engine_names
from repro.core.engine.driver import (
    CandidateStage,
    drive_columnar_push,
    legacy_push_payload_overhead,
    resolve_batch_callback,
)
from repro.core.intersection import row_kernel
from repro.core.push_pull import triangle_survey_push_pull
from repro.core.survey import triangle_survey_push
from repro.graph.dodgr import DODGraph
from repro.graph.generators import rmat
from repro.runtime.world import World

NODES = 16
#: Engine-layer dispatch (registry + request + program builder) must not cost
#: more than this fraction of host time over driving the columnar internals
#: directly — the "before the refactor" equivalent.
REFACTOR_REGRESSION_GATE = 0.05
#: ``columnar`` Push-Pull host time over ``columnar`` Push-Only on the same
#: graph.  Both sides are the production engine, so — unlike a gate against
#: ``legacy`` — it cannot stay green while the path users run regresses.  Measured 1.19 when the dry run went columnar.
PUSHPULL_OVER_PUSH_GATE = 1.5


def make_counter(world):
    return TriangleCounter(world)


def make_degree_survey(world):
    return DegreeTripleSurvey(world, name="bench_degree_triples")


REDUCERS = {
    "triangle_count": (make_counter, False),
    "degree_triples": (make_degree_survey, True),
}


def run_once(dataset, algorithm, engine, reducer_name, hide_batch=False):
    """Fresh world/DODGr per run so nothing is shared between engines."""
    world = World(NODES)
    factory, decorate = REDUCERS[reducer_name]
    graph = dataset.to_distributed(world)
    if decorate:
        graph = decorate_with_degrees(graph)
    dodgr = DODGraph.build(graph, mode="bulk")
    reducer = factory(world)
    if hide_batch:
        # Hiding callback_batch turns the columnar engine into its scalar
        # fallback — the parity oracle for batch reducers.
        callback = lambda ctx, tri: reducer.callback(ctx, tri)  # noqa: E731
    else:
        callback = reducer.callback
    survey = triangle_survey_push if algorithm == "push" else triangle_survey_push_pull
    report = survey(dodgr, callback, engine=engine)
    if hasattr(reducer, "finalize"):
        reducer.finalize()
    return report, reducer.result()


def assert_cross_engine_parity(scalar, columnar, context):
    """Oracle run (legacy engine or scalar callbacks) vs batch-reducer columnar run."""
    assert columnar[0].triangles == scalar[0].triangles, context
    assert columnar[1] == scalar[1], f"{context}: reducer outputs differ"
    assert columnar[0].communication_bytes == scalar[0].communication_bytes, context
    assert columnar[0].wire_messages == scalar[0].wire_messages, context
    assert columnar[0].wedge_checks == scalar[0].wedge_checks, context
    assert columnar[0].vertices_pulled == scalar[0].vertices_pulled, context
    assert columnar[0].simulated_seconds == pytest.approx(
        scalar[0].simulated_seconds
    ), context


def test_parity_push_paths(benchmark):
    """Push path: counting reducer parity across every *registered* engine
    (the registry is the engine list — a newly registered engine joins this
    matrix automatically), metadata reducer parity within the columnar
    engine (counting-set streams included)."""
    dataset = load_dataset("rmat-weak")

    def run_all():
        results = {
            name: run_once(dataset, "push", name, "triangle_count")
            for name in engine_names()
        }
        results["degree_oracle"] = run_once(
            dataset, "push", "columnar", "degree_triples", hide_batch=True
        )
        results["degree_columnar"] = run_once(dataset, "push", "columnar", "degree_triples")
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name in engine_names():
        if name == "legacy":
            continue
        assert_cross_engine_parity(
            results["legacy"], results[name], f"push/{name}/triangle_count"
        )
    assert_cross_engine_parity(
        results["degree_oracle"], results["degree_columnar"], "push/degree_triples"
    )


def test_parity_pull_path(benchmark):
    """Push-Pull path with real pulls: same registry-driven parity matrix."""
    dataset = load_dataset("reddit-like")

    def run_all():
        results = {
            name: run_once(dataset, "push_pull", name, "triangle_count")
            for name in engine_names()
        }
        results["degree_oracle"] = run_once(
            dataset, "push_pull", "columnar", "degree_triples", hide_batch=True
        )
        results["degree_columnar"] = run_once(
            dataset, "push_pull", "columnar", "degree_triples"
        )
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # The fixture must actually exercise the pull phase.
    assert results["legacy"][0].vertices_pulled > 0
    for name in engine_names():
        if name == "legacy":
            continue
        assert_cross_engine_parity(
            results["legacy"], results[name], f"push_pull/{name}/triangle_count"
        )
    assert_cross_engine_parity(
        results["degree_oracle"], results["degree_columnar"], "push_pull/degree_triples"
    )


# ---------------------------------------------------------------------------
# ISSUE 5: the engine-layer refactor must not slow the columnar push path
# ---------------------------------------------------------------------------


def _build_columnar_fixture(dataset):
    """Fresh world + DODGr + counting reducer for one timed columnar run."""
    world = World(NODES)
    graph = dataset.to_distributed(world)
    dodgr = DODGraph.build(graph, mode="bulk")
    reducer = TriangleCounter(world)
    return world, dodgr, reducer


def run_columnar_direct(dataset):
    """Drive the columnar push internals directly — the pre-refactor shape.

    Registers the columnar intersect handler and runs the columnar drive
    loop by hand, bypassing the engine layer's registry resolution, request
    construction and program building.  This is exactly the work the
    pre-refactor ``triangle_survey_push(engine="columnar")`` did, so the
    delta against :func:`run_columnar_engine` isolates the refactor's
    dispatch overhead.
    """
    world, dodgr, reducer = _build_columnar_fixture(dataset)
    world.reset_stats()
    handler = world.register_handler(
        CandidateStage(
            dodgr,
            row_kernel("merge_path"),  # the default tier, as the engine resolves it
            reducer.callback,
            resolve_batch_callback(reducer.callback),
            DEFAULT_CALLBACK_COMPUTE_UNITS,
        ).handler()
    )
    overhead = legacy_push_payload_overhead(handler.handler_id)
    host_start = time.perf_counter()
    world.begin_phase("push")
    for ctx in world.ranks:
        drive_columnar_push(ctx, dodgr, dodgr.csr(ctx), handler, overhead)
    world.barrier()
    host_seconds = time.perf_counter() - host_start
    return host_seconds, reducer.result()


def run_columnar_engine(dataset):
    """The post-refactor path: the public entry point through the engine layer."""
    world, dodgr, reducer = _build_columnar_fixture(dataset)
    report = triangle_survey_push(dodgr, reducer.callback, engine="columnar")
    return report.host_seconds, reducer.result(), report


def test_engine_layer_no_regression(benchmark):
    """Columnar push before vs after the refactor: <= 5% host-time overhead.

    "Before" is the direct drive of the columnar internals (handler
    registration + drive loop, no engine-layer dispatch) — the code shape
    ``core/survey.py`` had before the engine layer; "after" is the public
    ``engine="columnar"`` entry point.  Interleaved best-of-3 per side
    suppresses scheduler noise; triangle counts must agree exactly.
    """
    dataset = load_dataset("rmat-weak")
    rounds = 3

    def run_all():
        direct_times, engine_times = [], []
        direct_count = engine_count = None
        for _ in range(rounds):
            host, count = run_columnar_direct(dataset)
            direct_times.append(host)
            direct_count = count
            host, count, _report = run_columnar_engine(dataset)
            engine_times.append(host)
            engine_count = count
        return direct_times, engine_times, direct_count, engine_count

    direct_times, engine_times, direct_count, engine_count = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    assert direct_count == engine_count

    direct_best = min(direct_times)
    engine_best = min(engine_times)
    overhead = engine_best / direct_best - 1.0
    trajectory = {
        "dataset": dataset.name,
        "nodes": NODES,
        "rounds": rounds,
        "direct_host_seconds": direct_best,
        "engine_host_seconds": engine_best,
        "overhead_fraction": overhead,
        "gate_fraction": REFACTOR_REGRESSION_GATE,
        "triangles": direct_count,
    }
    emit(
        format_table(
            [
                {
                    "path": "direct columnar drive (pre-refactor shape)",
                    "host seconds": round(direct_best, 4),
                },
                {
                    "path": "engine layer (engine=\"columnar\")",
                    "host seconds": round(engine_best, 4),
                },
                {"path": f"overhead {overhead * 100:+.2f}%"},
            ],
            title="Engine-layer refactor — columnar push no-regression",
        )
    )
    benchmark.extra_info.update(trajectory)
    assert overhead <= REFACTOR_REGRESSION_GATE, (
        f"engine layer adds {overhead * 100:.2f}% host time over the direct "
        f"columnar drive (gate: {REFACTOR_REGRESSION_GATE * 100:.0f}%)"
    )


# ---------------------------------------------------------------------------
# ISSUE 14: Push-Pull must cost about what Push-Only costs, on the same engine
# ---------------------------------------------------------------------------


def test_pushpull_over_push(benchmark):
    """rmat-14 / 8 ranks, ``columnar`` both sides: Push-Pull <= 1.5x Push-Only.

    One DODGr, one untimed survey per algorithm to build the CSR caches, then
    interleaved best-of-3 host seconds per side; triangle counts must agree.
    The input is pinned (not ``REPRO_BENCH_SCALE``-scaled) so the ratio means
    the same thing in every run.
    """
    rounds = 3
    world = World(8)
    dodgr = DODGraph.build(
        rmat(14, edge_factor=8, seed=0).to_distributed(world), mode="bulk"
    )
    surveys = {"push": triangle_survey_push, "push_pull": triangle_survey_push_pull}

    def run_all():
        for survey in surveys.values():
            survey(dodgr, engine="columnar")
        reports = {name: [] for name in surveys}
        for _ in range(rounds):
            for name, survey in surveys.items():
                reports[name].append(survey(dodgr, engine="columnar"))
        return reports

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert reports["push"][0].triangles == reports["push_pull"][0].triangles

    best = {name: min(r.host_seconds for r in runs) for name, runs in reports.items()}
    ratio = best["push_pull"] / best["push"]
    emit(
        format_table(
            [
                {"algorithm": name, "host seconds": round(seconds, 4)}
                for name, seconds in best.items()
            ]
            + [{"algorithm": f"push_pull / push = {ratio:.2f}"}],
            title="Columnar engine — Push-Pull over Push-Only (rmat-14, 8 ranks)",
        )
    )
    benchmark.extra_info.update({"ratio": ratio})
    assert ratio <= PUSHPULL_OVER_PUSH_GATE, (
        f"columnar Push-Pull is {ratio:.2f}x columnar Push-Only host time, "
        f"above the {PUSHPULL_OVER_PUSH_GATE}x gate"
    )
