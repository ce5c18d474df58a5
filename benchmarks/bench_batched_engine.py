"""Batched engine — legacy per-wedge path vs coalesced CSR path.

Not a figure from the paper: this benchmark validates and measures the
batched intersection engine (ISSUE 1).  The batched path coalesces candidate
pushes per (destination rank, target vertex) into single batched RPCs and
intersects them with vectorized kernels over the CSR adjacency; its contract
is *observational equivalence* — identical triangle counts, identical
callback invocations, and byte-identical communication accounting — with a
host wall-clock speedup that must reach at least 2x on the R-MAT
weak-scaling stand-in.

Expected shape:

* every parity column (triangles, callbacks, comm bytes, wire messages,
  simulated seconds) identical between the two engines on every dataset;
* host seconds drop by >= 2x on the R-MAT weak-scaling input (typically
  ~3x with NumPy; the win grows with wedge count because the legacy path
  sizes and buffers every candidate suffix per wedge while the batched path
  does constant per-wedge work.  The margin narrowed in ISSUE 2 when the
  legacy path stopped paying the codec — the gate was re-measured against
  the faster baseline).
"""

from __future__ import annotations

import pytest

from _artifacts import emit
from repro.bench import format_table, human_bytes, load_dataset
from repro.core.push_pull import triangle_survey_push_pull
from repro.core.survey import triangle_survey_push
from repro.graph.dodgr import DODGraph
from repro.runtime.world import World

NODES = 16


def run_once(dataset, algorithm, engine):
    """Fresh world/DODGr per run so nothing is shared between engines."""
    world = World(NODES)
    dodgr = DODGraph.build(dataset.to_distributed(world), mode="bulk")
    invocations = []

    def callback(ctx, tri):
        invocations.append((tri.p, tri.q, tri.r))

    survey = triangle_survey_push if algorithm == "push" else triangle_survey_push_pull
    report = survey(dodgr, callback, engine=engine)
    invocations.sort()
    return report, invocations


def compare_engines(dataset, algorithm):
    legacy_report, legacy_calls = run_once(dataset, algorithm, "legacy")
    batched_report, batched_calls = run_once(dataset, algorithm, "batched")

    assert batched_report.triangles == legacy_report.triangles
    assert batched_calls == legacy_calls, "callback invocations differ"
    assert batched_report.communication_bytes == legacy_report.communication_bytes
    assert batched_report.wire_messages == legacy_report.wire_messages
    assert batched_report.wedge_checks == legacy_report.wedge_checks
    assert batched_report.simulated_seconds == pytest.approx(
        legacy_report.simulated_seconds
    )
    return legacy_report, batched_report


def result_rows(name, legacy_report, batched_report):
    rows = []
    for engine, report in (("legacy", legacy_report), ("batched", batched_report)):
        rows.append(
            {
                "dataset": name,
                "engine": engine,
                "triangles": report.triangles,
                "wedge checks": report.wedge_checks,
                "comm volume": human_bytes(report.communication_bytes),
                "wire msgs": report.wire_messages,
                "sim seconds": report.simulated_seconds,
                "host seconds": round(report.host_seconds, 3),
            }
        )
    return rows


def test_batched_engine_rmat_weak_scaling(benchmark):
    """R-MAT weak-scaling input: parity plus the >= 2x host-seconds gate."""
    dataset = load_dataset("rmat-weak")

    results = benchmark.pedantic(
        lambda: compare_engines(dataset, "push"), rounds=1, iterations=1
    )
    legacy_report, batched_report = results
    speedup = legacy_report.host_seconds / batched_report.host_seconds

    rows = result_rows(dataset.name, legacy_report, batched_report)
    rows.append({"dataset": dataset.name, "engine": f"speedup {speedup:.2f}x"})
    emit(format_table(rows, title="Batched engine — legacy vs batched (Push-Only)"))

    benchmark.extra_info.update(
        {
            "dataset": dataset.name,
            "nodes": NODES,
            "triangles": legacy_report.triangles,
            "legacy_host_seconds": legacy_report.host_seconds,
            "batched_host_seconds": batched_report.host_seconds,
            "host_speedup": speedup,
        }
    )

    # Acceptance gate (ISSUE 1): at least 2x on the R-MAT weak-scaling input.
    assert speedup >= 2.0, f"batched engine speedup {speedup:.2f}x below 2x gate"


def test_batched_engine_reddit_closure_fixture(benchmark):
    """Reddit-closure stand-in: parity on both algorithms, speedup reported."""
    dataset = load_dataset("reddit-like")

    def run_all():
        return {
            "push": compare_engines(dataset, "push"),
            "push_pull": compare_engines(dataset, "push_pull"),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for algorithm, (legacy_report, batched_report) in results.items():
        for row in result_rows(f"{dataset.name}/{algorithm}", legacy_report, batched_report):
            rows.append(row)
    emit(format_table(rows, title="Batched engine — Reddit-closure fixture"))

    push_legacy, push_batched = results["push"]
    benchmark.extra_info.update(
        {
            "dataset": dataset.name,
            "triangles": push_legacy.triangles,
            "push_host_speedup": push_legacy.host_seconds / push_batched.host_seconds,
        }
    )
    # The push phase must still win; push_pull is dominated by the (unchanged)
    # dry-run bookkeeping, so only parity is asserted for it above.
    assert push_legacy.host_seconds > push_batched.host_seconds
