"""Fig. 4 — strong scaling of the Push-Pull triangle count, with phase breakdown.

The paper runs triangle counting with the Push-Pull algorithm on Friendster,
Twitter, uk-2007-05 and web-cc12-hostgraph from 2 to 256 compute nodes and
plots per-phase stacked bars with the overall speedup (relative to 2 nodes)
above each group.  This benchmark regenerates the same series on the
stand-in datasets over scaled-down node counts.

Expected shape (paper): good scaling into the tens of nodes, stagnation or
regression at the largest node counts (except on Friendster-like graphs,
whose lack of pull opportunities makes the algorithm behave like Push-Only).
"""

from __future__ import annotations

import os
import time

import pytest

from _artifacts import emit
from repro.bench import format_table, human_bytes, load_dataset, strong_scaling
from repro.bench.scaling import run_survey_at_scale
from repro.core.engine import EngineConfig

DATASET_NAMES = ["friendster-like", "twitter-like", "uk2007-like", "hostgraph-like"]


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_fig4_strong_scaling_push_pull(benchmark, name, strong_scaling_nodes, survey_backend):
    dataset = load_dataset(name)

    result = benchmark.pedantic(
        lambda: strong_scaling(
            dataset, strong_scaling_nodes, algorithm="push_pull",
            engine=EngineConfig(backend=survey_backend),
        ),
        rounds=1,
        iterations=1,
    )

    speedups = result.speedups()
    rows = []
    for point, speedup in zip(result.points, speedups):
        breakdown = point.report.phase_breakdown()
        rows.append(
            {
                "nodes": point.nodes,
                "dry_run (s)": breakdown.get("dry_run", 0.0),
                "push (s)": breakdown.get("push", 0.0),
                "pull (s)": breakdown.get("pull", 0.0),
                "total (s)": point.simulated_seconds,
                "speedup vs smallest": round(speedup, 2),
                "comm": human_bytes(point.report.communication_bytes),
                "triangles": point.report.triangles,
            }
        )
    emit(
        format_table(
            rows,
            title=(
                f"Fig. 4 — strong scaling (Push-Pull) on {name} "
                f"[{survey_backend} backend]"
            ),
        )
    )

    benchmark.extra_info.update(
        {
            "dataset": name,
            "backend": survey_backend,
            "nodes": result.node_counts(),
            "simulated_seconds": [p.simulated_seconds for p in result.points],
            "speedups": speedups,
            "communication_bytes": result.communication_bytes(),
        }
    )

    # Every configuration counts the same triangles, and adding nodes beyond
    # the smallest configuration gives a real speedup somewhere in the sweep.
    triangle_counts = {p.report.triangles for p in result.points}
    assert len(triangle_counts) == 1
    assert max(speedups) > 1.0


# ---------------------------------------------------------------------------
# Process-backend host-time gate
# ---------------------------------------------------------------------------

GATE_WORKERS = 4
GATE_NODES = 8
GATE_SPEEDUP = 2.5
GATE_REPEATS = 3


def test_fig4_process_backend_host_speedup(survey_backend):
    """The process backend must buy real multi-core host time, not just parity.

    Gate: on the rmat-weak dataset at 8 ranks / 4 workers (legacy engine
    with a counting callback — the all-Python path with the most
    parallelizable per-rank compute), the process backend's host wall-clock
    must beat the simulated oracle by >= 2.5x (best of 3 each), while
    producing the identical report.  Runs only under ``--backend process``
    on hosts with enough cores; the JSON artifact records the measured
    ratio either way CI wants to trend it.
    """
    if survey_backend != "process":
        pytest.skip("speedup gate runs under --backend process")
    if (os.cpu_count() or 1) < GATE_WORKERS:
        pytest.skip(f"needs >= {GATE_WORKERS} cores for a fair {GATE_WORKERS}-worker gate")

    from repro.core.callbacks import TriangleCounter

    dataset = load_dataset("rmat-weak")

    def best_host_seconds(backend, workers):
        best = None
        report = None
        for _ in range(GATE_REPEATS):
            start = time.perf_counter()
            point = run_survey_at_scale(
                dataset, GATE_NODES, algorithm="push",
                engine=EngineConfig(engine="legacy", backend=backend, workers=workers),
                callback_factory=lambda world, graph: TriangleCounter(world).callback,
            )
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best, report = elapsed, point.report
        return best, report

    simulated_seconds, simulated_report = best_host_seconds("simulated", None)
    process_seconds, process_report = best_host_seconds("process", GATE_WORKERS)
    speedup = simulated_seconds / process_seconds if process_seconds else 0.0

    emit(
        format_table(
            [
                {
                    "backend": "simulated",
                    "host (s)": round(simulated_seconds, 3),
                    "triangles": simulated_report.triangles,
                },
                {
                    "backend": f"process x{GATE_WORKERS}",
                    "host (s)": round(process_seconds, 3),
                    "triangles": process_report.triangles,
                },
            ],
            title=(
                f"Fig. 4 gate — process-backend host speedup on rmat-weak "
                f"({GATE_NODES} ranks): {speedup:.2f}x"
            ),
        )
    )

    # Parity first: a fast wrong answer is no speedup at all.
    assert process_report.triangles == simulated_report.triangles
    assert process_report.communication_bytes == simulated_report.communication_bytes
    assert process_report.wire_messages == simulated_report.wire_messages
    assert speedup >= GATE_SPEEDUP, (
        f"process backend host speedup {speedup:.2f}x below the "
        f"{GATE_SPEEDUP}x gate ({simulated_seconds:.3f}s -> {process_seconds:.3f}s)"
    )
