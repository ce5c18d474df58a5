"""Intersection kernel tiers — cross-tier replay parity.

Not a figure from the paper: this microbenchmark pins the kernel-tier layer.
The row intersection kernels come in two tiers sharing one contract
(identical matches, identical aggregate comparison counts):

* ``columnar`` — one composite-key ``searchsorted`` finds the matches and
  the comparison-count table (``COMPARISON_COUNTS``) counts them;
* ``compiled`` — C row loops: stamp and probe (each row's keys stamped into
  an order-id-indexed array, each candidate one load) for every kernel,
  counting by the same table; built with the system compiler at import and
  registered only when that worked (``compiled`` runs ``columnar``
  otherwise); what ``kernel_tier=None`` selects.

The job: capture every row-kernel invocation of a real columnar survey over
the ``rmat-weak`` dataset (the ``bench_survey_engine`` workload), replay the
captured calls through every *registered* tier and through the oracle's
per-segment reference loop (:func:`repro.oracle.kernels.reference_rows`),
assert bit-identical matches + comparison counts, and print per-tier host
seconds.  The table is informational: what the compiled tier is worth is
measured end to end, by ``perf``'s ``count_pushpull`` workload (the
checked-in ``BENCH_<pr>.json`` rows), not by a ratio gate here.
"""

from __future__ import annotations

import time

from _artifacts import emit
from repro.bench import format_table, load_dataset
from repro.core.callbacks import TriangleCounter
from repro.core.engine import DEFAULT_CALLBACK_COMPUTE_UNITS, resolve_batch_callback
from repro.core.engine.driver import (
    CandidateStage,
    drive_columnar_push,
    legacy_push_payload_overhead,
)
from repro.core.intersection import (
    ROW_KERNELS,
    available_kernel_tiers,
    compiled_tier_status,
    resolve_kernel_tier,
    row_kernel,
)
from repro.graph.dodgr import DODGraph
from repro.oracle.kernels import reference_rows
from repro.runtime.world import World

NODES = 16


def best_seconds(fn, repeats=3, iterations=5):
    """Best-of-``repeats`` mean seconds per call over ``iterations`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def canonical_rows(result):
    return (
        [int(v) for v in result.seg],
        [int(v) for v in result.cand_pos],
        [int(v) for v in result.adj_pos],
        int(result.comparisons),
    )


# ---------------------------------------------------------------------------
# Tier replay: real survey call shapes through every tier
# ---------------------------------------------------------------------------


def capture_row_calls(dataset):
    """Run a columnar push survey recording every row-kernel invocation.

    Returns the captured ``(source_keys, seg_starts, seg_ends, seg_rows,
    adjacency)`` argument tuples — the exact call shapes ``bench_survey_engine``'s
    workload feeds the kernel layer — plus the triangle count for parity.
    """
    world = World(NODES)
    graph = dataset.to_distributed(world)
    dodgr = DODGraph.build(graph, mode="bulk")
    reducer = TriangleCounter(world)
    base = ROW_KERNELS["merge_path"]
    calls = []

    def recording_kernel(*args, matches=True):
        calls.append(args)
        return base(*args, matches=matches)

    handler = world.register_handler(
        CandidateStage(
            dodgr,
            recording_kernel,
            reducer.callback,
            resolve_batch_callback(reducer.callback),
            DEFAULT_CALLBACK_COMPUTE_UNITS,
        ).handler()
    )
    overhead = legacy_push_payload_overhead(handler.handler_id)
    world.begin_phase("push")
    for ctx in world.ranks:
        drive_columnar_push(ctx, dodgr, dodgr.csr(ctx), handler, overhead)
    world.barrier()
    return calls, reducer.result()


def replay(calls, tier):
    """Replay every captured call through ``tier``'s merge-path row kernel."""
    kernel_fn = row_kernel("merge_path", tier)
    return [canonical_rows(kernel_fn(*args)) for args in calls]


def test_tier_replay_parity(benchmark):
    """Every registered tier reproduces the survey's kernel calls exactly;
    per-tier replay seconds are printed, not gated."""
    dataset = load_dataset("rmat-weak")
    calls, _triangles = capture_row_calls(dataset)
    assert calls, "columnar survey produced no row-kernel calls"

    tiers = available_kernel_tiers()
    assert "columnar" in tiers
    status = compiled_tier_status()
    assert ("compiled" in tiers) == status.available
    assert resolve_kernel_tier(None) == tiers[0]

    def run_all():
        out = {}
        for tier in tiers:
            seconds = best_seconds(lambda: replay(calls, tier), repeats=3, iterations=1)
            out[tier] = (seconds, replay(calls, tier))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    reference = [canonical_rows(reference_rows("merge_path", *args)) for args in calls]
    for tier in tiers:
        assert results[tier][1] == reference, f"tier {tier} diverged from the oracle"

    columnar_s = results["columnar"][0]
    emit(
        format_table(
            [
                {
                    "tier": tier,
                    "replay seconds": round(seconds, 4),
                    "vs columnar": f"{columnar_s / seconds:.2f}x",
                }
                for tier, (seconds, _results) in results.items()
            ],
            title=(
                f"Kernel-tier replay — {len(calls)} captured row-kernel calls "
                f"(compiled tier: {status.reason})"
            ),
        )
    )
    benchmark.extra_info.update(
        {"tiers": list(tiers), "compiled_available": status.available}
    )
