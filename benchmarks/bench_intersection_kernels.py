"""Intersection kernel tiers — cutoff sweep and cross-tier replay parity.

Not a figure from the paper: this microbenchmark pins the kernel-tier layer
added for beyond-RAM scale.  The row intersection kernels come in tiers
sharing one contract (identical matches, identical aggregate
comparison counts):

* ``scalar``   — the reference per-segment Python loops, always available;
* ``columnar`` — NumPy array pipelines with a scalar small-input escape
  hatch governed by ``_SCALAR_ROW_CUTOFF`` / ``_SCALAR_ROW_SEGMENT_CUTOFF``;
* ``compiled`` — C row loops: merge path and hash by stamp and probe (each
  row's keys stamped into an order-id-indexed array, each candidate one
  load) with closed-form comparison counts, binary search by the scalar
  walk; built with the system compiler at import and registered only when
  that worked (``compiled -> columnar -> scalar`` downgrade otherwise); what
  ``kernel_tier=None`` selects.

Two jobs here:

1. **Cutoff sweep** — force the columnar kernels down their scalar and
   vectorized routes across input sizes bracketing the cutoffs, time both,
   assert parity at every point, and record where the crossover actually
   sits so the cutoff constants can be audited against measurements.
2. **Tier replay parity** — capture every row-kernel invocation of a real
   columnar survey over the ``rmat-weak`` dataset (the ``bench_survey_engine``
   workload), replay the captured calls through every *registered* tier,
   assert bit-identical matches + comparison counts, and print per-tier
   host seconds.  The table is informational: what the compiled tier is
   worth is measured end to end, by ``perf``'s ``count_pushpull`` workload
   (the checked-in ``BENCH_<pr>.json`` rows), not by a ratio gate here.
"""

from __future__ import annotations

import time

import numpy as np

from _artifacts import emit
from repro.bench import format_table, load_dataset
from repro.core import intersection as intersection_mod
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
from repro.runtime.world import World

NODES = 16
#: A cutoff constant large enough to force the scalar route at every size
#: this sweep generates (and small enough to stay an exact int64).
FORCE_SCALAR = 1 << 40


def best_seconds(fn, repeats=3, iterations=5):
    """Best-of-``repeats`` mean seconds per call over ``iterations`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


# ---------------------------------------------------------------------------
# Synthetic inputs bracketing the cutoffs
# ---------------------------------------------------------------------------


def make_row_input(rng, n_segments, seg_len, n_rows, row_len, order_count=1 << 16):
    """Sorted candidate segments laid end to end as the spans of one source,
    a multi-row adjacency and a row per segment."""
    total = n_segments * seg_len
    offsets = (np.arange(n_segments + 1, dtype=np.int64) * seg_len).astype(np.int64)
    candidates = np.concatenate(
        [
            np.sort(rng.choice(order_count, size=seg_len, replace=False))
            for _ in range(n_segments)
        ]
        or [np.empty(0, dtype=np.int64)]
    ).astype(np.int64)
    assert candidates.size == total
    keys = np.concatenate(
        [
            np.sort(rng.choice(order_count, size=row_len, replace=False))
            for _ in range(n_rows)
        ]
    ).astype(np.int64)
    indptr = (np.arange(n_rows + 1, dtype=np.int64) * row_len).astype(np.int64)
    adjacency = intersection_mod.RowAdjacency(keys, indptr, order_count)
    seg_rows = rng.integers(0, n_rows, size=n_segments).astype(np.int64)
    return candidates, offsets[:-1], offsets[1:], seg_rows, adjacency


def canonical_rows(result):
    return (
        [int(v) for v in result.seg],
        [int(v) for v in result.cand_pos],
        [int(v) for v in result.adj_pos],
        int(result.comparisons),
    )


# ---------------------------------------------------------------------------
# Cutoff sweep: scalar route vs vectorized route across sizes
# ---------------------------------------------------------------------------


def _with_cutoffs(key_cutoff, segment_cutoff, fn):
    """Run ``fn`` with the module cutoffs pinned, restoring them afterwards."""
    saved = (
        intersection_mod._SCALAR_ROW_CUTOFF,
        intersection_mod._SCALAR_ROW_SEGMENT_CUTOFF,
    )
    intersection_mod._SCALAR_ROW_CUTOFF = key_cutoff
    intersection_mod._SCALAR_ROW_SEGMENT_CUTOFF = segment_cutoff
    try:
        return fn()
    finally:
        (
            intersection_mod._SCALAR_ROW_CUTOFF,
            intersection_mod._SCALAR_ROW_SEGMENT_CUTOFF,
        ) = saved


def _time_both_routes(shape, cand, starts, ends, seg_rows, adjacency):
    """One sweep point: both routes of ``merge_path_rows``, parity asserted."""
    row_fn = ROW_KERNELS["merge_path"]
    n_segments = len(starts)

    def call():
        return row_fn(cand, starts, ends, seg_rows, adjacency)

    scalar_result = _with_cutoffs(FORCE_SCALAR, FORCE_SCALAR, call)
    vector_result = _with_cutoffs(-1, -1, call)
    assert canonical_rows(scalar_result) == canonical_rows(vector_result), (
        f"{shape} route mismatch at {cand.size} keys / {n_segments} segments"
    )
    scalar_s = _with_cutoffs(FORCE_SCALAR, FORCE_SCALAR, lambda: best_seconds(call))
    vector_s = _with_cutoffs(-1, -1, lambda: best_seconds(call))
    return {
        "shape": shape,
        "total_keys": int(cand.size),
        "segments": n_segments,
        "scalar_us": scalar_s * 1e6,
        "vectorized_us": vector_s * 1e6,
        "scalar_over_vectorized": scalar_s / vector_s,
        "default_route": "scalar"
        if (
            cand.size <= intersection_mod._SCALAR_ROW_CUTOFF
            and n_segments <= intersection_mod._SCALAR_ROW_SEGMENT_CUTOFF
        )
        else "vectorized",
    }


def test_cutoff_sweep(benchmark):
    """Time both routes of the columnar row kernels around the scalar cutoffs.

    ``_SCALAR_ROW_CUTOFF`` (96 candidate keys) and
    ``_SCALAR_ROW_SEGMENT_CUTOFF`` (4 segments) claim the scalar loops win
    below them.  This sweep forces each route at sizes bracketing the
    cutoffs, asserts the two routes agree bit-for-bit, and records the
    measured crossover next to the defaults.
    """
    rng = np.random.default_rng(10)

    # Candidate keys sweep through the 96-key cutoff: four segments against
    # one adjacency row as long as the candidate stream.
    key_rows = [
        _time_both_routes("keys", *make_row_input(rng, 4, total // 4, 1, total))
        for total in (8, 24, 48, 96, 192, 512)
    ]
    # Segment count sweeps through the 4-segment cutoff (short segments, so
    # the 96-key cutoff alone would keep routing small calls to scalar).
    segment_rows = [
        _time_both_routes("segments", *make_row_input(rng, n_segments, 8, 32, 12))
        for n_segments in (1, 2, 4, 8, 16, 64)
    ]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = key_rows + segment_rows
    emit(
        format_table(
            [
                {
                    **{k: row[k] for k in ("shape", "total_keys", "segments", "default_route")},
                    "scalar us": round(row["scalar_us"], 2),
                    "vectorized us": round(row["vectorized_us"], 2),
                    "scalar/vectorized": round(row["scalar_over_vectorized"], 2),
                }
                for row in rows
            ],
            title="Columnar-tier scalar cutoffs — route timing sweep",
        )
    )
    benchmark.extra_info["points"] = len(rows)
    # The defaults must not be absurd: at the largest swept size the
    # vectorized route has to win.
    assert key_rows[-1]["scalar_over_vectorized"] > 1.0
    assert segment_rows[-1]["scalar_over_vectorized"] > 1.0


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
    assert "columnar" in tiers and "scalar" in tiers
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
    reference = results["scalar"][1]
    for tier in tiers:
        assert results[tier][1] == reference, f"tier {tier} diverged from scalar"

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
