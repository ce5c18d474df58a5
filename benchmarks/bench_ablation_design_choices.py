"""Ablations of TriPoll's design choices (not a paper table, see DESIGN.md).

Two design decisions the paper discusses qualitatively are isolated here on
identical inputs:

* **Intersection kernel** — merge-path (the paper's choice) versus binary
  search and hashing (the alternatives catalogued in the related work).
  With sorted adjacency lists and candidate suffixes of comparable length,
  merge-path performs the fewest comparisons.
* **Message aggregation (buffer flush threshold)** — YGM's buffering is the
  reason the naive flood of tiny messages becomes a small number of large
  ones.  Shrinking the flush threshold towards zero reproduces the naive
  behaviour: the same payload bytes but many more wire messages, hence more
  simulated latency.
"""

from __future__ import annotations

import pytest

from _artifacts import emit
from repro.bench import format_table, human_bytes, load_dataset
from repro.core import EngineConfig, triangle_survey_push
from repro.graph import DODGraph
from repro.runtime import World

NODES = 8


def test_ablation_intersection_kernels(benchmark):
    dataset = load_dataset("livejournal-like")
    world = World(NODES)
    dodgr = DODGraph.build(dataset.to_distributed(world))

    def run_all():
        return {
            kernel: triangle_survey_push(dodgr, engine=EngineConfig(kernel=kernel))
            for kernel in ("merge_path", "binary_search", "hash")
        }

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for kernel, report in reports.items():
        compute = sum(stats.compute_units for stats in report.phase_stats.values())
        rows.append(
            {
                "kernel": kernel,
                "triangles": report.triangles,
                "comparisons": compute,
                "sim seconds": report.simulated_seconds,
            }
        )
    emit(format_table(rows, title="Ablation — adjacency intersection kernels (Push-Only)"))

    counts = {report.triangles for report in reports.values()}
    assert len(counts) == 1
    benchmark.extra_info.update(
        {kernel: report.simulated_seconds for kernel, report in reports.items()}
    )


def test_ablation_message_aggregation(benchmark):
    dataset = load_dataset("livejournal-like")
    thresholds = {
        "no aggregation (64 B)": 64,
        "small buffers (1 KB)": 1024,
        "default (16 KB)": 16 * 1024,
        "large buffers (256 KB)": 256 * 1024,
    }

    def run_all():
        out = {}
        for label, threshold in thresholds.items():
            world = World(NODES, flush_threshold_bytes=threshold)
            dodgr = DODGraph.build(dataset.to_distributed(world))
            out[label] = triangle_survey_push(dodgr)
        return out

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for label, report in reports.items():
        rows.append(
            {
                "buffering": label,
                "wire messages": report.wire_messages,
                "comm volume": human_bytes(report.communication_bytes),
                "sim seconds": report.simulated_seconds,
            }
        )
    emit(format_table(rows, title="Ablation — YGM message aggregation (buffer flush threshold)"))

    labels = list(thresholds)
    no_agg = reports[labels[0]]
    default = reports[labels[2]]
    assert no_agg.triangles == default.triangles
    # Aggregation must reduce the number of wire messages dramatically and
    # the simulated time along with it.
    assert default.wire_messages < no_agg.wire_messages / 5
    assert default.simulated_seconds < no_agg.simulated_seconds
    benchmark.extra_info.update(
        {label: report.wire_messages for label, report in reports.items()}
    )


def test_ablation_node_level_aggregation(benchmark):
    """Node-level aggregation (Section 5.4's proposed remedy) at high rank counts.

    At 64 ranks and a modest buffer size, per-rank buffers rarely fill, so the
    survey degenerates into many small wire messages — the effect the paper
    blames for the 256-node slowdown.  Grouping buffers by destination *node*
    (8 ranks per node here, 24 in the paper's hardware) multiplies the
    aggregation opportunity and must cut wire messages and simulated latency
    without changing results.
    """
    dataset = load_dataset("livejournal-like")
    configs = {"per-rank buffers": 1, "per-node buffers (8 ranks/node)": 8}

    def run_all():
        out = {}
        for label, ranks_per_node in configs.items():
            world = World(64, flush_threshold_bytes=4096, ranks_per_node=ranks_per_node)
            dodgr = DODGraph.build(dataset.to_distributed(world))
            out[label] = triangle_survey_push(dodgr)
        return out

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        {
            "buffer grouping": label,
            "wire messages": report.wire_messages,
            "comm volume": human_bytes(report.communication_bytes),
            "sim seconds": report.simulated_seconds,
        }
        for label, report in reports.items()
    ]
    emit(format_table(rows, title="Ablation — node-level message aggregation at 64 ranks"))

    per_rank = reports["per-rank buffers"]
    per_node = reports["per-node buffers (8 ranks/node)"]
    assert per_rank.triangles == per_node.triangles
    assert per_node.wire_messages < per_rank.wire_messages
    assert per_node.simulated_seconds < per_rank.simulated_seconds
    benchmark.extra_info.update(
        {label: report.wire_messages for label, report in reports.items()}
    )
