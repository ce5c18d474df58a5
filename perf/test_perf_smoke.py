"""Tier-1 smoke test of the benchmark (``--quick`` sizes, one round each).

Collected by the root ``pytest`` run.  It fails when a change to ``src/``
breaks a call the benchmark makes, drops a metric row, or makes an op
produce a wrong answer — before anyone needs the benchmark's numbers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
from multiprocessing import resource_tracker

import pytest

from perf.metrics import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json
from perf.runner import run_workload
from perf.surface import MEASURED_SURFACE, resolve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_the_metrics_module() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared == benchmark_json()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in declared["end_to_end"])


@pytest.mark.parametrize("name", MEASURED_SURFACE)
def test_measured_surface_resolves(name: str) -> None:
    resolve(name)


@pytest.fixture(scope="module")
def quick_records():
    """The traced result record of every workload, run once."""
    return {
        name: run_workload(name, seed=0, seconds=0.0, trace=True, profile="quick")
        for name, _ in WORKLOADS
    }


@pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
def test_quick_run_emits_every_metric(workload: str, quick_records) -> None:
    record = quick_records[workload]
    assert record["broken"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1

    assert {m: v["unit"] for m, v in record["end_to_end"].items()} == {
        metric: unit for metric, unit, _, _ in END_TO_END
    }
    assert all(entry["value"] > 0 for entry in record["end_to_end"].values())
    assert {m: v["unit"] for m, v in record["per_layer"].items()} == {
        metric: unit for metric, unit, _ in PER_LAYER
    }
    assert record["per_layer"]["trace.coverage_frac"]["value"] >= 0.95

    trace_file = os.path.join(ROOT, "perf", "out", f"trace-{workload}.json")
    with open(trace_file, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)


def test_quick_run_leaves_no_process_behind(quick_records) -> None:
    """The ``backend="process"`` op joins its workers and the benchmark
    reaps the resource tracker it started for them."""
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_every_per_layer_metric_is_measured_somewhere(quick_records) -> None:
    """No dead rows: each per-layer metric is non-zero on some workload
    (counts of things that must not happen excepted)."""
    may_be_zero = {
        "service.outcome.approximate",
        "service.outcome.shed",
        "service.retries",
        "admission.shed",
        "backend_process.leaked_shm",
        "storage_mmap.leaked_segments",
        "op_p90_s",  # needs 100 samples; the quick profile has a handful
        "engine.dry_run.compute_units",  # the dry run charges none today
    }
    seen = {
        metric
        for record in quick_records.values()
        for metric, entry in record["per_layer"].items()
        if entry["value"]
    }
    assert {metric for metric, _, _ in PER_LAYER} - seen - may_be_zero == set()
