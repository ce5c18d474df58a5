"""Run one workload, untraced or traced, and assemble its result record."""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.bench.reporting import peak_rss_bytes

from . import clock as clk
from .env import stamp
from .metrics import END_TO_END, PER_LAYER
from .record import Budget, Checks
from .spans import Tracer
from .workloads import BY_NAME

__all__ = ["OUT_DIR", "run_workload", "contract_line"]

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: seed whose outputs are pinned in goldens.json
GOLDEN_SEED = 0

#: (least set-up repetitions, least set-up seconds, probe spins, round cap)
#: per profile.  Set-up repeats until it has run both often and long enough
#: (a 30 ms set-up needs more than five samples behind its median), at most
#: ``_SETUP_MAX_REPEATS`` times.  ``quick`` is the tier-1 smoke profile:
#: one set-up, one round, cheap probes.
_PROFILES = {"full": (5, 3.0, 8, None), "quick": (1, 0.0, 1, 1)}
_SETUP_MAX_REPEATS = 12

#: a p90 is reported only with this many samples behind it
_P90_MIN_SAMPLES = 100


def _goldens() -> Dict[str, Any]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, profile: str = "full"
) -> Dict[str, Any]:
    """Set up, measure (and trace), check; returns the full result record.

    ``record["end_to_end"]`` holds every end-to-end metric and, after a
    traced run, ``record["per_layer"]`` every per-layer metric, each as
    ``{"value", "unit"}``.  A traced run measures untraced first, for half
    as long: tracing overhead is the difference, and the demoted
    end-to-end metrics (``cold_op_s``, ``op_p90_s``, ``wire_bytes``,
    ``sim_s``) come from that part.  Its own end-to-end values are not for
    comparison: they have half the samples behind them.
    """
    module = BY_NAME[name]
    min_setups, min_setup_seconds, probe_units, max_rounds = _PROFILES[profile]
    env = stamp(seed, profile)
    clock = clk.Clock(probe_units)
    checks = Checks()
    # A traced run spends half its time measuring untraced, the rest of
    # it on the traced round.
    budget = Budget(seconds / 2 if trace else seconds, max_rounds)

    setup_samples: List[clk.Sample] = []
    while len(setup_samples) < min_setups or (
        len(setup_samples) < _SETUP_MAX_REPEATS
        and sum(s.wall_s for s in setup_samples) < min_setup_seconds
    ):
        inputs, sample = clock.timed(module.setup, seed, module.SIZES[profile])
        setup_samples.append(sample)

    measured = module.measure(inputs, clock, budget, checks)
    peak_rss = peak_rss_bytes()
    module.verify(inputs, measured, checks)

    end_to_end = {
        "setup_s": clk.median(setup_samples),
        "build_s": clk.median(measured.builds),
        "op_s": clk.median(measured.ops),
        "ops_per_s": measured.completed / measured.loop_seconds(),
        "peak_rss_mb": peak_rss / 2**20,
    }
    per_layer: Dict[str, float] = {}
    if trace:
        tracer = Tracer()
        per_layer = dict.fromkeys((metric for metric, _, _ in PER_LAYER), 0.0)
        layer_metrics, traced_op_s = module.trace(inputs, clock, checks, tracer)
        per_layer.update(layer_metrics)
        per_layer["trace.overhead_frac"] = traced_op_s / end_to_end["op_s"] - 1.0
        per_layer["trace.coverage_frac"] = tracer.coverage()
        if measured.colds:
            per_layer["cold_op_s"] = clk.median(measured.colds)
        if len(measured.ops) >= _P90_MIN_SAMPLES:
            per_layer["op_p90_s"] = clk.p90(measured.ops)
        per_layer["wire_bytes"] = measured.exact["wire_bytes"]
        per_layer["sim_s"] = measured.exact["sim_s"]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}.json"))

    if seed == GOLDEN_SEED:
        golden = _goldens()[profile][name]
        for key, expected in golden.items():
            checks.require(
                measured.exact.get(key) == expected,
                f"golden {key}: expected {expected!r}, got {measured.exact.get(key)!r}",
            )

    return {
        "workload": name,
        "trace": trace,
        "env": env,
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "broken": checks.broken,
        "end_to_end": {
            metric: {"value": end_to_end[metric], "unit": unit}
            for metric, unit, _, _ in END_TO_END
        },
        "per_layer": {
            metric: {"value": per_layer[metric], "unit": unit}
            for metric, unit, _ in PER_LAYER
            if trace
        },
        "samples": {
            "setup_s": len(setup_samples),
            "build_s": len(measured.builds),
            "cold_op_s": len(measured.colds),
            "op_s": len(measured.ops),
        },
        "raw_wall_medians": {
            "setup_s": clk.raw_median(setup_samples),
            "build_s": clk.raw_median(measured.builds),
            "op_s": clk.raw_median(measured.ops),
        },
        "exact": measured.exact,
    }


def contract_line(record: Dict[str, Any]) -> str:
    """The one JSON object the ``BENCHMARK.json`` contract asks for."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["per_layer" if record["trace"] else "end_to_end"],
        }
    )
