"""Command line: one workload (the BENCHMARK.json contract) or all four."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

try:
    import repro  # noqa: F401  (the program under test)
except ImportError as error:
    sys.exit(f"perf: cannot import the program under test (src/repro): {error}")

from .metrics import RUN_SECONDS, WORKLOADS
from .runner import OUT_DIR, contract_line, run_workload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__)
    parser.add_argument("--workload", choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke sizes, one round")
    parser.add_argument("--detail", help="with --workload: write the full record here")
    parser.add_argument("--runs", type=int, default=1, help="without --workload: untraced runs per workload")
    parser.add_argument("--out", help="without --workload: result file (default perf/out/result-<seed>.json)")
    args = parser.parse_args(argv)
    profile = "quick" if args.quick else "full"

    if args.workload:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), profile)
        if args.detail:
            with open(args.detail, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1)
        for line in record["broken"]:
            print(f"perf: {line}", file=sys.stderr)
        print(contract_line(record))
        return 0

    result = run_all(args.seed, args.seconds, profile, args.runs)
    out = args.out or os.path.join(OUT_DIR, f"result-{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print_result(result)
    print(f"\nwrote {out}")
    return 0 if all(w["failed"] == 0 and w["correct"] for w in result["workloads"].values()) else 1


def _child(workload: str, seed: int, seconds: float, profile: str, trace: int) -> Dict[str, Any]:
    """One run in a fresh interpreter, so ``peak_rss_mb`` is per workload."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        detail = os.path.join(scratch, "detail.json")
        command = [
            sys.executable, "-m", "perf",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--detail", detail,
        ]  # fmt: skip
        if profile == "quick":
            command.append("--quick")
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        with open(detail, encoding="utf-8") as handle:
            return json.load(handle)


def run_all(seed: int, seconds: float, profile: str, runs: int) -> Dict[str, Any]:
    """Every workload: ``runs`` untraced runs, then one traced run."""
    workloads: Dict[str, Any] = {}
    env = None
    for name, _ in WORKLOADS:
        print(f"perf: {name} ...", file=sys.stderr)
        untraced = [_child(name, seed, seconds, profile, 0) for _ in range(runs)]
        traced = _child(name, seed, seconds, profile, 1)
        env = env or untraced[0]["env"]
        records = untraced + [traced]
        end_to_end = {
            metric: {
                "unit": entry["unit"],
                "values": [r["end_to_end"][metric]["value"] for r in untraced],
                "median": statistics.median(r["end_to_end"][metric]["value"] for r in untraced),
            }
            for metric, entry in untraced[0]["end_to_end"].items()
        }
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        workloads[name] = {
            "end_to_end": end_to_end,
            "per_layer": traced["per_layer"],
            "attempted": attempted,
            "failed": failed,
            "failure_rate": failed / attempted,
            "correct": all(r["correct"] for r in records),
            "broken": [line for r in records for line in r["broken"]],
            "noisy": any(r["env"]["noisy"] for r in records),
            "samples": untraced[0]["samples"],
            "raw_wall_medians": untraced[0]["raw_wall_medians"],
            "exact": untraced[0]["exact"],
        }
    return {"env": env, "seconds": seconds, "workloads": workloads}


def print_result(result: Dict[str, Any]) -> None:
    env = result["env"]
    print(" ".join(f"{key}={env[key]}" for key in sorted(env)))
    for name, workload in result["workloads"].items():
        flags = "" if workload["correct"] else "  INCORRECT"
        flags += "  noisy" if workload["noisy"] else ""
        print(
            f"\n== {name}  failure_rate={workload['failure_rate']:.4g} "
            f"({workload['failed']}/{workload['attempted']} ops){flags}"
        )
        for line in workload["broken"]:
            print(f"   ! {line}")
        samples = workload["samples"]
        for metric, entry in workload["end_to_end"].items():
            tail = f"  n={samples[metric]}" if metric in samples else ""
            print(f"   {metric:<34} {entry['median']:>16.6g} {entry['unit']}{tail}")
        for metric, entry in workload["per_layer"].items():
            print(f"   {metric:<34} {entry['value']:>16.6g} {entry['unit']}")


if __name__ == "__main__":
    sys.exit(main())
