"""``python3 -m perf.compare A.json B.json`` — apply the bounds to two results.

A and B are result files written by ``python3 -m perf`` (same seed, same
``--seconds``).  One row per (workload, metric):

* end-to-end metrics: ``ok`` when B's median is no worse than A's by more
  than the metric's bound, ``regressed`` when it is, ``unresolved`` when
  the spread between A's own runs (quartile distance ÷ median, needs
  ``--runs`` ≥ 2) is wider than the bound — unless every run of B reads
  better than every run of A, which is ``ok``;
* the per-layer metrics in :data:`perf.metrics.EXACT` (wire bytes,
  simulated seconds, every count): ``ok`` when identical, else ``changed``;
* ``failure_rate``: ``regressed`` when B's is higher.

Exit status is 1 when any row is ``regressed`` or ``changed``.  Two result
files of one commit must come out all ``ok`` (the A/A check).
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .metrics import END_TO_END, EXACT

Row = Tuple[str, str, float, float, str]


def _spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _end_to_end_status(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    if _spread(a) > bound:
        b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "ok" if b_always_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Row]:
    rows: List[Row] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, _, better, bound in END_TO_END:
            va = wa["end_to_end"][metric]["values"]
            vb = wb["end_to_end"][metric]["values"]
            status = _end_to_end_status(va, vb, better, bound)
            rows.append((name, metric, statistics.median(va), statistics.median(vb), status))
        for metric in sorted(EXACT):
            va = wa["per_layer"][metric]["value"]
            vb = wb["per_layer"][metric]["value"]
            same = math.isclose(va, vb, rel_tol=1e-9, abs_tol=0.0)
            rows.append((name, metric, va, vb, "ok" if same else "changed"))
        status = "regressed" if wb["failure_rate"] > wa["failure_rate"] else "ok"
        rows.append((name, "failure_rate", wa["failure_rate"], wb["failure_rate"], status))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    rows = compare(*results)
    for workload, metric, va, vb, status in rows:
        change = f"{(vb - va) / va:+.1%}" if va else ""
        print(f"{workload:<15} {metric:<34} {va:>14.6g} {vb:>14.6g} {change:>8}  {status}")
    bad = [row for row in rows if row[4] in ("regressed", "changed")]
    unresolved = sum(row[4] == "unresolved" for row in rows)
    print(f"\n{len(rows)} rows: {len(bad)} regressed/changed, {unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
