"""CLI entry point: ``python -m repro.sweep --sample 30 --seed 0``.

Samples configs across the registered world specs, runs every registered
engine × analysis on each (or, with ``--chaos``, one cell per sampled fault
plan), checks every cell against its ``legacy`` oracle, and writes the
tabular artifact (JSON, optionally markdown).  Exit status 1 when any cell
broke the engine equivalence contract.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..runtime.faults import sample_fault_plans
from .contract import ANALYSES
from .report import format_sweep_table, write_sweep_artifacts
from .runner import SweepParityError, run_chaos_sweep, run_sweep
from .sampler import config_digest, sample_space
from .worlds import world_spec_names


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run the scenario sweep: sampled graph worlds × engine registry.",
    )
    parser.add_argument(
        "--sample", type=int, default=30,
        help="total number of configs to sample across specs (default 30)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master sampling seed (default 0)"
    )
    parser.add_argument(
        "--specs", nargs="+", default=None, metavar="SPEC",
        help=f"world specs to sample (default: all of {', '.join(world_spec_names())})",
    )
    parser.add_argument(
        "--analyses", nargs="+", default=ANALYSES, metavar="ANALYSIS",
        choices=ANALYSES,
        help=f"analyses to run (default: {', '.join(ANALYSES)})",
    )
    parser.add_argument(
        "--out", default="sweep_artifacts.json",
        help="JSON artifact path (default sweep_artifacts.json)",
    )
    parser.add_argument(
        "--markdown", default=None, metavar="PATH",
        help="also write the markdown coverage map (default: <out>.md sibling)",
    )
    parser.add_argument(
        "--no-markdown", action="store_true",
        help="skip the markdown artifact entirely",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="run the chaos axis instead: --sample N fault plans across "
        "engines × analyses, each cell checked against the fault-free "
        "legacy oracle",
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    specs: List[str] = list(args.specs) if args.specs else list(world_spec_names())
    progress = None if args.quiet else (lambda line: print(f"  {line}", flush=True))
    if args.chaos:
        configs = sample_space(specs, max(1, min(4, args.sample)), seed=args.seed)
        plans = sample_fault_plans(args.sample, seed=args.seed)
        print(
            f"chaos: {len(plans)} fault plan(s) over {len(configs)} config(s) "
            f"(seed={args.seed}, digest={config_digest(configs)})"
        )
        result = run_chaos_sweep(configs, plans, progress=progress)
    else:
        configs = sample_space(specs, args.sample, seed=args.seed)
        print(
            f"sampled {len(configs)} configs from {len(specs)} spec(s) "
            f"(seed={args.seed}, digest={config_digest(configs)})"
        )
        result = run_sweep(configs, analyses=args.analyses, progress=progress)

    markdown_path = None
    if not args.no_markdown:
        markdown_path = args.markdown or str(args.out).rsplit(".", 1)[0] + ".md"
    json_path, md_path = write_sweep_artifacts(
        result,
        json_path=args.out,
        markdown_path=markdown_path,
        sample=args.sample,
        seed=args.seed,
        specs=specs,
    )
    print()
    print(format_sweep_table(result, title="chaos sweep" if args.chaos else "scenario sweep"))
    print()
    print(f"wrote {json_path}" + (f" and {md_path}" if md_path else ""))

    failures = result.parity_failures()
    if failures:
        print(str(SweepParityError(failures)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
