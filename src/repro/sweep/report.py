"""Sweep reporting: one tabular artifact (JSON + markdown) per run.

The JSON payload (schema ``repro.sweep/v1``) is what CI uploads; the
markdown rendering is the human-readable coverage map.  Both carry the same rows — config × engine × analysis —
plus a "slow/fail regions" section listing the cells where a fast engine
lost to ``legacy`` or parity failed (non-empty exactly when the sweep
found regressions).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..bench.reporting import format_markdown_table, format_table
from .chaos import ChaosResult
from .runner import SweepResult
from .worlds import WorldConfig

__all__ = [
    "sweep_payload",
    "format_sweep_table",
    "format_chaos_table",
    "write_sweep_artifacts",
    "write_chaos_artifacts",
]

#: Schema tag stamped into every JSON artifact so downstream diff tooling
#: can refuse payloads it does not understand.
SWEEP_SCHEMA = "repro.sweep/v1"

#: Column order for the tabular renderings (JSON rows keep every field).
_TABLE_COLUMNS = (
    "config",
    "spec",
    "engine",
    "analysis",
    "triangles",
    "comm_bytes",
    "wire_messages",
    "host_seconds",
    "slowdown_vs_legacy",
    "parity_ok",
)


def _describe_configs(configs: Sequence[WorldConfig]) -> List[Dict[str, Any]]:
    return [
        {
            "config": config.config_id(),
            "spec": config.spec,
            "generator": config.generator,
            "params": config.param_dict(),
            "nranks": config.nranks,
            "metadata_cardinality": config.metadata_cardinality,
            "burstiness": config.burstiness,
            "num_batches": config.num_batches,
            "base_fraction": config.base_fraction,
            "seed": config.seed,
            "index": config.index,
        }
        for config in configs
    ]


def sweep_payload(
    result: SweepResult,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
    specs: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The machine-readable artifact for one sweep run."""
    regressions = result.regressions()
    return {
        "schema": SWEEP_SCHEMA,
        "sample": sample if sample is not None else len(result.configs),
        "seed": seed,
        "specs": list(specs) if specs is not None else sorted(
            {config.spec for config in result.configs}
        ),
        "engines": list(result.engines),
        "analyses": list(result.analyses),
        "slow_tolerance": result.slow_tolerance,
        "configs": _describe_configs(result.configs),
        "rows": result.rows(),
        "regressions": regressions,
        "counts": {
            "configs": len(result.configs),
            "cells": len(result.cells),
            "slow": len(regressions["slow"]),
            "parity_failures": len(regressions["parity"]),
        },
    }


def format_sweep_table(result: SweepResult, title: str = "scenario sweep") -> str:
    """Aligned plain-text coverage map (``bench_artifacts.txt`` style)."""
    lines = [
        format_table(result.rows(), columns=list(_TABLE_COLUMNS), title=title),
        "",
        _format_regions_text(result),
    ]
    return "\n".join(lines)


def _format_regions_text(result: SweepResult) -> str:
    regressions = result.regressions()
    lines = ["slow/fail regions"]
    if not regressions["slow"] and not regressions["parity"]:
        lines.append("  (none — every engine matched legacy and held its speed)")
        return "\n".join(lines)
    for entry in regressions["parity"]:
        lines.append(f"  PARITY {entry['cell']}: {entry['parity_detail']}")
    for entry in regressions["slow"]:
        lines.append(
            f"  SLOW   {entry['cell']}: "
            f"{entry['slowdown_vs_legacy']:.2f}x legacy host time"
        )
    return "\n".join(lines)


def format_sweep_markdown(
    result: SweepResult,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
) -> str:
    """The human-readable half of the artifact: a markdown coverage map."""
    counts = sweep_payload(result, sample=sample, seed=seed)["counts"]
    header = [
        "# Scenario sweep coverage map",
        "",
        f"- configs: {counts['configs']}",
        f"- engines: {', '.join(result.engines)}",
        f"- analyses: {', '.join(result.analyses)}",
        f"- cells: {counts['cells']}",
        f"- seed: {seed if seed is not None else '-'}",
        "",
        "## Cells",
        "",
        format_markdown_table(result.rows(), columns=list(_TABLE_COLUMNS)),
        "",
        "## Slow/fail regions",
        "",
    ]
    regressions = result.regressions()
    if not regressions["slow"] and not regressions["parity"]:
        header.append("None — every engine matched `legacy` and held its speed.")
    else:
        region_rows = [
            {
                "kind": "parity",
                "cell": entry["cell"],
                "detail": entry["parity_detail"],
            }
            for entry in regressions["parity"]
        ] + [
            {
                "kind": "slow",
                "cell": entry["cell"],
                "detail": f"{entry['slowdown_vs_legacy']:.2f}x legacy host time",
            }
            for entry in regressions["slow"]
        ]
        header.append(format_markdown_table(region_rows, columns=["kind", "cell", "detail"]))
    header.append("")
    return "\n".join(header)


# ---------------------------------------------------------------------------
# Chaos axis (``--chaos``): recovery-parity cells under sampled fault plans
# ---------------------------------------------------------------------------

#: Tabular projection of a chaos cell (JSON rows keep every field).
_CHAOS_COLUMNS = (
    "config",
    "engine",
    "analysis",
    "plan_kind",
    "restarts",
    "replayed_batches",
    "extra_comm_bytes",
    "degraded",
    "relative_error",
    "parity_ok",
)


def chaos_payload(
    chaos: ChaosResult,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
    specs: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The machine-readable artifact for one ``--chaos`` run.

    Same ``repro.sweep/v1`` schema; the coverage map's ``rows`` are the
    fault-free legacy baselines the chaos cells were gated against, and the
    ``chaos`` section carries the recovery-parity cells plus the sampled
    plans that produced them — enough to replay any cell from the artifact.
    """
    failures = chaos.parity_failures()
    degraded = [cell for cell in chaos.cells if cell.degraded]
    return {
        "schema": SWEEP_SCHEMA,
        "mode": "chaos",
        "sample": sample if sample is not None else len(chaos.plans),
        "seed": seed,
        "specs": list(specs) if specs is not None else sorted(
            {config.spec for config in chaos.configs}
        ),
        "configs": _describe_configs(chaos.configs),
        "rows": [cell.as_row() for cell in chaos.baseline_cells()],
        "chaos": {
            "plans": [plan.describe() for plan in chaos.plans],
            "rows": chaos.rows(),
            "failures": [cell.label() for cell in failures],
        },
        "counts": {
            "configs": len(chaos.configs),
            "cells": len(chaos.cells),
            "parity_failures": len(failures),
            "degraded": len(degraded),
            "restarts": sum(cell.restarts for cell in chaos.cells),
            "replayed_batches": sum(cell.replayed_batches for cell in chaos.cells),
        },
    }


def format_chaos_table(chaos: ChaosResult, title: str = "chaos sweep") -> str:
    """Aligned plain-text recovery-parity map."""
    lines = [format_table(chaos.rows(), columns=list(_CHAOS_COLUMNS), title=title), ""]
    failures = chaos.parity_failures()
    lines.append("recovery-parity failures")
    if not failures:
        lines.append(
            "  (none — every recovered cell matched its fault-free baseline)"
        )
    else:
        lines += [f"  FAIL {cell.label()}: {cell.parity_detail}" for cell in failures]
    return "\n".join(lines)


def format_chaos_markdown(
    chaos: ChaosResult,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
) -> str:
    """Markdown rendering of the chaos coverage map."""
    counts = chaos_payload(chaos, sample=sample, seed=seed)["counts"]
    lines = [
        "# Chaos sweep coverage map",
        "",
        f"- cells: {counts['cells']}",
        f"- configs: {counts['configs']}",
        f"- restarts: {counts['restarts']}",
        f"- replayed batches: {counts['replayed_batches']}",
        f"- degraded (permanent loss): {counts['degraded']}",
        f"- seed: {seed if seed is not None else '-'}",
        "",
        "## Recovery-parity cells",
        "",
        format_markdown_table(chaos.rows(), columns=list(_CHAOS_COLUMNS)),
        "",
        "## Failures",
        "",
    ]
    failures = chaos.parity_failures()
    if not failures:
        lines.append("None — every recovered cell matched its fault-free baseline.")
    else:
        lines.append(
            format_markdown_table(
                [
                    {"cell": cell.label(), "detail": cell.parity_detail}
                    for cell in failures
                ],
                columns=["cell", "detail"],
            )
        )
    lines.append("")
    return "\n".join(lines)


def write_chaos_artifacts(
    chaos: ChaosResult,
    json_path: Union[str, Path],
    markdown_path: Optional[Union[str, Path]] = None,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
    specs: Optional[Sequence[str]] = None,
) -> Tuple[Path, Optional[Path]]:
    """Write the chaos JSON payload (and optionally the markdown map)."""
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    payload = chaos_payload(chaos, sample=sample, seed=seed, specs=specs)
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    md_path: Optional[Path] = None
    if markdown_path is not None:
        md_path = Path(markdown_path)
        md_path.parent.mkdir(parents=True, exist_ok=True)
        md_path.write_text(format_chaos_markdown(chaos, sample=sample, seed=seed))
    return json_path, md_path


def write_sweep_artifacts(
    result: SweepResult,
    json_path: Union[str, Path],
    markdown_path: Optional[Union[str, Path]] = None,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
    specs: Optional[Sequence[str]] = None,
) -> Tuple[Path, Optional[Path]]:
    """Write the JSON payload (and optionally the markdown map) to disk."""
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    payload = sweep_payload(result, sample=sample, seed=seed, specs=specs)
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    md_path: Optional[Path] = None
    if markdown_path is not None:
        md_path = Path(markdown_path)
        md_path.parent.mkdir(parents=True, exist_ok=True)
        md_path.write_text(format_sweep_markdown(result, sample=sample, seed=seed))
    return json_path, md_path
