"""Sweep reporting: one tabular artifact (JSON + markdown) per run.

The JSON payload (schema ``repro.sweep/v2``) is what CI uploads; the
markdown rendering is the human-readable coverage map.  Both carry the same
rows — one per cell, config × analysis × engine (× fault plan in a chaos
run), the fault-free ``legacy`` oracle cells included — plus the list of
cells that broke the equivalence contract (empty on a clean run).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..bench.reporting import format_markdown_table, format_table
from ..core.engine import engine_names
from .runner import SweepResult

__all__ = [
    "sweep_payload",
    "format_sweep_table",
    "write_sweep_artifacts",
]

#: Schema tag stamped into every JSON artifact so downstream diff tooling
#: can refuse payloads it does not understand.
SWEEP_SCHEMA = "repro.sweep/v2"

#: Column order for the tabular renderings (JSON rows keep every field).
_TABLE_COLUMNS = (
    "config",
    "spec",
    "engine",
    "analysis",
    "plan",
    "triangles",
    "comm_bytes",
    "wire_messages",
    "host_seconds",
    "restarts",
    "degraded",
    "parity_ok",
)


def sweep_payload(
    result: SweepResult,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
    specs: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The machine-readable artifact for one run; ``mode`` says which kind."""
    cells = result.cells
    return {
        "schema": SWEEP_SCHEMA,
        "mode": "chaos" if result.plans else "sweep",
        "sample": sample if sample is not None else len(result.plans or result.configs),
        "seed": seed,
        "specs": list(specs) if specs is not None else sorted(
            {config.spec for config in result.configs}
        ),
        "engines": list(engine_names()),
        "analyses": list(result.analyses),
        "configs": [
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
            for config in result.configs
        ],
        "plans": [plan.describe() for plan in result.plans],
        "rows": result.rows(),
        "failures": [
            {"cell": cell.label(), "detail": "; ".join(cell.problems)}
            for cell in result.parity_failures()
        ],
        "counts": {
            "configs": len(result.configs),
            "cells": len(cells),
            "parity_failures": len(result.parity_failures()),
            "degraded": sum(cell.outcome.degraded for cell in cells),
            "restarts": sum(cell.outcome.restarts for cell in cells),
            "replayed_batches": sum(cell.outcome.replayed_batches for cell in cells),
        },
    }


def format_sweep_table(result: SweepResult, title: str = "scenario sweep") -> str:
    """Aligned plain-text coverage map (``bench_artifacts.txt`` style)."""
    lines = [format_table(result.rows(), columns=list(_TABLE_COLUMNS), title=title), ""]
    lines.append("parity failures")
    failures = result.parity_failures()
    if not failures:
        lines.append("  (none — every cell matched its oracle)")
    lines += [f"  FAIL {cell.label()}: {'; '.join(cell.problems)}" for cell in failures]
    return "\n".join(lines)


def format_sweep_markdown(
    result: SweepResult,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
) -> str:
    """The human-readable half of the artifact: a markdown coverage map."""
    payload = sweep_payload(result, sample=sample, seed=seed)
    counts = payload["counts"]
    lines = [
        f"# Scenario sweep coverage map ({payload['mode']})",
        "",
        f"- configs: {counts['configs']}",
        f"- fault plans: {len(result.plans)}",
        f"- engines: {', '.join(payload['engines'])}",
        f"- analyses: {', '.join(result.analyses)}",
        f"- cells: {counts['cells']}",
        f"- restarts: {counts['restarts']}",
        f"- replayed batches: {counts['replayed_batches']}",
        f"- degraded (permanent loss): {counts['degraded']}",
        f"- seed: {seed if seed is not None else '-'}",
        "",
        "## Cells",
        "",
        format_markdown_table(payload["rows"], columns=list(_TABLE_COLUMNS)),
        "",
        "## Parity failures",
        "",
    ]
    if payload["failures"]:
        lines.append(format_markdown_table(payload["failures"], columns=["cell", "detail"]))
    else:
        lines.append("None — every cell matched its oracle.")
    lines.append("")
    return "\n".join(lines)


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
