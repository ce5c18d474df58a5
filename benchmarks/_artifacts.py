"""Artifact emission for the benchmark suite.

Benchmarks regenerate the paper's tables and figures as plain text.  pytest
captures per-test stdout, so in addition to printing (visible with ``-s``)
every artifact is appended to ``bench_artifacts.txt`` in the repository root;
that file is the canonical record of the regenerated tables/figures for a
benchmark run and is what EXPERIMENTS.md refers to.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["emit", "artifact_path", "reset_artifacts"]


def artifact_path() -> Path:
    """Location of the artifact file (repository root by default)."""
    root = os.environ.get("REPRO_BENCH_ARTIFACTS")
    if root:
        return Path(root)
    return Path(__file__).resolve().parent.parent / "bench_artifacts.txt"


def reset_artifacts() -> None:
    """Start a benchmark session's artifact file (truncated: it is a linear
    session log)."""
    path = artifact_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("")


def emit(text: str) -> None:
    """Print an artifact block and append it to the artifact file."""
    print()
    print(text)
    with open(artifact_path(), "a", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n\n")
