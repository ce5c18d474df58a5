"""Environment stamp carried by every result, and the noisy-host warning."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

import numpy

__all__ = ["stamp"]

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None  # not a git checkout (the driver's is not), or no git
    return done.stdout.strip()


def stamp(seed: int, profile: str) -> Dict[str, Any]:
    """Where and on what this run happened.

    ``noisy`` is set when the 1-minute load average at start exceeds the
    core count: something else is competing for the CPUs and the timings
    of this run deserve less trust.
    """
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    noisy = load1 > nproc
    if noisy:
        print(
            f"perf: load average {load1:.2f} exceeds {nproc} cores; marking run noisy",
            file=sys.stderr,
        )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": nproc,
        "load1": load1,
        "noisy": noisy,
        "git_commit": _git_commit(),
        "seed": seed,
        "profile": profile,
    }
