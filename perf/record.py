"""What a workload hands back to the runner: samples, counts, check results."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .clock import Sample

__all__ = ["Budget", "Checks", "Measured"]


class Budget:
    """Whole rounds until the time is spent.

    At least two (unless capped at one), so that the checks across rounds
    always have something to compare.  After that another round starts only
    while at least half of the longest round so far still fits, so a run
    overshoots its time by half a round at most.
    """

    def __init__(self, seconds: float, max_rounds: Optional[int] = None) -> None:
        self.seconds = seconds
        self.max_rounds = max_rounds

    def rounds(self) -> Iterator[int]:
        deadline = time.perf_counter() + self.seconds
        longest = 0.0
        done = 0
        while True:
            started = time.perf_counter()
            yield done
            done += 1
            now = time.perf_counter()
            longest = max(longest, now - started)
            if done == self.max_rounds:
                return
            if done >= 2 and now + longest / 2 > deadline:
                return


class Checks:
    """Output checks: per-op pass/fail counts plus run-level requirements."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.broken: List[str] = []
        self._pinned: Dict[str, Any] = {}

    def op(self, ok: bool, what: str) -> None:
        """Count one op; ``what`` names the check it had to pass."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(f"op failed: {what}")

    def require(self, ok: bool, what: str) -> None:
        """A condition on the run as a whole (not counted as an op)."""
        if not ok:
            self._note(f"run check failed: {what}")

    def same(self, key: str, value: Any) -> None:
        """``value`` must equal every earlier value recorded under ``key``."""
        first = self._pinned.setdefault(key, value)
        self.require(first == value, f"{key} drifted: {first!r} then {value!r}")

    def _note(self, text: str) -> None:
        if len(self.broken) < 20:
            self.broken.append(text)
        elif len(self.broken) == 20:
            self.broken.append("... further failures not listed")

    @property
    def correct(self) -> bool:
        return not self.broken


@dataclass
class Measured:
    """One untraced measurement: everything timed, sorted by what it was."""

    #: edges → surveyable DODGr
    builds: List[Sample] = field(default_factory=list)
    #: first op on a fresh DODGr
    colds: List[Sample] = field(default_factory=list)
    #: warm ops
    ops: List[Sample] = field(default_factory=list)
    #: timed work that is neither of the above (cached queries, ...)
    others: List[Sample] = field(default_factory=list)
    #: ops completed, cold and warm and other (numerator of ``ops_per_s``)
    completed: int = 0
    #: pure functions of (commit, seed): ``wire_bytes``, ``sim_s``, counts
    exact: Dict[str, Any] = field(default_factory=dict)
    #: whatever ``verify`` needs from the last round (live graph, answers)
    state: Any = None

    def loop_seconds(self) -> float:
        """Calibrated seconds of everything timed, builds included."""
        return sum(s.seconds for s in self.builds + self.colds + self.ops + self.others)
