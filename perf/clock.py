"""Speed-calibrated timing: wall seconds corrected for host speed drift.

The sandbox this benchmark was sized on changes speed by ±25 % for 5–15 s
at a time, so the raw median of a 20 s run moved by 13–35 % between runs
of one commit.  Every timed sample is therefore bracketed by two *probes* —
the median of a few runs of a fixed spin loop — and reported as

    calibrated seconds = wall seconds × REFERENCE_UNIT_S / probe seconds

i.e. the time the sample would have taken had the host run the spin loop
at its reference speed.  On a quiet host the factor is 1 and calibrated
seconds are wall seconds.  The loop allocates tuples and updates a dict
because that is what the program under test mostly does; against an
arithmetic-only loop it halved the run-to-run spread of the calibrated
medians (``closure_push`` ``op_s``: raw 23 %, arithmetic probe 11 %, this
probe 5 %; see perf/README.md "Steadiness").  Raw wall medians are kept
beside the calibrated ones in every result record.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence, Tuple

__all__ = ["REFERENCE_UNIT_S", "Sample", "Clock", "median", "p90", "raw_median"]

#: Spin-loop seconds at reference speed: the sizing sandbox's quiet-mode
#: reading (2.1 GHz Xeon, CPython 3.11).  Only ratios to it matter.
REFERENCE_UNIT_S = 2.0e-3

_SPIN_ITERATIONS = 9_000


def _spin() -> int:
    table: dict = {}
    for i in range(_SPIN_ITERATIONS):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + i
    return len(table)


@dataclass(frozen=True)
class Sample:
    """One timed region: raw wall seconds and the host speed factor."""

    wall_s: float
    #: probe seconds ÷ reference seconds (> 1 means the host ran slow)
    factor: float

    @property
    def seconds(self) -> float:
        """Calibrated seconds."""
        return self.wall_s / self.factor


#: A probe this fresh is reused instead of taken again: back-to-back
#: samples share the probe between them, which halves the probing cost.
_PROBE_REUSE_S = 0.05


class Clock:
    """Times callables between speed probes."""

    def __init__(self, probe_units: int = 8) -> None:
        self.probe_units = probe_units
        self._last = (0.0, float("-inf"))  # (factor, when taken)

    def probe(self) -> float:
        """Current host speed factor (median spin time ÷ reference)."""
        factor, taken = self._last
        if time.perf_counter() - taken < _PROBE_REUSE_S:
            return factor
        readings = []
        for _ in range(self.probe_units):
            start = time.perf_counter()
            _spin()
            readings.append(time.perf_counter() - start)
        factor = statistics.median(readings) / REFERENCE_UNIT_S
        self._last = (factor, time.perf_counter())
        return factor

    def timed(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, Sample]:
        """Run ``fn`` once after a full collection; GC stays enabled."""
        gc.collect()
        before = self.probe()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        return result, Sample(wall, (before + self.probe()) / 2)

    @contextmanager
    def op(self, tracer: Any, name: str, **counts: Any) -> Iterator[Any]:
        """A traced root span between probes; its factor lands in its counts."""
        gc.collect()
        before = self.probe()
        with tracer.op(name, **counts) as root:
            yield root
        root.counts["factor"] = (before + self.probe()) / 2


def median(samples: Sequence[Sample]) -> float:
    """Median calibrated seconds."""
    return statistics.median(sample.seconds for sample in samples)


def p90(samples: Sequence[Sample]) -> float:
    """90th percentile of calibrated seconds (needs at least two samples)."""
    return statistics.quantiles([s.seconds for s in samples], n=10, method="inclusive")[8]


def raw_median(samples: Sequence[Sample]) -> float:
    """Median raw wall seconds (reported beside the calibrated median)."""
    return statistics.median(sample.wall_s for sample in samples)
