"""Analytic cost model converting measured counters into simulated time.

The paper reports wall-clock seconds on the LLNL Catalyst cluster (dual Xeon
E5-2695v2 nodes, InfiniBand QDR).  The simulated runtime cannot reproduce
absolute seconds, but it *can* reproduce the structure of the time: how much
work each rank performed, how many bytes it moved, in how many aggregated
messages, and in which phase.  This module converts those measured counters
into a simulated makespan using a classic latency/bandwidth (alpha-beta) plus
per-operation compute model:

``T_phase = max over ranks [ compute + serialization + send + receive ]``

with

* ``compute     = compute_units * seconds_per_compute_unit``
* ``serialization = (bytes_sent + bytes_received) * seconds_per_serialized_byte``
* ``send        = wire_messages * latency + wire_bytes / bandwidth``
* ``receive     = bytes_received / bandwidth + rpcs_executed * rpc_dispatch_overhead``

The defaults are loosely calibrated to the hardware class of the paper
(QDR InfiniBand ≈ 3.2 GB/s effective per node, ~1.5 µs injected latency per
aggregated message, a few nanoseconds per merge-path comparison) so that the
*relative* behaviour (who wins, crossover points, scaling shape) matches the
published tables; absolute values are labelled "simulated seconds".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .stats import PhaseStats, WorldStats

__all__ = ["CostModel", "SimulatedTime", "CATALYST_LIKE", "simulate_time"]


@dataclass(frozen=True)
class CostModel:
    """Machine parameters for the simulated cluster."""

    #: seconds per abstract compute unit (one merge-path comparison / hash probe)
    seconds_per_compute_unit: float = 5.0e-9
    #: seconds per serialized byte (serialization + deserialization combined)
    seconds_per_serialized_byte: float = 2.0e-10
    #: injected latency per aggregated wire message (seconds)
    latency_per_wire_message: float = 1.5e-6
    #: effective per-rank network bandwidth (bytes/second)
    bandwidth_bytes_per_second: float = 3.2e9
    #: fixed dispatch overhead per executed RPC (seconds)
    rpc_dispatch_overhead: float = 2.0e-8
    #: fixed per-phase overhead, e.g. barrier/bookkeeping cost (seconds)
    phase_overhead_seconds: float = 1.0e-4

    def phase_time_for_rank(self, stats: PhaseStats) -> float:
        """Simulated seconds one rank spends in a phase."""
        compute = stats.compute_units * self.seconds_per_compute_unit
        serialization = (
            stats.bytes_sent_remote + stats.bytes_sent_local + stats.bytes_received
        ) * self.seconds_per_serialized_byte
        send = (
            stats.wire_messages * self.latency_per_wire_message
            + stats.wire_bytes / self.bandwidth_bytes_per_second
        )
        receive = (
            stats.bytes_received / self.bandwidth_bytes_per_second
            + stats.rpcs_executed * self.rpc_dispatch_overhead
        )
        return compute + serialization + send + receive


#: A cost model roughly in the class of the paper's Catalyst cluster.
CATALYST_LIKE = CostModel()


@dataclass
class PhaseTime:
    """Simulated timing of a single phase."""

    name: str
    seconds: float
    per_rank_seconds: List[float] = field(default_factory=list)

    @property
    def busiest_rank(self) -> int:
        if not self.per_rank_seconds:
            return 0
        return max(range(len(self.per_rank_seconds)), key=lambda r: self.per_rank_seconds[r])

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean per-rank time; 1.0 means perfectly balanced."""
        if not self.per_rank_seconds:
            return 1.0
        mean = sum(self.per_rank_seconds) / len(self.per_rank_seconds)
        if mean == 0.0:
            return 1.0
        return max(self.per_rank_seconds) / mean


@dataclass
class SimulatedTime:
    """Simulated timing of an entire algorithm execution."""

    phases: List[PhaseTime]

    @property
    def total_seconds(self) -> float:
        return sum(phase.seconds for phase in self.phases)

    def phase_seconds(self, name: str) -> float:
        for phase in self.phases:
            if phase.name == name:
                return phase.seconds
        return 0.0

    def as_dict(self) -> Dict[str, float]:
        out = {phase.name: phase.seconds for phase in self.phases}
        out["total"] = self.total_seconds
        return out


def simulate_time(
    world_stats: WorldStats,
    model: CostModel = CATALYST_LIKE,
    phases: Optional[Iterable[str]] = None,
) -> SimulatedTime:
    """Convert measured world counters into a simulated execution time.

    Parameters
    ----------
    world_stats:
        Counters accumulated during an algorithm run.
    model:
        Machine parameters.
    phases:
        Optional explicit phase ordering; defaults to the order phases were
        first observed.
    """
    phase_names = list(phases) if phases is not None else world_stats.phase_names()
    out: List[PhaseTime] = []
    for name in phase_names:
        per_rank = [
            model.phase_time_for_rank(rank_stats.phase(name))
            for rank_stats in world_stats.ranks
        ]
        makespan = (max(per_rank) if per_rank else 0.0) + model.phase_overhead_seconds
        out.append(PhaseTime(name=name, seconds=makespan, per_rank_seconds=per_rank))
    return SimulatedTime(phases=out)
