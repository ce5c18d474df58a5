"""Communication and computation counters for the simulated runtime.

Every quantity the paper reports about the *behaviour* of the system — bytes
moved over the network, number of (buffered) MPI messages, number of local
RPC deliveries, wedge checks performed, triangles found per rank — is
accumulated here.  The benchmark harness reads these counters to regenerate
Table 4 (communication volume), Fig. 4/7 (phase breakdowns), Fig. 5/9
(work-rate weak scaling) and Table 3 (pulls per rank).

Counters are split per rank and per *phase*: algorithms bracket their phases
with :meth:`RankStats.begin_phase` / the world-level
:meth:`WorldStats.begin_phase` so that the dry-run / push / pull breakdown of
the Push-Pull algorithm can be reported exactly like the paper's stacked
bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = ["PhaseStats", "RankStats", "WorldStats"]

DEFAULT_PHASE = "default"


@dataclass
class PhaseStats:
    """Counters accumulated by a single rank during a single named phase."""

    #: bytes of serialized payload handed to the message buffer, destined off-rank
    bytes_sent_remote: int = 0
    #: bytes of serialized payload destined for the local rank (never hits the wire)
    bytes_sent_local: int = 0
    #: number of individual RPC messages issued (before aggregation)
    rpcs_sent: int = 0
    #: number of RPC messages executed on this rank
    rpcs_executed: int = 0
    #: number of aggregated wire messages (buffer flushes) sent to remote ranks
    wire_messages: int = 0
    #: bytes of aggregated wire messages sent to remote ranks
    wire_bytes: int = 0
    #: bytes of payload received from remote ranks (off-rank origin only)
    bytes_received: int = 0
    #: abstract local computation units (e.g. merge-path comparisons)
    compute_units: int = 0
    #: application-defined counters (wedge checks, triangles found, pulls, ...)
    app_counters: Dict[str, int] = field(default_factory=dict)

    def add_app(self, name: str, amount: int = 1) -> None:
        self.app_counters[name] = self.app_counters.get(name, 0) + amount

    def merge(self, other: "PhaseStats") -> None:
        self.bytes_sent_remote += other.bytes_sent_remote
        self.bytes_sent_local += other.bytes_sent_local
        self.rpcs_sent += other.rpcs_sent
        self.rpcs_executed += other.rpcs_executed
        self.wire_messages += other.wire_messages
        self.wire_bytes += other.wire_bytes
        self.bytes_received += other.bytes_received
        self.compute_units += other.compute_units
        for key, value in other.app_counters.items():
            self.app_counters[key] = self.app_counters.get(key, 0) + value

    def copy(self) -> "PhaseStats":
        out = PhaseStats(
            bytes_sent_remote=self.bytes_sent_remote,
            bytes_sent_local=self.bytes_sent_local,
            rpcs_sent=self.rpcs_sent,
            rpcs_executed=self.rpcs_executed,
            wire_messages=self.wire_messages,
            wire_bytes=self.wire_bytes,
            bytes_received=self.bytes_received,
            compute_units=self.compute_units,
        )
        out.app_counters = dict(self.app_counters)
        return out


class RankStats:
    """Per-rank counters, organised by phase name."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.phases: Dict[str, PhaseStats] = {}
        self.current_phase_name: str = DEFAULT_PHASE

    # -- phase management ---------------------------------------------------
    def begin_phase(self, name: str) -> None:
        self.current_phase_name = name

    @property
    def current(self) -> PhaseStats:
        phase = self.phases.get(self.current_phase_name)
        if phase is None:
            phase = PhaseStats()
            self.phases[self.current_phase_name] = phase
        return phase

    def phase(self, name: str) -> PhaseStats:
        phase = self.phases.get(name)
        if phase is None:
            phase = PhaseStats()
            self.phases[name] = phase
        return phase

    # -- aggregation ---------------------------------------------------------
    def total(self) -> PhaseStats:
        out = PhaseStats()
        for phase in self.phases.values():
            out.merge(phase)
        return out

    def reset(self) -> None:
        self.phases.clear()
        self.current_phase_name = DEFAULT_PHASE


class WorldStats:
    """Counters for an entire simulated world (all ranks)."""

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.ranks: List[RankStats] = [RankStats(r) for r in range(nranks)]
        self.barriers: int = 0

    # -- phase management ----------------------------------------------------
    def begin_phase(self, name: str) -> None:
        for rank_stats in self.ranks:
            rank_stats.begin_phase(name)

    def phase_names(self) -> List[str]:
        names: List[str] = []
        for rank_stats in self.ranks:
            for name in rank_stats.phases:
                if name not in names:
                    names.append(name)
        return names

    # -- aggregation ---------------------------------------------------------
    def phase_total(self, name: str) -> PhaseStats:
        out = PhaseStats()
        for rank_stats in self.ranks:
            phase = rank_stats.phases.get(name)
            if phase is not None:
                out.merge(phase)
        return out

    def total(self) -> PhaseStats:
        out = PhaseStats()
        for rank_stats in self.ranks:
            out.merge(rank_stats.total())
        return out

    def per_rank_phase(self, name: str) -> List[PhaseStats]:
        return [rank_stats.phase(name).copy() for rank_stats in self.ranks]

    def max_over_ranks(self, name: Optional[str] = None) -> PhaseStats:
        """Return a PhaseStats where each counter is the max over ranks.

        Used by the cost model: makespan is driven by the busiest rank.
        """
        out = PhaseStats()
        for rank_stats in self.ranks:
            stats = rank_stats.phase(name) if name is not None else rank_stats.total()
            out.bytes_sent_remote = max(out.bytes_sent_remote, stats.bytes_sent_remote)
            out.bytes_sent_local = max(out.bytes_sent_local, stats.bytes_sent_local)
            out.rpcs_sent = max(out.rpcs_sent, stats.rpcs_sent)
            out.rpcs_executed = max(out.rpcs_executed, stats.rpcs_executed)
            out.wire_messages = max(out.wire_messages, stats.wire_messages)
            out.wire_bytes = max(out.wire_bytes, stats.wire_bytes)
            out.bytes_received = max(out.bytes_received, stats.bytes_received)
            out.compute_units = max(out.compute_units, stats.compute_units)
            for key, value in stats.app_counters.items():
                out.app_counters[key] = max(out.app_counters.get(key, 0), value)
        return out

    def app_counter_total(self, name: str, phases: Optional[Iterable[str]] = None) -> int:
        total = 0
        for rank_stats in self.ranks:
            for phase_name, phase in rank_stats.phases.items():
                if phases is not None and phase_name not in phases:
                    continue
                total += phase.app_counters.get(name, 0)
        return total

    def reset(self) -> None:
        for rank_stats in self.ranks:
            rank_stats.reset()
        self.barriers = 0
