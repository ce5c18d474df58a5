"""Survey result objects: what a TriPoll run reports back to the driver.

TriPoll itself "has no output in the traditional sense" — results live in
whatever state the user's callback mutates.  What the *framework* does report
(and what the paper's evaluation tables are made of) is execution telemetry:
per-phase simulated runtime, communication volume, wedge checks, triangles
identified, and pull statistics.  :class:`SurveyReport` packages that
telemetry for one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..runtime.network_model import SimulatedTime
from ..runtime.stats import PhaseStats, WorldStats

__all__ = ["SurveyReport"]


@dataclass
class SurveyReport:
    """Telemetry of one triangle survey execution."""

    #: "push" (Push-Only) or "push_pull"
    algorithm: str
    #: dataset / graph name the survey ran on
    graph_name: str
    #: number of simulated compute nodes (ranks)
    nranks: int
    #: phase names in execution order
    phases: List[str]
    #: simulated wall-clock time (cost model applied to the measured counters)
    simulated: SimulatedTime
    #: triangles identified across all ranks
    triangles: int
    #: wedge checks (candidate comparisons requested) across all ranks
    wedge_checks: int
    #: total bytes of aggregated wire messages (the paper's communication volume)
    communication_bytes: int
    #: total number of aggregated wire messages
    wire_messages: int
    #: number of adjacency lists pulled, summed over ranks (0 for Push-Only)
    vertices_pulled: int = 0
    #: per-phase aggregate counters
    phase_stats: Dict[str, PhaseStats] = field(default_factory=dict)
    #: wall-clock seconds the simulation itself took (not the simulated time)
    host_seconds: float = 0.0

    # ------------------------------------------------------------------
    @property
    def simulated_seconds(self) -> float:
        return self.simulated.total_seconds

    @property
    def pulls_per_rank(self) -> float:
        return self.vertices_pulled / self.nranks if self.nranks else 0.0

    def phase_seconds(self, name: str) -> float:
        return self.simulated.phase_seconds(name)

    def phase_breakdown(self) -> Dict[str, float]:
        return {name: self.simulated.phase_seconds(name) for name in self.phases}

    def communication_gigabytes(self) -> float:
        return self.communication_bytes / 1e9

    # ------------------------------------------------------------------
    @classmethod
    def from_world_stats(
        cls,
        algorithm: str,
        graph_name: str,
        world_stats: WorldStats,
        simulated: SimulatedTime,
        phases: List[str],
        host_seconds: float = 0.0,
    ) -> "SurveyReport":
        """Build a report from the counters accumulated during a run."""
        total = PhaseStats()
        phase_stats: Dict[str, PhaseStats] = {}
        for name in phases:
            stats = world_stats.phase_total(name)
            phase_stats[name] = stats
            total.merge(stats)
        return cls(
            algorithm=algorithm,
            graph_name=graph_name,
            nranks=world_stats.nranks,
            phases=list(phases),
            simulated=simulated,
            triangles=total.app_counters.get("triangles_found", 0),
            wedge_checks=total.app_counters.get("wedge_checks", 0),
            communication_bytes=total.wire_bytes,
            wire_messages=total.wire_messages,
            vertices_pulled=total.app_counters.get("vertices_pulled", 0),
            phase_stats=phase_stats,
            host_seconds=host_seconds,
        )

    def as_row(self) -> Dict[str, object]:
        """Flatten into a dict suitable for the reporting tables."""
        row: Dict[str, object] = {
            "graph": self.graph_name,
            "algorithm": self.algorithm,
            "nodes": self.nranks,
            "triangles": self.triangles,
            "wedge_checks": self.wedge_checks,
            "sim_seconds": self.simulated_seconds,
            "comm_bytes": self.communication_bytes,
            "wire_messages": self.wire_messages,
            "vertices_pulled": self.vertices_pulled,
        }
        for name in self.phases:
            row[f"sim_seconds[{name}]"] = self.phase_seconds(name)
        return row
