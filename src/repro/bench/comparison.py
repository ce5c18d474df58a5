"""Cross-system comparison driver (Table 2 of the paper).

Runs TriPoll (both variants) and the three reimplemented baselines on the
same distributed graph at a fixed node count and collects their telemetry
for a side-by-side table.  The paper's Table 2 uses 1024 cores (64 nodes)
except where a system could not run; the scaled-down default here is a
16-rank world (a perfect square, as the Tom & Karypis algorithm requires).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baselines.pearce import pearce_triangle_count
from ..baselines.tom2d import is_perfect_square, tom2d_triangle_count
from ..baselines.tric import tric_triangle_count
from ..core.push_pull import triangle_survey_push_pull
from ..core.results import SurveyReport
from ..core.survey import triangle_survey_push
from ..graph.dodgr import DODGraph
from ..graph.generators import GeneratedGraph
from ..runtime.world import World

__all__ = ["compare_systems"]

#: Systems included in the comparison, in presentation order.
DEFAULT_SYSTEMS = ("tripoll_push_pull", "tripoll_push", "pearce", "tom2d", "tric")


@dataclass
class SystemResult:
    system: str
    report: Optional[SurveyReport]
    host_seconds: float
    #: reason the system did not produce a result (None when it ran)
    skipped: Optional[str] = None

    @property
    def triangles(self) -> Optional[int]:
        return self.report.triangles if self.report is not None else None

    @property
    def simulated_seconds(self) -> Optional[float]:
        return self.report.simulated_seconds if self.report is not None else None


@dataclass
class ComparisonResult:
    dataset: str
    nodes: int
    systems: List[SystemResult] = field(default_factory=list)

    def by_system(self) -> Dict[str, SystemResult]:
        return {entry.system: entry for entry in self.systems}

    def agreeing_triangle_count(self) -> Optional[int]:
        counts = {entry.triangles for entry in self.systems if entry.triangles is not None}
        return counts.pop() if len(counts) == 1 else None

    def speedup_over(self, system: str, baseline: str) -> Optional[float]:
        entries = self.by_system()
        a = entries.get(system)
        b = entries.get(baseline)
        if a is None or b is None or a.simulated_seconds is None or b.simulated_seconds is None:
            return None
        if a.simulated_seconds == 0:
            return None
        return b.simulated_seconds / a.simulated_seconds


def compare_systems(
    dataset: GeneratedGraph,
    nodes: int = 16,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
) -> ComparisonResult:
    """Run the requested systems on ``dataset`` distributed over ``nodes`` ranks."""
    result = ComparisonResult(dataset=dataset.name, nodes=nodes)
    for system in systems:
        world = World(nodes)
        graph = dataset.to_distributed(world)
        host_start = time.perf_counter()
        report: Optional[SurveyReport] = None
        skipped: Optional[str] = None
        try:
            if system == "tripoll_push_pull":
                dodgr = DODGraph.build(graph, mode="bulk")
                report = triangle_survey_push_pull(dodgr, graph_name=dataset.name)
            elif system == "tripoll_push":
                dodgr = DODGraph.build(graph, mode="bulk")
                report = triangle_survey_push(dodgr, graph_name=dataset.name)
            elif system == "pearce":
                report = pearce_triangle_count(graph, graph_name=dataset.name)
            elif system == "tom2d":
                if not is_perfect_square(nodes):
                    skipped = f"requires a perfect-square node count (got {nodes})"
                else:
                    report = tom2d_triangle_count(graph, graph_name=dataset.name)
            elif system == "tric":
                report = tric_triangle_count(graph, graph_name=dataset.name)
            else:
                raise ValueError(f"unknown system {system!r}")
        except ValueError as exc:
            skipped = str(exc)
        host_seconds = time.perf_counter() - host_start
        result.systems.append(
            SystemResult(system=system, report=report, host_seconds=host_seconds, skipped=skipped)
        )
    return result
