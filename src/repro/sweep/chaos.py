"""Chaos axis of the scenario sweep: sampled fault plans × engines × analyses.

``python -m repro.sweep --chaos --sample N`` runs ``N`` *chaos cells*.  Each
cell deterministically combines one sampled
:class:`~repro.sweep.worlds.WorldConfig`, one analysis, one registered
engine and one :func:`~repro.runtime.faults.sample_fault_plans` plan, then
executes the survey through the recovery layer
(:func:`~repro.core.engine.run_survey_with_recovery` for full surveys,
:class:`~repro.core.incremental.StreamingSurvey` for streams) and
gates the outcome against the fault-free legacy baseline of the same
(config, analysis):

* a cell that completed (recovered or untouched) must produce a reducer
  panel **bit-identical** to the baseline — recovery parity, the chaos
  contract;
* when no crash fired, the triangle count must match too (with crashes the
  report honestly accumulates the wasted attempts' work, so only the panel
  gates);
* a cell that *degraded* (permanent rank loss) must return a finite
  survivor estimate with a finite error bound; its relative error against
  the exact count is recorded in the artifact.

Retry/replay traffic is never gated — it is the point.  Each cell records
its wire bytes next to the baseline's so the recovery overhead is visible
in the coverage map (``extra_comm_bytes``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.engine import engine_names, run_survey_with_recovery
from ..core.incremental import StreamingSurvey
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..runtime.faults import FaultPlan
from ..runtime.world import World
from .runner import (
    ANALYSES,
    ORACLE_ENGINE,
    SweepCell,
    _FULL_SURVEY_REDUCERS,
    _run_full_survey_cell,
    _run_streaming_cell,
)
from .worlds import WorldConfig, decorated_edges, streaming_batches

__all__ = [
    "ChaosResult",
    "ChaosParityError",
    "run_chaos_sweep",
]


@dataclass
class ChaosCell:
    """One recovery-parity cell: config × analysis × engine × fault plan."""

    config_id: str
    spec: str
    engine: str
    analysis: str
    plan_name: str
    plan_kind: str
    plan: Dict[str, Any]
    triangles: int = 0
    comm_bytes: int = 0
    wire_messages: int = 0
    host_seconds: float = 0.0
    baseline_triangles: int = 0
    baseline_comm_bytes: int = 0
    restarts: int = 0
    replayed_batches: int = 0
    degraded: bool = False
    #: survivor estimate / stderr / relative error, degraded cells only
    estimate: Optional[float] = None
    estimate_stderr: Optional[float] = None
    relative_error: Optional[float] = None
    fault_stats: Dict[str, int] = field(default_factory=dict)
    parity_ok: bool = True
    parity_detail: str = ""

    @property
    def extra_comm_bytes(self) -> int:
        """Recovery overhead: retry + replay bytes beyond the clean run."""
        return self.comm_bytes - self.baseline_comm_bytes

    def label(self) -> str:
        return f"{self.spec}:{self.config_id}/{self.analysis}/{self.engine}/{self.plan_name}"

    def as_row(self) -> Dict[str, Any]:
        return {
            "config": self.config_id,
            "spec": self.spec,
            "engine": self.engine,
            "analysis": self.analysis,
            "plan": self.plan_name,
            "plan_kind": self.plan_kind,
            "plan_spec": dict(self.plan),
            "triangles": self.triangles,
            "comm_bytes": self.comm_bytes,
            "extra_comm_bytes": self.extra_comm_bytes,
            "wire_messages": self.wire_messages,
            "host_seconds": self.host_seconds,
            "baseline_triangles": self.baseline_triangles,
            "baseline_comm_bytes": self.baseline_comm_bytes,
            "restarts": self.restarts,
            "replayed_batches": self.replayed_batches,
            "degraded": self.degraded,
            "estimate": self.estimate,
            "estimate_stderr": self.estimate_stderr,
            "relative_error": self.relative_error,
            "fault_stats": dict(self.fault_stats),
            "parity_ok": self.parity_ok,
            "parity_detail": self.parity_detail,
        }


class ChaosParityError(AssertionError):
    """A chaos cell broke the recovery-parity contract."""

    def __init__(self, cells: Sequence[ChaosCell]) -> None:
        self.cells = list(cells)
        lines = [f"{len(self.cells)} chaos cell(s) failed recovery parity:"]
        lines += [f"  {cell.label()}: {cell.parity_detail}" for cell in self.cells]
        super().__init__("\n".join(lines))


@dataclass
class ChaosResult:
    """One chaos run: the recovery cells plus their fault-free baselines."""

    configs: List[WorldConfig]
    plans: List[FaultPlan]
    cells: List[ChaosCell]
    #: legacy fault-free cells the chaos cells were gated against, keyed
    #: (config_id, analysis) — these anchor the coverage map
    baselines: Dict[Tuple[str, str], SweepCell]

    def rows(self) -> List[Dict[str, Any]]:
        return [cell.as_row() for cell in self.cells]

    def baseline_cells(self) -> List[SweepCell]:
        return list(self.baselines.values())

    def parity_failures(self) -> List[ChaosCell]:
        return [cell for cell in self.cells if not cell.parity_ok]

    def raise_on_parity_failure(self) -> None:
        failures = self.parity_failures()
        if failures:
            raise ChaosParityError(failures)


# ---------------------------------------------------------------------------
# Baselines (legacy, fault-free — cached per config × analysis)
# ---------------------------------------------------------------------------


class _Baselines:
    """Lazy cache of fault-free legacy results per (config, analysis)."""

    def __init__(self) -> None:
        self.full: Dict[Tuple[str, str], SweepCell] = {}
        self.streaming: Dict[str, Tuple[SweepCell, List[Any], List[Any]]] = {}
        self._edges: Dict[str, Tuple[Any, Any]] = {}

    def edges_for(self, config: WorldConfig) -> Tuple[Any, Any]:
        key = config.config_id()
        if key not in self._edges:
            self._edges[key] = decorated_edges(config)
        return self._edges[key]

    def full_cell(self, config: WorldConfig, analysis: str) -> SweepCell:
        key = (config.config_id(), analysis)
        if key not in self.full:
            edges, vertex_meta = self.edges_for(config)
            self.full[key] = _run_full_survey_cell(
                config, analysis, ORACLE_ENGINE, edges, vertex_meta
            )
        return self.full[key]

    def streaming_cell(
        self, config: WorldConfig
    ) -> Tuple[SweepCell, List[Any], List[Any]]:
        """Baseline streaming cell plus per-step snapshot/cumulative lists."""
        key = config.config_id()
        if key not in self.streaming:
            edges, vertex_meta = self.edges_for(config)
            batches = streaming_batches(config, edges)
            cell = _run_streaming_cell(config, ORACLE_ENGINE, batches, vertex_meta)
            snaps, cums = _streaming_panel_trace(config, batches, vertex_meta)
            self.streaming[key] = (cell, snaps, cums)
            self.full[(key, "streaming")] = cell
        return self.streaming[key]


def _streaming_panel_trace(
    config: WorldConfig,
    batches: Sequence[Any],
    vertex_meta: Dict[Any, Any],
) -> Tuple[List[Any], List[Any]]:
    """Per-step snapshot and cumulative panels of the clean legacy stream."""
    from ..core.callbacks import LocalTriangleCounter

    world = World(config.nranks)
    survey = StreamingSurvey(
        world,
        reducer_factory=LocalTriangleCounter,
        engine=ORACLE_ENGINE,
        graph_name=config.label(),
    )
    snapshots: List[Any] = []
    cumulative: List[Any] = []
    for batch_index, batch in enumerate(batches):
        step = survey.ingest(
            batch, vertex_meta=vertex_meta if batch_index == 0 else None
        )
        snapshots.append(step.snapshot)
        cumulative.append(step.cumulative)
    return snapshots, cumulative


# ---------------------------------------------------------------------------
# Per-cell execution
# ---------------------------------------------------------------------------


def _plan_kind(plan: FaultPlan) -> str:
    return plan.name.rsplit("-", 1)[0] if "-" in plan.name else plan.name


def _gate_completed(cell: ChaosCell, panel: Any, baseline_panel: Any) -> None:
    problems: List[str] = []
    if panel != baseline_panel:
        problems.append("recovered panel differs from fault-free baseline")
    if cell.fault_stats.get("crashes", 0) == 0 and (
        cell.triangles != cell.baseline_triangles
    ):
        problems.append(
            f"triangles {cell.triangles} != baseline {cell.baseline_triangles} "
            "with no crash"
        )
    if problems:
        cell.parity_ok = False
        cell.parity_detail = "; ".join(problems)


def _gate_degraded(cell: ChaosCell) -> None:
    problems: List[str] = []
    if cell.estimate is None or not (cell.estimate >= 0.0):
        problems.append(f"degraded cell produced no finite estimate ({cell.estimate})")
    if cell.estimate_stderr is None or not (cell.estimate_stderr >= 0.0):
        problems.append(
            f"degraded cell produced no finite error bound ({cell.estimate_stderr})"
        )
    if problems:
        cell.parity_ok = False
        cell.parity_detail = "; ".join(problems)


def _run_full_chaos_cell(
    config: WorldConfig,
    analysis: str,
    engine: str,
    plan: FaultPlan,
    baselines: _Baselines,
) -> ChaosCell:
    baseline = baselines.full_cell(config, analysis)
    edges, vertex_meta = baselines.edges_for(config)
    cell = ChaosCell(
        config_id=config.config_id(),
        spec=config.spec,
        engine=engine,
        analysis=analysis,
        plan_name=plan.name,
        plan_kind=_plan_kind(plan),
        plan=plan.describe(),
        baseline_triangles=baseline.triangles,
        baseline_comm_bytes=baseline.comm_bytes,
    )
    host_start = time.perf_counter()
    world = World(config.nranks)
    graph = DistributedGraph.from_edges(
        world, edges, vertex_meta=vertex_meta, name=config.label()
    )
    dodgr = DODGraph.build(graph, mode="bulk")
    result = run_survey_with_recovery(
        dodgr,
        _FULL_SURVEY_REDUCERS[analysis],
        engine=engine,
        plan=plan,
        graph=graph,
        graph_name=config.label(),
    )
    cell.host_seconds = time.perf_counter() - host_start
    cell.restarts = result.recovery.restarts
    cell.fault_stats = dict(result.recovery.fault_stats)
    if result.degraded:
        cell.degraded = True
        cell.estimate = float(result.estimate.estimate)
        cell.estimate_stderr = float(result.estimate.stderr)
        cell.relative_error = result.estimate.relative_error(baseline.triangles)
        cell.comm_bytes = result.report.communication_bytes
        cell.wire_messages = result.report.wire_messages
        _gate_degraded(cell)
        return cell
    cell.triangles = result.report.triangles
    cell.comm_bytes = result.report.communication_bytes
    cell.wire_messages = result.report.wire_messages
    _gate_completed(cell, result.panel, baseline.panel)
    return cell


def _run_streaming_chaos_cell(
    config: WorldConfig,
    engine: str,
    plan: FaultPlan,
    baselines: _Baselines,
) -> ChaosCell:
    from ..core.callbacks import LocalTriangleCounter

    baseline, base_snaps, base_cums = baselines.streaming_cell(config)
    edges, vertex_meta = baselines.edges_for(config)
    batches = streaming_batches(config, edges)
    cell = ChaosCell(
        config_id=config.config_id(),
        spec=config.spec,
        engine=engine,
        analysis="streaming",
        plan_name=plan.name,
        plan_kind=_plan_kind(plan),
        plan=plan.describe(),
        baseline_triangles=baseline.triangles,
        baseline_comm_bytes=baseline.comm_bytes,
    )
    host_start = time.perf_counter()
    world = World(config.nranks)
    survey = StreamingSurvey(
        world,
        reducer_factory=LocalTriangleCounter,
        plan=plan,
        engine=engine,
        graph_name=config.label(),
    )
    problems: List[str] = []
    for batch_index, batch in enumerate(batches):
        step = survey.ingest(
            batch, vertex_meta=vertex_meta if batch_index == 0 else None
        )
        cell.comm_bytes += step.report.communication_bytes
        cell.wire_messages += step.report.wire_messages
        cell.restarts += step.restarts
        cell.replayed_batches += step.replayed_batches
        if step.degraded:
            cell.degraded = True
            cell.estimate = float(step.estimate.estimate)
            cell.estimate_stderr = float(step.estimate.stderr)
            exact = _panel_triangles(base_cums[batch_index])
            cell.relative_error = step.estimate.relative_error(exact)
            break
        cell.triangles += step.report.triangles
        if step.snapshot != base_snaps[batch_index]:
            problems.append(f"batch {batch_index} snapshot differs from baseline")
        if step.cumulative != base_cums[batch_index]:
            problems.append(f"batch {batch_index} cumulative differs from baseline")
    cell.host_seconds = time.perf_counter() - host_start
    injector = world.fault_injector
    if injector is not None:
        cell.fault_stats = injector.stats.as_dict()
    if cell.degraded:
        _gate_degraded(cell)
        return cell
    if problems:
        cell.parity_ok = False
        cell.parity_detail = "; ".join(problems)
    elif cell.fault_stats.get("crashes", 0) == 0 and (
        cell.triangles != cell.baseline_triangles
    ):
        cell.parity_ok = False
        cell.parity_detail = (
            f"triangles {cell.triangles} != baseline {cell.baseline_triangles} "
            "with no crash"
        )
    return cell


def _panel_triangles(panel: Any) -> int:
    """Exact triangle count encoded in a LocalTriangleCounter panel."""
    if not panel:
        return 0
    return sum(panel.values()) // 3


# ---------------------------------------------------------------------------
# The chaos loop
# ---------------------------------------------------------------------------


def run_chaos_sweep(
    configs: Sequence[WorldConfig],
    plans: Sequence[FaultPlan],
    strict_parity: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosResult:
    """One chaos cell per plan, cycling configs, analyses and engines.

    The cell axes are pure functions of the cell index — no RNG beyond the
    plan sampling — so ``(configs, plans)`` freezes the whole run.  Every
    cell is gated against a cached fault-free legacy baseline; with
    ``strict_parity`` (the default and what CI runs) a broken cell raises
    :class:`ChaosParityError` after the sweep completes.
    """
    if not configs:
        raise ValueError("chaos sweep needs at least one sampled config")
    axis = engine_names()
    baselines = _Baselines()
    cells: List[ChaosCell] = []
    for index, plan in enumerate(plans):
        config = configs[index % len(configs)]
        analysis = ANALYSES[index % len(ANALYSES)]
        # The engine advances once per lap of the analyses, so every
        # (analysis, engine) pair is drawn within len(ANALYSES) * len(axis)
        # cells even when the two axis lengths share a factor.
        engine = axis[(index // len(ANALYSES)) % len(axis)]
        if analysis == "streaming":
            if progress is not None:
                progress(f"chaos {plan.name}: {config.label()}/streaming/{engine}")
            cells.append(
                _run_streaming_chaos_cell(config, engine, plan, baselines)
            )
        else:
            if progress is not None:
                progress(f"chaos {plan.name}: {config.label()}/{analysis}/{engine}")
            cells.append(
                _run_full_chaos_cell(config, analysis, engine, plan, baselines)
            )
    result = ChaosResult(
        configs=list(configs),
        plans=list(plans),
        cells=cells,
        baselines=dict(baselines.full),
    )
    if strict_parity:
        result.raise_on_parity_failure()
    return result
