"""The engine equivalence contract, stated once: one cell runner, one check.

TriPoll's engines and backends are interchangeable (the paper's Table 4
byte totals, its metadata callbacks), so any legal execution cell must
reproduce the ``legacy`` oracle on the same world.  What "reproduce" means
is written down here and nowhere else:

* every field of :data:`REPORT_FIELDS` of the survey report;
* every phase's :class:`~repro.runtime.stats.PhaseStats` total, in
  ``world.phase_order``;
* the reducer panel (``snapshot()``);
* a stream step by step: each step's snapshot, cumulative panel and
  report fields;
* a cell whose run differs in kind from its oracle's — one under a fault
  plan (recovery re-sends and re-runs work), or a stream checked against a
  full recompute — compares its panels only, plus its triangles when no
  crash fired.  A degraded cell (permanent rank loss) must carry a finite
  survivor estimate, unless no rank survived to estimate from;
* no cell leaves a shared-memory segment
  (:func:`~repro.runtime.active_segment_names`) or memmap file
  (:func:`~repro.graph.ooc.active_segment_paths`) behind.

:func:`run_cell` runs one cell on a fresh :class:`~repro.runtime.World`;
:func:`contract_problems` lists how an outcome differs from its oracle's.
The scenario sweep (fault-free and ``--chaos``), ``tools/check_engines.py``
and the matrix suite all call these two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..core.callbacks import ClosureTimeSurvey, LocalTriangleCounter, MaxEdgeLabelDistribution
from ..core.engine import EngineSelector, run_survey_with_recovery
from ..core.incremental import StreamingSurvey
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..graph.ooc import active_segment_paths
from ..runtime import World, active_segment_names
from ..runtime.faults import FaultPlan, RankCrashError
from .worlds import WorldConfig, decorated_edges, streaming_batches

__all__ = [
    "ANALYSES",
    "REPORT_FIELDS",
    "CellOutcome",
    "CellWorld",
    "cell_world",
    "contract_problems",
    "run_cell",
]

#: The survey-report fields two equivalent runs agree on exactly.
REPORT_FIELDS: Tuple[str, ...] = (
    "triangles",
    "communication_bytes",
    "wire_messages",
    "wedge_checks",
    "vertices_pulled",
    "simulated_seconds",
)

Edge = Tuple[Hashable, Hashable, Any]


def _edge_label(meta: Any) -> Any:
    """Label component of :func:`~repro.graph.metadata.temporal_edge_meta`."""
    return meta[1] if isinstance(meta, tuple) else meta


#: analysis name -> reducer factory(world).  ``streaming`` replays the
#: world's batch schedule through :class:`StreamingSurvey`; the others are
#: one full survey each.
_REDUCERS: Dict[str, Callable[[World], Any]] = {
    "triangle": LocalTriangleCounter,
    "closure": ClosureTimeSurvey,
    "labels": lambda world: MaxEdgeLabelDistribution(world, edge_label=_edge_label),
    "streaming": LocalTriangleCounter,
}

#: Every analysis a cell can run.
ANALYSES: Tuple[str, ...] = tuple(_REDUCERS)


@dataclass(frozen=True)
class CellWorld:
    """What a cell runs on: edges, vertex metadata, rank count, and the
    batch schedule a ``streaming`` cell replays."""

    name: str
    nranks: int
    edges: Sequence[Edge]
    vertex_meta: Dict[Hashable, Any] = field(default_factory=dict)
    batches: Sequence[Sequence[Edge]] = ()


def cell_world(config: WorldConfig) -> CellWorld:
    """The decorated edges and batch schedule of a sampled config."""
    edges, vertex_meta = decorated_edges(config)
    return CellWorld(
        name=config.label(),
        nranks=config.nranks,
        edges=edges,
        vertex_meta=vertex_meta,
        batches=streaming_batches(config, edges),
    )


@dataclass
class CellOutcome:
    """What one cell produced: everything :func:`contract_problems` reads."""

    #: :data:`REPORT_FIELDS` of the report; a stream's are sums over its
    #: steps.  A degraded survey surveyed no exact triangle (0), and its
    #: estimate report's traffic is counted.
    report: Dict[str, Any]
    #: the reducer panel (a stream's final cumulative); None when degraded
    panel: Any = None
    #: full surveys: phase name -> PhaseStats total, in execution order
    phases: Dict[str, Any] = field(default_factory=dict)
    #: streams: per completed step, its snapshot, cumulative and report fields
    steps: Optional[List[Dict[str, Any]]] = None
    plan: Optional[FaultPlan] = None
    restarts: int = 0
    replayed_batches: int = 0
    fault_stats: Dict[str, int] = field(default_factory=dict)
    degraded: bool = False
    #: the survivor estimate of a degraded cell; None when no rank survived
    estimate: Any = None
    #: shm segment names / memmap paths the cell left behind
    leaked: List[str] = field(default_factory=list)
    host_seconds: float = 0.0

    @property
    def stream(self) -> bool:
        return self.steps is not None

    @property
    def crashed(self) -> bool:
        return self.fault_stats.get("crashes", 0) > 0


def _fields(report: Any) -> Dict[str, Any]:
    return {name: getattr(report, name) for name in REPORT_FIELDS}


def survey_outcome(report: Any, panel: Any, world: World) -> CellOutcome:
    """The contract's view of one full survey on ``world``."""
    return CellOutcome(
        report=_fields(report),
        panel=panel,
        phases={name: world.stats.phase_total(name) for name in world.phase_order},
    )


def run_cell(
    world: Union[WorldConfig, CellWorld],
    analysis: str,
    engine: EngineSelector = None,
    algorithm: str = "push",
    plan: Optional[FaultPlan] = None,
) -> CellOutcome:
    """Run one cell — ``analysis`` on ``world`` with the ``engine`` selector,
    under ``plan`` when given — on a fresh :class:`World`.

    A full survey goes through
    :func:`~repro.core.engine.run_survey_with_recovery` (with no plan, an
    ordinary survey); a ``streaming`` cell through :class:`StreamingSurvey`
    (always Push-Only).  A permanent loss with no survivor is recorded as a
    degraded outcome without an estimate.
    """
    if isinstance(world, WorldConfig):
        world = cell_world(world)
    names, paths = active_segment_names(), active_segment_paths()
    start = time.perf_counter()
    if analysis == "streaming":
        outcome = _run_stream(world, engine, plan)
    else:
        outcome = _run_survey(world, analysis, engine, algorithm, plan)
    outcome.host_seconds = time.perf_counter() - start
    outcome.leaked = sorted(active_segment_names() - names) + sorted(
        active_segment_paths() - paths
    )
    return outcome


def _fault_stats(sim: World) -> Dict[str, int]:
    injector = sim.fault_injector
    return injector.stats.as_dict() if injector is not None else {}


def _run_survey(
    world: CellWorld,
    analysis: str,
    engine: EngineSelector,
    algorithm: str,
    plan: Optional[FaultPlan],
) -> CellOutcome:
    sim = World(world.nranks)
    graph = DistributedGraph.from_edges(
        sim, world.edges, vertex_meta=world.vertex_meta, name=world.name
    )
    dodgr = DODGraph.build(graph, mode="bulk")
    if plan is not None:
        sim.install_fault_plan(plan)
    try:
        result = run_survey_with_recovery(
            dodgr,
            _REDUCERS[analysis],
            engine=engine,
            algorithm=algorithm,
            graph=graph,
            graph_name=world.name,
        )
    except RankCrashError:  # no surviving rank to estimate from
        return _lost(CellOutcome(report=dict.fromkeys(REPORT_FIELDS, 0), plan=plan), sim)
    finally:
        dodgr.release()
    if result.degraded:
        outcome = CellOutcome(report=dict(_fields(result.report), triangles=0))
    else:
        outcome = survey_outcome(result.report, result.panel, sim)
    outcome.plan = plan
    outcome.restarts = result.recovery.restarts
    outcome.fault_stats = dict(result.recovery.fault_stats)
    outcome.degraded = result.degraded
    outcome.estimate = result.estimate
    return outcome


def _run_stream(
    world: CellWorld, engine: EngineSelector, plan: Optional[FaultPlan]
) -> CellOutcome:
    sim = World(world.nranks)
    survey = StreamingSurvey(
        sim,
        reducer_factory=_REDUCERS["streaming"],
        plan=plan,
        engine=engine,
        graph_name=world.name,
    )
    outcome = CellOutcome(report=dict.fromkeys(REPORT_FIELDS, 0), steps=[], plan=plan)
    try:
        for index, batch in enumerate(world.batches):
            step = survey.ingest(batch, vertex_meta=world.vertex_meta if index == 0 else None)
            outcome.restarts += step.restarts
            outcome.replayed_batches += step.replayed_batches
            fields = _fields(step.report)
            if step.degraded:
                fields["triangles"] = 0
            for name, value in fields.items():
                outcome.report[name] += value
            if step.degraded:
                outcome.degraded, outcome.estimate = True, step.estimate
                break
            outcome.steps.append(
                dict(fields, snapshot=step.snapshot, cumulative=step.cumulative)
            )
    except RankCrashError:  # no surviving rank to estimate from
        return _lost(outcome, sim)
    finally:
        survey.close()
    if outcome.steps and not outcome.degraded:
        outcome.panel = outcome.steps[-1]["cumulative"]
    outcome.fault_stats = _fault_stats(sim)
    return outcome


def _lost(outcome: CellOutcome, sim: World) -> CellOutcome:
    """A permanent loss that left no rank to estimate from: degraded, with
    no estimate, and the restart the recovery layer attempted."""
    outcome.fault_stats = _fault_stats(sim)
    outcome.restarts = outcome.fault_stats["restarts"]
    outcome.degraded = True
    return outcome


def contract_problems(got: CellOutcome, oracle: CellOutcome) -> List[str]:
    """How ``got`` breaks the equivalence contract against ``oracle``'s
    outcome; empty when it holds (see the module docstring for the rules)."""
    problems = [f"left {name} behind" for name in got.leaked]
    if got.degraded:
        estimate = got.estimate
        if estimate is not None and not (
            math.isfinite(estimate.estimate) and estimate.estimate >= 0.0
            and math.isfinite(estimate.stderr) and estimate.stderr >= 0.0
        ):
            problems.append(
                f"degraded cell has no finite estimate "
                f"({estimate.estimate} ± {estimate.stderr})"
            )
    elif got.panel != oracle.panel:
        problems.append("reducer panel differs from the oracle")
    exact = got.plan is None and got.stream == oracle.stream
    if got.stream and oracle.stream:
        step_fields = ("snapshot", "cumulative") + (REPORT_FIELDS if exact else ())
        for index, (mine, theirs) in enumerate(zip(got.steps, oracle.steps)):
            problems += [
                f"step {index} {name} differs from the oracle"
                for name in step_fields
                if mine[name] != theirs[name]
            ]
        if not got.degraded and len(got.steps) != len(oracle.steps):
            problems.append(f"{len(got.steps)} steps != oracle {len(oracle.steps)}")
    if exact:
        problems += [
            f"{name} {got.report[name]} != oracle {oracle.report[name]}"
            for name in REPORT_FIELDS
            if got.report[name] != oracle.report[name]
        ]
        problems += [
            f"{name} phase counters differ from the oracle"
            for name in sorted(set(got.phases) | set(oracle.phases))
            if got.phases.get(name) != oracle.phases.get(name)
        ]
    elif not got.degraded and not got.crashed:
        if got.report["triangles"] != oracle.report["triangles"]:
            problems.append(
                f"triangles {got.report['triangles']} != oracle "
                f"{oracle.report['triangles']} with no crash"
            )
    return problems
