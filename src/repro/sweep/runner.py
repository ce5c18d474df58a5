"""Sweep execution: sampled configs × analyses × engines, fault plans optional.

For each :class:`~repro.sweep.worlds.WorldConfig` the runner materializes
one decorated edge set (timestamps + labels, see
:func:`~repro.sweep.worlds.decorated_edges`) and runs cells on it through
:func:`~repro.sweep.contract.run_cell`, each on a fresh
:class:`~repro.runtime.World` so communication counters are isolated:

* ``triangle`` — a Push-Only survey with a
  :class:`~repro.core.callbacks.LocalTriangleCounter` panel;
* ``closure`` — :class:`~repro.core.callbacks.ClosureTimeSurvey` over the
  burstiness-shaped edge timestamps;
* ``labels`` — :class:`~repro.core.callbacks.MaxEdgeLabelDistribution`
  over the planted ``metadata_cardinality``-sized label alphabet;
* ``streaming`` — the config's batch schedule replayed through
  :class:`~repro.core.incremental.StreamingSurvey`; the legacy stream is
  also checked against a full recompute over the merged graph.

Every cell is checked against the fault-free ``legacy`` cell of the same
(config, analysis), which runs once, in the same loop, and is itself a row:
:func:`~repro.sweep.contract.contract_problems` is the verdict.
:func:`run_sweep` runs every engine fault-free; :func:`run_chaos_sweep`
runs one cell per sampled :class:`~repro.runtime.faults.FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.engine import engine_names
from ..core.engine.registry import suggest_name
from ..graph.edge_list import canonical_pair
from ..runtime.faults import FaultPlan
from .contract import ANALYSES, CellOutcome, CellWorld, cell_world, contract_problems, run_cell
from .worlds import WorldConfig

__all__ = [
    "SweepCell",
    "SweepParityError",
    "SweepResult",
    "run_chaos_sweep",
    "run_sweep",
]

#: The parity oracle every other cell is measured against.
ORACLE_ENGINE = "legacy"


@dataclass
class SweepCell:
    """One row of the coverage map: config × analysis × engine (× fault plan)."""

    config: WorldConfig
    analysis: str
    engine: str
    outcome: CellOutcome = field(repr=False)
    #: :func:`~repro.sweep.contract.contract_problems` against the oracle
    problems: List[str] = field(default_factory=list)
    #: a degraded cell's survivor estimate against the oracle's exact count
    relative_error: Optional[float] = None

    @property
    def parity_ok(self) -> bool:
        return not self.problems

    def label(self) -> str:
        plan = self.outcome.plan
        return (
            f"{self.config.spec}:{self.config.config_id()}/{self.analysis}/{self.engine}"
            + (f"/{plan.name}" if plan is not None else "")
        )

    def as_row(self) -> Dict[str, Any]:
        """The JSON/tabular projection of this cell."""
        outcome, config, plan = self.outcome, self.config, self.outcome.plan
        estimate = outcome.estimate
        return {
            "config": config.config_id(),
            "spec": config.spec,
            "generator": config.generator,
            "params": config.param_dict(),
            "nranks": config.nranks,
            "engine": self.engine,
            "analysis": self.analysis,
            "plan": plan.name if plan is not None else None,
            "plan_kind": plan.name.rsplit("-", 1)[0] if plan is not None else None,
            "plan_spec": plan.describe() if plan is not None else None,
            "triangles": outcome.report["triangles"],
            "comm_bytes": outcome.report["communication_bytes"],
            "wire_messages": outcome.report["wire_messages"],
            "wedge_checks": outcome.report["wedge_checks"],
            "host_seconds": outcome.host_seconds,
            "restarts": outcome.restarts,
            "replayed_batches": outcome.replayed_batches,
            "fault_stats": dict(outcome.fault_stats),
            "degraded": outcome.degraded,
            "estimate": float(estimate.estimate) if estimate is not None else None,
            "estimate_stderr": float(estimate.stderr) if estimate is not None else None,
            "relative_error": self.relative_error,
            "parity_ok": self.parity_ok,
            "parity_detail": "; ".join(self.problems),
        }


class SweepParityError(AssertionError):
    """A sweep cell broke the engine equivalence contract."""

    def __init__(self, cells: Sequence[SweepCell]) -> None:
        self.cells = list(cells)
        lines = [f"{len(self.cells)} sweep cell(s) failed engine parity:"]
        lines += [f"  {cell.label()}: {'; '.join(cell.problems)}" for cell in self.cells]
        super().__init__("\n".join(lines))


@dataclass
class SweepResult:
    """Every cell one sweep (or chaos sweep) ran, oracles included."""

    configs: List[WorldConfig]
    analyses: Tuple[str, ...]
    cells: List[SweepCell]
    #: the sampled fault plans of a chaos sweep; empty for a plain sweep
    plans: List[FaultPlan] = field(default_factory=list)

    def rows(self) -> List[Dict[str, Any]]:
        return [cell.as_row() for cell in self.cells]

    def parity_failures(self) -> List[SweepCell]:
        return [cell for cell in self.cells if not cell.parity_ok]

    def raise_on_parity_failure(self) -> None:
        failures = self.parity_failures()
        if failures:
            raise SweepParityError(failures)


# ---------------------------------------------------------------------------
# The one loop
# ---------------------------------------------------------------------------

Job = Tuple[WorldConfig, str, str, Optional[FaultPlan]]


def _merged(world: CellWorld) -> CellWorld:
    """The stream's final graph as one edge list.

    The streaming graph keeps the *first* metadata per unordered pair
    (first write wins), so the recompute dedupes the same way before
    loading — ``from_edges`` alone would keep the last.  Self loops are
    dropped by both paths.
    """
    seen = set()
    merged = []
    for u, v, meta in world.edges:
        pair = canonical_pair(u, v)
        if u != v and pair not in seen:
            seen.add(pair)
            merged.append((pair[0], pair[1], meta))
    return replace(world, edges=merged, batches=())


def _relative_error(got: CellOutcome, oracle: CellOutcome) -> Optional[float]:
    """A survivor estimate's error against the exact count it stands for:
    the whole survey's, or the stream's up to the step that degraded."""
    if got.estimate is None:
        return None
    exact = oracle.report["triangles"]
    if got.stream:
        exact = sum(step["triangles"] for step in oracle.steps[: len(got.steps) + 1])
    return got.estimate.relative_error(exact)


def _run_jobs(
    configs: Sequence[WorldConfig],
    analyses: Tuple[str, ...],
    jobs: Iterable[Job],
    plans: Sequence[FaultPlan],
    progress: Optional[Callable[[str], None]],
) -> SweepResult:
    """Run ``jobs``, each after the fault-free oracle cell of its (config,
    analysis), which runs once and is a row of its own."""
    worlds: Dict[WorldConfig, CellWorld] = {}
    oracles: Dict[Tuple[WorldConfig, str], SweepCell] = {}
    cells: List[SweepCell] = []

    def run(config: WorldConfig, analysis: str, engine: str, plan=None) -> SweepCell:
        if progress is not None:
            suffix = f" under {plan.name}" if plan is not None else ""
            progress(f"{config.label()}/{analysis}/{engine}{suffix}")
        outcome = run_cell(worlds[config], analysis, engine, plan=plan)
        cells.append(SweepCell(config, analysis, engine, outcome))
        return cells[-1]

    for config, analysis, engine, plan in jobs:
        if config not in worlds:
            worlds[config] = cell_world(config)
        if analysis == "streaming" and not worlds[config].batches:
            continue  # nothing to stream (empty world)
        oracle = oracles.get((config, analysis))
        if oracle is None:
            oracle = oracles[config, analysis] = run(config, analysis, ORACLE_ENGINE)
            if analysis == "streaming":
                recompute = run_cell(_merged(worlds[config]), "triangle", ORACLE_ENGINE)
                oracle.problems = contract_problems(oracle.outcome, recompute)
        if engine == ORACLE_ENGINE and plan is None:
            continue  # the oracle cell itself
        cell = run(config, analysis, engine, plan)
        cell.problems = contract_problems(cell.outcome, oracle.outcome)
        cell.relative_error = _relative_error(cell.outcome, oracle.outcome)
    return SweepResult(
        configs=list(configs), analyses=analyses, cells=cells, plans=list(plans)
    )


def run_sweep(
    configs: Sequence[WorldConfig],
    analyses: Sequence[str] = ANALYSES,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Every registered engine × ``analyses`` on every config, fault-free.

    Broken cells stay in the result (and its artifact); call
    :meth:`SweepResult.raise_on_parity_failure` to turn them into an error.
    """
    unknown = [name for name in analyses if name not in ANALYSES]
    if unknown:
        raise ValueError(
            f"unknown analyses {unknown!r}; known: {ANALYSES}"
            f"{suggest_name(unknown[0], ANALYSES)}"
        )
    jobs = [
        (config, analysis, engine, None)
        for config in configs
        for analysis in analyses
        for engine in engine_names()
    ]
    return _run_jobs(configs, tuple(analyses), jobs, (), progress)


def run_chaos_sweep(
    configs: Sequence[WorldConfig],
    plans: Sequence[FaultPlan],
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """One cell per fault plan, cycling configs, analyses and engines.

    The cell axes are pure functions of the plan's index — no RNG beyond
    the plan sampling — so ``(configs, plans)`` freezes the whole run.
    """
    if not configs:
        raise ValueError("chaos sweep needs at least one sampled config")
    axis = engine_names()
    # The engine advances once per lap of the analyses, so every
    # (analysis, engine) pair is drawn within len(ANALYSES) * len(axis)
    # cells even when the two axis lengths share a factor.
    jobs = [
        (
            configs[index % len(configs)],
            ANALYSES[index % len(ANALYSES)],
            axis[(index // len(ANALYSES)) % len(axis)],
            plan,
        )
        for index, plan in enumerate(plans)
    ]
    return _run_jobs(configs, ANALYSES, jobs, plans, progress)
