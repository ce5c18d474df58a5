"""Sweep execution: every engine × every analysis on every sampled config.

For each :class:`~repro.sweep.worlds.WorldConfig` the runner materializes
one decorated edge set (timestamps + labels, see
:func:`~repro.sweep.worlds.decorated_edges`) and executes every registered
engine on a chosen analysis set, each run on a *fresh*
:class:`~repro.runtime.World` so communication counters are isolated:

* ``triangle`` — the Push-Only survey through
  :func:`~repro.core.engine.execute_survey` with a
  :class:`~repro.core.callbacks.LocalTriangleCounter` panel;
* ``closure`` — the same request with a
  :class:`~repro.core.callbacks.ClosureTimeSurvey` over the burstiness-
  shaped edge timestamps;
* ``labels`` — :class:`~repro.core.callbacks.MaxEdgeLabelDistribution`
  over the planted ``metadata_cardinality``-sized label alphabet;
* ``streaming`` — the config's :class:`~repro.graph.delta.DeltaBuffer`
  batch schedule replayed through
  :class:`~repro.core.incremental.StreamingSurvey` on every engine,
  cross-checked against a full legacy recompute.

Every non-legacy cell is compared against the legacy cell of the same
(config, analysis): reducer panel, triangle count, wire bytes, wire
messages and wedge checks must all match (the engine equivalence contract,
now enforced across the sampled parameter space instead of one rmat-weak
point).  Host time is recorded per cell; :meth:`SweepResult.regressions`
lists the *coverage map*'s problem regions — cells where a fast engine is
slower than legacy, or parity failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.callbacks import (
    ClosureTimeSurvey,
    LocalTriangleCounter,
    MaxEdgeLabelDistribution,
)
from ..core.engine import (
    SurveyRequest,
    engine_names,
    execute_survey,
)
from ..core.engine.registry import suggest_name
from ..core.incremental import StreamingSurvey
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..graph.edge_list import canonical_pair
from ..runtime.world import World
from .worlds import WorldConfig, decorated_edges, streaming_batches

__all__ = [
    "ANALYSES",
    "DEFAULT_ANALYSES",
    "SweepCell",
    "SweepResult",
    "SweepParityError",
    "run_sweep",
    "sweep_engine_axis",
    "ORACLE_ENGINE",
]

#: Every analysis the runner knows how to execute.
ANALYSES: Tuple[str, ...] = ("triangle", "closure", "labels", "streaming")

#: What a default sweep runs (the ISSUE's "chosen analysis set" plus the
#: label survey that makes the metadata-cardinality axis observable).
DEFAULT_ANALYSES: Tuple[str, ...] = ANALYSES

#: The parity oracle every other engine is measured against.
ORACLE_ENGINE = "legacy"

#: Panel/telemetry fields that must match the oracle bit-for-bit.
_PARITY_FIELDS = ("triangles", "comm_bytes", "wire_messages", "wedge_checks")


def sweep_engine_axis() -> Tuple[str, ...]:
    """The engine axis a default sweep runs: the live registry, in order.

    ``tools/check_engines.py`` asserts this equals
    :func:`repro.core.engine.engine_names` so the sweep can never silently
    drop a registered engine from its coverage map.
    """
    return engine_names()


def _edge_label(meta: Any) -> Any:
    """Label component of :func:`~repro.graph.metadata.temporal_edge_meta`."""
    return meta[1] if isinstance(meta, tuple) else meta


@dataclass
class SweepCell:
    """One row of the coverage map: config × engine × analysis."""

    config_id: str
    spec: str
    generator: str
    params: Dict[str, Any]
    nranks: int
    engine: str
    analysis: str
    triangles: int = 0
    comm_bytes: int = 0
    wire_messages: int = 0
    wedge_checks: int = 0
    host_seconds: float = 0.0
    #: host time relative to the legacy cell of the same (config, analysis);
    #: None for the oracle itself.
    slowdown_vs_legacy: Optional[float] = None
    parity_ok: bool = True
    parity_detail: str = ""
    #: reducer panel (kept off the tabular row; used for parity checks)
    panel: Any = field(default=None, repr=False, compare=False)

    def key(self) -> Tuple[str, str, str]:
        return (self.config_id, self.analysis, self.engine)

    def label(self) -> str:
        return f"{self.spec}:{self.config_id}/{self.analysis}/{self.engine}"

    def as_row(self) -> Dict[str, Any]:
        """The JSON/tabular projection of this cell."""
        return {
            "config": self.config_id,
            "spec": self.spec,
            "generator": self.generator,
            "params": dict(self.params),
            "nranks": self.nranks,
            "engine": self.engine,
            "analysis": self.analysis,
            "triangles": self.triangles,
            "comm_bytes": self.comm_bytes,
            "wire_messages": self.wire_messages,
            "wedge_checks": self.wedge_checks,
            "host_seconds": self.host_seconds,
            "slowdown_vs_legacy": self.slowdown_vs_legacy,
            "parity_ok": self.parity_ok,
            "parity_detail": self.parity_detail,
        }


class SweepParityError(AssertionError):
    """A sweep cell broke the engine equivalence contract."""

    def __init__(self, cells: Sequence[SweepCell]) -> None:
        self.cells = list(cells)
        lines = [f"{len(self.cells)} sweep cell(s) failed engine parity:"]
        lines += [f"  {cell.label()}: {cell.parity_detail}" for cell in self.cells]
        super().__init__("\n".join(lines))


@dataclass
class SweepResult:
    """Everything one sweep run produced, regression flags included."""

    configs: List[WorldConfig]
    cells: List[SweepCell]
    engines: Tuple[str, ...]
    analyses: Tuple[str, ...]
    slow_tolerance: float = 0.1

    def rows(self) -> List[Dict[str, Any]]:
        return [cell.as_row() for cell in self.cells]

    def parity_failures(self) -> List[SweepCell]:
        return [cell for cell in self.cells if not cell.parity_ok]

    def slow_cells(self) -> List[SweepCell]:
        """Cells where a fast engine lost to legacy (beyond the tolerance)."""
        return [
            cell
            for cell in self.cells
            if cell.engine != ORACLE_ENGINE
            and cell.parity_ok
            and cell.slowdown_vs_legacy is not None
            and cell.slowdown_vs_legacy > 1.0 + self.slow_tolerance
        ]

    def regressions(self) -> Dict[str, List[Dict[str, Any]]]:
        """The "slow/fail regions" of the coverage map."""

        def describe(cell: SweepCell) -> Dict[str, Any]:
            return {
                "cell": cell.label(),
                "engine": cell.engine,
                "analysis": cell.analysis,
                "config": cell.config_id,
                "slowdown_vs_legacy": cell.slowdown_vs_legacy,
                "parity_detail": cell.parity_detail,
            }

        return {
            "slow": [describe(cell) for cell in self.slow_cells()],
            "parity": [describe(cell) for cell in self.parity_failures()],
        }

    def raise_on_parity_failure(self) -> None:
        failures = self.parity_failures()
        if failures:
            raise SweepParityError(failures)


# ---------------------------------------------------------------------------
# Per-cell execution
# ---------------------------------------------------------------------------

#: analysis name -> reducer factory(world) for the full-survey analyses.
_FULL_SURVEY_REDUCERS: Dict[str, Callable[[World], Any]] = {
    "triangle": LocalTriangleCounter,
    "closure": ClosureTimeSurvey,
    "labels": lambda world: MaxEdgeLabelDistribution(world, edge_label=_edge_label),
}


def _build_dodgr(
    config: WorldConfig,
    edges: Sequence[Tuple[Hashable, Hashable, Any]],
    vertex_meta: Dict[Hashable, Any],
) -> Tuple[World, DODGraph]:
    world = World(config.nranks)
    graph = DistributedGraph.from_edges(
        world, edges, vertex_meta=vertex_meta, name=config.label()
    )
    return world, DODGraph.build(graph, mode="bulk")


def _run_full_survey_cell(
    config: WorldConfig,
    analysis: str,
    engine: str,
    edges: Sequence[Tuple[Hashable, Hashable, Any]],
    vertex_meta: Dict[Hashable, Any],
) -> SweepCell:
    host_start = time.perf_counter()
    world, dodgr = _build_dodgr(config, edges, vertex_meta)
    reducer = _FULL_SURVEY_REDUCERS[analysis](world)
    request = SurveyRequest(
        dodgr=dodgr,
        callback=reducer.callback,
        algorithm="push",
        graph_name=config.label(),
    )
    report = execute_survey(request, engine=engine).report
    if hasattr(reducer, "finalize"):
        reducer.finalize()
    panel = reducer.snapshot()
    return SweepCell(
        config_id=config.config_id(),
        spec=config.spec,
        generator=config.generator,
        params=config.param_dict(),
        nranks=config.nranks,
        engine=engine,
        analysis=analysis,
        triangles=report.triangles,
        comm_bytes=report.communication_bytes,
        wire_messages=report.wire_messages,
        wedge_checks=report.wedge_checks,
        host_seconds=time.perf_counter() - host_start,
        panel=panel,
    )


def _run_streaming_cell(
    config: WorldConfig,
    engine: str,
    batches: Sequence[Sequence[Tuple[Hashable, Hashable, Any]]],
    vertex_meta: Dict[Hashable, Any],
) -> SweepCell:
    world = World(config.nranks)
    survey = StreamingSurvey(
        world,
        reducer_factory=LocalTriangleCounter,
        engine=engine,
        graph_name=config.label(),
    )
    cell = SweepCell(
        config_id=config.config_id(),
        spec=config.spec,
        generator=config.generator,
        params=config.param_dict(),
        nranks=config.nranks,
        engine=engine,
        analysis="streaming",
    )
    step = None
    for batch_index, batch in enumerate(batches):
        step = survey.ingest(batch, vertex_meta=vertex_meta if batch_index == 0 else None)
        cell.triangles += step.report.triangles
        cell.comm_bytes += step.report.communication_bytes
        cell.wire_messages += step.report.wire_messages
        cell.wedge_checks += step.report.wedge_checks
        cell.host_seconds += step.host_seconds
    cell.panel = step.cumulative if step is not None else None
    return cell


def _recompute_panel(
    config: WorldConfig,
    edges: Sequence[Tuple[Hashable, Hashable, Any]],
    vertex_meta: Dict[Hashable, Any],
) -> Any:
    """A full legacy survey over the stream's merged edge set.

    The streaming graph keeps the *first* metadata per unordered pair
    (first write wins), so the recompute oracle dedupes the same way before
    loading — ``from_edges`` alone would keep the last.  Self loops are
    dropped by both paths.
    """
    seen = set()
    merged: List[Tuple[Hashable, Hashable, Any]] = []
    for u, v, meta in edges:
        if u == v:
            continue
        pair = canonical_pair(u, v)
        if pair in seen:
            continue
        seen.add(pair)
        merged.append((pair[0], pair[1], meta))
    world, dodgr = _build_dodgr(config, merged, vertex_meta)
    reducer = LocalTriangleCounter(world)
    request = SurveyRequest(
        dodgr=dodgr, callback=reducer.callback, algorithm="push"
    )
    execute_survey(request, engine=ORACLE_ENGINE)
    reducer.finalize()
    return reducer.snapshot()


def _apply_parity(oracle: SweepCell, cell: SweepCell) -> None:
    """Compare ``cell`` against its legacy oracle and record the verdict."""
    problems: List[str] = []
    for field_name in _PARITY_FIELDS:
        mine, theirs = getattr(cell, field_name), getattr(oracle, field_name)
        if mine != theirs:
            problems.append(f"{field_name} {mine} != legacy {theirs}")
    if cell.panel != oracle.panel:
        problems.append("reducer panel differs from legacy")
    if problems:
        cell.parity_ok = False
        cell.parity_detail = "; ".join(problems)
    if oracle.host_seconds > 0:
        cell.slowdown_vs_legacy = cell.host_seconds / oracle.host_seconds


# ---------------------------------------------------------------------------
# The sweep loop
# ---------------------------------------------------------------------------


def run_sweep(
    configs: Sequence[WorldConfig],
    analyses: Sequence[str] = DEFAULT_ANALYSES,
    engines: Optional[Sequence[str]] = None,
    strict_parity: bool = True,
    slow_tolerance: float = 0.1,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Execute every engine × ``analyses`` on every config.

    ``engines`` defaults to the full registry (:func:`sweep_engine_axis`);
    the legacy oracle is always executed even when filtered out, because
    parity and slowdown are defined against it.  ``strict_parity=True``
    (the default, and what CI runs) raises :class:`SweepParityError` after
    the sweep when any cell broke the equivalence contract; the failing
    cells stay inspectable on the exception and in the result rows either
    way.  ``slow_tolerance`` is the host-time slack before a non-legacy
    cell is flagged as a slow region (tiny graphs are noisy; the flag is a
    coverage-map signal, not a CI failure).
    """
    unknown = [name for name in analyses if name not in ANALYSES]
    if unknown:
        raise ValueError(
            f"unknown analyses {unknown!r}; known: {ANALYSES}"
            f"{suggest_name(unknown[0], ANALYSES)}"
        )
    axis = tuple(engines) if engines is not None else sweep_engine_axis()
    known = engine_names()
    missing = [name for name in axis if name not in known]
    if missing:
        raise ValueError(
            f"unknown engines {missing!r}; known: {known}"
            f"{suggest_name(missing[0], known)}"
        )
    run_axis = axis if ORACLE_ENGINE in axis else (ORACLE_ENGINE,) + axis

    cells: List[SweepCell] = []
    for config in configs:
        if progress is not None:
            progress(f"config {config.label()} ({config.generator})")
        edges, vertex_meta = decorated_edges(config)
        for analysis in analyses:
            if analysis == "streaming":
                batches = streaming_batches(config, edges)
                if not batches:
                    continue  # nothing to stream (empty world)
                runs = [
                    (engine, _run_streaming_cell(config, engine, batches, vertex_meta))
                    for engine in run_axis
                ]
                # Replay-parity cross-check: the legacy stream's cumulative
                # panel must equal a full recompute over the merged graph.
                oracle_cell = next(c for e, c in runs if e == ORACLE_ENGINE)
                if oracle_cell.panel != _recompute_panel(config, edges, vertex_meta):
                    oracle_cell.parity_ok = False
                    oracle_cell.parity_detail = (
                        "cumulative streaming panel != full recompute panel"
                    )
            else:
                runs = [
                    (
                        engine,
                        _run_full_survey_cell(
                            config, analysis, engine, edges, vertex_meta
                        ),
                    )
                    for engine in run_axis
                ]
            oracle = next(cell for engine, cell in runs if engine == ORACLE_ENGINE)
            for engine, cell in runs:
                if engine != ORACLE_ENGINE:
                    _apply_parity(oracle, cell)
                if engine in axis:
                    cells.append(cell)

    result = SweepResult(
        configs=list(configs),
        cells=cells,
        engines=axis,
        analyses=tuple(analyses),
        slow_tolerance=slow_tolerance,
    )
    if strict_parity:
        result.raise_on_parity_failure()
    return result
