"""``stream_delta`` — the write path: small edge batches into a live graph.

A base load, then 50 batches of 1 % of the edges each through
``StreamingSurvey`` with a four-batch sliding window.  Every batch pays a
``DeltaBuffer`` merge, a full DODGr rebuild and an incremental (delta)
survey — none of which the two survey workloads touch — so a build-layer
change that helps bulk loads but hurts small rebuilds shows here.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Tuple

from repro import (
    ClosureTimeSurvey,
    DeltaBuffer,
    DistributedGraph,
    StreamingSurvey,
    World,
    incremental_triangle_survey,
    rmat,
)
from repro.bench.streaming import full_recompute_survey, make_streaming_schedule

from .. import reference
from ..clock import Clock
from ..inputs import temporal_metas
from ..record import Budget, Checks, Measured
from ..replay import ENGINE, traced_rmat
from ..spans import Tracer

SIZES = {
    "full": {"scale": 12, "nranks": 8, "num_batches": 50, "delta_fraction": 0.01, "cold_starts": 4},
    "quick": {"scale": 8, "nranks": 8, "num_batches": 3, "delta_fraction": 0.05, "cold_starts": 1},
}

EDGE_FACTOR = 8
WINDOW_BATCHES = 4


@dataclass
class Inputs:
    seed: int
    scale: int
    nranks: int
    #: Streams cold-started per round; only the last goes on to the deltas.
    #: One base load per round left ``build_s`` with two samples a run, three
    #: with six and a spread of 11 %.
    cold_starts: int
    base: List[Tuple[int, int, Any]]
    batches: List[List[Tuple[int, int, Any]]]
    triangles: int


def setup(seed: int, size: Dict[str, Any]) -> Inputs:
    us, vs = rmat(size["scale"], edge_factor=EDGE_FACTOR, seed=seed).edge_columns()
    edges = list(zip(us.tolist(), vs.tolist(), temporal_metas(seed, len(us))))
    schedule = make_streaming_schedule(
        edges,
        num_batches=size["num_batches"],
        delta_fraction=size["delta_fraction"],
        seed=seed,
    )
    return Inputs(
        seed,
        size["scale"],
        size["nranks"],
        size["cold_starts"],
        schedule.base,
        schedule.batches,
        reference.triangle_count(us, vs),
    )


def _check_step(checks: Checks, report: Any, panel: Dict[Any, int]) -> None:
    checks.op(
        sum(panel.values()) == report.triangles,
        "delta panel total == delta triangles reported",
    )


def _check_round(checks: Checks, reports: List[Any], cumulative: Dict[Any, int]) -> None:
    checks.same("digest", reference.panel_digest(cumulative))
    checks.same("wire_bytes", sum(r.communication_bytes for r in reports))
    checks.same("sim_s", sum(r.simulated_seconds for r in reports))


def measure(inputs: Inputs, clock: Clock, budget: Budget, checks: Checks) -> Measured:
    out = Measured()
    for _ in budget.rounds():
        for _ in range(inputs.cold_starts):
            stream = StreamingSurvey(
                World(inputs.nranks),
                ClosureTimeSurvey,
                window_batches=WINDOW_BATCHES,
                engine=ENGINE,
            )
            # The stream's cold start is this workload's build.
            step, loaded = clock.timed(stream.ingest, inputs.base)
            out.builds.append(loaded)
        reports = []
        for batch in inputs.batches:
            step, sample = clock.timed(stream.ingest, batch)
            out.ops.append(sample)
            out.completed += 1
            reports.append(step.report)
            _check_step(checks, step.report, step.snapshot)
        _check_round(checks, reports, step.cumulative)
    out.exact = {
        "wire_bytes": sum(r.communication_bytes for r in reports),
        "sim_s": sum(r.simulated_seconds for r in reports),
        "triangles": sum(step.cumulative.values()),
        "digest": reference.panel_digest(step.cumulative),
    }
    out.state = (stream.graph, step.cumulative)
    return out


def verify(inputs: Inputs, measured: Measured, checks: Checks) -> None:
    """The last round's cumulative panel against a from-scratch survey."""
    graph, cumulative = measured.state
    checks.require(
        sum(cumulative.values()) == inputs.triangles,
        "cumulative panel total == reference count of the whole graph",
    )
    checks.require(
        full_recompute_survey(graph, ClosureTimeSurvey, engine=ENGINE).result == cumulative,
        "cumulative panel == full_recompute_survey over the whole graph",
    )


def trace(
    inputs: Inputs,
    clock: Clock,
    checks: Checks,
    tracer: Tracer,
) -> Tuple[Dict[str, float], float]:
    """``StreamingSurvey.ingest`` replayed from the public pieces it is made of."""
    out = traced_rmat(tracer, clock, inputs.scale, EDGE_FACTOR, inputs.seed)
    merge = ClosureTimeSurvey.merge
    deltas: List[Any] = []
    world = World(inputs.nranks)
    graph = DistributedGraph(world, name="streaming")
    buffer = DeltaBuffer(world)
    panels: Deque[Dict[Any, int]] = deque()
    cumulative: Dict[Any, int] = {}
    dodgr = None
    reports = []
    new_edges = 0
    for index, batch in enumerate([inputs.base, *inputs.batches]):
        with clock.op(tracer, "ingest" if index else "base_load") as root:
            with tracer.span("delta.stage"):
                buffer.stage_edges(batch)
            with tracer.span("delta.apply"):
                applied = buffer.apply(graph)
            if dodgr is not None:
                with tracer.span("dodgr.release"):
                    dodgr.release()
            dodgr = applied.dodgr
            reducer = ClosureTimeSurvey(world)
            with tracer.span("incremental.survey"):
                report = incremental_triangle_survey(
                    dodgr,
                    applied,
                    reducer.callback,
                    engine=ENGINE,
                    graph_name=f"{graph.name}@{applied.batch_index}",
                )
            with tracer.span("incremental.panel"):
                reducer.finalize()
                panel = reducer.snapshot()
                panels.append(panel)
                if len(panels) > WINDOW_BATCHES:
                    panels.popleft()
                cumulative = merge([cumulative, panel]) if cumulative else panel
                merge(list(panels))
        _check_step(checks, report, panel)
        if index:
            deltas.append(root)
            reports.append(report)
            new_edges += applied.num_edges()
    _check_round(checks, reports, cumulative)
    dodgr.release()
    out["delta.new_edges"] = new_edges

    def med(name: str) -> float:
        return statistics.median(tracer.calibrated(root, name) for root in deltas)

    out["delta.stage_s"] = med("delta.stage")
    out["delta.apply_s"] = med("delta.apply")
    out["dodgr.release_s"] = med("dodgr.release")
    out["incremental.survey_s"] = med("incremental.survey")
    out["incremental.panel_s"] = med("incremental.panel")
    out["incremental.delta_triangles"] = sum(r.triangles for r in reports)
    out["incremental.wire_bytes"] = sum(r.communication_bytes for r in reports)
    out["incremental.useful_ratio"] = out["incremental.delta_triangles"] / sum(
        r.wedge_checks for r in reports
    )
    traced_op_s = statistics.median(tracer.calibrated(root) for root in deltas)
    return out, traced_op_s
