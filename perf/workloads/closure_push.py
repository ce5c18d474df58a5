"""``closure_push`` — the paper's distinguishing feature: a metadata survey.

Push-Only closure-time histogram (Fig. 6) over per-edge ``(timestamp,
label)`` metadata.  ``TriangleBatch`` delivery and the reducer are most of
the op; the dry run and the pull phase do no work at all, which makes this
the bypass workload for every ``count_pushpull`` optimisation.  It also
loads the ingest path with one metadata value per edge where
``count_pushpull`` shares one value among all edges.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro import ClosureTimeSurvey, DistributedGraph, DODGraph, World, rmat
from repro.analysis.closure_times import run_closure_time_survey

from .. import reference
from ..clock import Clock
from ..inputs import temporal_metas
from ..record import Budget, Checks, Measured
from ..replay import (
    survey_layer_metrics,
    traced_build,
    traced_release,
    traced_rmat,
    traced_survey,
)
from ..spans import Tracer

SIZES = {
    "full": {"scale": 13, "nranks": 8},
    "quick": {"scale": 8, "nranks": 8},
}

EDGE_FACTOR = 8
#: one cold and three warm surveys per World (see count_pushpull)
OPS_PER_WORLD = 4
#: builds timed per round; all but the last are released unused
BUILDS_PER_ROUND = 2


@dataclass
class Inputs:
    seed: int
    scale: int
    us: Any
    vs: Any
    metas: List[Any]
    nranks: int
    triangles: int


def setup(seed: int, size: Dict[str, int]) -> Inputs:
    us, vs = rmat(size["scale"], edge_factor=EDGE_FACTOR, seed=seed).edge_columns()
    return Inputs(
        seed,
        size["scale"],
        us,
        vs,
        temporal_metas(seed, len(us)),
        size["nranks"],
        reference.triangle_count(us, vs),
    )


def _build(inputs: Inputs) -> Tuple[DistributedGraph, DODGraph]:
    graph = DistributedGraph.from_columns(
        World(inputs.nranks), inputs.us, inputs.vs, edge_metas=inputs.metas
    )
    return graph, DODGraph.build(graph, mode="bulk")


def _survey(graph: DistributedGraph, dodgr: DODGraph) -> Any:
    """The op: survey, reducer flush and histogram read-out."""
    return run_closure_time_survey(graph, dodgr=dodgr, algorithm="push")


def _check(checks: Checks, inputs: Inputs, report: Any, joint: Dict[Any, int]) -> None:
    checks.op(
        report.triangles == inputs.triangles
        and sum(joint.values()) == inputs.triangles,
        "histogram total == triangles == reference count",
    )
    checks.same("digest", reference.panel_digest(joint))
    checks.same("wire_bytes", report.communication_bytes)
    checks.same("sim_s", report.simulated_seconds)


def measure(inputs: Inputs, clock: Clock, budget: Budget, checks: Checks) -> Measured:
    out = Measured()
    for _ in budget.rounds():
        for i in range(BUILDS_PER_ROUND):
            if i:
                dodgr.release()
            (graph, dodgr), built = clock.timed(_build, inputs)
            out.builds.append(built)
        for i in range(OPS_PER_WORLD):
            result, sample = clock.timed(_survey, graph, dodgr)
            (out.colds if i == 0 else out.ops).append(sample)
            out.completed += 1
            _check(checks, inputs, result.report, result.joint)
        dodgr.release()
    out.exact = {
        "wire_bytes": result.report.communication_bytes,
        "sim_s": result.report.simulated_seconds,
        "triangles": result.report.triangles,
        "digest": reference.panel_digest(result.joint),
    }
    return out


def verify(inputs: Inputs, measured: Measured, checks: Checks) -> None:
    """Nothing is left to verify: every op was checked when it ran."""


def trace(
    inputs: Inputs,
    clock: Clock,
    checks: Checks,
    tracer: Tracer,
) -> Tuple[Dict[str, float], float]:
    out = traced_rmat(tracer, clock, inputs.scale, EDGE_FACTOR, inputs.seed)
    _, dodgr, built = traced_build(
        tracer,
        clock,
        inputs.nranks,
        lambda world: DistributedGraph.from_columns(
            world, inputs.us, inputs.vs, edge_metas=inputs.metas
        ),
    )
    out.update(built)
    world = dodgr.world

    handlers = len(world.registry)
    # The same phase with no callback, on the same DODGr: what delivery
    # costs before any reducer runs.
    root, report, _ = traced_survey(tracer, clock, dodgr, None, "push")
    checks.op(report.triangles == inputs.triangles, "triangles == reference count")
    count_only = survey_layer_metrics(tracer, [(root, report)])
    surveys = []
    for _ in range(OPS_PER_WORLD - 1):
        reducer = ClosureTimeSurvey(world)

        def finalize() -> Dict[Any, int]:
            reducer.finalize()
            return reducer.result()

        root, report, joint = traced_survey(
            tracer, clock, dodgr, reducer.callback, "push", finalize
        )
        surveys.append((root, report))
        _check(checks, inputs, report, joint)
    out["world.handlers_per_survey"] = (len(world.registry) - handlers) / OPS_PER_WORLD
    out.update(survey_layer_metrics(tracer, surveys))
    traced_op_s = statistics.median(tracer.calibrated(root) for root, _ in surveys)
    out["intersection.compute_units"] = count_only["engine.push.compute_units"]
    out["intersection.units_per_s"] = (
        count_only["engine.push.compute_units"] / count_only["engine.push.deliver_s"]
    )
    out["callbacks.delivery_s"] = (
        out["engine.push.deliver_s"] - count_only["engine.push.deliver_s"]
    )
    out["callbacks.us_per_triangle"] = out["callbacks.delivery_s"] / report.triangles * 1e6
    out["callbacks.finalize_s"] = statistics.median(
        tracer.calibrated(root, "callbacks.finalize") for root, _ in surveys
    )
    out["callbacks.triangles"] = report.triangles
    out["callbacks.histogram_cells"] = len(joint)
    out.update(traced_release(tracer, clock, dodgr))
    return out, traced_op_s
