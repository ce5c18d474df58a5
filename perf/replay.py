"""The traced survey: ``execute_survey`` replayed from its public pieces.

``repro.core.engine.program.run_simulated_phases`` is a loop of
``begin_phase`` → ``drive(ctx)`` per rank → ``barrier()``; the traced run
performs that loop itself so it can put a span around each step without
adding code to ``src/``.  Both survey workloads share this module.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import DODGraph, World, rmat
from repro.core.engine import SurveyRequest, resolve_engine
from repro.core.engine.push import build_push_program
from repro.core.engine.push_pull import build_push_pull_program
from repro.core.results import SurveyReport

from .clock import Clock
from .spans import Span, Tracer

__all__ = [
    "PHASES",
    "ENGINE",
    "traced_rmat",
    "traced_build",
    "traced_release",
    "traced_survey",
    "survey_layer_metrics",
]

PHASES = ("dry_run", "push", "pull")

#: The production path every workload runs on.
ENGINE = "columnar"

Survey = Tuple[Span, SurveyReport]


def traced_rmat(
    tracer: Tracer, clock: Clock, scale: int, edge_factor: int, seed: int
) -> Dict[str, float]:
    """``generators.*``: the workload's own ``rmat`` call, once more under a span."""
    with clock.op(tracer, "generate") as root:
        with tracer.span("generators.rmat"):
            generated = rmat(scale, edge_factor=edge_factor, seed=seed)
    return {
        "generators.rmat_s": tracer.calibrated(root, "generators.rmat"),
        "generators.edges": generated.num_edges(),
    }


def traced_build(
    tracer: Tracer, clock: Clock, nranks: int, load: Callable[[World], Any]
) -> Tuple[Any, DODGraph, Dict[str, float]]:
    """Edges → surveyable DODGr on a fresh World: (graph, dodgr, metrics)."""
    world = World(nranks)
    with clock.op(tracer, "build") as root:
        with tracer.span("distributed_graph.load"):
            graph = load(world)
        with tracer.span("dodgr.build"):
            dodgr = DODGraph.build(graph, mode="bulk")
        # Built explicitly, so that every traced survey is a warm one and
        # the lazy CSR cost (part of ``cold_op_s``) has a span of its own.
        with tracer.span("dodgr.csr"):
            for rank in range(nranks):
                dodgr.csr(rank)
    return graph, dodgr, {
        "distributed_graph.load_s": tracer.calibrated(root, "distributed_graph.load"),
        "distributed_graph.half_edges": 2 * graph.num_undirected_edges(),
        "dodgr.build_s": tracer.calibrated(root, "dodgr.build"),
        "dodgr.csr_s": tracer.calibrated(root, "dodgr.csr"),
        "dodgr.directed_edges": dodgr.num_directed_edges(),
        "dodgr.wedges": dodgr.wedge_count(),
        "dodgr.max_out_degree": dodgr.max_out_degree(),
    }


def traced_release(tracer: Tracer, clock: Clock, dodgr: DODGraph) -> Dict[str, float]:
    with clock.op(tracer, "release") as root:
        with tracer.span("dodgr.release"):
            dodgr.release()
    return {"dodgr.release_s": tracer.calibrated(root, "dodgr.release")}


def traced_survey(
    tracer: Tracer,
    clock: Clock,
    dodgr: Any,
    callback: Optional[Callable[..., None]],
    algorithm: str,
    finalize: Optional[Callable[[], Any]] = None,
) -> Tuple[Span, SurveyReport, Any]:
    """One survey op under spans; returns (root span, report, finalize())."""
    world = dodgr.world
    build = build_push_pull_program if algorithm == "push_pull" else build_push_program
    with clock.op(tracer, "survey", algorithm=algorithm) as root:
        with tracer.span("engine.program"):
            world.reset_stats()
            program = build(
                SurveyRequest(dodgr=dodgr, callback=callback, algorithm=algorithm),
                resolve_engine(ENGINE),
            )
        for name, drive in program.phases:
            world.begin_phase(name)
            for ctx in world.ranks:
                with tracer.span(f"engine.{name}.drive", rank=ctx.rank):
                    drive(ctx)
            with tracer.span(f"engine.{name}.deliver") as deliver:
                world.barrier()
            stats = world.stats.phase_total(name)
            deliver.counts.update(
                rpcs=stats.rpcs_executed,
                wire_messages=stats.wire_messages,
                wire_bytes=stats.wire_bytes,
                compute_units=stats.compute_units,
            )
        with tracer.span("engine.report"):
            names = program.phase_names
            report = SurveyReport.from_world_stats(
                algorithm=algorithm,
                graph_name=dodgr.name,
                world_stats=world.stats,
                simulated=world.simulated_time(phases=names),
                phases=names,
            )
        result = None
        if finalize is not None:
            with tracer.span("callbacks.finalize"):
                result = finalize()
    return root, report, result


def survey_layer_metrics(tracer: Tracer, surveys: List[Survey]) -> Dict[str, float]:
    """``engine.*``, ``world.*`` and ``network_model.*`` of traced surveys.

    Times are medians over the surveys of calibrated span seconds; counts
    come from the last report (the workload checks they never differ).
    """

    def med(name: Optional[str]) -> float:
        return statistics.median(tracer.calibrated(root, name) for root, _ in surveys)

    report = surveys[-1][1]
    out: Dict[str, float] = {
        "engine.program_s": med("engine.program"),
        "engine.report_s": med("engine.report"),
        "engine.triangles": report.triangles,
        "engine.wedge_checks": report.wedge_checks,
        "engine.useful_ratio": report.triangles / report.wedge_checks,
        "engine.vertices_pulled": report.vertices_pulled,
    }
    deliver_s = 0.0
    rpcs = 0
    for phase in PHASES:
        drive, deliver = f"engine.{phase}.drive", f"engine.{phase}.deliver"
        out[f"engine.{phase}.drive_s"] = med(drive)
        out[f"engine.{phase}.drive_max_rank_s"] = statistics.median(
            max((s.seconds for s in tracer.within(root, drive)), default=0.0)
            / root.counts["factor"]
            for root, _ in surveys
        )
        out[f"engine.{phase}.deliver_s"] = med(deliver)
        stats = report.phase_stats.get(phase)
        out[f"engine.{phase}.rpcs"] = stats.rpcs_executed if stats else 0
        out[f"engine.{phase}.wire_messages"] = stats.wire_messages if stats else 0
        out[f"engine.{phase}.wire_bytes"] = stats.wire_bytes if stats else 0
        out[f"engine.{phase}.compute_units"] = stats.compute_units if stats else 0
        out[f"network_model.sim_s.{phase}"] = report.phase_seconds(phase) if stats else 0.0
        deliver_s += out[f"engine.{phase}.deliver_s"]
        rpcs += out[f"engine.{phase}.rpcs"]
    host_s = med(None)
    out["world.deliver_s"] = deliver_s
    out["world.rpcs_executed"] = rpcs
    out["world.deliver_us_per_rpc"] = deliver_s / rpcs * 1e6
    out["network_model.host_over_sim"] = host_s / report.simulated_seconds
    return out
