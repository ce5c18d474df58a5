"""``count_pushpull`` — the paper's headline task: Push-Pull triangle count.

``callback=None``, so the dry run, the pull phase and the row kernels do
nearly all the work and the callback layer none: the workload on which a
vectorized dry run (ROADMAP item 2) must show, and the bypass workload
for any callback/reducer optimisation.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Dict, Iterator, Tuple

from repro import DODGraph, World, rmat
from repro.core.engine import SurveyRequest, execute_survey
from repro.graph.ooc import StorageConfig, active_segment_paths
from repro.runtime.backend.shm import active_segment_names, shared_memory_available

from .. import reference
from ..clock import Clock
from ..record import Budget, Checks, Measured
from ..replay import (
    ENGINE,
    survey_layer_metrics,
    traced_build,
    traced_release,
    traced_rmat,
    traced_survey,
)
from ..spans import Tracer

SIZES = {
    "full": {"scale": 14, "nranks": 8},
    "quick": {"scale": 8, "nranks": 8},
}

EDGE_FACTOR = 8
#: Surveys per World: one cold, three warm.  No more, because every survey
#: registers five handlers and handler ids >= 64 serialize one byte wider
#: (the 13th survey on one World reports more wire bytes than the first).
OPS_PER_WORLD = 4
#: Builds timed per round; all but the last are released unused.  One build
#: per round left ``build_s`` with six samples a run.
BUILDS_PER_ROUND = 2


@dataclass
class Inputs:
    seed: int
    scale: int
    generated: Any
    nranks: int
    triangles: int


def setup(seed: int, size: Dict[str, int]) -> Inputs:
    generated = rmat(size["scale"], edge_factor=EDGE_FACTOR, seed=seed)
    us, vs = generated.edge_columns()
    return Inputs(
        seed, size["scale"], generated, size["nranks"], reference.triangle_count(us, vs)
    )


def _build(inputs: Inputs) -> DODGraph:
    graph = inputs.generated.to_distributed(World(inputs.nranks))
    return DODGraph.build(graph, mode="bulk")


def _count(dodgr: DODGraph, algorithm: str = "push_pull", **axes: Any) -> Any:
    request = SurveyRequest(dodgr=dodgr, callback=None, algorithm=algorithm, **axes)
    return execute_survey(request, engine=ENGINE).report


def _check(checks: Checks, inputs: Inputs, report: Any, key: str = "push_pull") -> None:
    checks.op(report.triangles == inputs.triangles, "triangles == reference count")
    checks.same(f"{key}.wedge_checks", report.wedge_checks)
    checks.same(f"{key}.wire_bytes", report.communication_bytes)
    checks.same(f"{key}.sim_s", report.simulated_seconds)


def measure(inputs: Inputs, clock: Clock, budget: Budget, checks: Checks) -> Measured:
    out = Measured()
    for _ in budget.rounds():
        for i in range(BUILDS_PER_ROUND):
            if i:
                dodgr.release()
            dodgr, built = clock.timed(_build, inputs)
            out.builds.append(built)
        for i in range(OPS_PER_WORLD):
            report, sample = clock.timed(_count, dodgr)
            (out.colds if i == 0 else out.ops).append(sample)
            out.completed += 1
            _check(checks, inputs, report)
        dodgr.release()
    out.exact = {
        "wire_bytes": report.communication_bytes,
        "sim_s": report.simulated_seconds,
        "triangles": report.triangles,
        "wedge_checks": report.wedge_checks,
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
        tracer, clock, inputs.nranks, inputs.generated.to_distributed
    )
    out.update(built)

    handlers = len(dodgr.world.registry)
    surveys = []
    for _ in range(OPS_PER_WORLD - 1):
        root, report, _ = traced_survey(tracer, clock, dodgr, None, "push_pull")
        surveys.append((root, report))
        _check(checks, inputs, report)
    out["world.handlers_per_survey"] = (len(dodgr.world.registry) - handlers) / len(surveys)
    out.update(survey_layer_metrics(tracer, surveys))
    traced_op_s = statistics.median(tracer.calibrated(root) for root, _ in surveys)
    units = out["engine.push.compute_units"] + out["engine.pull.compute_units"]
    out["intersection.compute_units"] = units
    out["intersection.units_per_s"] = units / (
        out["engine.push.deliver_s"] + out["engine.pull.deliver_s"]
    )

    # One Push-Only count on the same graph: the ROADMAP item 2 ratio.
    report, push_only = clock.timed(_count, dodgr, "push")
    _check(checks, inputs, report, key="push")
    out["engine.push_only.survey_s"] = push_only.seconds
    out["engine.pushpull_over_push"] = traced_op_s / push_only.seconds

    out.update(traced_release(tracer, clock, dodgr))
    out.update(_other_axes(inputs, clock, checks))
    return out, traced_op_s


@contextlib.contextmanager
def _owned_resource_tracker() -> Iterator[None]:
    """Start the stdlib resource tracker here, stop it and wait for it after.

    ``multiprocessing.shared_memory`` starts a tracker process in whichever
    process first touches a segment and never waits for it.  Left alone,
    each forked worker of ``backend="process"`` starts its own, and all of
    them outlive this run as orphans.  Started before the fork, the workers
    inherit this one, and this process can end it and reap it.
    """
    resource_tracker.ensure_running()
    try:
        yield
    finally:
        resource_tracker._resource_tracker._stop()  # closes the pipe, waitpid()s


def _other_axes(inputs: Inputs, clock: Clock, checks: Checks) -> Dict[str, float]:
    """One op each on ``backend="process"`` and ``storage="mmap"``.

    Informational: no end-to-end metric runs on either axis yet.  Each gets
    a fresh World and a simulated/resident op on that same World to compare
    against.
    """
    out: Dict[str, float] = {}

    dodgr = _build(inputs)
    _, simulated = clock.timed(_count, dodgr)
    if shared_memory_available():
        workers = min(2, os.cpu_count() or 1)
        with _owned_resource_tracker():
            report, sample = clock.timed(_count, dodgr, backend="process", workers=workers)
        _check(checks, inputs, report)
        out["backend_process.survey_s"] = sample.seconds
        out["backend_process.workers"] = workers
        out["backend_process.speedup"] = simulated.seconds / sample.seconds
        out["backend_process.leaked_shm"] = len(active_segment_names())
    dodgr.release()

    dodgr = _build(inputs)
    _, resident = clock.timed(_count, dodgr)
    segments = os.path.join(os.path.dirname(os.path.dirname(__file__)), "out", "segments")
    os.makedirs(segments, exist_ok=True)
    storage = StorageConfig(mode="mmap", directory=segments)
    report, sample = clock.timed(_count, dodgr, storage=storage)
    _check(checks, inputs, report)
    out["storage_mmap.survey_s"] = sample.seconds
    out["storage_mmap.slowdown"] = sample.seconds / resident.seconds
    out["storage_mmap.segment_bytes"] = sum(
        os.path.getsize(path) for path in active_segment_paths()
    )
    dodgr.release()
    out["storage_mmap.leaked_segments"] = len(active_segment_paths())
    return out
