"""Survey programs: a survey's phases as data, executed by a pluggable backend.

The engine runners in :mod:`~repro.core.engine.push` and
:mod:`~repro.core.engine.push_pull` used to interleave three concerns: handler
registration, the per-phase driver loops, and report assembly.  Splitting the
middle one out as data — a :class:`SurveyProgram` holding ``(phase name,
drive(ctx))`` pairs — is what lets a second *execution backend* run the same
program without per-engine forks:

* the **simulated** backend (:func:`run_simulated_phases`) replays the exact
  historical loop: ``begin_phase``; for every rank in order, a cooperative
  deadline check then the rank's drive closure; ``barrier()``.  It is the
  bit-exact oracle every other backend is measured against, the way the
  ``legacy`` engine is the oracle on the engine axis.
* the **process** backend (:mod:`repro.runtime.backend.process`) forks worker
  processes after program construction and runs the same drive closures
  concurrently, one rank-shard per worker, replaying the same wire accounting.

Handler registration stays in the ``build_*_program`` functions (it must
happen before a process backend forks, so handler ids — and therefore every
serialized message size — are identical in every worker), and report assembly
stays in :func:`execute_program`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

from ..results import SurveyReport
from .registry import EngineSpec
from .request import SurveyRequest, SurveyResult

__all__ = [
    "SurveyProgram",
    "execute_program",
    "run_simulated_phases",
]


@dataclass
class SurveyProgram:
    """One survey, compiled to phases: everything a backend needs to run it.

    ``phases`` is an ordered list of ``(phase_name, drive)`` pairs where
    ``drive(ctx)`` performs one rank's share of that phase — walking local
    pivots and issuing the engine's RPCs against ``ctx``.  Drive closures may
    keep per-rank state (pull lists, push-target sets) indexed by
    ``ctx.rank``; they must not assume any cross-rank execution order beyond
    "all of phase N completes before phase N+1 starts".
    """

    algorithm: str
    request: SurveyRequest
    spec: EngineSpec
    phases: List[Tuple[str, Callable[[Any], None]]]

    @property
    def phase_names(self) -> List[str]:
        return [name for name, _ in self.phases]


def run_simulated_phases(program: SurveyProgram) -> float:
    """Execute every phase in the single-process simulated world.

    This is the historical driver loop, unchanged: it defines the oracle
    semantics (rank-order drives, termination-detecting barrier per phase)
    that the process backend must reproduce bit-exactly.  Returns host
    wall-clock seconds spent driving.
    """
    world = program.request.dodgr.world
    host_start = time.perf_counter()
    for phase_name, drive in program.phases:
        world.begin_phase(phase_name)
        for ctx in world.ranks:
            # Cooperative cancellation checkpoint: a service-installed
            # deadline aborts between per-rank batches instead of mid-RPC.
            world.check_deadline()
            drive(ctx)
        world.barrier()
    return time.perf_counter() - host_start


def execute_program(program: SurveyProgram) -> SurveyResult:
    """Run ``program`` on the backend its request selects and build the report."""
    request = program.request
    dodgr = request.dodgr
    world = dodgr.world
    if request.backend == "process":
        from ...runtime.backend.process import run_program_in_processes

        host_seconds = run_program_in_processes(program)
    else:
        host_seconds = run_simulated_phases(program)

    phases = program.phase_names
    simulated = world.simulated_time(phases=phases)
    report = SurveyReport.from_world_stats(
        algorithm=program.algorithm,
        graph_name=request.graph_name or dodgr.name,
        world_stats=world.stats,
        simulated=simulated,
        phases=phases,
        host_seconds=host_seconds,
    )
    return SurveyResult(report=report, engine=program.spec.name, request=request)
