"""Simulated distributed runtime (YGM + MPI stand-in) used by TriPoll.

The public surface mirrors the pieces of the C++ stack the paper describes:

* :class:`~repro.runtime.world.World` / :class:`~repro.runtime.world.RankContext`
  — the MPI world and the per-rank YGM communicator (buffered,
  fire-and-forget async RPC with termination-detecting barriers).
* :mod:`~repro.runtime.serialization` — the exact serialized sizes of the
  cereal-style wire format, which define simulated communication volume
  (the encoder and decoder they are pinned to are :mod:`repro.oracle.codec`).
* :mod:`~repro.runtime.message_buffer` — YGM message aggregation.
* :mod:`~repro.runtime.network_model` — the latency/bandwidth cost model that
  converts measured counters into simulated wall-clock time.
* :mod:`~repro.runtime.reductions` — the All_Reduce sum collective.
* :mod:`~repro.runtime.backend` — execution backends: the process backend
  runs survey programs across forked rank-shard workers over shared memory,
  bit-identical to the simulated oracle.
"""

from .backend import (
    ProcessBackendError,
    UnsupportedBackendError,
    active_segment_names,
    run_program_in_processes,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    RankCrashError,
    fault_plan_digest,
    sample_fault_plans,
)
from .message_buffer import DEFAULT_FLUSH_THRESHOLD, BufferBank
from .network_model import CATALYST_LIKE, CostModel, SimulatedTime, simulate_time
from .reductions import all_reduce_sum
from .rpc import RpcError, RpcHandle, RpcRegistry
from .serialization import SerializationError, register_record, serialized_size
from .stats import PhaseStats, RankStats, WorldStats
from .world import LivelockError, RankContext, World, WorldError, stable_hash

__all__ = [
    "World",
    "RankContext",
    "WorldError",
    "LivelockError",
    "FaultPlan",
    "FaultInjector",
    "RankCrashError",
    "fault_plan_digest",
    "sample_fault_plans",
    "stable_hash",
    "RpcRegistry",
    "RpcHandle",
    "RpcError",
    "SerializationError",
    "register_record",
    "serialized_size",
    "BufferBank",
    "DEFAULT_FLUSH_THRESHOLD",
    "CostModel",
    "CATALYST_LIKE",
    "SimulatedTime",
    "simulate_time",
    "PhaseStats",
    "RankStats",
    "WorldStats",
    "all_reduce_sum",
    "ProcessBackendError",
    "UnsupportedBackendError",
    "active_segment_names",
    "run_program_in_processes",
]
