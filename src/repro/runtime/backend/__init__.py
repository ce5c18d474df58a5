"""Execution backends for survey programs.

The simulated world (:mod:`repro.runtime.world`) is the oracle: one process,
rank-order drives, termination-detecting barriers.  This package adds the
``"process"`` backend — rank-sharded forked workers exchanging messages over
``multiprocessing.shared_memory`` — which must reproduce the oracle's
reducer panels bit-for-bit and its wire accounting byte-for-byte (the
``process`` cells of the matrix suite,
``tests/properties/test_property_matrix.py``, pin that contract).

Modules
-------

:mod:`~repro.runtime.backend.process`
    The executor: fork, superstep rounds, worker-state absorption, cleanup.
:mod:`~repro.runtime.backend.transport`
    The message codec: shared-object references, zero-copy int64 columns,
    opaque pre-pickled per-worker blobs.
:mod:`~repro.runtime.backend.shm`
    Segment lifecycle: tracked registry, parent-authoritative unlinking,
    crash-safe prefix sweeps.
"""

from __future__ import annotations

from .process import (
    ProcessBackendError,
    UnsupportedBackendError,
    run_program_in_processes,
)
from .shm import active_segment_names, shared_memory_available

__all__ = [
    "ProcessBackendError",
    "UnsupportedBackendError",
    "active_segment_names",
    "run_program_in_processes",
    "shared_memory_available",
]
