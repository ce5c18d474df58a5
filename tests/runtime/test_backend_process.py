"""Process-backend mechanics: shm lifecycle, failure paths, determinism.

The cross-backend *parity* contract lives in the ``process`` cells of
``tests/properties/test_property_matrix.py``; this module pins the
backend's operational contract:

* every shared-memory segment a run creates is unlinked on every exit path
  — normal completion, worker crash, livelock abort (asserted through the
  tracked registry in :mod:`repro.runtime.backend.shm` plus a ``/dev/shm``
  scan);
* repeated in-process runs are deterministic;
* unsupported feature combinations fail *before forking* with a clear
  :class:`~repro.runtime.backend.UnsupportedBackendError`.
"""

from __future__ import annotations

import os

import pytest

from repro.core.callbacks import LocalTriangleCounter, TriangleCounter
from repro.core.engine import EngineConfig
from repro.core.survey import triangle_survey_push
from repro.graph import DODGraph
from repro.graph.generators import rmat
from repro.runtime import (
    LivelockError,
    ProcessBackendError,
    UnsupportedBackendError,
    World,
    active_segment_names,
)
from repro.runtime.backend import shm
from repro.runtime.backend.process import resolve_worker_count
from repro.runtime.backend.transport import MessageDecoder, MessageEncoder, SegmentWriter
from repro.runtime.message_buffer import Message

NRANKS = 4
WORKERS = 2
#: The default engine on two forked workers — two, not auto, so the
#: multi-worker exchange path runs on single-core CI hosts too.
PROCESS = EngineConfig(backend="process", workers=WORKERS)


def build_graph(world, scale=6, seed=13):
    generated = rmat(scale, edge_factor=6, seed=seed)
    return DODGraph.build(generated.to_distributed(world), mode="bulk")


def shm_leftovers():
    """Backend-prefixed segment files still linked in the OS."""
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir(root) if name.startswith("repro-pb")]


def assert_no_segments():
    assert active_segment_names() == frozenset()
    assert shm_leftovers() == []


# ---------------------------------------------------------------------------
# Normal-exit lifecycle + determinism
# ---------------------------------------------------------------------------


def run_process_survey():
    world = World(NRANKS)
    dodgr = build_graph(world)
    reducer = LocalTriangleCounter(world)
    report = triangle_survey_push(dodgr, reducer.callback, engine=PROCESS)
    reducer.finalize()
    return reducer.snapshot(), report


@pytest.mark.skipif(not shm.shared_memory_available(), reason="needs shared memory")
def test_a_message_round_trips_through_the_transport():
    """One tuple shape carries every message: an int64 column rides the
    round's segment, a Python argument the pickle, and the handler, RPC
    count, size and sequence id come back as sent."""
    import numpy as np

    world = World(NRANKS)
    handle = world.register_handler(lambda ctx, column, meta: None, "sink")
    column = np.arange(5, dtype=np.int64) * 3
    sent = Message(1, 2, handle, (column, {"label": (4, "x")}), 5, 77, seq=9)
    writer = SegmentWriter(f"repro-pb{os.getpid()}-transport-test")
    blob = MessageEncoder({}, writer).encode_blob([sent])
    segment = writer.finish()
    decoder = MessageDecoder(world.registry, {})
    try:
        (got,) = decoder.decode_blob(blob)
        assert (got.source, got.dest, got.seq, got.rpcs, got.nbytes) == (1, 2, 9, 5, 77)
        assert got.handle == handle
        assert got.args[0].tolist() == column.tolist()
        assert got.args[0].dtype == np.int64
        assert got.args[1] == {"label": (4, "x")}
    finally:
        decoder.close()
        segment.close()
        shm.unlink_segments([segment.name])
    assert_no_segments()


def test_segments_unlinked_after_normal_exit():
    panel, report = run_process_survey()
    assert report.triangles > 0  # the run did real cross-worker work
    assert_no_segments()


def test_repeated_runs_are_deterministic():
    first_panel, first_report = run_process_survey()
    for _ in range(2):
        panel, report = run_process_survey()
        assert panel == first_panel
        assert report.triangles == first_report.triangles
        assert report.communication_bytes == first_report.communication_bytes
        assert report.wire_messages == first_report.wire_messages
    assert_no_segments()


# ---------------------------------------------------------------------------
# Crash + livelock exit paths
# ---------------------------------------------------------------------------


class CrashingReducer:
    """A reducer whose callback hard-kills its worker process mid-survey.

    Implements the worker-state protocol so it passes pre-fork validation;
    the crash is ``os._exit`` so no exception travels back — the parent must
    detect the dead pipe.
    """

    def __init__(self, world):
        self.world = world

    def callback(self, ctx, tri):
        os._exit(3)

    def worker_rank_state(self, rank):
        return None

    def absorb_rank_state(self, rank, state):
        return None


def test_worker_crash_raises_and_unlinks():
    world = World(NRANKS)
    dodgr = build_graph(world)
    reducer = CrashingReducer(world)
    with pytest.raises(ProcessBackendError):
        triangle_survey_push(dodgr, reducer.callback, engine=PROCESS)
    assert_no_segments()


def test_livelock_abort_raises_and_unlinks():
    world = World(NRANKS)
    dodgr = build_graph(world)
    # Tighten the guard after construction: any real survey needs more than
    # one exchange round per barrier, so the parent must abort the workers.
    world.max_drain_sweeps = 1
    reducer = TriangleCounter(world)
    with pytest.raises(LivelockError):
        triangle_survey_push(dodgr, reducer.callback, engine=PROCESS)
    assert_no_segments()


def test_worker_exceptions_propagate():
    world = World(NRANKS)
    dodgr = build_graph(world)

    class FailingReducer(TriangleCounter):
        def callback(self, ctx, tri):
            raise RuntimeError("reducer exploded on purpose")

    reducer = FailingReducer(world)
    with pytest.raises(RuntimeError, match="exploded on purpose"):
        triangle_survey_push(dodgr, reducer.callback, engine=PROCESS)
    assert_no_segments()


# ---------------------------------------------------------------------------
# Pre-fork validation
# ---------------------------------------------------------------------------


class _NeverExpires:
    def check(self):
        pass


def test_deadline_unsupported():
    world = World(NRANKS)
    dodgr = build_graph(world)
    world.install_deadline(_NeverExpires())
    with pytest.raises(UnsupportedBackendError, match="deadline"):
        triangle_survey_push(dodgr, engine=PROCESS)
    assert_no_segments()


def test_node_aggregation_unsupported():
    world = World(NRANKS, ranks_per_node=2)
    dodgr = build_graph(world)
    with pytest.raises(UnsupportedBackendError, match="ranks_per_node"):
        triangle_survey_push(dodgr, engine=PROCESS)
    assert_no_segments()


def test_callback_without_worker_state_protocol_unsupported():
    world = World(NRANKS)
    dodgr = build_graph(world)
    seen = []
    with pytest.raises(UnsupportedBackendError, match="worker_rank_state"):
        triangle_survey_push(dodgr, lambda ctx, tri: seen.append(tri), engine=PROCESS)
    assert seen == []  # validation happened before any callback ran
    assert_no_segments()


def test_no_callback_runs_fine():
    """A bare counting survey (callback=None) needs no reducer protocol."""
    world = World(NRANKS)
    dodgr = build_graph(world)
    oracle_world = World(NRANKS)
    oracle = triangle_survey_push(build_graph(oracle_world))
    report = triangle_survey_push(dodgr, engine=PROCESS)
    assert report.triangles == oracle.triangles
    assert report.communication_bytes == oracle.communication_bytes
    assert_no_segments()


def test_unknown_backend_rejected():
    world = World(NRANKS)
    dodgr = build_graph(world)
    with pytest.raises(ValueError, match="unknown execution backend"):
        triangle_survey_push(dodgr, engine=EngineConfig(backend="threads"))


# ---------------------------------------------------------------------------
# Worker-count resolution
# ---------------------------------------------------------------------------


def test_resolve_worker_count():
    cores = os.cpu_count() or 1
    assert resolve_worker_count(None, 16) == min(4, cores, 16)
    assert resolve_worker_count(None, 2) == min(4, cores, 2)
    # Explicit counts are honoured (oversubscription allowed) but capped at
    # the rank count.
    assert resolve_worker_count(3, 16) == 3
    assert resolve_worker_count(8, 4) == 4
    assert resolve_worker_count(1, 16) == 1
    with pytest.raises(ValueError):
        resolve_worker_count(0, 4)
