"""Process-parallel execution backend: rank-sharded workers, bit-exact replay.

``backend="process"`` runs the same :class:`~repro.core.engine.program.SurveyProgram`
the simulated oracle runs, but shards the world's ranks across forked worker
processes (worker ``w`` owns every rank ``r`` with ``r % workers == w``) and
replaces the in-process barrier with a parent-coordinated superstep protocol.

Why it is bit-exact
-------------------

The fork happens *after* program construction: handler ids, the graph (CSR
segments included), reducer registrations and reset stats are identical in
every worker via copy-on-write.  From there, three properties carry parity:

1. **Drive streams are rank-local.**  A rank's outgoing buffers fill only
   from its own drive, so per-``(source, dest)`` buffer fill sequences — and
   therefore every flush boundary, wire message and envelope byte — are
   unchanged no matter which process runs the drive.
2. **Execution order per rank is the oracle's inbox order.**  Every enqueue
   is tagged ``(source rank, per-source seq)``; a round executes its messages
   sorted by that key, which is exactly the order the oracle's sequential
   rank-major drives and rank-order flush passes would have appended them.
   The exchange→execute→drain→flush round structure mirrors the oracle
   barrier's drain→hooks→flush alternation, so drive-time deliveries
   (threshold flushes, local sends, batched calls) execute a round before
   flush-pass remnants — the same wave split the oracle produces.
3. **Follow-on handlers are order-commutative.**  Messages generated *by*
   executions (advise replies, counting-set cache flushes) only ever run
   handlers that mutate commutative rank-local state and send nothing
   further, so deferring them one round cannot change any counter or panel.
   This bounds the contract exactly where
   :meth:`~repro.runtime.world.RankContext.async_call_batched` already
   bounds it: a user handler that sends RPCs whose handlers send *further*
   RPCs keeps identical totals but may shift flush windows.

The wire *accounting* is never re-measured: every message ships its
sender-computed RPC and byte counts, so Table 4 totals are replayed
unchanged.

What the backend cannot run — installed fault plans and deadlines,
``ranks_per_node > 1``, callbacks without the worker-state protocol,
platforms without ``fork`` or ``shared_memory`` — is a row of the
unsupported-combination table (:data:`repro.core.engine.registry.UNSUPPORTED`),
rejected before the program registers a handler; nothing here re-checks it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..world import LivelockError
from . import shm as _shm
from .transport import MessageDecoder, MessageEncoder, SegmentWriter, sort_key

__all__ = [
    "ProcessBackendError",
    "UnsupportedBackendError",
    "run_program_in_processes",
]

#: Default cap on worker processes (further capped by cores and ranks).
DEFAULT_MAX_WORKERS = 4

_RUN_IDS = itertools.count()


class ProcessBackendError(RuntimeError):
    """The process backend failed mechanically (dead worker, lost pipe)."""


class UnsupportedBackendError(RuntimeError):
    """The requested execution combination is illegal.

    Raised only by :func:`repro.core.engine.registry.check_supported`, for a
    row of its unsupported-combination table, before any handler registers,
    storage is configured or a worker forks — so the world is left untouched.
    """


class _WorkerAbort(Exception):
    """Parent told this worker to stop (livelock abort or sibling crash)."""


def resolve_worker_count(workers: Optional[int], nranks: int) -> int:
    """Resolve a ``workers=`` request: explicit counts win, auto is capped.

    ``None`` picks ``min(4, cores, nranks)``; an explicit count is honoured
    (oversubscription is legal — ``workers=1`` still runs the genuine
    process path) but never exceeds the rank count, since a worker without
    ranks would have nothing to do.
    """
    if workers is None:
        workers = min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1, nranks)
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, nranks)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class WorkerFabric:
    """Installed as ``world._fabric`` inside one worker process.

    Routes every enqueue (drive sends, threshold flushes, batched calls,
    handler follow-ons) either to this worker's own pending list or to the
    per-destination-worker outbox, tagging each message with its source
    rank's monotone sequence number; :meth:`barrier` runs the exchange→
    execute→drain→flush rounds against the parent coordinator.
    """

    def __init__(
        self,
        world: Any,
        conn: Any,
        me: int,
        worker_of: List[int],
        owned: List[int],
        prefix: str,
        shared_ids: Dict[int, Any],
        shared_objects: Dict[Any, Any],
    ) -> None:
        self.world = world
        self.conn = conn
        self.me = me
        self.worker_of = worker_of
        self.owned = sorted(owned)
        self.prefix = prefix
        self.shared_ids = shared_ids
        self.decoder = MessageDecoder(world.registry, shared_objects)
        self.created_segments: List[Any] = []
        self.pending: List[Any] = []
        self.outbox: Dict[int, List[Any]] = {}
        self._seqs = [0] * world.nranks
        self._round_counter = 0

    # -- the enqueue hook (called from World._enqueue_messages)
    def enqueue_messages(self, messages: Iterable[Any]) -> None:
        for msg in messages:
            seq = self._seqs[msg.source]
            self._seqs[msg.source] = seq + 1
            msg.seq = seq
            dest_worker = self.worker_of[msg.dest]
            if dest_worker == self.me:
                self.pending.append(msg)
            else:
                self.outbox.setdefault(dest_worker, []).append(msg)

    # -- the superstep barrier ---------------------------------------------
    def _buffers_pending(self) -> bool:
        return any(self.world.ranks[r].buffers.has_pending() for r in self.owned)

    def barrier(self) -> None:
        while True:
            self._round_counter += 1
            writer = SegmentWriter(f"{self.prefix}-w{self.me}-r{self._round_counter}")
            encoder = MessageEncoder(self.shared_ids, writer)
            blobs = {
                w: encoder.encode_blob(msgs) for w, msgs in self.outbox.items() if msgs
            }
            segment = writer.finish()
            created = []
            if segment is not None:
                self.created_segments.append(segment)
                created.append(segment.name)
            self.outbox = {}
            has_more = bool(self.pending) or self._buffers_pending()
            self.conn.send(("round", blobs, created, has_more))

            reply = self.conn.recv()
            if reply[0] == "abort":
                raise _WorkerAbort()
            _, incoming_blobs, cont = reply
            if not cont:
                return

            # EXECUTE: this round's messages in oracle inbox order.  New
            # sends route back through enqueue_messages and run next round.
            messages = self.pending
            self.pending = []
            for blob in incoming_blobs:
                messages.extend(self.decoder.decode_blob(blob))
            messages.sort(key=sort_key)
            execute = self.world._execute_message
            for msg in messages:
                execute(msg)
            # DRAIN: what the round's handlers staged, as the oracle does.
            self.world.run_drain_hooks()

            # FLUSH: the oracle barrier's flush pass, in global rank order.
            for r in self.owned:
                ctx = self.world.ranks[r]
                if ctx.buffers.has_pending():
                    ctx.buffers.flush_all()

    def close(self) -> None:
        self.decoder.close()
        for segment in self.created_segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - already unlinked
                pass


def _collect_worker_state(world: Any, reducer: Any, owned: List[int]) -> Dict[int, Any]:
    """Everything a worker's owned ranks must ship home: stats, containers,
    reducer rank state."""
    shipped: Dict[int, Any] = {}
    for r in owned:
        ctx = world.ranks[r]
        rank_stats = world.stats.ranks[r]
        shipped[r] = {
            "phases": rank_stats.phases,
            "current_phase": rank_stats.current_phase_name,
            "containers": {
                key: value
                for key, value in ctx.local_state.items()
                if key.startswith("container:")
            },
            "reducer": None if reducer is None else reducer.worker_rank_state(r),
        }
    return shipped


def _ship_exception(exc: BaseException) -> Tuple[Any, ...]:
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return ("pickled", blob)
    except Exception:
        return ("text", type(exc).__name__, str(exc))


def _worker_main(
    conn: Any,
    program: Any,
    me: int,
    worker_of: List[int],
    owned: List[int],
    prefix: str,
    shared_ids: Dict[int, Any],
    shared_objects: Dict[Any, Any],
    reducer: Any,
) -> None:
    """One worker's whole life: drive owned ranks, barrier, ship state, exit.

    Runs in a forked child; exits via ``os._exit`` so inherited atexit
    machinery (test harnesses, tempfile cleanups) never runs twice.  Segment
    files the worker spills itself (an mmap snapshot's send scratch is
    created on first drive, after the fork) live only in this process's
    registry, so the worker unlinks them before it exits; the ones it
    inherited stay the parent's to release.
    """
    from ...graph import ooc as _ooc  # deferred: graph imports runtime

    inherited_paths = _ooc.active_segment_paths()
    world = program.request.dodgr.world
    fabric = WorkerFabric(
        world, conn, me, worker_of, owned, prefix, shared_ids, shared_objects
    )
    world._fabric = fabric
    exit_code = 0
    try:
        for phase_name, drive in program.phases:
            world.begin_phase(phase_name)
            for r in fabric.owned:
                drive(world.ranks[r])
            world.barrier()  # delegates to fabric
        conn.send(("done", _collect_worker_state(world, reducer, fabric.owned)))
    except _WorkerAbort:
        exit_code = 0
    except BaseException as exc:  # ship the real exception to the parent
        exit_code = 1
        try:
            conn.send(("error", _ship_exception(exc)))
        except Exception:
            pass
    finally:
        fabric.close()
        _ooc.unlink_paths(_ooc.active_segment_paths() - inherited_paths)
        try:
            conn.close()
        except Exception:
            pass
        os._exit(exit_code)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def worker_state_owner(callback: Any) -> Any:
    """The object whose rank state a worker ships home for ``callback``.

    Worker-side reducer state must ship home explicitly; the worker-state
    protocol (``worker_rank_state(rank)`` / ``absorb_rank_state(rank,
    state)``) is how a reducer declares what that state is.  Every stock
    reducer in :mod:`repro.core.callbacks` implements it.  ``None`` for no
    callback or one without the protocol, which the unsupported-combination
    table rejects before the program is built.
    """
    target = getattr(callback, "__self__", callback)
    if hasattr(target, "worker_rank_state") and hasattr(target, "absorb_rank_state"):
        return target
    return None


def _prewarm_shared(dodgr: Any, nranks: int) -> Tuple[Dict[Any, Any], Dict[int, Any]]:
    """Build every lazily-cached structure before forking.

    CSR segments (and the order-id arrays the columnar drivers read) must
    exist pre-fork so all workers inherit the *same* objects: that makes the
    ``("shared", ("csr", rank))`` encoding resolvable everywhere and keeps
    workers from redundantly rebuilding caches.
    """
    shared_objects: Dict[Any, Any] = {}
    shared_ids: Dict[int, Any] = {}
    for warm in ("order_count", "rows_by_order_id"):
        method = getattr(dodgr, warm, None)
        if callable(method):
            try:
                method()
            except Exception:  # pragma: no cover - cache is optional
                pass
    for r in range(nranks):
        try:
            csr = dodgr.csr(r)
        except Exception:  # pragma: no cover - engines that never build CSRs
            break
        key = ("csr", r)
        shared_objects[key] = csr
        shared_ids[id(csr)] = key
    return shared_objects, shared_ids


def _raise_shipped(payload: Tuple[Any, ...]) -> None:
    if payload[0] == "pickled":
        try:
            exc = pickle.loads(payload[1])
        except Exception:
            raise ProcessBackendError(
                "worker failed with an unpicklable exception"
            ) from None
        raise exc
    raise ProcessBackendError(f"worker failed: {payload[1]}: {payload[2]}")


def _parent_barrier(
    conns: List[Any],
    segment_names: Set[str],
    limit: Optional[int],
    phase_name: str,
) -> None:
    """Coordinate one barrier: gather rounds, route blobs, decide continuation."""
    rounds = 0
    while True:
        rounds += 1
        gathered = []
        for conn in conns:
            try:
                msg = conn.recv()
            except (EOFError, OSError) as exc:
                raise ProcessBackendError(
                    f"worker died mid-barrier in phase {phase_name!r}"
                ) from exc
            if msg[0] == "error":
                _raise_shipped(msg[1])
            gathered.append(msg)
        for _, _, created, _ in gathered:
            segment_names.update(created)
        if limit is not None and rounds > limit:
            # The oracle's livelock guard, one level up: a runaway barrier
            # (handlers generating messages forever) aborts instead of
            # spinning.  The caller tears the workers down and unlinks.
            raise LivelockError(limit, phase_name, {}, [])
        cont = any(m[1] for m in gathered) or any(m[3] for m in gathered)
        incoming: List[List[bytes]] = [[] for _ in conns]
        for _, blobs, _, _ in gathered:
            for dest_worker, blob in blobs.items():
                incoming[dest_worker].append(blob)
        for conn, blobs_for_worker in zip(conns, incoming):
            conn.send(("deliver", blobs_for_worker, cont))
        if not cont:
            return


def _absorb_worker_state(world: Any, reducer: Any, shipped: Dict[int, Any]) -> None:
    """Overlay worker results into the parent's world, in place.

    ``RankStats`` objects are aliased by every ``RankContext`` and
    ``BufferBank``, so phase dicts are replaced *inside* the existing
    objects, never swapped wholesale.
    """
    for r, payload in shipped.items():
        rank_stats = world.stats.ranks[r]
        rank_stats.phases.clear()
        rank_stats.phases.update(payload["phases"])
        rank_stats.current_phase_name = payload["current_phase"]
        ctx = world.ranks[r]
        for key, value in payload["containers"].items():
            ctx.local_state[key] = value
        if reducer is not None:
            reducer.absorb_rank_state(r, payload["reducer"])


def _abort_workers(conns: List[Any], procs: List[Any]) -> None:
    for conn in conns:
        try:
            conn.send(("abort",))
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=2)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=5)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass


def run_program_in_processes(program: Any) -> float:
    """Run ``program`` across forked rank-shard workers; returns host seconds.

    On return the parent world's stats, container state and reducer state are
    exactly what a simulated run would have produced; every shared-memory
    segment the run created is unlinked on every exit path.
    """
    request = program.request
    dodgr = request.dodgr
    world = dodgr.world
    reducer = worker_state_owner(request.callback)
    mp_context = multiprocessing.get_context("fork")

    nranks = world.nranks
    nworkers = resolve_worker_count(request.workers, nranks)
    worker_of = [r % nworkers for r in range(nranks)]
    prefix = f"repro-pb{os.getpid()}x{next(_RUN_IDS)}"
    shared_objects, shared_ids = _prewarm_shared(dodgr, nranks)

    host_start = time.perf_counter()
    conns: List[Any] = []
    procs: List[Any] = []
    segment_names: Set[str] = set()
    try:
        for w in range(nworkers):
            parent_conn, child_conn = mp_context.Pipe()
            owned = [r for r in range(nranks) if worker_of[r] == w]
            proc = mp_context.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    program,
                    w,
                    worker_of,
                    owned,
                    prefix,
                    shared_ids,
                    shared_objects,
                    reducer,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        for phase_name, _drive in program.phases:
            world.begin_phase(phase_name)
            _parent_barrier(conns, segment_names, world.max_drain_sweeps, phase_name)
            world.stats.barriers += 1

        shipped: Dict[int, Any] = {}
        for conn in conns:
            try:
                msg = conn.recv()
            except (EOFError, OSError) as exc:
                raise ProcessBackendError("worker died before shipping state") from exc
            if msg[0] == "error":
                _raise_shipped(msg[1])
            shipped.update(msg[1])
        _absorb_worker_state(world, reducer, shipped)

        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
    except BaseException:
        _abort_workers(conns, procs)
        raise
    finally:
        _shm.track_segments(segment_names)
        _shm.unlink_segments(segment_names)
        _shm.sweep_prefix(prefix)
    return time.perf_counter() - host_start
