"""The simulated distributed world: virtual ranks, buffered async RPC, barriers.

TriPoll runs as an SPMD MPI program: every rank owns a partition of the
graph, iterates over its local vertices, and fires asynchronous
remote-procedure calls at the owners of neighbouring vertices; YGM keeps
delivering and executing messages until the world is quiescent, at which
point a barrier completes.

This module provides the equivalent substrate for a single Python process:

* :class:`World` owns ``nranks`` virtual ranks, a shared RPC registry (the
  "same binary on every rank" assumption), per-rank inboxes and per-rank
  outgoing buffer banks.
* :class:`RankContext` is the per-rank communicator handed to algorithms.
  Its :meth:`RankContext.async_call` mirrors ``ygm::comm::async``: size
  the call's serialized arguments, buffer it for the destination rank, and
  return immediately (fire-and-forget).
* :meth:`World.barrier` flushes all buffers and processes messages (which may
  generate further messages) until global quiescence, exactly like YGM's
  termination-detecting barrier.

Delivery order is deterministic (round-robin over ranks, FIFO per rank) so
every run of an algorithm on the same inputs produces identical results and
identical communication statistics.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .faults import Envelope, FaultInjector, FaultPlan, ReliableTransport
from .message_buffer import DEFAULT_FLUSH_THRESHOLD, WIRE_ENVELOPE_BYTES, BufferBank, Message
from .network_model import CATALYST_LIKE, CostModel, SimulatedTime, simulate_time
from .rpc import RpcHandle, RpcRegistry
from .stats import WorldStats

import numpy as _np

__all__ = [
    "World",
    "RankContext",
    "WorldError",
    "LivelockError",
    "DEFAULT_MAX_DRAIN_SWEEPS",
    "stable_hash",
    "stable_hash_int_array",
    "stable_tuple_hash_array",
    "first_appearance_groups",
    "stable_key_order",
]

#: Default ceiling on delivery sweeps per barrier.  Legitimate workloads
#: need a handful of sweeps per barrier (handler chains are shallow and the
#: retry backoff is geometric); a barrier that reaches this many is a
#: livelock — handlers generating messages forever — and aborts with a
#: :class:`LivelockError` diagnostic instead of hanging the process.
DEFAULT_MAX_DRAIN_SWEEPS = 100_000

#: How many sweeps before the limit the hottest-handler probe arms.  Only
#: this tail window pays the per-message handler-name bookkeeping, so the
#: guard costs one integer compare per sweep on healthy barriers.
_PROBE_WINDOW = 64


class WorldError(Exception):
    """Raised for invalid world operations (bad ranks, re-entrant barriers, ...)."""


class LivelockError(WorldError):
    """A barrier exceeded its delivery-sweep budget without quiescing.

    Carries the diagnostic the operator needs: which phase was running, how
    much traffic was still pending per rank, and which handlers dominated
    the final sweeps (the livelock culprits).
    """

    def __init__(
        self,
        sweeps: int,
        phase: str,
        pending: Dict[int, int],
        hottest: List[Tuple[str, int]],
    ) -> None:
        self.sweeps = sweeps
        self.phase = phase
        self.pending = dict(pending)
        self.hottest = list(hottest)
        pending_desc = (
            ", ".join(f"rank {rank}: {count}" for rank, count in sorted(pending.items()))
            or "none"
        )
        hot_desc = (
            ", ".join(f"{name} x{count}" for name, count in hottest) or "unknown"
        )
        super().__init__(
            f"barrier exceeded {sweeps} delivery sweeps without quiescing "
            f"(phase {phase!r}; pending inbox messages: {pending_desc}; "
            f"hottest handlers in the final sweeps: {hot_desc})"
        )


class RankContext:
    """The per-rank view of the simulated world (a YGM communicator).

    Algorithms and distributed containers receive a :class:`RankContext` when
    they execute code "on" a rank: driver loops iterate over
    ``world.ranks``, and RPC handlers receive the destination rank's context
    as their first argument.
    """

    def __init__(self, world: "World", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.stats = world.stats.ranks[rank]
        self.buffers = BufferBank(
            rank,
            world.nranks,
            self.stats,
            deliver=world._enqueue_messages,
            flush_threshold_bytes=world.flush_threshold_bytes,
            ranks_per_node=world.ranks_per_node,
        )
        #: scratch storage for containers / graph structures keyed by object id
        self.local_state: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    @property
    def nranks(self) -> int:
        return self.world.nranks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankContext(rank={self.rank}, nranks={self.nranks})"

    # ------------------------------------------------------------------
    def async_call(self, dest: int, func: Callable[..., Any] | RpcHandle, *args: Any) -> None:
        """Fire-and-forget RPC: run ``func(dest_ctx, *args)`` on rank ``dest``.

        The call is buffered for ``dest`` and accounted at its exact wire
        size — :meth:`~repro.runtime.rpc.RpcRegistry.call_size`, which is
        ``len(dumps((handler_id, list(args))))`` of the reference codec
        :mod:`repro.oracle.codec` — so it is flushed, counted and received
        as if that payload had been built.  The arguments travel by
        reference inside the single simulating process: the caller must not
        mutate them after sending, and the receiver sees the caller's
        objects (numpy scalars stay numpy scalars).  Unserializable
        arguments raise :class:`~repro.runtime.serialization.SerializationError`
        at send time.
        """
        handle = self.world.registry.resolve(func)
        nbytes = self.world.registry.call_size(handle, args)
        self.buffers.send(Message(self.rank, dest, handle, args, 1, nbytes))

    # ------------------------------------------------------------------
    # Coalesced calls (the columnar engine and the counting set)
    # ------------------------------------------------------------------
    def account_rpc_bulk(self, dests, nbytes) -> None:
        """Account a stream of legacy-equivalent RPCs from two parallel arrays.

        Send-side half of the coalesced-call accounting contract: counters
        and buffer/flush behaviour are identical to one ``async_call`` per
        ``(dests[i], nbytes[i])`` entry, in order, with a payload of that
        exact size (:meth:`BufferBank.send_virtual` per entry), but nothing
        is delivered — in O(flushes) NumPy work instead of one Python call
        per replaced message.  Pair with :meth:`async_call_batched`, which
        carries the receive-side counts.
        """
        self.buffers.send_virtual_bulk(dests, nbytes)

    def async_call_batched(
        self,
        dest: int,
        func: Callable[..., Any] | RpcHandle,
        *args: Any,
        virtual_rpcs: int,
        virtual_bytes: int,
    ) -> None:
        """Fire one batched RPC standing in for ``virtual_rpcs`` legacy calls.

        The call executes ``func(dest_ctx, *args)`` once on ``dest`` at the
        next barrier, with arguments passed by reference; on execution it is
        accounted as ``virtual_rpcs`` executed RPCs carrying
        ``virtual_bytes`` of received payload (for remote sources).  The
        caller must have already accounted the send side of every replaced
        message via :meth:`account_rpc_bulk`, and must not mutate ``args``
        after the call.

        One timing caveat bounds the equivalence contract: a batched call
        bypasses the send buffers and executes in the barrier's first
        delivery sweep, whereas the legacy messages it replaces may execute
        across several sweeps (whenever their buffer happens to flush).
        Handlers that send *further* RPCs therefore append them to the
        outgoing buffers at different fill states than in a legacy run:
        every per-rank total (RPC counts, payload bytes sent and received,
        compute) still matches exactly, but the assignment of those
        follow-on messages to flush windows — ``wire_messages`` and the
        per-flush envelope component of ``wire_bytes`` — can shift, just as
        YGM's node-level aggregation shifts it.  Surveys whose callbacks do
        only local work (the common counting case) are byte-identical in
        every counter.
        """
        if dest < 0 or dest >= self.world.nranks:
            raise WorldError(f"destination rank {dest} out of range [0, {self.world.nranks})")
        handle = self.world.registry.resolve(func)
        self.world._enqueue_messages(
            [Message(self.rank, dest, handle, args, virtual_rpcs, virtual_bytes)]
        )

    def send_coalesced(
        self, func: Callable[..., Any] | RpcHandle, dests, sizes, leading, columns
    ) -> None:
        """Account a legacy message stream, ship it one RPC per rank.

        ``dests``/``sizes`` describe the replaced messages in legacy send order
        and are booked in one :meth:`account_rpc_bulk`.  Each destination rank
        — in first-appearance order, as a scalar driver's per-destination
        ``dict`` iterates — gets one :meth:`async_call_batched`: ``leading``
        plus its slice of every array in ``columns``.  An empty stream sends
        nothing.
        """
        if len(dests) == 0:
            return
        self.account_rpc_bulk(dests, sizes)
        order, starts, ends = first_appearance_groups(dests)
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            members = order[lo:hi]
            self.async_call_batched(
                int(dests[members[0]]),
                func,
                *leading,
                *(column[members] for column in columns),
                virtual_rpcs=hi - lo,
                virtual_bytes=int(sizes[members].sum()),
            )

    # ------------------------------------------------------------------
    def add_compute(self, units: int) -> None:
        """Account abstract local computation (merge comparisons, hash probes).

        Under an installed fault plan, slow-rank multipliers scale the
        accounted units here — a straggler does the same work but its
        simulated clock charges more for it.
        """
        injector = self.world._injector
        if injector is not None:
            units = injector.scaled_compute(self.rank, units)
        self.stats.current.compute_units += units

    def add_counter(self, name: str, amount: int = 1) -> None:
        """Accumulate an application-level counter in the current phase."""
        self.stats.current.add_app(name, amount)

    def owner_of(self, key: Any) -> int:
        """Deterministic owner rank of a hashable key (stable across runs)."""
        return self.world.owner_of(key)


class World:
    """A simulated cluster of ``nranks`` cooperating virtual ranks."""

    def __init__(
        self,
        nranks: int,
        flush_threshold_bytes: int = DEFAULT_FLUSH_THRESHOLD,
        cost_model: CostModel = CATALYST_LIKE,
        ranks_per_node: int = 1,
        max_drain_sweeps: Optional[int] = DEFAULT_MAX_DRAIN_SWEEPS,
    ) -> None:
        """Create a simulated world.

        Parameters
        ----------
        nranks:
            Number of virtual MPI ranks.
        flush_threshold_bytes:
            YGM buffer capacity per destination before an automatic flush.
        cost_model:
            Machine parameters used by :meth:`simulated_time`.
        ranks_per_node:
            When > 1, outgoing buffers are shared by all destination ranks
            hosted on the same simulated compute node (node-level message
            aggregation — the improvement Section 5.4 of the paper proposes
            for the many-small-messages regime at 256 nodes).
        max_drain_sweeps:
            Livelock guard: a single barrier may run at most this many
            delivery sweeps before aborting with :class:`LivelockError`
            (``None`` disables the guard and restores hang-forever).
        """
        if nranks <= 0:
            raise WorldError("world must have at least one rank")
        if ranks_per_node < 1:
            raise WorldError("ranks_per_node must be at least 1")
        if max_drain_sweeps is not None and max_drain_sweeps < 1:
            raise WorldError("max_drain_sweeps must be at least 1 (or None)")
        self.nranks = nranks
        self.flush_threshold_bytes = flush_threshold_bytes
        self.cost_model = cost_model
        self.ranks_per_node = ranks_per_node
        self.max_drain_sweeps = max_drain_sweeps
        self.stats = WorldStats(nranks)
        self.registry = RpcRegistry()
        self._inboxes: List[Deque[Message]] = [
            deque() for _ in range(nranks)
        ]
        self.ranks: List[RankContext] = [RankContext(self, r) for r in range(nranks)]
        self._phase_order: List[str] = []
        self._in_delivery = False
        self._structure_names: Dict[str, int] = {}
        self._anonymous_counts: Dict[str, int] = {}
        #: Fault machinery; all None / dormant unless a plan is installed,
        #: so fault-free runs take no new code paths.
        self._injector: Optional[FaultInjector] = None
        self._transport: Optional[ReliableTransport] = None
        self._barrier_sweeps = 0
        self._drain_probe: Optional[Dict[str, int]] = None
        #: hooks :meth:`on_drained` scheduled for the next empty inboxes
        self._drain_hooks: List[Callable[[], None]] = []
        #: Cooperative cancellation: any object with a ``check()`` method
        #: that raises when its budget is spent (duck-typed so the runtime
        #: layer never imports the service layer).  Dormant by default.
        self._deadline: Optional[Any] = None
        #: Execution-backend message fabric (duck-typed: ``enqueue_messages``,
        #: ``barrier``).  A process-backend worker
        #: installs one after forking so every enqueue — drive-time sends,
        #: threshold flushes, batched calls — routes through it instead of
        #: the in-process inboxes.  None in the simulated world and in the
        #: process backend's parent, so the oracle path is untouched.
        self._fabric: Optional[Any] = None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"World(nranks={self.nranks})"

    def rank(self, r: int) -> RankContext:
        if r < 0 or r >= self.nranks:
            raise WorldError(f"rank {r} out of range [0, {self.nranks})")
        return self.ranks[r]

    def owner_of(self, key: Any) -> int:
        """Deterministic hash-based owner rank for a key.

        Python's built-in ``hash`` of ints is the identity, which would turn a
        cyclic vertex-id space into a perfectly regular assignment; mixing
        through a multiplicative hash keeps ownership pseudo-random the way a
        real distributed hash map behaves, while staying deterministic across
        runs (no ``PYTHONHASHSEED`` dependence for ints/tuples of ints).
        """
        return stable_hash(key) % self.nranks

    # ------------------------------------------------------------------
    def register_handler(
        self, func: Callable[..., Any], name: Optional[str] = None
    ) -> RpcHandle:
        """Register an RPC handler shared by every rank."""
        return self.registry.register(func, name)

    def unique_name(self, base: str) -> str:
        """Return a world-unique name for a distributed structure.

        Distributed structures (maps, graphs, edge lists, ...) use their name
        both for per-rank storage slots and for RPC handler names, so two
        structures on the same world must never share one.  The first user of
        a base name gets it verbatim; later users get ``base~2``, ``base~3``,
        and so on — mirroring how one would suffix duplicate container names
        in an SPMD program.
        """
        count = self._structure_names.get(base, 0) + 1
        self._structure_names[base] = count
        return base if count == 1 else f"{base}~{count}"

    def anonymous_name(self, prefix: str) -> str:
        """Default name for a distributed structure created without one.

        Anonymous structures are numbered per world (``prefix_0``,
        ``prefix_1``, ...).  The name must come from world state, not a
        process-global counter: hash-partitioned containers salt their
        ``owner()`` mapping with the structure name, so a global counter
        would make message routing — and therefore any seeded fault
        schedule keyed to delivery order — depend on how many structures
        unrelated earlier work created in the same process.
        """
        count = self._anonymous_counts.get(prefix, 0)
        self._anonymous_counts[prefix] = count + 1
        return f"{prefix}_{count}"

    # ------------------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        """Start a named measurement phase on every rank."""
        if name not in self._phase_order:
            self._phase_order.append(name)
        self.stats.begin_phase(name)

    @property
    def phase_order(self) -> List[str]:
        return list(self._phase_order)

    # ------------------------------------------------------------------
    # Fault-plan lifecycle
    # ------------------------------------------------------------------
    def install_fault_plan(self, plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
        """Arm (or, with ``None``, disarm) deterministic fault injection.

        Any engine then runs under the plan without engine changes: drops,
        duplicates and delays are absorbed transparently inside
        :meth:`barrier` by the at-least-once transport, crashes surface as
        :class:`~repro.runtime.faults.RankCrashError` for a recovery layer
        (see ``core/engine/checkpoint.py``), and slow ranks pay their
        compute multiplier in :meth:`RankContext.add_compute`.
        """
        if plan is None:
            self.clear_fault_plan()
            return None
        self._injector = FaultInjector(plan, self.nranks)
        self._transport = (
            ReliableTransport(plan) if plan.has_delivery_faults() else None
        )
        return self._injector

    def clear_fault_plan(self) -> None:
        self._injector = None
        self._transport = None

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        return self._injector

    @contextmanager
    def faults_suspended(self) -> Iterator[None]:
        """Temporarily disarm fault injection (graph builds, checkpoints).

        The checkpoint wrappers scope the fault domain to survey execution:
        ingest and DODGr construction run inside this context so a crash
        can never leave a half-built graph behind.
        """
        injector, transport = self._injector, self._transport
        self._injector = None
        self._transport = None
        try:
            yield
        finally:
            self._injector, self._transport = injector, transport

    # ------------------------------------------------------------------
    # Deadline lifecycle (cooperative cancellation)
    # ------------------------------------------------------------------
    def install_deadline(self, deadline: Optional[Any]) -> None:
        """Arm (or, with ``None``, disarm) a cooperative deadline.

        ``deadline`` is duck-typed: any object with a ``check()`` method
        that raises when its time budget is spent (the service layer
        passes :class:`repro.service.deadline.Deadline`).  The world polls
        it once per delivery sweep inside :meth:`barrier`, so even a fault
        plan's retransmit loop cannot outlive the budget; engine drivers
        add coarser per-rank checkpoints on top.
        """
        self._deadline = deadline

    def clear_deadline(self) -> None:
        self._deadline = None

    def check_deadline(self) -> None:
        """Cooperative cancellation checkpoint (no-op while dormant)."""
        if self._deadline is not None:
            self._deadline.check()

    @contextmanager
    def deadline_scope(self, deadline: Optional[Any]) -> Iterator[None]:
        """Install ``deadline`` for the duration of the block.

        Restores whatever deadline was armed before, so nested scopes
        compose; an expiry escapes as the deadline's own exception with
        the previous deadline already restored.
        """
        previous = self._deadline
        self._deadline = deadline
        try:
            yield
        finally:
            self._deadline = previous

    def recover_from_crash(self) -> None:
        """Restart crashed ranks: discard all volatile in-flight state.

        Mirrors what a real restart loses — inbox contents, buffered but
        unflushed sends (never reached the wire, so no accounting), and the
        transport's in-flight table.  Wire counters and sequence-number
        streams survive, so the wasted attempt's traffic stays honestly on
        the books and replayed sends can never alias pre-crash ones.
        """
        for inbox in self._inboxes:
            inbox.clear()
        for ctx in self.ranks:
            ctx.buffers.drop_pending()
        if self._transport is not None:
            self._transport.abandon_in_flight()
        if self._injector is not None:
            self._injector.mark_restarted()

    # ------------------------------------------------------------------
    def _enqueue_messages(self, messages: Iterable[Message]) -> None:
        if self._fabric is not None:
            self._fabric.enqueue_messages(messages)
            return
        if self._transport is not None:
            for msg in messages:
                self._route_with_faults(msg)
            return
        for msg in messages:
            self._inboxes[msg.dest].append(msg)

    def _route_with_faults(self, msg: Message) -> None:
        """Transport path: register, then let the injector pick a fate.

        Local (same-rank) messages never touch the wire and are delivered
        verbatim — only remote traffic is sequenced and faultable.
        """
        if msg.source == msg.dest:
            self._inboxes[msg.dest].append(msg)
            return
        envelope = self._transport.register(msg)
        self._apply_fate(envelope)

    def _apply_fate(self, envelope: Envelope) -> None:
        injector = self._injector
        fate = injector.delivery_fate(envelope) if injector is not None else "deliver"
        msg = envelope.message
        if fate == FaultInjector.DROP:
            return
        if fate == FaultInjector.DELAY:
            self._transport.add_delay(envelope, injector.draw_delay())
            return
        if fate == FaultInjector.DUPLICATE:
            self._inboxes[msg.dest].append(msg)
        self._inboxes[msg.dest].append(msg)

    def _retransmit(self, envelope: Envelope) -> None:
        """Timeout fired: resend an unacked message, honestly accounted.

        A retransmission is modelled as its own immediate single-message
        flush on the sender — one RPC, its payload bytes, one wire message
        plus envelope — through the same size-only accounting as first
        sends, so recovered runs report the retry traffic in every counter.
        """
        msg = envelope.message
        self._transport.schedule_retry(envelope)
        self._injector.stats.retries += 1
        phase = self.ranks[msg.source].stats.current
        phase.rpcs_sent += 1
        phase.bytes_sent_remote += msg.nbytes
        phase.wire_messages += 1
        phase.wire_bytes += msg.nbytes + WIRE_ENVELOPE_BYTES
        self._apply_fate(envelope)

    def _fault_tick(self) -> None:
        """Advance the transport clock one sweep: release delays, retry."""
        transport = self._transport
        transport.clock += 1
        self._note_sweep()
        for envelope in transport.release_due():
            self._inboxes[envelope.message.dest].append(envelope.message)
        for envelope in transport.due_retries():
            self._retransmit(envelope)

    # ------------------------------------------------------------------
    def _execute_message(self, msg: Message) -> None:
        injector = self._injector
        if (
            self._transport is not None
            and msg.seq is not None
            and msg.source != msg.dest
            and not self._transport.mark_delivered(msg.source, msg.dest, msg.seq)
        ):
            # At-least-once delivery made a duplicate reach the receiver;
            # the sequence-id dedup suppresses re-execution, which is what
            # keeps panels bit-identical under duplication and retries.
            injector.stats.duplicates_suppressed += 1
            return
        ctx = self.ranks[msg.dest]
        phase = ctx.stats.current
        phase.rpcs_executed += msg.rpcs
        if msg.source != msg.dest:
            phase.bytes_received += msg.nbytes
        handler = self.registry.handler(msg.handle.handler_id)
        if self._drain_probe is not None:
            name = getattr(handler, "__qualname__", None) or repr(handler)
            self._drain_probe[name] = self._drain_probe.get(name, 0) + 1
        handler(ctx, *msg.args)
        if injector is not None:
            # The crash triggers *after* the rank executed the RPC that took
            # its count in the configured phase to the threshold (the rank
            # dies having done the work); a batched message counts every
            # RPC it carries.
            injector.note_execution(msg.dest, ctx.stats.current_phase_name, msg.rpcs)

    def _drain_inboxes(self) -> bool:
        """Deliver every queued message (handlers may queue more). Returns
        True if at least one message was executed."""
        progressed = False
        while True:
            any_delivered = False
            for rank in range(self.nranks):
                inbox = self._inboxes[rank]
                # Drain a snapshot of the queue; newly generated local
                # messages are picked up on the next sweep, keeping the
                # round-robin fair across ranks.
                for _ in range(len(inbox)):
                    msg = inbox.popleft()
                    self._execute_message(msg)
                    any_delivered = True
                    progressed = True
            if not any_delivered:
                return progressed
            self._note_sweep()

    def _note_sweep(self) -> None:
        """Livelock guard: count a delivery sweep against the barrier budget."""
        if self._deadline is not None:
            self._deadline.check()
        self._barrier_sweeps += 1
        limit = self.max_drain_sweeps
        if limit is None:
            return
        if self._drain_probe is None and self._barrier_sweeps >= limit - _PROBE_WINDOW:
            self._drain_probe = {}
        if self._barrier_sweeps > limit:
            phase = self._phase_order[-1] if self._phase_order else "<default>"
            pending = {
                rank: len(inbox)
                for rank, inbox in enumerate(self._inboxes)
                if inbox
            }
            hottest = sorted(
                (self._drain_probe or {}).items(), key=lambda item: (-item[1], item[0])
            )[:3]
            raise LivelockError(limit, phase, pending, hottest)

    # ------------------------------------------------------------------
    def on_drained(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` once, when this barrier's inboxes next drain empty:
        how a handler processes in bulk what it staged (a survey's
        :class:`~repro.core.engine.driver.CandidateStage`)."""
        self._drain_hooks.append(hook)

    def run_drain_hooks(self) -> bool:
        """Run scheduled :meth:`on_drained` hooks, and any they schedule, until
        none is due; True when any ran."""
        ran = bool(self._drain_hooks)
        while self._drain_hooks:
            self._drain_hooks.pop(0)()
        return ran

    def barrier(self) -> None:
        """Flush all buffers and process messages until global quiescence.

        Quiescence under an installed fault plan additionally requires the
        reliable transport to be idle: no delayed copies waiting and no
        unacknowledged sends — the barrier keeps ticking the retry clock
        until at-least-once delivery has landed everything exactly once.

        Each time the inboxes drain empty, the hooks handlers scheduled with
        :meth:`on_drained` run before the buffer flush pass, and what they
        send is delivered in this barrier; one that raises drops them.  A
        process-backend worker's fabric runs the same pass for its own
        ranks, between a round's execution and its flush.
        """
        if self._fabric is not None:
            self._fabric.barrier()
            return
        if self._in_delivery:
            raise WorldError("barrier() cannot be called from inside an RPC handler")
        self._in_delivery = True
        self._barrier_sweeps = 0
        try:
            while True:
                self._drain_inboxes()
                if self.run_drain_hooks():
                    continue
                flushed_any = False
                for ctx in self.ranks:
                    if ctx.buffers.has_pending():
                        ctx.buffers.flush_all()
                        flushed_any = True
                if flushed_any or any(self._inboxes):
                    continue
                if self._transport is not None and self._transport.pending:
                    self._fault_tick()
                    continue
                break
        finally:
            self._in_delivery = False
            self._drain_probe = None
            self._drain_hooks = []
        self.stats.barriers += 1

    # ------------------------------------------------------------------
    def for_each_rank(self, fn: Callable[..., Any], *args: Any) -> List[Any]:
        """Run ``fn(ctx, *args)`` on every rank (driver-side SPMD loop)."""
        return [fn(ctx, *args) for ctx in self.ranks]

    def superstep(self, fn: Callable[..., Any], *args: Any) -> List[Any]:
        """Run ``fn`` on every rank, then complete a barrier."""
        results = self.for_each_rank(fn, *args)
        self.barrier()
        return results

    # ------------------------------------------------------------------
    def simulated_time(
        self, phases: Optional[Sequence[str]] = None, model: Optional[CostModel] = None
    ) -> SimulatedTime:
        """Convert the accumulated counters into simulated wall-clock time."""
        return simulate_time(
            self.stats,
            model=model if model is not None else self.cost_model,
            phases=phases if phases is not None else self._phase_order or None,
        )

    def reset_stats(self) -> None:
        """Clear all counters and phase bookkeeping (keeps data structures)."""
        self.stats.reset()
        self._phase_order = []


def stable_hash(key: Any) -> int:
    """Deterministic non-cryptographic hash for keys used in ownership maps.

    Integers are mixed with a 64-bit Fibonacci/xor hash; strings and bytes use
    FNV-1a; tuples combine their elements.  The result is a non-negative int
    that is stable across processes and Python versions, which keeps the
    simulated partitioning (and therefore all measured communication volumes)
    reproducible.
    """
    if isinstance(key, bool):
        return 0x9E3779B97F4A7C15 if key else 0x517CC1B727220A95
    if isinstance(key, int):
        x = key & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return (x ^ (x >> 31)) & 0x7FFFFFFFFFFFFFFF
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        h = 0xCBF29CE484222325
        for byte in key:
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h & 0x7FFFFFFFFFFFFFFF
    if isinstance(key, float):
        return stable_hash(hash(key))
    if isinstance(key, tuple):
        h = _TUPLE_SEED
        for item in key:
            h = (h * _TUPLE_MUL) & 0xFFFFFFFFFFFFFFFF
            h ^= stable_hash(item)
        return h & 0x7FFFFFFFFFFFFFFF
    if key is None:
        return 0x6A09E667F3BCC908
    raise TypeError(f"cannot stably hash value of type {type(key).__qualname__}")


#: Tuple-combiner constants of :func:`stable_hash` — the single source of
#: truth the vectorized replays (:func:`stable_tuple_hash_array`) share with
#: the scalar branch above.
_TUPLE_SEED = 0x345678DEADBEEF
_TUPLE_MUL = 1000003


def stable_hash_int_array(values: Any) -> Any:
    """Vectorized :func:`stable_hash` for arrays of 64-bit integer keys.

    ``stable_hash_int_array(a)[i] == stable_hash(int(a[i]))`` for every int64
    value, including negatives (which :func:`stable_hash` first masks to 64
    bits, exactly like the two's-complement ``uint64`` view used here).
    Used by the int-keyed bulk paths (partition owner maps, the ``<+``
    order, edge-list dedup routing).  Booleans are *not* handled — callers
    hash genuine integer id columns only.
    """
    x = _np.asarray(values).astype(_np.uint64)
    x = x ^ (x >> _np.uint64(30))
    x = x * _np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> _np.uint64(27))
    x = x * _np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> _np.uint64(31))
    return (x & _np.uint64(0x7FFFFFFFFFFFFFFF)).astype(_np.int64)


def stable_tuple_hash_array(item_hashes: Sequence[Any]) -> Any:
    """Vectorized :func:`stable_hash` of same-shape tuples, one per row.

    ``item_hashes`` holds, per tuple position, either a scalar
    ``stable_hash`` value (the same item in every row — e.g. a structure
    name) or an int64 array of per-row item hashes.
    ``stable_tuple_hash_array([stable_hash(a), sh_col])[i] ==
    stable_hash((a, key_i))`` where ``sh_col[i] == stable_hash(key_i)`` —
    the replay of the scalar tuple combiner that keeps vectorized routing
    (edge-list dedup owners, seeded hash partitioners) on exactly the ranks
    the scalar path picks.
    """
    length = None
    for column in item_hashes:
        if not isinstance(column, int):
            length = len(column)
            break
    if length is None:
        raise ValueError("at least one item-hash column must be an array")
    h = _np.full(length, _TUPLE_SEED, dtype=_np.uint64)
    mul = _np.uint64(_TUPLE_MUL)
    for column in item_hashes:
        h = h * mul
        if isinstance(column, int):
            h = h ^ _np.uint64(column)
        else:
            h = h ^ _np.asarray(column).astype(_np.uint64)
    return (h & _np.uint64(0x7FFFFFFFFFFFFFFF)).astype(_np.int64)


#: Keys per 16-bit digit below which timsort beats :func:`stable_key_order`'s
#: radix passes (each pass costs a few NumPy calls; measured crossover on
#: random int64 keys, 2-core x86-64, NumPy 2.4: about 500 keys for one pass,
#: 1 000 for two, 2 000 for four).
RADIX_KEYS_PER_PASS = 512


def stable_key_order(keys: Any) -> Any:
    """``np.argsort(keys, kind="stable")``, in linear time for integer keys.

    NumPy runs a stable argsort as a radix sort on keys of at most 16 bits
    (39 µs against 343 µs of timsort for 5 000 int64 codes, the rmat-13
    closure batch mean) and as an O(n log n) timsort on anything wider.  A
    wider array of non-negative integers is therefore sorted here by
    least-significant-digit passes (Knuth, TAOCP Vol. 3, §5.2.5): the
    stable order of its low 16 bits, then, while the key maximum has digits
    left, a stable reorder by the next 16 bits (8 for a last digit below
    2**8).  Each pass is stable, so the result is exactly the comparison
    sort's permutation.  Negative keys, non-integer dtypes and arrays too
    short to repay the passes (:data:`RADIX_KEYS_PER_PASS`) take the
    comparison sort itself.
    """
    keys = _np.asarray(keys)
    kind, width = keys.dtype.kind, 8 * keys.dtype.itemsize
    if keys.size < RADIX_KEYS_PER_PASS or kind not in "iu" or width <= 16:
        return _np.argsort(keys, kind="stable")
    # One reduction for both tests: read as unsigned, a negative key is the
    # maximum, with its sign bit set.
    top = int(keys.view(f"u{width // 8}").max())
    passes = -(-top.bit_length() // 16)
    if (kind == "i" and top >> (width - 1)) or keys.size < RADIX_KEYS_PER_PASS * passes:
        return _np.argsort(keys, kind="stable")
    order = _np.argsort(keys.astype(_np.uint8 if top < 1 << 8 else _np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        digit = _np.uint8 if top >> shift < 1 << 8 else _np.uint16
        digits = (keys[order] >> shift).astype(digit)
        order = order[_np.argsort(digits, kind="stable")]
        shift += 16
    return order


def first_appearance_groups(keys: Any) -> Tuple[Any, Any, Any]:
    """Group an int array by value, groups in first-appearance order.

    Returns ``(order, starts, ends)``: group ``g``'s member indices are
    ``order[starts[g]:ends[g]]``, ascending, and groups are sequenced by
    where their key first occurs — the iteration order of the ``dict`` a
    scalar driver fills with ``setdefault(key, []).append(i)``, which keeps
    every coalesced stream (:meth:`RankContext.send_coalesced`, the columnar
    pull drive) on the legacy send order.  An empty array has
    no groups.
    """
    order = stable_key_order(keys)
    if order.size == 0:
        return order, order, order
    sorted_keys = keys[order]
    cuts = _np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = _np.concatenate(([0], cuts))
    ends = _np.concatenate((cuts, [keys.size]))
    sequence = stable_key_order(order[starts])
    return order, starts[sequence], ends[sequence]
