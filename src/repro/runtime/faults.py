"""Deterministic fault injection for the simulated survey runtime.

The paper's target machines lose ranks, drop packets and suffer stragglers;
the simulated :class:`~repro.runtime.world.World` historically assumed
perfect delivery and immortal ranks.  This module supplies the missing
failure model, in three pieces:

* :class:`FaultPlan` — a frozen, seeded description of *what goes wrong*:
  per-message drop / duplicate / delay probabilities, a rank crash pinned to
  a phase and execution step, and per-rank compute slowdowns.  The same plan
  on the same workload reproduces the identical fault schedule, so every
  chaos result in this repo is replayable from ``(plan, workload)`` alone.
* :class:`FaultInjector` — the seeded runtime companion of a plan: it draws
  one fate per remote delivery, counts every injected fault, tracks the
  crash trigger, and scales compute for slow ranks.
* :class:`ReliableTransport` — at-least-once delivery state: per
  ``(source, dest)`` sequence numbers, the unacknowledged-send table that
  drives timeout/retransmit with exponential backoff, the receiver-side
  dedup sets, and the delayed-message queue.  The world owns one whenever
  the installed plan can lose or reorder messages.

Division of labour with :class:`~repro.runtime.world.World`: this module
holds *state and decisions* (what happens to a message, when a retry is
due); the world holds *mechanics* (inbox routing, retry accounting through
the usual wire counters, raising :class:`RankCrashError` out of the
barrier).  Nothing here imports the world, so any driver can reuse the
fault model.

Time is measured in barrier delivery *sweeps* (``ReliableTransport.clock``):
one tick per quiescence check inside :meth:`World.barrier`, the closest
thing the simulated runtime has to a wall clock.  Delays and retry timeouts
are both expressed in ticks.

With no plan installed the world takes none of these code paths — fault-free
runs stay bit-and-byte identical to a build without this module.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "RankCrashError",
    "ReliableTransport",
    "Envelope",
    "fault_plan_digest",
    "sample_fault_plans",
]


def fault_plan_digest(plan: Optional["FaultPlan"]) -> Optional[str]:
    """Stable short digest identifying a fault schedule (``None`` plan → ``None``).

    Checkpoints stamp this so a resume can prove it is replaying against
    the same deterministic fault schedule it was taken under (see the
    stale-checkpoint guard in ``core/engine/checkpoint.py``).  Built from
    the sorted-key JSON of :meth:`FaultPlan.describe`, so two plans digest
    equal iff they are field-for-field identical.
    """
    if plan is None:
        return None
    payload = json.dumps(plan.describe(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class RankCrashError(RuntimeError):
    """A simulated rank died mid-survey.

    Raised out of :meth:`World.barrier` when the installed
    :class:`FaultPlan`'s crash trigger fires.  Carries enough context for a
    recovery layer (``core/engine/checkpoint.py``) to decide whether to
    restart the rank or degrade to an approximate answer.
    """

    def __init__(self, rank: int, phase: str, executions: int) -> None:
        self.rank = rank
        self.phase = phase
        self.executions = executions
        super().__init__(
            f"rank {rank} crashed in phase {phase!r} after executing "
            f"{executions} RPCs"
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, serializable description of injected faults.

    Rates are per remote delivery attempt (local, same-rank messages are
    never faulted — they never touch the wire).  ``max_faults_per_message``
    bounds how often any single logical message may be dropped, delayed or
    duplicated, which guarantees eventual delivery and therefore barrier
    termination under any plan.
    """

    name: str = "fault-plan"
    #: Seed for the injector's private RNG; the full fault schedule is a
    #: pure function of (seed, delivery order), and delivery order is
    #: deterministic, so chaos runs replay exactly.
    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    #: Delayed messages are released 1..max_delay_ticks barrier sweeps later.
    max_delay_ticks: int = 3
    #: Per-message fault budget; once spent, the message always delivers.
    max_faults_per_message: int = 3
    #: Base retransmit timeout in sweeps; attempt ``n`` waits ``2**n`` times
    #: this long (exponential backoff).
    retry_timeout_ticks: int = 2
    #: Force at-least-once tracking (sequence ids, acks, dedup) even when
    #: every rate is zero — used to prove the armed transport layer itself
    #: changes nothing observable on a fault-free run.
    reliable: bool = False
    #: Crash spec: rank (taken modulo the world size at install time), the
    #: phase it must die in (None = any phase), and how many RPCs it executes
    #: in that phase before dying — its ``rpcs_executed`` count, so a
    #: coalesced call counts every RPC it carries and the threshold means
    #: the same on every engine.
    crash_rank: Optional[int] = None
    crash_phase: Optional[str] = None
    crash_after_executions: int = 8
    #: Recoverable crashes restart from checkpoint; unrecoverable ones mark
    #: the rank permanently lost (the degradation path).
    crash_recoverable: bool = True
    #: ``((rank, multiplier), ...)`` compute stragglers; multiplier scales
    #: every :meth:`RankContext.add_compute` on that rank.
    slow_ranks: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        for rate_name in ("drop_rate", "duplicate_rate", "delay_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        if self.max_delay_ticks < 1:
            raise ValueError("max_delay_ticks must be at least 1")
        if self.max_faults_per_message < 0:
            raise ValueError("max_faults_per_message must be non-negative")
        if self.retry_timeout_ticks < 1:
            raise ValueError("retry_timeout_ticks must be at least 1")
        if self.crash_after_executions < 1:
            raise ValueError("crash_after_executions must be at least 1")
        object.__setattr__(
            self,
            "slow_ranks",
            tuple((int(rank), float(mult)) for rank, mult in self.slow_ranks),
        )
        for rank, mult in self.slow_ranks:
            if mult < 1.0:
                raise ValueError(
                    f"slow-rank multiplier for rank {rank} must be >= 1, got {mult}"
                )

    # ------------------------------------------------------------------
    def has_delivery_faults(self) -> bool:
        """True when the world needs the at-least-once transport."""
        return (
            self.reliable
            or self.drop_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.delay_rate > 0.0
        )

    def has_crash(self) -> bool:
        return self.crash_rank is not None

    def describe(self) -> Dict[str, Any]:
        """JSON-ready plan description (the chaos sweep artifact schema)."""
        out: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "slow_ranks":
                value = [list(pair) for pair in value]
            out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        known = {spec.name for spec in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        if "slow_ranks" in kwargs:
            kwargs["slow_ranks"] = tuple(
                (int(rank), float(mult)) for rank, mult in kwargs["slow_ranks"]
            )
        return cls(**kwargs)


@dataclass
class FaultStats:
    """What the injector actually did, for artifacts and assertions."""

    messages_seen: int = 0
    drops: int = 0
    duplicates: int = 0
    delays: int = 0
    retries: int = 0
    duplicates_suppressed: int = 0
    crashes: int = 0
    restarts: int = 0

    def total_injected(self) -> int:
        return self.drops + self.duplicates + self.delays + self.crashes

    def as_dict(self) -> Dict[str, int]:
        return {
            "messages_seen": self.messages_seen,
            "drops": self.drops,
            "duplicates": self.duplicates,
            "delays": self.delays,
            "retries": self.retries,
            "duplicates_suppressed": self.duplicates_suppressed,
            "crashes": self.crashes,
            "restarts": self.restarts,
        }


@dataclass
class Envelope:
    """Transport bookkeeping for one logical remote message.

    Retransmissions book ``message.nbytes`` through the same size-only
    accounting as first sends.
    """

    message: Any
    #: Retransmission attempts so far (0 = only the original send).
    attempts: int = 0
    #: Faults already injected on this message (bounded by the plan).
    faults: int = 0
    #: Transport tick at which the next retransmit fires if unacked.
    next_retry: int = 0


class FaultInjector:
    """Runtime companion of a :class:`FaultPlan`: draws fates, tracks crashes.

    One injector is created per :meth:`World.install_fault_plan` call; its
    RNG is seeded from the plan, so the fault schedule is a deterministic
    function of the (already deterministic) message delivery order.
    """

    #: Delivery fates, in the order the single uniform draw is partitioned.
    DELIVER = "deliver"
    DROP = "drop"
    DUPLICATE = "duplicate"
    DELAY = "delay"

    def __init__(self, plan: FaultPlan, nranks: int) -> None:
        self.plan = plan
        self.nranks = nranks
        self.stats = FaultStats()
        self._rng = random.Random(plan.seed)
        self._crash_rank: Optional[int] = (
            plan.crash_rank % nranks if plan.crash_rank is not None else None
        )
        self._crash_executions = 0
        self._crash_fired = False
        #: Ranks currently dead (cleared by a successful restart).
        self.crashed_ranks: set = set()
        self._slow: Dict[int, float] = {
            rank % nranks: mult for rank, mult in plan.slow_ranks
        }

    # ------------------------------------------------------------------
    @property
    def crash_rank(self) -> Optional[int]:
        """The resolved (modulo world size) crash target, if any."""
        return self._crash_rank

    def delivery_fate(self, envelope: Envelope) -> str:
        """Decide what happens to one remote delivery attempt.

        Exactly one RNG draw per attempt keeps the schedule deterministic
        and independent of which fault kinds are enabled.  A message whose
        fault budget is spent always delivers.
        """
        plan = self.plan
        self.stats.messages_seen += 1
        if plan.drop_rate == 0.0 and plan.duplicate_rate == 0.0 and plan.delay_rate == 0.0:
            return self.DELIVER
        draw = self._rng.random()
        if envelope.faults >= plan.max_faults_per_message:
            return self.DELIVER
        if draw < plan.drop_rate:
            envelope.faults += 1
            self.stats.drops += 1
            return self.DROP
        draw -= plan.drop_rate
        if draw < plan.duplicate_rate:
            envelope.faults += 1
            self.stats.duplicates += 1
            return self.DUPLICATE
        draw -= plan.duplicate_rate
        if draw < plan.delay_rate:
            envelope.faults += 1
            self.stats.delays += 1
            return self.DELAY
        return self.DELIVER

    def draw_delay(self) -> int:
        """Delay duration in transport ticks for a DELAY fate."""
        return self._rng.randint(1, self.plan.max_delay_ticks)

    # ------------------------------------------------------------------
    def note_execution(self, rank: int, phase: str, count: int) -> None:
        """Count ``count`` executed RPCs on ``rank``; fire the crash if due.

        A message carrying ``count`` RPCs crosses the threshold as a whole:
        the rank dies after executing it, having run every RPC it carried.
        """
        if self._crash_fired or self._crash_rank is None or rank != self._crash_rank:
            return
        if self.plan.crash_phase is not None and phase != self.plan.crash_phase:
            return
        self._crash_executions += count
        if self._crash_executions >= self.plan.crash_after_executions:
            self._crash_fired = True
            self.stats.crashes += 1
            self.crashed_ranks.add(rank)
            raise RankCrashError(rank, phase, self._crash_executions)

    def mark_restarted(self) -> None:
        """A recovery layer restarted the dead ranks (crash stays one-shot)."""
        if self.crashed_ranks:
            self.stats.restarts += 1
        if self.plan.crash_recoverable:
            self.crashed_ranks.clear()

    @property
    def crash_pending(self) -> bool:
        """True while the configured crash has not fired yet."""
        return self._crash_rank is not None and not self._crash_fired

    # ------------------------------------------------------------------
    def scaled_compute(self, rank: int, units: int) -> int:
        mult = self._slow.get(rank)
        if mult is None:
            return units
        return int(units * mult)


class ReliableTransport:
    """At-least-once delivery state machine for one world.

    Sequence ids are per ``(source, dest)`` stream and never reused — after
    a crash recovery the stream continues where it left off, so stale
    in-flight copies from before the crash can never alias a fresh send.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.timeout_ticks = plan.retry_timeout_ticks
        #: Barrier delivery sweeps observed so far (the transport's clock).
        self.clock = 0
        self._next_seq: Dict[Tuple[int, int], int] = {}
        #: Insertion-ordered unacked table: (source, dest, seq) -> Envelope.
        self._unacked: Dict[Tuple[int, int, int], Envelope] = {}
        #: Receiver-side dedup: (source, dest) -> set of executed seqs.
        self._delivered: Dict[Tuple[int, int], set] = {}
        #: (release_tick, Envelope) for DELAY fates.
        self._delayed: List[Tuple[int, Envelope]] = []

    # ------------------------------------------------------------------
    def register(self, message: Any) -> Envelope:
        """Assign a sequence id and start tracking an outgoing message."""
        stream = (message.source, message.dest)
        seq = self._next_seq.get(stream, 0)
        self._next_seq[stream] = seq + 1
        message.seq = seq
        envelope = Envelope(message=message, next_retry=self.clock + self.timeout_ticks)
        self._unacked[(message.source, message.dest, seq)] = envelope
        return envelope

    def mark_delivered(self, source: int, dest: int, seq: int) -> bool:
        """Record an executed delivery; False means duplicate (suppress)."""
        stream = (source, dest)
        seen = self._delivered.setdefault(stream, set())
        if seq in seen:
            return False
        seen.add(seq)
        # Executing the message is the ack (piggybacked, not separately
        # charged): the sender stops retransmitting.
        self._unacked.pop((source, dest, seq), None)
        return True

    # ------------------------------------------------------------------
    def add_delay(self, envelope: Envelope, ticks: int) -> None:
        self._delayed.append((self.clock + ticks, envelope))

    def release_due(self) -> List[Envelope]:
        """Pop delayed envelopes whose release tick has passed."""
        if not self._delayed:
            return []
        due = [env for tick, env in self._delayed if tick <= self.clock]
        if due:
            self._delayed = [
                (tick, env) for tick, env in self._delayed if tick > self.clock
            ]
        return due

    def due_retries(self) -> List[Envelope]:
        """Unacked envelopes whose retransmit timer has expired."""
        return [env for env in self._unacked.values() if env.next_retry <= self.clock]

    def schedule_retry(self, envelope: Envelope) -> None:
        """Exponential backoff: attempt ``n`` waits ``timeout * 2**n`` ticks."""
        envelope.attempts += 1
        envelope.next_retry = self.clock + self.timeout_ticks * (2 ** envelope.attempts)

    @property
    def pending(self) -> bool:
        """True while any send is unacked or any delayed copy undelivered."""
        return bool(self._unacked) or bool(self._delayed)

    def abandon_in_flight(self) -> None:
        """Crash recovery: drop unacked and delayed traffic.

        Sequence counters and dedup sets survive so the restarted epoch's
        sends get fresh ids and any straggler copy of a pre-crash message
        is still recognised and suppressed.
        """
        self._unacked.clear()
        self._delayed.clear()

    def in_flight(self) -> int:
        return len(self._unacked) + len(self._delayed)


# ---------------------------------------------------------------------------
# Plan sampling (the chaos sweep's fault-space axis)
# ---------------------------------------------------------------------------

#: The fault-plan families the chaos sweep cycles through.
PLAN_KINDS: Tuple[str, ...] = (
    "drop",
    "duplicate",
    "delay",
    "mixed",
    "crash",
    "crash+drop",
    "permanent",
)


def sample_fault_plans(n: int, seed: int = 0) -> List[FaultPlan]:
    """Deterministically sample ``n`` fault plans across every plan family.

    Cycles through :data:`PLAN_KINDS` so a small sample still covers drops,
    duplicates, delays, mixed weather, recoverable crashes and the
    permanent-loss degradation path; rates and crash coordinates are drawn
    from a ``seed``-keyed RNG, so ``(n, seed)`` freezes the plan list.
    """
    if n < 0:
        raise ValueError("sample size must be non-negative")
    rng = random.Random(seed)
    plans: List[FaultPlan] = []
    for index in range(n):
        kind = PLAN_KINDS[index % len(PLAN_KINDS)]
        plan_seed = rng.randrange(2**31)
        drop = round(rng.uniform(0.05, 0.3), 3)
        dup = round(rng.uniform(0.05, 0.25), 3)
        delay = round(rng.uniform(0.05, 0.25), 3)
        crash_rank = rng.randrange(64)
        crash_after = rng.randint(1, 30)
        base = FaultPlan(name=f"{kind}-{index}", seed=plan_seed)
        if kind == "drop":
            plan = replace(base, drop_rate=drop)
        elif kind == "duplicate":
            plan = replace(base, duplicate_rate=dup)
        elif kind == "delay":
            plan = replace(base, delay_rate=delay, max_delay_ticks=rng.randint(1, 5))
        elif kind == "mixed":
            plan = replace(
                base,
                drop_rate=round(drop / 2, 3),
                duplicate_rate=round(dup / 2, 3),
                delay_rate=round(delay / 2, 3),
            )
        elif kind == "crash":
            plan = replace(
                base, crash_rank=crash_rank, crash_after_executions=crash_after
            )
        elif kind == "crash+drop":
            plan = replace(
                base,
                drop_rate=round(drop / 2, 3),
                crash_rank=crash_rank,
                crash_after_executions=crash_after,
            )
        else:  # permanent loss -> degradation path
            plan = replace(
                base,
                crash_rank=crash_rank,
                crash_after_executions=crash_after,
                crash_recoverable=False,
            )
        plans.append(plan)
    return plans
