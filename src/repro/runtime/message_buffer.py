"""YGM-style per-destination message buffering.

Naïve distributed triangle enumeration generates enormous numbers of tiny
messages (a handful of vertex ids and a few metadata fields each).  YGM's key
idea — inherited from conveyors [Maley & DeVinney 2019] and the YGM IPDPSW
paper [Priest et al. 2019] — is to *opaquely* buffer small serialized messages
per destination rank and only hand a concatenated byte buffer to MPI once the
buffer exceeds a threshold or a flush is forced (e.g. at a barrier).

This module reproduces that layer for the simulated runtime:

* each rank owns one :class:`MessageBuffer` per destination rank,
* appending an RPC accounts its exact serialized byte size (no payload is
  built: see :class:`Message`),
* when the buffer crosses ``flush_threshold_bytes`` it is flushed, which is
  accounted as a *single* wire message of the aggregate size (plus a small
  per-message envelope, mirroring MPI header overhead),
* local (same-rank) messages bypass the wire entirely but are still counted,
  mirroring YGM's local shortcut.

The number of wire messages and wire bytes recorded here are the quantities
reported as "Communication Volume" in Table 4 of the paper.

Virtual streams (coalesced calls)
---------------------------------

The columnar survey engine and the distributed counting set coalesce many
logical per-message RPCs into one physical batched call, but Table 4 numbers
must not move: the batch stands in for a specific stream of legacy messages
whose exact serialized sizes are known.  :meth:`BufferBank.send_virtual` accounts one such legacy-equivalent
message — per-RPC counters, local/remote byte counters, buffer occupancy and
therefore flush boundaries behave exactly as if the legacy payload had been
appended — without materializing any bytes.  A buffer whose occupancy is
purely virtual still flushes into an (empty) wire message of the accumulated
virtual size, so ``wire_messages``/``wire_bytes`` stay byte-identical to the
legacy run for all traffic issued by the driver loops;
:meth:`BufferBank.send_virtual_bulk` accounts a whole stream at once and is
pinned against the per-message reference.  The batched payload itself
travels out of band (see
:meth:`repro.runtime.world.RankContext.async_call_batched`, including the
one timing caveat that bounds the contract when handlers send further
RPCs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .stats import RankStats

__all__ = [
    "Message",
    "BufferBank",
    "DEFAULT_FLUSH_THRESHOLD",
]

#: Default flush threshold in bytes.  YGM's default buffer capacity is on the
#: order of hundreds of kilobytes; the simulated default is smaller so that
#: laptop-scale workloads still exercise multiple flushes per phase.
DEFAULT_FLUSH_THRESHOLD = 16 * 1024

#: Fixed per-wire-message envelope overhead in bytes (MPI header + handshake
#: amortisation).  Only accounted on flushed (remote) messages.
WIRE_ENVELOPE_BYTES = 64


@dataclass
class Message:
    """One buffered RPC carrier: a handler, its arguments and their wire size.

    ``rpcs`` is the number of logical RPCs the message carries — 1 for
    :meth:`~repro.runtime.world.RankContext.async_call`, ``n`` for a
    coalesced :meth:`~repro.runtime.world.RankContext.async_call_batched` —
    and ``nbytes`` their exact serialized payload size
    (:meth:`~repro.runtime.rpc.RpcRegistry.call_size` for one call, the sum
    of the replaced stream for a batch).  The simulated cluster lives in
    one process, so the arguments travel by reference and no payload is
    built; a message behaves identically to a payload of ``nbytes`` bytes
    everywhere bytes are observed (buffer occupancy, flush boundaries,
    every Table 4 counter).  Senders must treat the arguments as frozen
    after sending: they are shared, not copied.
    """

    source: int
    dest: int
    handle: Any
    args: Tuple[Any, ...]
    rpcs: int
    nbytes: int
    #: At-least-once sequence id, assigned by the reliable transport when a
    #: fault plan with delivery faults is installed (and by a process-backend
    #: worker's fabric); None otherwise.
    seq: Optional[int] = None


class MessageBuffer:
    """Accumulates messages destined for one remote rank (or node).

    ``dest`` is the buffer's grouping key: a rank id under per-rank buffering,
    a node id under node-level aggregation.  Each queued message carries its
    actual destination rank so delivery is unaffected by the grouping.
    """

    def __init__(self, source: int, dest: int, flush_threshold_bytes: int) -> None:
        self.source = source
        self.dest = dest
        self.flush_threshold_bytes = flush_threshold_bytes
        self._pending: List[Message] = []
        self._pending_bytes = 0
        self.flush_count = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    def append(self, message: Message) -> bool:
        """Queue a message; return True if the buffer is now above threshold.

        Occupancy grows by the message's exact serialized size,
        ``message.nbytes``.
        """
        self._pending.append(message)
        self._pending_bytes += message.nbytes
        return self._pending_bytes >= self.flush_threshold_bytes

    def append_virtual(self, nbytes: int) -> bool:
        """Account ``nbytes`` of occupancy without queueing a deliverable message.

        Replays the buffer behaviour (occupancy, flush boundaries, wire
        sizes) of a legacy message whose payload is carried by a coalesced
        call instead.  Returns True when the buffer is
        now above threshold, exactly like :meth:`append`.
        """
        if nbytes < 0:
            raise ValueError("virtual message size must be non-negative")
        self._pending_bytes += nbytes
        return self._pending_bytes >= self.flush_threshold_bytes

    def drain(self) -> Tuple[List[Message], int]:
        """Remove and return all pending messages and their total byte size.

        The byte total includes virtual occupancy from :meth:`append_virtual`;
        a drain that returns no messages can still carry a positive size.
        """
        messages = self._pending
        nbytes = self._pending_bytes
        self._pending = []
        self._pending_bytes = 0
        if messages or nbytes:
            self.flush_count += 1
        return messages, nbytes


class BufferBank:
    """All outgoing buffers owned by one rank, plus flush accounting.

    Parameters
    ----------
    rank:
        Owning rank id.
    nranks:
        World size.
    stats:
        The owning rank's :class:`~repro.runtime.stats.RankStats`; flushes and
        byte counts are recorded into its *current* phase.
    deliver:
        Callable invoked with the list of drained messages when a buffer is
        flushed; the world wires this to the destination rank's inbox.
    flush_threshold_bytes:
        Per-destination buffer capacity before an automatic flush.
    ranks_per_node:
        Messages destined for different ranks hosted on the same *compute
        node* share one buffer when this is > 1 (node ``k`` hosts ranks
        ``[k * ranks_per_node, (k+1) * ranks_per_node)``).  This is the
        node-level aggregation the paper suggests (Section 5.4) as the remedy
        for the flood of small messages at 256-node scale: it multiplies the
        aggregation opportunity per buffer by ``ranks_per_node`` at the cost
        of one extra local hop on the receiving node (not modelled).
    """

    def __init__(
        self,
        rank: int,
        nranks: int,
        stats: RankStats,
        deliver: Callable[[List[Message]], None],
        flush_threshold_bytes: int = DEFAULT_FLUSH_THRESHOLD,
        ranks_per_node: int = 1,
    ) -> None:
        if flush_threshold_bytes <= 0:
            raise ValueError("flush_threshold_bytes must be positive")
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be at least 1")
        self.rank = rank
        self.nranks = nranks
        self.stats = stats
        self._deliver = deliver
        self.flush_threshold_bytes = flush_threshold_bytes
        self.ranks_per_node = ranks_per_node
        self._buffers: Dict[int, MessageBuffer] = {}

    # ------------------------------------------------------------------
    def _buffer_key(self, dest: int) -> int:
        """Buffer grouping key: destination rank, or destination node."""
        if self.ranks_per_node <= 1:
            return dest
        return dest // self.ranks_per_node

    def buffer_for(self, dest: int) -> MessageBuffer:
        key = self._buffer_key(dest)
        buf = self._buffers.get(key)
        if buf is None:
            buf = MessageBuffer(self.rank, key, self.flush_threshold_bytes)
            self._buffers[key] = buf
        return buf

    def send(self, message: Message) -> None:
        """Queue one RPC carrier for ``message.dest``.

        Send-side counters book ``message.rpcs`` RPCs of ``message.nbytes``
        payload bytes.  Local destinations are delivered immediately (no
        wire cost); remote destinations are buffered and flushed on
        threshold.
        """
        dest = message.dest
        if dest < 0 or dest >= self.nranks:
            raise ValueError(f"destination rank {dest} out of range [0, {self.nranks})")
        phase = self.stats.current
        phase.rpcs_sent += message.rpcs
        if dest == self.rank:
            phase.bytes_sent_local += message.nbytes
            self._deliver([message])
            return
        phase.bytes_sent_remote += message.nbytes
        buf = self.buffer_for(dest)
        if buf.append(message):
            self._flush_buffer(buf)

    def send_virtual(self, dest: int, nbytes: int) -> None:
        """Account one legacy-equivalent RPC of ``nbytes`` without a payload.

        Performs every send-side effect :meth:`send` would for a payload of
        that exact serialized size — RPC count, local/remote byte counters,
        buffer occupancy, threshold flushes — so a sender that knows the
        sizes of the per-message stream it replaces keeps Table 4
        communication accounting byte-identical.  The receive-side accounting
        of the replaced messages travels with the coalesced call.  The
        per-message reference :meth:`send_virtual_bulk` is tested against.
        """
        if dest < 0 or dest >= self.nranks:
            raise ValueError(f"destination rank {dest} out of range [0, {self.nranks})")
        phase = self.stats.current
        phase.rpcs_sent += 1
        if dest == self.rank:
            phase.bytes_sent_local += nbytes
            return
        phase.bytes_sent_remote += nbytes
        buf = self.buffer_for(dest)
        if buf.append_virtual(nbytes):
            self._flush_buffer(buf)

    def send_virtual_bulk(self, dests: Any, nbytes: Any) -> None:
        """Account a whole stream of legacy-equivalent RPCs in one call.

        ``dests``/``nbytes`` are parallel NumPy int arrays, one entry per
        replaced legacy message, in the exact order the legacy driver would
        have sent them.  Observable behaviour — every stats counter, buffer
        occupancy, each buffer's flush boundaries and flushed sizes — is
        identical to calling :meth:`send_virtual` once per entry: messages
        destined for different buffers never interact, so replaying each
        buffer's (order-preserved) subsequence reproduces the per-message
        walk exactly, while the flush boundaries inside one buffer are found
        with ``searchsorted`` over the running cumulative size instead of a
        Python-level threshold check per message.
        """
        n = int(len(nbytes))
        if n == 0:
            return
        phase = self.stats.current
        phase.rpcs_sent += n
        local = dests == self.rank
        if local.any():
            phase.bytes_sent_local += int(nbytes[local].sum())
            if local.all():
                return
            remote = ~local
            dests = dests[remote]
            nbytes = nbytes[remote]
        phase.bytes_sent_remote += int(nbytes.sum())
        keys = dests // self.ranks_per_node if self.ranks_per_node > 1 else dests
        if not (keys == keys[0]).all():  # one destination (every advise reply): no sort
            from .world import stable_key_order  # world builds on this module

            order = stable_key_order(keys)
            keys, nbytes = keys[order], nbytes[order]
        heads = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=heads[1:])
        group_starts = np.flatnonzero(heads)
        # One running size over every group (group g's prefix sums less the
        # sum before it): each flush boundary is one bound searchsorted.
        csum = np.cumsum(nbytes)
        find, at = csum.searchsorted, csum.item
        bounds = group_starts.tolist() + [keys.size]
        threshold = self.flush_threshold_bytes
        wire_messages = wire_bytes = 0
        for g, key in enumerate(keys[group_starts].tolist()):
            buf = self._buffers.get(key)
            if buf is None:
                buf = MessageBuffer(self.rank, key, threshold)
                self._buffers[key] = buf
            lo, hi = bounds[g], bounds[g + 1]
            before = at(lo - 1) if lo else 0
            total = at(hi - 1) - before
            if buf._pending_bytes + total < threshold:
                buf._pending_bytes += total
                continue
            # First flush carries whatever the buffer already held (including
            # queued deliverable messages) plus the virtual prefix.
            flushed_to = at(int(find(before + threshold - buf._pending_bytes)))
            wire_messages += 1
            wire_bytes += buf._pending_bytes + flushed_to - before + WIRE_ENVELOPE_BYTES
            messages = buf._pending
            buf._pending = []
            buf._pending_bytes = 0
            buf.flush_count += 1
            if messages:
                self._deliver(messages)
            # Later flushes are purely virtual: find each next boundary where
            # the running occupancy crosses the threshold again.
            while True:
                nxt = int(find(flushed_to + threshold))
                if nxt >= hi:
                    break
                buf.flush_count += 1
                wire_messages += 1
                wire_bytes += at(nxt) - flushed_to + WIRE_ENVELOPE_BYTES
                flushed_to = at(nxt)
            buf._pending_bytes = before + total - flushed_to
        phase.wire_messages += wire_messages
        phase.wire_bytes += wire_bytes

    # ------------------------------------------------------------------
    def _flush_buffer(self, buf: MessageBuffer) -> None:
        messages, nbytes = buf.drain()
        if not messages and not nbytes:
            return
        phase = self.stats.current
        phase.wire_messages += 1
        phase.wire_bytes += nbytes + WIRE_ENVELOPE_BYTES
        if messages:
            self._deliver(messages)

    def flush_all(self) -> None:
        """Force-flush every non-empty buffer (called at barriers)."""
        for buf in self._buffers.values():
            self._flush_buffer(buf)

    def drop_pending(self) -> None:
        """Discard all buffered-but-unflushed traffic without accounting.

        Crash recovery uses this: data still sitting in send buffers when a
        rank dies never reached the wire, so it vanishes without wire
        counters — its ``rpcs_sent``/``bytes_sent_remote`` from send time
        stay on the books, exactly like a real send into a dead connection.
        """
        for buf in self._buffers.values():
            buf._pending = []
            buf._pending_bytes = 0

    def pending_bytes(self) -> int:
        return sum(buf.pending_bytes for buf in self._buffers.values())

    def pending_messages(self) -> int:
        return sum(len(buf) for buf in self._buffers.values())

    def has_pending(self) -> bool:
        """True when any buffer holds undelivered messages or virtual bytes."""
        return any(
            len(buf) > 0 or buf.pending_bytes > 0 for buf in self._buffers.values()
        )

    def destinations(self) -> List[int]:
        return sorted(dest for dest, buf in self._buffers.items() if len(buf) > 0)
