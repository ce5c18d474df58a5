"""Message codec for the process backend's exchange rounds.

Messages that stay on their owning worker are never encoded — they keep
Python object identity, exactly like the simulated world's by-reference
delivery.  A cross-worker :class:`~repro.runtime.message_buffer.Message`
encodes to one plain tuple ``(source, dest, seq, handler_id, name, args,
rpcs, nbytes)``: the handler travels as its registry id + name (handler
registration happens before the backend forks, so ids resolve to the same
handler everywhere) and each argument is encoded by
:meth:`MessageEncoder.encode_value`:

* ``("shared", key)`` — a pre-fork shared object (CSR adjacency segments):
  never shipped at all; the receiver resolves the key against its own
  fork-inherited copy.
* ``("i64", segment, offset, length)`` — a contiguous int64 column
  (candidate rows, q-positions, pull row ids — the ``TriangleBatch``
  feedstock).  All columns of one worker's round are packed into a single
  ``multiprocessing.shared_memory`` segment; the receiver builds a
  zero-copy ``np.ndarray`` view over the mapped buffer.  Receivers treat
  the views as frozen, the contract every message's arguments carry.
* ``("py", value)`` — everything else, pickled with the enclosing blob.

None of this touches the wire *accounting*: ``rpcs`` / ``nbytes`` were
computed by the sender from the serialized sizes, and travel as plain ints —
Table 4 totals are replayed, not re-measured.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..message_buffer import Message
from ..rpc import RpcHandle
from . import shm as _shm

import numpy as _np

__all__ = ["SegmentWriter", "MessageEncoder", "MessageDecoder", "sort_key"]


def sort_key(msg: Any) -> Tuple[int, int]:
    """Deterministic execution order within one exchange round.

    ``(source rank, per-source sequence)`` reproduces the simulated inbox
    order: the oracle drives ranks sequentially and appends FIFO, so a
    destination's inbox is exactly its messages sorted by this key.
    """
    return (msg.source, msg.seq)


class SegmentWriter:
    """Packs every outgoing int64 column of one round into one segment.

    Offsets are in elements (everything is int64); duplicate array objects
    (one column fanned out to several destination workers) pack once.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._arrays: List[Any] = []
        self._entries: Dict[int, Tuple[int, int]] = {}
        self._total_elems = 0

    def add(self, array: Any) -> Tuple[str, int, int]:
        entry = self._entries.get(id(array))
        if entry is None:
            entry = (self._total_elems, int(array.shape[0]))
            self._entries[id(array)] = entry
            self._arrays.append(array)
            self._total_elems += entry[1]
        return (self.name, entry[0], entry[1])

    def finish(self):
        """Create and fill the segment; None when no columns were packed."""
        if not self._arrays:
            return None
        segment = _shm.create_segment(self.name, max(1, self._total_elems * 8))
        view = _np.ndarray((self._total_elems,), dtype=_np.int64, buffer=segment.buf)
        for array in self._arrays:
            offset, length = self._entries[id(array)]
            view[offset : offset + length] = array
        return segment


class MessageEncoder:
    """Encodes one worker's cross-worker messages for one exchange round."""

    def __init__(
        self, shared_ids: Dict[int, Any], writer: Optional[SegmentWriter]
    ) -> None:
        self._shared_ids = shared_ids
        self._writer = writer

    def encode_value(self, value: Any) -> Tuple[Any, ...]:
        key = self._shared_ids.get(id(value))
        if key is not None:
            return ("shared", key)
        if (
            self._writer is not None
            and isinstance(value, _np.ndarray)
            and value.dtype == _np.int64
            and value.ndim == 1
            and value.flags["C_CONTIGUOUS"]
        ):
            return ("i64",) + self._writer.add(value)
        return ("py", value)

    def encode_message(self, msg: Message) -> Tuple[Any, ...]:
        return (
            msg.source,
            msg.dest,
            msg.seq,
            msg.handle.handler_id,
            msg.handle.name,
            tuple(self.encode_value(v) for v in msg.args),
            msg.rpcs,
            msg.nbytes,
        )

    def encode_blob(self, messages: Iterable[Message]) -> bytes:
        """One pre-pickled bundle per destination worker.

        The parent routes these opaquely — it never unpickles message
        content, so the coordinator stays off the data path.
        """
        return pickle.dumps(
            [self.encode_message(m) for m in messages],
            protocol=pickle.HIGHEST_PROTOCOL,
        )


class MessageDecoder:
    """Rebuilds messages on the receiving worker.

    Keeps every attached segment mapped for the survey's lifetime — the
    int64 views alias the mapping, so it must outlive them.  The backend
    closes the attachments when the worker finishes.
    """

    def __init__(self, registry: Any, shared_objects: Dict[Any, Any]) -> None:
        self._registry = registry
        self._shared = shared_objects
        self.attachments: Dict[str, Any] = {}

    def decode_value(self, entry: Tuple[Any, ...]) -> Any:
        tag = entry[0]
        if tag == "py":
            return entry[1]
        if tag == "shared":
            return self._shared[entry[1]]
        if tag == "i64":
            _, name, offset, length = entry
            segment = self.attachments.get(name)
            if segment is None:
                segment = self.attachments[name] = _shm.attach_segment(name)
            return _np.ndarray(
                (length,), dtype=_np.int64, buffer=segment.buf, offset=offset * 8
            )
        raise TypeError(f"unknown encoded value tag {tag!r}")

    def decode_message(self, entry: Tuple[Any, ...]) -> Message:
        source, dest, seq, handler_id, name, args, rpcs, nbytes = entry
        handle = RpcHandle(self._registry, handler_id, name)
        return Message(
            source, dest, handle, tuple(self.decode_value(v) for v in args), rpcs, nbytes, seq
        )

    def decode_blob(self, blob: bytes) -> List[Message]:
        return [self.decode_message(entry) for entry in pickle.loads(blob)]

    def close(self) -> None:
        for segment in self.attachments.values():
            try:
                segment.close()
            except Exception:  # pragma: no cover - already unlinked/closed
                pass
        self.attachments.clear()
