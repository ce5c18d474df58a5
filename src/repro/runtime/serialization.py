"""Exact wire sizes of serialized RPC arguments for the simulated YGM runtime.

The original TriPoll uses the ``cereal`` C++ library to serialize message
payloads (function arguments, adjacency fragments, metadata records) into
byte arrays that are then concatenated into large buffered MPI messages.
The *size in bytes* of those serialized payloads is what the paper reports
as communication volume (Table 4).  The simulated cluster lives in one
process and passes arguments by reference, so the runtime never builds a
payload: :func:`serialized_size` computes the exact byte count of a tagged,
variable-length binary format, and those counts flow through
:mod:`repro.runtime.message_buffer`.  The format itself — the encoder and
decoder these sizes are pinned to (``serialized_size(v) == len(dumps(v))``)
— is the reference codec :mod:`repro.oracle.codec`.

Supported value types
---------------------

* ``None``, ``bool``
* integers (zig-zag varint encoding, arbitrary precision fallback)
* floats (IEEE-754 double)
* ``str`` (UTF-8, length prefixed) and ``bytes``
* ``list``, ``tuple``, ``dict``, ``set``, ``frozenset`` of supported values
* registered dataclasses / record types (see :func:`register_record`)
* numpy scalar types (converted to the corresponding Python scalar)

The format is self-describing: the reference decoder reconstructs the value
without external schema information, mirroring cereal's behaviour of
serializing heterogeneous message types into a single stream.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Type

import numpy as np

__all__ = [
    "SerializationError",
    "serialized_size",
    "uvarint_size",
    "uvarint_size_array",
    "int_size_array",
    "register_record",
    "registered_records",
    "clear_registry",
]


class SerializationError(Exception):
    """Raised when a value cannot be serialized or deserialized."""


# ---------------------------------------------------------------------------
# Record (dataclass) registry
# ---------------------------------------------------------------------------

_RECORD_REGISTRY: Dict[str, Type[Any]] = {}
_RECORD_NAMES: Dict[Type[Any], str] = {}
#: Cached fixed wire overhead (tag + name + field count) per registered class,
#: so size-only accounting of records skips re-encoding the header each time.
_RECORD_HEADER_SIZES: Dict[Type[Any], int] = {}


def register_record(cls: Type[Any], name: str | None = None) -> Type[Any]:
    """Register a dataclass so instances can cross the simulated network.

    Mirrors cereal's requirement that user types provide a serialization
    method.  The class must be a :mod:`dataclasses` dataclass; its fields are
    serialized positionally.  Can be used as a decorator::

        @register_record
        @dataclasses.dataclass(frozen=True)
        class EdgeMeta:
            timestamp: float
            label: int

    Parameters
    ----------
    cls:
        The dataclass type to register.
    name:
        Optional registry name; defaults to ``cls.__qualname__``.
    """
    if not dataclasses.is_dataclass(cls):
        raise SerializationError(f"{cls!r} is not a dataclass; cannot register")
    key = name if name is not None else cls.__qualname__
    existing = _RECORD_REGISTRY.get(key)
    if existing is not None and existing is not cls:
        raise SerializationError(f"record name {key!r} already registered for {existing!r}")
    _RECORD_REGISTRY[key] = cls
    _RECORD_NAMES[cls] = key
    return cls


def registered_records() -> Dict[str, Type[Any]]:
    """Return a copy of the record registry (name -> class)."""
    return dict(_RECORD_REGISTRY)


def clear_registry() -> None:
    """Remove all registered record types (used by tests)."""
    _RECORD_REGISTRY.clear()
    _RECORD_NAMES.clear()
    _RECORD_HEADER_SIZES.clear()


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------


def _int_size(value: int) -> int:
    """Wire size of an integer without encoding it (tag + varint / bigint)."""
    if -(1 << 63) <= value < (1 << 63):
        zigzag = ((value << 1) ^ (value >> 63)) & ((1 << 70) - 1)
        size = 2
        while zigzag >= 0x80:
            zigzag >>= 7
            size += 1
        return size
    raw = (value.bit_length() + 8) // 8 + 1
    return 1 + uvarint_size(raw) + raw


def _size(value: Any) -> int:
    """Exact wire size of ``value``: mirrors the reference encoder byte for byte.

    Exact-type dispatch keeps the common scalar/container cases on a fast
    path (no bytearray, no set ordering, no varint materialization); anything
    else — numpy scalars, builtin subclasses, registered records — falls
    through to :func:`_size_slow`, which replays the encoder's isinstance
    order.
    """
    cls = value.__class__
    if cls is bool or value is None:
        return 1
    if cls is int:
        return _int_size(value)
    if cls is float:
        return 9  # tag + IEEE-754 double
    if cls is str:
        raw = len(value.encode("utf-8"))
        return 1 + uvarint_size(raw) + raw
    if cls is bytes or cls is bytearray:
        raw = len(value)
        return 1 + uvarint_size(raw) + raw
    if cls is list or cls is tuple:
        total = 1 + uvarint_size(len(value))
        for elem in value:
            # Homogeneous int sequences (candidate ids, degree/count columns)
            # are the dominant payload shape; size them inline.
            total += _int_size(elem) if elem.__class__ is int else _size(elem)
        return total
    if cls is dict:
        total = 1 + uvarint_size(len(value))
        for key, elem in value.items():
            total += _size(key) + _size(elem)
        return total
    if cls is set or cls is frozenset:
        # Element order affects bytes but never the byte *count*.
        total = 1 + uvarint_size(len(value))
        for elem in value:
            total += _size(elem)
        return total
    return _size_slow(value)


def _size_slow(value: Any) -> int:
    item = getattr(value, "item", None)
    if item is not None and type(value).__module__ == "numpy":
        return _size(value.item())
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, int):
        return _int_size(value)
    if isinstance(value, float):
        return 9
    if isinstance(value, str):
        raw = len(value.encode("utf-8"))
        return 1 + uvarint_size(raw) + raw
    if isinstance(value, (bytes, bytearray, memoryview)):
        raw = value.nbytes if isinstance(value, memoryview) else len(bytes(value))
        return 1 + uvarint_size(raw) + raw
    if isinstance(value, (list, tuple)):
        total = 1 + uvarint_size(len(value))
        for elem in value:
            total += _size(elem)
        return total
    if isinstance(value, dict):
        total = 1 + uvarint_size(len(value))
        for key, elem in value.items():
            total += _size(key) + _size(elem)
        return total
    if isinstance(value, (set, frozenset)):
        total = 1 + uvarint_size(len(value))
        for elem in value:
            total += _size(elem)
        return total
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        name = _RECORD_NAMES.get(cls)
        if name is None:
            raise SerializationError(
                f"dataclass {cls.__qualname__} is not registered; "
                "call register_record() first"
            )
        header = _RECORD_HEADER_SIZES.get(cls)
        fields = dataclasses.fields(value)
        if header is None:
            raw_name = len(name.encode("utf-8"))
            header = 1 + uvarint_size(raw_name) + raw_name + uvarint_size(len(fields))
            _RECORD_HEADER_SIZES[cls] = header
        total = header
        for field in fields:
            total += _size(getattr(value, field.name))
        return total
    raise SerializationError(f"cannot serialize value of type {type(value).__qualname__}")


def serialized_size(value: Any) -> int:
    """Return the number of bytes ``value`` occupies on the simulated wire.

    Computed without materializing a payload — no bytearray is built, sets
    are not sorted, and registered-record headers are cached per class — but
    the result is exactly ``len(dumps(value))`` of the reference codec
    :mod:`repro.oracle.codec` for every supported value (pinned by
    ``tests/properties/test_property_serialization.py``).
    Every RPC is accounted at this size, which keeps Table 4 numbers
    byte-identical without encoding anything.
    """
    return _size(value)


def uvarint_size(value: int) -> int:
    """Bytes an unsigned varint occupies (container length prefixes).

    Lets size-accounting code (the columnar survey engine) compute the exact
    framing overhead of a list of known length without encoding it.
    """
    if value < 0:
        raise SerializationError("uvarint cannot encode negative values")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def int_size_array(values: Any) -> Any:
    """Vectorized integer wire size for int64 arrays.

    ``int_size_array(a)[i] == serialized_size(int(a[i]))`` for every int64
    value, negatives included: the scalar path zigzags into 70 masked bits
    and varint-counts, which for in-range values is exactly the two's
    complement ``(v << 1) ^ (v >> 63)`` zigzag reinterpreted as uint64.
    Bulk size-accounting paths (the vectorized CSR snapshot build) use this
    to size whole id/degree columns without a Python call per element.
    """
    v = np.ascontiguousarray(values, dtype=np.int64)
    zigzag = ((v << np.int64(1)) ^ (v >> np.int64(63))).view(np.uint64)
    size = np.full(v.shape, 2, dtype=np.int64)  # type tag + first varint byte
    rest = zigzag >> np.uint64(7)
    while True:
        more = rest > 0
        if not more.any():
            return size
        size += more
        rest = rest >> np.uint64(7)


def uvarint_size_array(values: Any) -> Any:
    """Vectorized :func:`uvarint_size` over an int array.

    ``uvarint_size_array(a)[i] == uvarint_size(int(a[i]))`` for every
    non-negative int64 value; used by the columnar survey driver to compute
    per-wedge framing bytes without a Python call per wedge.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size and int(v.min()) < 0:
        raise SerializationError("uvarint cannot encode negative values")
    size = np.ones(v.shape, dtype=np.int64)
    rest = v >> 7
    while True:
        more = rest > 0
        if not more.any():
            return size
        size += more
        rest = rest >> 7
