"""Compact tagged binary serialization for the simulated YGM runtime.

The original TriPoll uses the ``cereal`` C++ library to serialize message
payloads (function arguments, adjacency fragments, metadata records) into
byte arrays that are then concatenated into large buffered MPI messages.
The *size in bytes* of those serialized payloads is what the paper reports
as communication volume (Table 4), so this module implements a real codec
rather than estimating sizes: every value is packed into a tagged,
variable-length binary representation and the byte counts that flow through
:mod:`repro.runtime.message_buffer` are exact byte counts of this format.

Supported value types
---------------------

* ``None``, ``bool``
* integers (zig-zag varint encoding, arbitrary precision fallback)
* floats (IEEE-754 double)
* ``str`` (UTF-8, length prefixed) and ``bytes``
* ``list``, ``tuple``, ``dict``, ``set``, ``frozenset`` of supported values
* registered dataclasses / record types (see :func:`register_record`)
* numpy scalar types (converted to the corresponding Python scalar)

The format is self-describing: :func:`loads` reconstructs the value without
external schema information, mirroring cereal's behaviour of serializing
heterogeneous message types into a single stream.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Dict, Iterable, List, Tuple, Type

import numpy as np

__all__ = [
    "SerializationError",
    "dumps",
    "loads",
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
# Type tags
# ---------------------------------------------------------------------------

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_BIGINT = 0x04
_TAG_FLOAT = 0x05
_TAG_STR = 0x06
_TAG_BYTES = 0x07
_TAG_LIST = 0x08
_TAG_TUPLE = 0x09
_TAG_DICT = 0x0A
_TAG_SET = 0x0B
_TAG_FROZENSET = 0x0C
_TAG_RECORD = 0x0D

_DOUBLE = struct.Struct("<d")


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
# Varint helpers
# ---------------------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SerializationError("uvarint cannot encode negative values")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: memoryview, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SerializationError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


def _zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _encode(out: bytearray, value: Any) -> None:
    # numpy scalars: convert transparently so generators can emit np.int64 etc.
    item = getattr(value, "item", None)
    if item is not None and type(value).__module__ == "numpy":
        value = value.item()

    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        if -(1 << 63) <= value < (1 << 63):
            out.append(_TAG_INT)
            _write_uvarint(out, ((value << 1) ^ (value >> 63)) & ((1 << 70) - 1))
        else:
            out.append(_TAG_BIGINT)
            raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
            _write_uvarint(out, len(raw))
            out.extend(raw)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(_DOUBLE.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_uvarint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_TAG_BYTES)
        _write_uvarint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, list):
        out.append(_TAG_LIST)
        _write_uvarint(out, len(value))
        for elem in value:
            _encode(out, elem)
    elif isinstance(value, tuple):
        out.append(_TAG_TUPLE)
        _write_uvarint(out, len(value))
        for elem in value:
            _encode(out, elem)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        _write_uvarint(out, len(value))
        for key, elem in value.items():
            _encode(out, key)
            _encode(out, elem)
    elif isinstance(value, frozenset):
        out.append(_TAG_FROZENSET)
        _write_uvarint(out, len(value))
        for elem in _stable_set_order(value):
            _encode(out, elem)
    elif isinstance(value, set):
        out.append(_TAG_SET)
        _write_uvarint(out, len(value))
        for elem in _stable_set_order(value):
            _encode(out, elem)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = _RECORD_NAMES.get(type(value))
        if name is None:
            raise SerializationError(
                f"dataclass {type(value).__qualname__} is not registered; "
                "call register_record() first"
            )
        out.append(_TAG_RECORD)
        raw_name = name.encode("utf-8")
        _write_uvarint(out, len(raw_name))
        out.extend(raw_name)
        fields = dataclasses.fields(value)
        _write_uvarint(out, len(fields))
        for field in fields:
            _encode(out, getattr(value, field.name))
    else:
        raise SerializationError(f"cannot serialize value of type {type(value).__qualname__}")


def _stable_set_order(values: Iterable[Any]) -> List[Any]:
    """Order set elements deterministically so byte output is reproducible."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _decode(data: memoryview, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise SerializationError("truncated payload")
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        raw, pos = _read_uvarint(data, pos)
        return _zigzag_decode(raw), pos
    if tag == _TAG_BIGINT:
        length, pos = _read_uvarint(data, pos)
        raw = bytes(data[pos : pos + length])
        if len(raw) != length:
            raise SerializationError("truncated bigint")
        return int.from_bytes(raw, "little", signed=True), pos + length
    if tag == _TAG_FLOAT:
        if pos + 8 > len(data):
            raise SerializationError("truncated float")
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_STR:
        length, pos = _read_uvarint(data, pos)
        raw = bytes(data[pos : pos + length])
        if len(raw) != length:
            raise SerializationError("truncated string")
        return raw.decode("utf-8"), pos + length
    if tag == _TAG_BYTES:
        length, pos = _read_uvarint(data, pos)
        raw = bytes(data[pos : pos + length])
        if len(raw) != length:
            raise SerializationError("truncated bytes")
        return raw, pos + length
    if tag in (_TAG_LIST, _TAG_TUPLE, _TAG_SET, _TAG_FROZENSET):
        length, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(length):
            item, pos = _decode(data, pos)
            items.append(item)
        if tag == _TAG_LIST:
            return items, pos
        if tag == _TAG_TUPLE:
            return tuple(items), pos
        if tag == _TAG_SET:
            return set(items), pos
        return frozenset(items), pos
    if tag == _TAG_DICT:
        length, pos = _read_uvarint(data, pos)
        result: Dict[Any, Any] = {}
        for _ in range(length):
            key, pos = _decode(data, pos)
            val, pos = _decode(data, pos)
            result[key] = val
        return result, pos
    if tag == _TAG_RECORD:
        name_len, pos = _read_uvarint(data, pos)
        raw_name = bytes(data[pos : pos + name_len])
        if len(raw_name) != name_len:
            raise SerializationError("truncated record name")
        pos += name_len
        name = raw_name.decode("utf-8")
        cls = _RECORD_REGISTRY.get(name)
        if cls is None:
            raise SerializationError(f"record type {name!r} is not registered on this rank")
        nfields, pos = _read_uvarint(data, pos)
        fields = dataclasses.fields(cls)
        if nfields != len(fields):
            raise SerializationError(
                f"record {name!r}: expected {len(fields)} fields, payload has {nfields}"
            )
        values = []
        for _ in range(nfields):
            val, pos = _decode(data, pos)
            values.append(val)
        return cls(*values), pos
    raise SerializationError(f"unknown tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def dumps(value: Any) -> bytes:
    """Serialize ``value`` to a compact binary payload."""
    out = bytearray()
    _encode(out, value)
    return bytes(out)


def loads(payload: bytes | bytearray | memoryview) -> Any:
    """Deserialize a payload produced by :func:`dumps`."""
    view = memoryview(payload)
    value, pos = _decode(view, 0)
    if pos != len(view):
        raise SerializationError(f"trailing bytes after payload ({len(view) - pos} bytes)")
    return value


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
    """Exact wire size of ``value``: mirrors :func:`_encode` byte for byte.

    Exact-type dispatch keeps the common scalar/container cases on a fast
    path (no bytearray, no set ordering, no varint materialization); anything
    else — numpy scalars, builtin subclasses, registered records — falls
    through to :func:`_size_slow`, which replays ``_encode``'s isinstance
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

    Computed without materializing ``dumps(value)`` — no bytearray is built,
    sets are not sorted, and registered-record headers are cached per class —
    but the result is exactly ``len(dumps(value))`` for every supported
    value (pinned by ``tests/properties/test_property_serialization.py``).
    Size-only accounting paths (virtual streams, the legacy survey drivers)
    lean on this to keep Table 4 numbers byte-identical without paying the
    codec.
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
