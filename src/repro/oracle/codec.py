"""The reference codec: the wire format the runtime's sizes are pinned to.

The runtime accounts every RPC by size alone
(:func:`repro.runtime.serialization.serialized_size`,
:meth:`repro.runtime.rpc.RpcRegistry.call_size`) and passes arguments by
reference, so no production path builds a payload.  This module is the
encoder and decoder those sizes are held to: ``serialized_size(v) ==
len(dumps(v))`` for every supported value, and ``loads(dumps(v)) == v``
makes the format a real, decodable wire format rather than an estimate —
tagged, variable-length, self-describing, with zig-zag varint integers and
registered dataclass records (:func:`repro.runtime.serialization.register_record`).
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Dict, Iterable, List, Tuple

from ..runtime.serialization import _RECORD_NAMES, _RECORD_REGISTRY, SerializationError

__all__ = ["dumps", "loads"]

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
