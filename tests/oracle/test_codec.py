"""Round trips of the reference codec the runtime's sizes are pinned to.

``loads(dumps(v)) == v`` is what makes the format the runtime accounts in
(:func:`repro.runtime.serialization.serialized_size`) a decodable wire
format rather than an estimate.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.oracle.codec import dumps, loads
from repro.runtime import serialization
from repro.runtime.serialization import SerializationError, register_record


class TestScalarRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            255,
            -255,
            2**31,
            -(2**31),
            2**62,
            -(2**62),
            0.0,
            1.5,
            -3.25e300,
            float("inf"),
            "",
            "hello",
            "unicode: héllo wörld ✓",
            b"",
            b"\x00\x01\xff",
        ],
    )
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_big_integer_roundtrip(self):
        value = 2**200 + 12345
        assert loads(dumps(value)) == value
        assert loads(dumps(-value)) == -value

    def test_nan_roundtrip(self):
        import math

        result = loads(dumps(float("nan")))
        assert math.isnan(result)

    def test_bool_is_not_confused_with_int(self):
        assert loads(dumps(True)) is True
        assert loads(dumps(1)) == 1
        assert loads(dumps(1)) is not True or loads(dumps(1)) == 1

    def test_numpy_scalars_are_converted(self):
        import numpy as np

        assert loads(dumps(np.int64(42))) == 42
        assert loads(dumps(np.float64(2.5))) == 2.5


class TestContainerRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            [],
            [1, 2, 3],
            (1, "a", None),
            {"k": [1, 2], 3: (4, 5)},
            {1, 2, 3},
            frozenset({"a", "b"}),
            [[1, [2, [3]]], {"deep": {"deeper": (1,)}}],
            [(0, 5, True), (1, 3, False)],
        ],
    )
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_tuple_and_list_are_distinguished(self):
        assert isinstance(loads(dumps((1, 2))), tuple)
        assert isinstance(loads(dumps([1, 2])), list)

    def test_set_and_frozenset_are_distinguished(self):
        assert isinstance(loads(dumps({1, 2})), set)
        assert isinstance(loads(dumps(frozenset({1, 2}))), frozenset)

    def test_dict_keys_of_mixed_types(self):
        value = {1: "a", "b": 2, (1, 2): [3]}
        assert loads(dumps(value)) == value


class TestRecords:
    def setup_method(self):
        # Snapshot the registry so types registered at import time elsewhere in
        # the library (e.g. DirectedEdgeMeta) survive these isolation tests.
        self._saved = serialization.registered_records()
        serialization.clear_registry()

    def teardown_method(self):
        serialization.clear_registry()
        for name, cls in self._saved.items():
            serialization.register_record(cls, name=name)

    def test_registered_dataclass_roundtrip(self):
        @register_record
        @dataclasses.dataclass(frozen=True)
        class EdgeMeta:
            timestamp: float
            label: str

        value = EdgeMeta(12.5, "purchase")
        assert loads(dumps(value)) == value

    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass
        class NotRegistered:
            x: int

        with pytest.raises(SerializationError):
            dumps(NotRegistered(1))

    def test_non_dataclass_cannot_be_registered(self):
        class Plain:
            pass

        with pytest.raises(SerializationError):
            register_record(Plain)

    def test_duplicate_name_rejected(self):
        @dataclasses.dataclass
        class A:
            x: int

        register_record(A, name="shared")

        @dataclasses.dataclass
        class B:
            y: int

        with pytest.raises(SerializationError):
            register_record(B, name="shared")

    def test_nested_records(self):
        @register_record
        @dataclasses.dataclass(frozen=True)
        class Inner:
            value: int

        @register_record
        @dataclasses.dataclass(frozen=True)
        class Outer:
            inner: "Inner"
            items: list

        value = Outer(Inner(3), [Inner(1), Inner(2)])
        assert loads(dumps(value)) == value


class TestErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(SerializationError):
            dumps(object())

    def test_truncated_payload_rejected(self):
        payload = dumps([1, 2, 3])
        with pytest.raises(SerializationError):
            loads(payload[:-1])

    def test_trailing_bytes_rejected(self):
        payload = dumps(42) + b"\x00"
        with pytest.raises(SerializationError):
            loads(payload)

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"\xfe")

    def test_empty_payload_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"")


class TestDeterminism:
    def test_deterministic_output(self):
        value = {"a": [1, 2, 3], "b": {4: (5, 6)}, "s": {7, 8, 9}}
        assert dumps(value) == dumps(value)


def test_production_holds_no_codec():
    """The runtime sizes calls and never encodes one: the codec is the
    oracle's, and neither the runtime package nor the RPC registry exports
    an encoder or decoder."""
    import repro.runtime
    from repro.runtime.rpc import RpcRegistry

    for name in ("dumps", "loads"):
        assert not hasattr(repro.runtime, name)
        assert not hasattr(serialization, name)
    for name in ("encode_call", "decode_call"):
        assert not hasattr(RpcRegistry, name)
