"""Property-based tests for the wire sizes and the reference codec.

``serialized_size`` is a true size-only path (no ``dumps`` under the hood),
so its exact agreement with ``len(dumps(v))`` — including registered
records, nested containers, and the homogeneous-int fast lane — is the
load-bearing property that keeps size-only wire accounting byte-identical.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracle.codec import dumps, loads
from repro.runtime.serialization import register_record, serialized_size


@dataclasses.dataclass(frozen=True)
class SizedRecord:
    """Registered record exercised by the size-accounting properties."""

    count: int
    weight: float
    label: str
    tags: tuple


def _sized_record_registered() -> type:
    # register_record is idempotent for the same class; re-registering guards
    # against other tests clearing the registry between runs.
    return register_record(SizedRecord)

# Serializable scalar values (NaN excluded: NaN != NaN breaks equality checks).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

# Hashable keys / set members.
hashable = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=20),
)


def nested_values(depth=3):
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(hashable, children, max_size=5),
            st.tuples(children, children),
            st.frozensets(hashable, max_size=5),
        ),
        max_leaves=25,
    )


@given(nested_values())
@settings(max_examples=200, deadline=None)
def test_roundtrip_preserves_value(value):
    assert loads(dumps(value)) == value


@given(nested_values())
@settings(max_examples=100, deadline=None)
def test_roundtrip_preserves_type_structure(value):
    decoded = loads(dumps(value))
    assert type(decoded) is type(value)


@given(nested_values())
@settings(max_examples=100, deadline=None)
def test_serialization_is_deterministic(value):
    assert dumps(value) == dumps(value)


records = st.builds(
    SizedRecord,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.tuples(st.integers(), st.text(max_size=10)),
)


def nested_values_with_records(depth=3):
    return st.recursive(
        st.one_of(scalars, records),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(hashable, children, max_size=5),
            st.tuples(children, children),
            st.frozensets(hashable, max_size=5),
        ),
        max_leaves=25,
    )


@given(nested_values())
@settings(max_examples=100, deadline=None)
def test_serialized_size_matches_payload_length(value):
    assert serialized_size(value) == len(dumps(value))


@given(nested_values_with_records())
@settings(max_examples=200, deadline=None)
def test_serialized_size_matches_for_records_and_nesting(value):
    # The size-only fast path (cached record headers, int fast lanes, no set
    # ordering) must agree byte-for-byte with the real encoder on every
    # supported shape, including registered records nested inside containers.
    _sized_record_registered()
    assert serialized_size(value) == len(dumps(value))


@given(records)
@settings(max_examples=100, deadline=None)
def test_record_roundtrip_and_size(value):
    _sized_record_registered()
    assert serialized_size(value) == len(dumps(value))
    assert loads(dumps(value)) == value


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=30))
@settings(max_examples=100, deadline=None)
def test_int_list_size_monotone_in_length(values):
    # Appending an element never shrinks the payload (no surprising
    # compression that would distort communication-volume accounting).
    size = serialized_size(values)
    assert serialized_size(values + [0]) > size
