"""Unit tests for the exact wire sizes of the serialization format."""

from __future__ import annotations

import pytest

from repro.runtime.serialization import serialized_size


class TestSizes:
    def test_small_ints_are_compact(self):
        assert serialized_size(0) == 2  # tag + single varint byte
        assert serialized_size(63) == 2
        assert serialized_size(10**6) > serialized_size(100)

    def test_strings_scale_with_length(self):
        assert serialized_size("x" * 100) - serialized_size("x" * 10) == 90

    def test_no_padding_for_variable_length_strings(self):
        # The paper stores FQDNs without padding; short and long strings must
        # cost proportionally, not a fixed record size.
        short = serialized_size("a.com")
        long = serialized_size("a-very-long-domain-name.example.org")
        assert long > short
        assert long < short + 64


class TestIntSizeArray:
    """int_size_array replays serialized_size for whole int64 columns."""

    def test_matches_scalar_across_varint_boundaries(self):
        np = pytest.importorskip("numpy")
        from repro.runtime.serialization import int_size_array

        values = (
            list(range(-300, 300))
            + [2**k for k in range(1, 63)]
            + [-(2**k) for k in range(1, 64)]
            + [2**63 - 1, -(2**63), 12345678901234567]
        )
        sizes = int_size_array(np.asarray(values, dtype=np.int64))
        assert sizes.tolist() == [serialized_size(v) for v in values]

    def test_matches_scalar_on_random_int64(self):
        np = pytest.importorskip("numpy")
        from repro.runtime.serialization import int_size_array

        rng = np.random.default_rng(42)
        values = rng.integers(-(2**63), 2**63 - 1, size=5000, dtype=np.int64)
        assert int_size_array(values).tolist() == [
            serialized_size(int(v)) for v in values.tolist()
        ]
