"""Tests for the plain-text reporting helpers."""

from __future__ import annotations

import pytest

from repro.bench import (
    format_histogram,
    format_kv,
    format_table,
    human_bytes,
    human_count,
    percentiles,
)


class TestHumanFormats:
    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert "KB" in human_bytes(2048)
        assert "MB" in human_bytes(5 * 1024**2)
        assert "GB" in human_bytes(3 * 1024**3)

    def test_human_count(self):
        assert human_count(None) == "-"
        assert human_count(950) == "950"
        assert human_count(2_500) == "2.50K"
        assert human_count(3_600_000) == "3.60M"
        assert human_count(9.4e9) == "9.40B"
        assert human_count(9.65e12) == "9.65T"


class TestFormatTable:
    def test_columns_aligned_and_ordered(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
        text = format_table(rows, columns=["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert len(lines) == 5

    def test_missing_values_render_as_dash(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "-" in text

    def test_infers_columns(self):
        text = format_table([{"x": 1, "y": 2}])
        assert "x" in text.splitlines()[0]
        assert "y" in text.splitlines()[0]


class TestOtherFormats:
    def test_format_kv(self):
        text = format_kv({"nodes": 4, "time": 1.25}, title="Run")
        assert text.splitlines()[0] == "Run"
        assert any("nodes" in line for line in text.splitlines())

    def test_format_histogram_bars_scale(self):
        text = format_histogram({1: 100, 2: 50, 3: 1}, title="H")
        lines = text.splitlines()
        assert lines[0] == "H"
        assert lines[1].count("#") > lines[2].count("#") > 0

    def test_format_histogram_empty(self):
        assert "(empty)" in format_histogram({})


class TestPercentiles:
    def test_empty_input_yields_none_per_key(self):
        assert percentiles([]) == {"p50": None, "p90": None, "p99": None}

    def test_singleton_yields_that_value_everywhere(self):
        assert percentiles([7.5]) == {"p50": 7.5, "p90": 7.5, "p99": 7.5}

    def test_linear_interpolation_matches_numpy_convention(self):
        # rank = (n - 1) * p / 100 over [0..10]: p50 = 5, p90 = 9, p99 = 9.9
        values = list(range(11))
        result = percentiles(values)
        assert result["p50"] == pytest.approx(5.0)
        assert result["p90"] == pytest.approx(9.0)
        assert result["p99"] == pytest.approx(9.9)

    def test_order_independent(self):
        shuffled = [3.0, 1.0, 2.0, 5.0, 4.0]
        assert percentiles(shuffled) == percentiles(sorted(shuffled))

    def test_extremes_and_fractional_keys(self):
        result = percentiles([1.0, 2.0, 3.0], ps=(0, 100, 99.9))
        assert result["p0"] == 1.0
        assert result["p100"] == 3.0
        assert "p99.9" in result and result["p99.9"] == pytest.approx(2.998)

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            percentiles([1.0], ps=(101,))
        with pytest.raises(ValueError, match="percentile"):
            percentiles([1.0], ps=(-1,))
