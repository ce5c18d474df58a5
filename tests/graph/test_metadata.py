"""Unit tests for metadata helpers and TriangleMetadata."""

from __future__ import annotations

import pytest

from repro.graph.metadata import (
    TriangleMetadata,
    edge_timestamp,
    temporal_edge_meta,
)


def make_triangle(**overrides):
    base = dict(
        p=1, q=2, r=3,
        meta_p="red", meta_q="green", meta_r="blue",
        meta_pq=10.0, meta_pr=20.0, meta_qr=30.0,
    )
    base.update(overrides)
    return TriangleMetadata(**base)


class TestTriangleMetadata:
    def test_accessors(self):
        tri = make_triangle()
        assert tri.vertices() == (1, 2, 3)
        assert tri.vertex_metadata() == ("red", "green", "blue")
        assert tri.edge_metadata() == (10.0, 20.0, 30.0)

    def test_all_distinct_vertex_metadata(self):
        assert make_triangle().all_distinct_vertex_metadata()
        assert not make_triangle(meta_q="red").all_distinct_vertex_metadata()
        assert not make_triangle(meta_r="green", meta_q="green").all_distinct_vertex_metadata()
        # p == r but q different: still not "all distinct"
        assert not make_triangle(meta_r="red").all_distinct_vertex_metadata()

    def test_frozen(self):
        tri = make_triangle()
        with pytest.raises(AttributeError):
            tri.p = 9  # type: ignore[misc]


class TestTemporalEdgeMeta:
    def test_bare_timestamp(self):
        meta = temporal_edge_meta(42)
        assert meta == 42.0
        assert edge_timestamp(meta) == 42.0

    def test_timestamp_with_label(self):
        meta = temporal_edge_meta(42, "message")
        assert meta == (42.0, "message")
        assert edge_timestamp(meta) == 42.0

    def test_dict_metadata_supported(self):
        assert edge_timestamp({"timestamp": 7.5, "other": 1}) == 7.5
