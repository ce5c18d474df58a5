"""Unit tests for graph property computation (Table 1 quantities)."""

from __future__ import annotations

import networkx as nx

from repro.graph import (
    build_adjacency,
    dodgr_wedge_count,
    serial_triangle_count,
    serial_triangle_list,
    summarize_edges,
)


class TestSerialOracles:
    def test_triangle_count_matches_networkx(self, small_rmat):
        nxg = small_rmat.to_networkx()
        expected = sum(nx.triangles(nxg).values()) // 3
        assert serial_triangle_count(small_rmat.edges) == expected

    def test_triangle_count_on_known_graphs(self):
        triangle = [(1, 2), (2, 3), (1, 3)]
        square = [(1, 2), (2, 3), (3, 4), (4, 1)]
        k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        assert serial_triangle_count(triangle) == 1
        assert serial_triangle_count(square) == 0
        assert serial_triangle_count(k4) == 4

    def test_triangle_list_is_ordered_and_unique(self, small_er):
        triangles = serial_triangle_list(small_er.edges)
        assert len(triangles) == serial_triangle_count(small_er.edges)
        assert len({frozenset(t) for t in triangles}) == len(triangles)

    def test_empty_and_edgeless_graphs(self):
        assert serial_triangle_count([]) == 0
        assert dodgr_wedge_count([]) == 0

    def test_build_adjacency_symmetric_no_self_loops(self):
        adjacency = build_adjacency([(1, 2), (2, 1), (3, 3)])
        assert adjacency == {1: {2}, 2: {1}}

    def test_wedge_count_on_star(self):
        # A star has no wedges in the DODGr orientation: the hub is the
        # highest-degree vertex, so every edge points *into* it.
        star = [(0, i) for i in range(1, 10)]
        assert dodgr_wedge_count(star) == 0

    def test_wedge_count_on_clique(self):
        k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        # Each vertex i (in order) has out-degree 4-i; wedges = sum C(d+,2).
        assert dodgr_wedge_count(k5) == sum(d * (d - 1) // 2 for d in (4, 3, 2, 1, 0))


class TestSummaries:
    def test_summarize_edges_row(self, small_rmat):
        summary = summarize_edges(small_rmat)
        row = summary.as_row()
        assert row["Graph"] == small_rmat.name
        assert row["|V|"] == small_rmat.num_vertices()
        assert row["|E|"] == 2 * small_rmat.num_edges()
        assert row["|T|"] == serial_triangle_count(small_rmat.edges)
        assert row["d+_max"] <= row["d_max"]
        assert row["|W+|"] == dodgr_wedge_count(small_rmat.edges)

    def test_summary_on_plain_edge_list(self):
        summary = summarize_edges([(1, 2, None), (2, 3, None), (1, 3, None)], name="tri")
        assert summary.num_triangles == 1
        assert summary.num_vertices == 3
