"""Tests for the stand-in dataset registry."""

from __future__ import annotations

import pytest

from repro.bench import DATASETS, bench_scale, load_dataset
from repro.graph import serial_triangle_count
from repro.graph.metadata import edge_timestamp


class TestRegistry:
    def test_expected_datasets_present(self):
        names = list(DATASETS)
        for expected in (
            "livejournal-like",
            "friendster-like",
            "twitter-like",
            "uk2007-like",
            "hostgraph-like",
            "wdc2012-like",
            "reddit-like",
            "fqdn-web",
        ):
            assert expected in names

    def test_every_entry_has_paper_row_and_character(self):
        for entry in DATASETS.values():
            assert entry.paper_name
            assert entry.character
            assert "|E|" in entry.paper_row

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("not-a-dataset")

    def test_load_is_cached(self):
        a = load_dataset("livejournal-like", scale=0.5)
        b = load_dataset("livejournal-like", scale=0.5)
        assert a is b

    def test_bench_scale_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5
        monkeypatch.setenv("REPRO_BENCH_SCALE", "not-a-number")
        assert bench_scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        assert bench_scale() == pytest.approx(0.1)


class TestDatasetCharacter:
    def test_small_scale_datasets_have_triangles(self):
        for name in ("livejournal-like", "uk2007-like", "fqdn-web"):
            graph = load_dataset(name, scale=0.3)
            assert graph.num_edges() > 100
            assert serial_triangle_count(graph.edges) > 0

    def test_reddit_like_is_simple_and_temporal(self):
        graph = load_dataset("reddit-like", scale=0.25)
        pairs = [frozenset((u, v)) for u, v, _ in graph.edges]
        assert len(pairs) == len(set(pairs))  # simplified to one edge per pair
        for _, _, meta in graph.edges[:50]:
            assert edge_timestamp(meta) >= 0

    def test_fqdn_web_has_string_metadata(self):
        graph = load_dataset("fqdn-web", scale=0.3)
        assert all(isinstance(domain, str) for domain in graph.vertex_meta.values())

    def test_scale_changes_size(self):
        small = load_dataset("friendster-like", scale=0.25)
        large = load_dataset("friendster-like", scale=0.75)
        assert large.num_edges() > small.num_edges()
