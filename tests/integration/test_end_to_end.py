"""Integration tests exercising the full pipeline across modules."""

from __future__ import annotations

import pytest

from repro import (
    DODGraph,
    DistributedGraph,
    TriangleCounter,
    World,
    triangle_survey_push,
    triangle_survey_push_pull,
)
from repro.analysis import run_closure_time_survey, run_clustering_coefficients
from repro.baselines import (
    pearce_triangle_count,
    tom2d_triangle_count,
    tric_triangle_count,
    triangle_count_nx,
)
from repro.graph import (
    DistributedEdgeList,
    chung_lu_power_law,
    read_edges_partitioned,
    reddit_like_temporal_graph,
    serial_triangle_count,
    write_edge_file,
    write_vertex_file,
    read_vertex_file,
)


class TestFileToSurveyPipeline:
    def test_edge_file_ingested_asynchronously_then_surveyed(self, tmp_path):
        """Write a decorated temporal graph to disk, ingest it through the
        asynchronous runtime like a parallel file read, simplify the
        multigraph, build the DODGr through messages, and survey it — the
        full production path of the paper's system."""
        raw = reddit_like_temporal_graph(150, 1500, seed=41)
        edge_path = tmp_path / "reddit.tsv"
        vertex_path = tmp_path / "authors.tsv"
        write_edge_file(edge_path, raw.edges)
        write_vertex_file(vertex_path, raw.vertex_meta)

        world = World(6)
        per_rank = read_edges_partitioned(edge_path, world.nranks)

        edge_list = DistributedEdgeList(world)
        for ctx, records in zip(world.ranks, per_rank):
            for u, v, meta in records:
                edge_list.async_insert(ctx, u, v, meta)
        world.barrier()
        assert edge_list.num_records() == len(raw.edges)

        simple = edge_list.simplify("earliest")
        vertex_meta = read_vertex_file(vertex_path)
        graph = DistributedGraph.from_edge_list(simple, vertex_meta=vertex_meta)
        dodgr = DODGraph.build(graph, mode="bulk")

        counter = TriangleCounter(world)
        report = triangle_survey_push_pull(dodgr, counter.callback)

        expected = serial_triangle_count(list(simple.records()))
        assert counter.result() == expected
        assert report.triangles == expected

    def test_closure_survey_from_file(self, tmp_path):
        raw = reddit_like_temporal_graph(120, 1200, seed=43)
        path = tmp_path / "temporal.tsv"
        write_edge_file(path, raw.edges)

        world = World(4)
        edge_list = DistributedEdgeList(world)
        for u, v, meta in raw.edges:
            edge_list.insert(u, v, meta)
        graph = DistributedGraph.from_edge_list(edge_list.simplify("earliest"))
        result = run_closure_time_survey(graph)
        assert result.triangles_surveyed() == result.report.triangles
        assert all(close >= open_ for (open_, close) in result.joint)


class TestCrossAlgorithmConsistency:
    @pytest.fixture(scope="class")
    def generated(self):
        return chung_lu_power_law(600, average_degree=8, exponent=2.3, seed=45)

    def test_all_implementations_agree(self, generated):
        expected = triangle_count_nx(generated.edges)
        assert serial_triangle_count(generated.edges) == expected

        results = {}
        for nranks in (4, 9):
            world = World(nranks)
            graph = generated.to_distributed(world)
            dodgr = DODGraph.build(graph)
            results[f"push@{nranks}"] = triangle_survey_push(dodgr).triangles
            results[f"push_pull@{nranks}"] = triangle_survey_push_pull(dodgr).triangles
            results[f"pearce@{nranks}"] = pearce_triangle_count(graph).triangles
            results[f"tom2d@{nranks}"] = tom2d_triangle_count(graph).triangles
            results[f"tric@{nranks}"] = tric_triangle_count(graph).triangles
        assert set(results.values()) == {expected}, results

    def test_partitioner_choice_does_not_change_results(self, generated):
        from repro.graph import CyclicPartitioner, HashPartitioner

        expected = serial_triangle_count(generated.edges)
        for partitioner_cls in (HashPartitioner, CyclicPartitioner):
            world = World(5)
            graph = generated.to_distributed(world, partitioner=partitioner_cls(5))
            assert triangle_survey_push_pull(DODGraph.build(graph)).triangles == expected


class TestMetadataHeavyPipeline:
    def test_string_metadata_survey_and_local_counts_together(self):
        """Two different surveys over the same graph in one world, mirroring a
        notebook session exploring a dataset."""
        from repro.graph import fqdn_web_graph
        from repro.analysis import anchor_domain_slice, run_fqdn_survey

        generated = fqdn_web_graph(800, seed=47)
        world = World(6)
        graph = generated.to_distributed(world)

        fqdn = run_fqdn_survey(graph)
        clustering = run_clustering_coefficients(graph)

        assert fqdn.report.triangles == clustering.global_triangles()
        slice_ = anchor_domain_slice(fqdn, generated.params["anchor_domain"])
        assert slice_.pair_counts, "anchor domain must participate in triangles"
        assert 0.0 <= clustering.average_clustering() <= 1.0
