"""Edge cases and failure behaviour of the survey engines."""

from __future__ import annotations

import pytest

from repro.core import triangle_survey_push, triangle_survey_push_pull
from repro.graph import DODGraph, DistributedGraph, serial_triangle_count
from repro.runtime import World


class TestUnusualInputs:
    def test_string_vertex_ids(self, world4):
        edges = [("alice", "bob"), ("bob", "carol"), ("alice", "carol"), ("carol", "dave")]
        graph = DistributedGraph.from_edges(world4, edges)
        dodgr = DODGraph.build(graph)
        assert triangle_survey_push(dodgr).triangles == 1
        assert triangle_survey_push_pull(dodgr).triangles == 1

    def test_mixed_vertex_id_types(self, world4):
        edges = [(1, "a"), ("a", 2.5), (2.5, 1)]
        graph = DistributedGraph.from_edges(world4, edges)
        assert triangle_survey_push_pull(DODGraph.build(graph)).triangles == 1

    def test_isolated_vertices_do_not_disturb_counts(self, world4, small_er):
        lonely = dict.fromkeys(range(1000, 1020), "lonely")
        graph = DistributedGraph.from_edges(world4, small_er.edges, vertex_meta=lonely)
        assert graph.num_vertices() == small_er.to_distributed(World(4)).num_vertices() + 20
        dodgr = DODGraph.build(graph)
        assert triangle_survey_push(dodgr).triangles == serial_triangle_count(small_er.edges)

    def test_duplicate_edges_keep_last_metadata_but_count_once(self, world4):
        graph = DistributedGraph.from_edges(
            world4, [(1, 2, "old"), (1, 2, "new"), (2, 3, "x"), (1, 3, "y")]
        )
        captured = []
        report = triangle_survey_push_pull(
            DODGraph.build(graph), lambda ctx, tri: captured.append(tri)
        )
        assert report.triangles == 1
        tri = captured[0]
        metas = {
            frozenset((tri.p, tri.q)): tri.meta_pq,
            frozenset((tri.p, tri.r)): tri.meta_pr,
            frozenset((tri.q, tri.r)): tri.meta_qr,
        }
        assert metas[frozenset((1, 2))] == "new"

    def test_none_metadata_everywhere(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2), (2, 3), (1, 3)])
        captured = []
        triangle_survey_push(DODGraph.build(graph), lambda ctx, tri: captured.append(tri))
        tri = captured[0]
        assert tri.vertex_metadata() == (None, None, None)
        assert tri.edge_metadata() == (None, None, None)

    def test_two_vertex_graph_has_no_triangles(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2)])
        report = triangle_survey_push_pull(DODGraph.build(graph))
        assert report.triangles == 0
        assert report.wedge_checks == 0

    def test_more_ranks_than_vertices(self, small_er):
        world = World(97)
        dodgr = DODGraph.build(small_er.to_distributed(world))
        assert triangle_survey_push_pull(dodgr).triangles == serial_triangle_count(
            small_er.edges
        )


class TestFailureBehaviour:
    def test_callback_exception_propagates_from_push(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2), (2, 3), (1, 3)])
        dodgr = DODGraph.build(graph)

        def exploding(ctx, tri):
            raise RuntimeError("callback failed")

        with pytest.raises(RuntimeError, match="callback failed"):
            triangle_survey_push(dodgr, exploding)

    def test_callback_exception_propagates_from_push_pull(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2), (2, 3), (1, 3)])
        dodgr = DODGraph.build(graph)

        def exploding(ctx, tri):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            triangle_survey_push_pull(dodgr, exploding)

    def test_world_remains_usable_after_callback_failure(self, world4):
        graph = DistributedGraph.from_edges(world4, [(1, 2), (2, 3), (1, 3)])
        dodgr = DODGraph.build(graph)
        with pytest.raises(RuntimeError):
            triangle_survey_push(dodgr, lambda ctx, tri: (_ for _ in ()).throw(RuntimeError()))
        # Drain whatever the failed run left queued, then run a clean survey.
        world4.barrier()
        assert triangle_survey_push(dodgr).triangles == 1

    def test_zero_callback_compute_units(self, world4, small_er):
        dodgr = DODGraph.build(small_er.to_distributed(world4))
        charged = triangle_survey_push(dodgr, lambda ctx, tri: None)
        free = triangle_survey_push(dodgr, lambda ctx, tri: None, callback_compute_units=0)
        assert charged.triangles == free.triangles
        assert free.simulated_seconds <= charged.simulated_seconds


class TestDegenerateWorlds:
    """The sweep harness's boundary worlds, driven through every engine.

    ``repro.sweep.degenerate_world_configs`` pins these same shapes for the
    sweep runner (``tests/sweep/test_runner.py``); here each one is pushed
    through ``execute_survey`` per registered engine so a failure names the
    engine, not the harness.
    """

    @staticmethod
    def _survey(world, edges, engine, vertex_meta=None):
        from repro.core.engine import SurveyRequest, execute_survey

        graph = DistributedGraph.from_edges(world, edges, vertex_meta=vertex_meta or {})
        dodgr = DODGraph.build(graph)
        return execute_survey(SurveyRequest(dodgr=dodgr), engine=engine).report

    @staticmethod
    def _engines():
        from repro.core.engine import engine_names

        return engine_names()

    def test_empty_graph_every_engine(self, world4):
        for engine in self._engines():
            report = self._survey(world4, [], engine)
            assert report.triangles == 0
            assert report.wire_messages == 0

    def test_single_vertex_every_engine(self, world4):
        for engine in self._engines():
            report = self._survey(world4, [], engine, vertex_meta={0: "lonely"})
            assert report.triangles == 0

    def test_single_rank_every_engine(self):
        edges = [(1, 2), (2, 3), (1, 3), (3, 4)]
        for engine in self._engines():
            report = self._survey(World(1), edges, engine)
            assert report.triangles == 1
            # one rank: every wedge check is local, nothing crosses the wire
            assert report.communication_bytes == 0

    def test_self_loop_and_duplicate_heavy_columns_every_engine(self, world4):
        edges = (
            [(v, v, "loop") for v in range(5)]
            + [(1, 2, "dup")] * 4
            + [(2, 3, "x"), (1, 3, "y"), (3, 3, "loop-again")]
        )
        for engine in self._engines():
            report = self._survey(world4, edges, engine)
            assert report.triangles == 1

    def test_all_new_edges_delta_every_incremental_engine(self, world4):
        """Cold start: one all-new delta batch == the full survey."""
        from repro.core.engine import engine_names
        from repro.core.incremental import StreamingSurvey
        from repro.core.callbacks import LocalTriangleCounter

        edges = [(1, 2, None), (2, 3, None), (1, 3, None), (3, 4, None)]
        full_world = World(world4.nranks)
        full_graph = DistributedGraph.from_edges(full_world, edges)
        full_reducer = LocalTriangleCounter(full_world)
        full = triangle_survey_push(DODGraph.build(full_graph), full_reducer.callback)
        full_reducer.finalize()
        for engine in engine_names():
            world = World(world4.nranks)
            survey = StreamingSurvey(world, LocalTriangleCounter, engine=engine)
            step = survey.ingest(edges)
            assert step.report.triangles == full.triangles, engine
            assert step.cumulative == full_reducer.snapshot(), engine
            assert step.report.communication_bytes == full.communication_bytes, engine
