"""The measured surface: every public name of ``repro`` the benchmark calls.

A refactor of ``src/`` that moves or renames one of these breaks the
benchmark; the tier-1 smoke test resolves each of them so that such a
change fails there, by name, instead of silently dropping a metric row.
"""

from __future__ import annotations

import importlib
from typing import Any

__all__ = ["MEASURED_SURFACE", "resolve"]

#: ``module:attribute[.attribute]``
MEASURED_SURFACE = (
    "repro:rmat",
    "repro.graph.generators:GeneratedGraph.to_distributed",
    "repro.graph.generators:GeneratedGraph.edge_columns",
    "repro.graph.generators:GeneratedGraph.num_edges",
    "repro.graph.metadata:temporal_edge_meta",
    "repro:DistributedGraph.from_columns",
    "repro:DistributedGraph.num_undirected_edges",
    "repro:DODGraph.build",
    "repro:DODGraph.csr",
    "repro:DODGraph.release",
    "repro:DODGraph.wedge_count",
    "repro:DODGraph.num_directed_edges",
    "repro:DODGraph.max_out_degree",
    "repro.core.engine:SurveyRequest",
    "repro.core.engine:resolve_engine",
    "repro.core.engine:execute_survey",
    "repro.core.engine.push:build_push_program",
    "repro.core.engine.push_pull:build_push_pull_program",
    "repro.core.engine.program:SurveyProgram.phase_names",
    "repro:World.begin_phase",
    "repro:World.barrier",
    "repro:World.simulated_time",
    "repro:World.reset_stats",
    "repro.runtime.stats:WorldStats.phase_total",
    "repro.runtime.rpc:RpcRegistry.__len__",
    "repro.core.results:SurveyReport.from_world_stats",
    "repro.core.results:SurveyReport.phase_seconds",
    "repro.analysis.closure_times:run_closure_time_survey",
    "repro:ClosureTimeSurvey.callback",
    "repro:ClosureTimeSurvey.finalize",
    "repro:ClosureTimeSurvey.result",
    "repro:ClosureTimeSurvey.snapshot",
    "repro:ClosureTimeSurvey.merge",
    "repro:DeltaBuffer.stage_edges",
    "repro:DeltaBuffer.stage_vertex_meta",
    "repro:DeltaBuffer.apply",
    "repro:incremental_triangle_survey",
    "repro:StreamingSurvey.ingest",
    "repro.bench.streaming:make_streaming_schedule",
    "repro.bench.streaming:full_recompute_survey",
    "repro.service:SurveyService.ingest",
    "repro.service:SurveyService.submit",
    "repro.service:SurveyService.pump",
    "repro.service:SurveyService.stats",
    "repro.service:SurveyService.close",
    "repro.service:ServicePolicy",
    "repro.service.service:ANALYSES",
    "repro.bench.traffic:make_service_workload",
    "repro.bench.traffic:make_query_traffic",
    "repro.bench.reporting:peak_rss_bytes",
    "repro.graph.ooc:StorageConfig",
    "repro.graph.ooc:active_segment_paths",
    "repro.runtime.backend.shm:active_segment_names",
    "repro.runtime.backend.shm:shared_memory_available",
)


def resolve(name: str) -> Any:
    """Import ``module:attr.attr`` and return the object, or raise."""
    module_name, _, path = name.partition(":")
    target = importlib.import_module(module_name)
    for attribute in path.split("."):
        target = getattr(target, attribute)
    return target
