"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repo root is this module rendered by
:func:`benchmark_json`; the tier-1 smoke test asserts the two agree, and
that every name here is emitted with its unit.  Definitions, the
layer → end-to-end predictions and the sizing numbers are in
``perf/README.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = [
    "COMMAND",
    "RUN_SECONDS",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "EXACT",
    "benchmark_json",
]

COMMAND = ["python3", "-m", "perf"]

#: Seconds one run measures; every later comparison uses the same length.
RUN_SECONDS = 20

WORKLOADS: List[Tuple[str, str]] = [
    (
        "count_pushpull",
        "Push-Pull triangle count, no callback: dry run, pull and row kernels do the work, callbacks none",
    ),
    (
        "closure_push",
        "Push-Only closure-time survey over per-edge metadata: TriangleBatch delivery and the reducer dominate; no dry run, no pull",
    ),
    (
        "stream_delta",
        "50 one-percent edge batches through StreamingSurvey: DeltaBuffer merge, DODGr rebuild and the incremental engine (write path)",
    ),
    (
        "service_mix",
        "closed-loop query traffic beside ingest on SurveyService: cache hits, ledger window answers and exact surveys at pinned epochs",
    ),
]

#: (name, unit, better, bound).  Times are calibrated seconds (perf/clock.py).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("build_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

_PHASES = ("dry_run", "push", "pull")


def _engine_phase_metrics() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = []
    for phase in _PHASES:
        out += [
            (f"engine.{phase}.drive_s", "s", "lower"),
            (f"engine.{phase}.drive_max_rank_s", "s", "lower"),
            (f"engine.{phase}.deliver_s", "s", "lower"),
            (f"engine.{phase}.rpcs", "count", "lower"),
            (f"engine.{phase}.wire_messages", "count", "lower"),
            (f"engine.{phase}.wire_bytes", "B", "lower"),
            (f"engine.{phase}.compute_units", "count", "lower"),
        ]
    return out


#: (name, unit, better).  A workload that does not touch a layer reports 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    # demoted end-to-end metrics (see README "What moved where")
    ("cold_op_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("wire_bytes", "B", "lower"),
    ("sim_s", "s", "lower"),
    # graph.generators
    ("generators.rmat_s", "s", "lower"),
    ("generators.edges", "count", "higher"),
    # graph.distributed_graph
    ("distributed_graph.load_s", "s", "lower"),
    ("distributed_graph.half_edges", "count", "higher"),
    # graph.dodgr
    ("dodgr.build_s", "s", "lower"),
    ("dodgr.csr_s", "s", "lower"),
    ("dodgr.release_s", "s", "lower"),
    ("dodgr.directed_edges", "count", "higher"),
    ("dodgr.wedges", "count", "lower"),
    ("dodgr.max_out_degree", "count", "lower"),
    # core.engine
    ("engine.program_s", "s", "lower"),
    *_engine_phase_metrics(),
    ("engine.report_s", "s", "lower"),
    ("engine.triangles", "count", "higher"),
    ("engine.wedge_checks", "count", "lower"),
    ("engine.useful_ratio", "ratio", "higher"),
    ("engine.vertices_pulled", "count", "higher"),
    ("engine.push_only.survey_s", "s", "lower"),
    ("engine.pushpull_over_push", "ratio", "lower"),
    # runtime.world
    ("world.deliver_s", "s", "lower"),
    ("world.rpcs_executed", "count", "lower"),
    ("world.deliver_us_per_rpc", "us", "lower"),
    ("world.handlers_per_survey", "count", "lower"),
    # core.intersection
    ("intersection.compute_units", "count", "lower"),
    ("intersection.units_per_s", "1/s", "higher"),
    # core.callbacks
    ("callbacks.delivery_s", "s", "lower"),
    ("callbacks.us_per_triangle", "us", "lower"),
    ("callbacks.finalize_s", "s", "lower"),
    ("callbacks.triangles", "count", "higher"),
    ("callbacks.histogram_cells", "count", "higher"),
    # graph.delta
    ("delta.stage_s", "s", "lower"),
    ("delta.apply_s", "s", "lower"),
    ("delta.new_edges", "count", "higher"),
    # core.incremental
    ("incremental.survey_s", "s", "lower"),
    ("incremental.panel_s", "s", "lower"),
    ("incremental.delta_triangles", "count", "higher"),
    ("incremental.wire_bytes", "B", "lower"),
    ("incremental.useful_ratio", "ratio", "higher"),
    # service
    ("service.ingest_first_s", "s", "lower"),
    ("service.ingest_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.pump_exact_s", "s", "lower"),
    ("service.pump_cached_s", "s", "lower"),
    ("service.pump_resumed_s", "s", "lower"),
    ("service.outcome.exact", "count", "lower"),
    ("service.outcome.cached", "count", "higher"),
    ("service.outcome.resumed", "count", "higher"),
    ("service.outcome.approximate", "count", "lower"),
    ("service.outcome.shed", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("service.pinned_epochs_max", "count", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.entries", "count", "lower"),
    ("admission.shed", "count", "lower"),
    # runtime.backend.process (informational)
    ("backend_process.survey_s", "s", "lower"),
    ("backend_process.workers", "count", "higher"),
    ("backend_process.speedup", "ratio", "higher"),
    ("backend_process.leaked_shm", "count", "lower"),
    # graph.ooc (informational)
    ("storage_mmap.survey_s", "s", "lower"),
    ("storage_mmap.slowdown", "ratio", "lower"),
    ("storage_mmap.segment_bytes", "B", "lower"),
    ("storage_mmap.leaked_segments", "count", "lower"),
    # runtime.network_model
    *[(f"network_model.sim_s.{phase}", "s", "lower") for phase in _PHASES],
    ("network_model.host_over_sim", "ratio", "lower"),
    # perf itself
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
]

#: Per-layer metrics that are pure functions of (commit, seed): every count
#: and byte total, the simulated seconds and the ratios of two counts.  Two
#: runs of one commit must agree on them (``sim_s`` to 1e-9 relative), and
#: ``perf.compare`` reports any difference as ``changed``.
#: ``backend_process.workers`` is a count of the host's, not the commit's.
EXACT = frozenset(
    [name for name, unit, _ in PER_LAYER if unit in ("count", "B")]
    + [f"network_model.sim_s.{phase}" for phase in _PHASES]
    + ["sim_s", "engine.useful_ratio", "incremental.useful_ratio", "cache.hit_rate"]
) - {"backend_process.workers"}


def benchmark_json() -> Dict[str, Any]:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
