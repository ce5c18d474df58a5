"""Scenario sweep harness: parameterized graph worlds × the engine registry.

Following the GraphWorld methodology — declarative generator "worlds",
deterministic sampled configs, one tabular result artifact — this package
turns the single-graph parity/perf gates into a coverage map:

* :mod:`~repro.sweep.worlds` — :class:`WorldSpec` parameter spaces over the
  existing generators (degree skew, density, clustering, temporal
  burstiness, rank count, metadata cardinality) plus the degenerate worlds
  every engine must survive;
* :mod:`~repro.sweep.sampler` — seeded, wall-clock-free config sampling
  (:func:`sample_configs` / :func:`sample_space`), with frozen digests;
* :mod:`~repro.sweep.runner` — every registered engine × analysis per
  config, panel + wire parity asserted against ``legacy``;
* :mod:`~repro.sweep.report` — the JSON + markdown artifact with its
  "slow/fail regions" section.

CLI: ``python -m repro.sweep --sample 30 --seed 0``.
"""

from .worlds import (
    Choice,
    Fixed,
    FloatRange,
    IntRange,
    WorldConfig,
    WorldSpec,
    decorated_edges,
    degenerate_world_configs,
    get_world_spec,
    register_world_spec,
    streaming_batches,
    world_spec_names,
)
from .sampler import config_digest, sample_configs, sample_space
from .chaos import ChaosParityError, ChaosResult, run_chaos_sweep
from .runner import (
    ANALYSES,
    DEFAULT_ANALYSES,
    ORACLE_ENGINE,
    SweepCell,
    SweepParityError,
    SweepResult,
    run_sweep,
    sweep_engine_axis,
)
from .report import (
    format_chaos_table,
    format_sweep_table,
    sweep_payload,
    write_chaos_artifacts,
    write_sweep_artifacts,
)

__all__ = [
    # worlds
    "Choice",
    "Fixed",
    "FloatRange",
    "IntRange",
    "WorldConfig",
    "WorldSpec",
    "decorated_edges",
    "degenerate_world_configs",
    "get_world_spec",
    "register_world_spec",
    "streaming_batches",
    "world_spec_names",
    # sampler
    "config_digest",
    "sample_configs",
    "sample_space",
    # chaos
    "ChaosParityError",
    "ChaosResult",
    "run_chaos_sweep",
    # runner
    "ANALYSES",
    "DEFAULT_ANALYSES",
    "ORACLE_ENGINE",
    "SweepCell",
    "SweepParityError",
    "SweepResult",
    "run_sweep",
    "sweep_engine_axis",
    # report
    "format_chaos_table",
    "format_sweep_table",
    "sweep_payload",
    "write_chaos_artifacts",
    "write_sweep_artifacts",
]
