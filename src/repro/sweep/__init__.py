"""Scenario sweep harness: parameterized graph worlds × the engine registry.

Following the GraphWorld methodology — declarative generator "worlds",
deterministic sampled configs, one tabular result artifact — this package
turns the single-graph parity gates into a coverage map:

* :mod:`~repro.sweep.worlds` — :class:`WorldSpec` parameter spaces over the
  existing generators (degree skew, density, clustering, temporal
  burstiness, rank count, metadata cardinality) plus the degenerate worlds
  every engine must survive;
* :mod:`~repro.sweep.sampler` — seeded, wall-clock-free config sampling
  (:func:`sample_configs` / :func:`sample_space`), with frozen digests;
* :mod:`~repro.sweep.contract` — the engine equivalence contract, stated
  once: :func:`run_cell` runs one cell, :func:`contract_problems` checks it
  against its oracle;
* :mod:`~repro.sweep.runner` — every registered engine × analysis per
  config (:func:`run_sweep`), or one cell per sampled fault plan
  (:func:`run_chaos_sweep`), each checked against ``legacy``;
* :mod:`~repro.sweep.report` — the JSON + markdown artifact.

CLI: ``python -m repro.sweep --sample 30 --seed 0`` (``--chaos`` for the
fault-plan axis).
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
from .contract import (
    ANALYSES,
    REPORT_FIELDS,
    CellOutcome,
    CellWorld,
    cell_world,
    contract_problems,
    run_cell,
)
from .runner import (
    SweepCell,
    SweepParityError,
    SweepResult,
    run_chaos_sweep,
    run_sweep,
)
from .report import format_sweep_table, sweep_payload, write_sweep_artifacts

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
    # contract
    "ANALYSES",
    "REPORT_FIELDS",
    "CellOutcome",
    "CellWorld",
    "cell_world",
    "contract_problems",
    "run_cell",
    # runner
    "SweepCell",
    "SweepParityError",
    "SweepResult",
    "run_chaos_sweep",
    "run_sweep",
    # report
    "format_sweep_table",
    "sweep_payload",
    "write_sweep_artifacts",
]
