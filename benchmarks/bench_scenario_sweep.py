"""Scenario sweep smoke — sampled worlds × the full engine registry (ISSUE 6).

Not a figure from the paper: this benchmark runs the ``repro.sweep``
harness on a tiny fixed sample (≤ 8 configs, ≤ 4 ranks) with per-cell
parity assertions on, and emits the resulting coverage map as the tabular
artifact CI uploads next to the other benchmark tables.  It is the smoke
variant of ``python -m repro.sweep --sample 30 --seed 0``; the sweep docs
(``docs/sweeps.md``) describe how to read the map.

Gates:

* **parity** — every non-legacy cell must keep the equivalence contract
  against the legacy oracle (:func:`repro.sweep.contract_problems`;
  :class:`repro.sweep.SweepParityError` otherwise);
* **coverage** — every sampled config produces a cell for every registered
  engine on every analysis, so a newly registered engine can never be
  silently missing from coverage.
"""

from __future__ import annotations

from _artifacts import emit
from repro.core.engine import engine_names
from repro.sweep import (
    config_digest,
    format_sweep_table,
    run_sweep,
    sample_space,
    sweep_payload,
    world_spec_names,
)

SMOKE_SAMPLE = 8
SMOKE_SEED = 0


def _smoke_configs():
    configs = sample_space(world_spec_names(), SMOKE_SAMPLE, seed=SMOKE_SEED)
    # CI smoke contract: small worlds, bounded rank counts.
    assert len(configs) == SMOKE_SAMPLE
    assert all(config.nranks <= 4 for config in configs)
    return configs


def test_scenario_sweep_smoke(benchmark):
    configs = _smoke_configs()
    result = benchmark.pedantic(
        lambda: run_sweep(configs),
        rounds=1,
        iterations=1,
    )

    # Coverage: one cell per engine per config on every analysis.
    engines = set(engine_names())
    for config in configs:
        for analysis in ("triangle", "closure", "labels", "streaming"):
            seen = {
                cell.engine
                for cell in result.cells
                if cell.config == config and cell.analysis == analysis
            }
            assert seen == engines

    result.raise_on_parity_failure()

    payload = sweep_payload(result, sample=SMOKE_SAMPLE, seed=SMOKE_SEED)
    payload["config_digest"] = config_digest(configs)
    emit(
        format_sweep_table(
            result,
            title=(
                f"Scenario sweep smoke: {len(configs)} configs x "
                f"{len(engines)} engines (seed={SMOKE_SEED})"
            ),
        )
    )
