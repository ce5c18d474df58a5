"""Chaos axis: recovery-parity cells in the sweep's one loop, artifact, CLI."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import engine_names
from repro.runtime.faults import FaultPlan, sample_fault_plans
from repro.sweep import (
    ANALYSES,
    contract_problems,
    format_sweep_table,
    run_cell,
    run_chaos_sweep,
    sample_space,
    sweep_payload,
    world_spec_names,
    write_sweep_artifacts,
)
from repro.sweep.__main__ import main as sweep_main
from repro.sweep.runner import ORACLE_ENGINE

SAMPLE = 8
SEED = 0


@pytest.fixture(scope="module")
def small_chaos():
    configs = sample_space(world_spec_names(), 2, seed=SEED)
    plans = sample_fault_plans(SAMPLE, seed=SEED)
    return configs, plans, run_chaos_sweep(configs, plans)


def chaos_cells(result):
    return [cell for cell in result.cells if cell.outcome.plan is not None]


def _comparable_rows(result):
    """Rows with the wall-clock field stripped (everything else is frozen)."""
    rows = []
    for row in result.rows():
        row = dict(row)
        row.pop("host_seconds")
        rows.append(row)
    return rows


class TestRunShape:
    def test_one_cell_per_plan(self, small_chaos):
        _configs, plans, result = small_chaos
        assert [cell.outcome.plan for cell in chaos_cells(result)] == plans

    def test_axes_are_pure_functions_of_cell_index(self, small_chaos):
        configs, plans, result = small_chaos
        axis = engine_names()
        for index, cell in enumerate(chaos_cells(result)):
            assert cell.config == configs[index % len(configs)]
            assert cell.analysis == ANALYSES[index % len(ANALYSES)]
            assert cell.engine == axis[(index // len(ANALYSES)) % len(axis)]
            assert cell.outcome.plan is plans[index]

    def test_every_analysis_meets_every_engine(self, small_chaos):
        _, _, result = small_chaos
        pairs = {(cell.analysis, cell.engine) for cell in chaos_cells(result)}
        assert pairs == {(a, e) for a in ANALYSES for e in engine_names()}

    def test_each_oracle_runs_once_in_the_same_loop(self, small_chaos):
        _, _, result = small_chaos
        oracles = [
            (cell.config, cell.analysis)
            for cell in result.cells
            if cell.outcome.plan is None
        ]
        assert len(oracles) == len(set(oracles))
        assert all(
            cell.engine == ORACLE_ENGINE for cell in result.cells if cell.outcome.plan is None
        )
        assert {(cell.config, cell.analysis) for cell in chaos_cells(result)} == set(oracles)

    def test_strict_run_is_parity_clean(self, small_chaos):
        _, _, result = small_chaos
        assert result.parity_failures() == []
        result.raise_on_parity_failure()  # must not raise

    def test_rerun_is_bit_identical(self, small_chaos):
        configs, plans, result = small_chaos
        rerun = run_chaos_sweep(configs, plans)
        assert _comparable_rows(rerun) == _comparable_rows(result)

    def test_needs_a_config(self):
        with pytest.raises(ValueError):
            run_chaos_sweep([], sample_fault_plans(1, seed=0))


class TestCrashesFireOnEveryEngine:
    """A crash plan counts executed RPCs — the ``rpcs_executed`` the
    contract holds equal across engines — so one threshold fires on the
    per-message oracle and on the coalesced production engine alike."""

    PLAN = FaultPlan(name="crash", seed=3, crash_rank=1, crash_after_executions=8)

    @pytest.mark.parametrize("engine", engine_names())
    def test_one_crash_plan_fires_and_recovers(self, engine):
        config = sample_space(world_spec_names(), 4, seed=SEED)[0]
        assert config.nranks > 1
        oracle = run_cell(config, "closure", ORACLE_ENGINE)
        outcome = run_cell(config, "closure", engine, plan=self.PLAN)
        assert outcome.fault_stats["crashes"] == outcome.restarts == 1
        assert not outcome.degraded
        assert outcome.panel == oracle.panel
        assert contract_problems(outcome, oracle) == []

    def test_the_ci_chaos_sweep_runs_a_degraded_cell(self):
        """``--chaos --sample 8 --seed 0`` (the CI smoke) degrades a cell."""
        configs = sample_space(world_spec_names(), 4, seed=SEED)
        result = run_chaos_sweep(configs, sample_fault_plans(SAMPLE, seed=SEED))
        assert result.parity_failures() == []
        payload = sweep_payload(result, sample=SAMPLE, seed=SEED)
        assert payload["counts"]["degraded"] >= 1
        degraded = [row for row in result.rows() if row["degraded"]]
        assert all(row["plan"].startswith("permanent") for row in degraded)


class TestPermanentLossWithoutSurvivors:
    """``--chaos --sample 16 --seed 2`` pairs ``permanent-13`` with a one-rank
    world: the crash takes the only rank, so there is nothing to estimate
    from.  The cell is recorded as degraded with no estimate, the run goes
    on, and the cell is not a parity failure."""

    @pytest.fixture(scope="class")
    def lost(self):
        configs = sample_space(world_spec_names(), 4, seed=2)
        plans = sample_fault_plans(16, seed=2)
        return configs[13 % len(configs)], plans[13]

    def test_the_pinned_cell(self, lost):
        config, plan = lost
        assert config.label() == "erdos-renyi#0:15a41fb587d2"
        assert config.nranks == 1
        assert plan.name == "permanent-13" and not plan.crash_recoverable

    def test_the_chaos_run_records_it(self):
        configs = sample_space(world_spec_names(), 4, seed=2)
        result = run_chaos_sweep(configs, sample_fault_plans(16, seed=2))
        assert result.parity_failures() == []
        (row,) = [row for row in result.rows() if row["plan"] == "permanent-13"]
        assert (row["config"], row["analysis"], row["engine"]) == (
            "15a41fb587d2", "closure", "columnar"
        )
        assert row["degraded"] and row["estimate"] is None
        assert row["relative_error"] is None
        assert row["fault_stats"]["crashes"] == 1
        assert row["parity_ok"]

    @pytest.mark.parametrize("analysis", ["closure", "streaming"])
    def test_both_paths_record_no_estimate(self, lost, analysis):
        config, plan = lost
        outcome = run_cell(config, analysis, "columnar", plan=plan)
        assert outcome.degraded and outcome.estimate is None
        assert outcome.panel is None
        assert outcome.restarts == outcome.fault_stats["crashes"] == 1


class TestArtifacts:
    def test_payload_schema(self, small_chaos):
        configs, plans, result = small_chaos
        payload = sweep_payload(result, sample=SAMPLE, seed=SEED)
        assert payload["schema"] == "repro.sweep/v2"
        assert payload["mode"] == "chaos"
        assert payload["sample"] == SAMPLE
        assert payload["seed"] == SEED
        assert len(payload["plans"]) == len(plans)
        assert len(payload["rows"]) == len(result.cells)
        assert payload["failures"] == []
        counts = payload["counts"]
        assert counts["cells"] == len(result.cells)
        assert counts["parity_failures"] == 0
        assert counts["restarts"] == sum(row["restarts"] for row in payload["rows"])
        json.dumps(payload)  # artifact must be JSON-serializable

    def test_plans_round_trip_from_payload(self, small_chaos):
        _, plans, result = small_chaos
        payload = sweep_payload(result)
        revived = [FaultPlan.from_dict(spec) for spec in payload["plans"]]
        assert revived == list(plans)
        kinds = [row["plan_kind"] for row in payload["rows"] if row["plan"]]
        assert kinds == [plan.name.rsplit("-", 1)[0] for plan in plans]

    def test_table_renders(self, small_chaos):
        _, _, result = small_chaos
        table = format_sweep_table(result, title="chaos sweep")
        assert "plan" in table and "restarts" in table
        assert "parity failures" in table

    def test_write_artifacts(self, small_chaos, tmp_path):
        _, _, result = small_chaos
        write_sweep_artifacts(
            result,
            json_path=str(tmp_path / "chaos.json"),
            markdown_path=str(tmp_path / "chaos.md"),
            sample=SAMPLE,
            seed=SEED,
        )
        payload = json.loads((tmp_path / "chaos.json").read_text())
        assert payload["mode"] == "chaos"
        assert (tmp_path / "chaos.md").read_text().startswith(
            "# Scenario sweep coverage map (chaos)"
        )


class TestCli:
    def test_chaos_cli_smoke(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = sweep_main(
            ["--chaos", "--sample", "2", "--seed", "0", "--out", str(out), "--quiet"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "chaos"
        assert payload["counts"]["parity_failures"] == 0
        assert (tmp_path / "chaos.md").exists()
        captured = capsys.readouterr()
        assert "chaos" in captured.out
