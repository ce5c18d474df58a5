"""Chaos axis: recovery-parity cells, gates, artifact schema, CLI."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import engine_names
from repro.runtime.faults import FaultPlan, sample_fault_plans
from repro.sweep import (
    ANALYSES,
    ChaosParityError,
    ChaosResult,
    format_chaos_table,
    run_chaos_sweep,
    sample_space,
    world_spec_names,
    write_chaos_artifacts,
)
from repro.sweep.__main__ import main as sweep_main
from repro.sweep.chaos import ChaosCell
from repro.sweep.report import chaos_payload, format_chaos_markdown

SAMPLE = 8
SEED = 0


@pytest.fixture(scope="module")
def small_chaos():
    configs = sample_space(world_spec_names(), 2, seed=SEED)
    plans = sample_fault_plans(SAMPLE, seed=SEED)
    return configs, plans, run_chaos_sweep(configs, plans, strict_parity=True)


def _comparable_rows(chaos):
    """Rows with the wall-clock field stripped (everything else is frozen)."""
    rows = []
    for row in chaos.rows():
        row = dict(row)
        row.pop("host_seconds")
        rows.append(row)
    return rows


class TestRunShape:
    def test_one_cell_per_plan(self, small_chaos):
        configs, plans, chaos = small_chaos
        assert len(chaos.cells) == len(plans)

    def test_axes_are_pure_functions_of_cell_index(self, small_chaos):
        configs, plans, chaos = small_chaos
        axis = engine_names()
        for index, cell in enumerate(chaos.cells):
            assert cell.config_id == configs[index % len(configs)].config_id()
            assert cell.analysis == ANALYSES[index % len(ANALYSES)]
            assert cell.engine == axis[(index // len(ANALYSES)) % len(axis)]
            assert cell.plan_name == plans[index].name

    def test_every_analysis_meets_every_engine(self, small_chaos):
        _, _, chaos = small_chaos
        pairs = {(cell.analysis, cell.engine) for cell in chaos.cells}
        assert pairs == {(a, e) for a in ANALYSES for e in engine_names()}

    def test_every_cell_has_a_baseline(self, small_chaos):
        _, _, chaos = small_chaos
        for cell in chaos.cells:
            assert (cell.config_id, cell.analysis) in chaos.baselines

    def test_strict_run_is_parity_clean(self, small_chaos):
        _, _, chaos = small_chaos
        assert chaos.parity_failures() == []
        chaos.raise_on_parity_failure()  # must not raise

    def test_rerun_is_bit_identical(self, small_chaos):
        configs, plans, chaos = small_chaos
        rerun = run_chaos_sweep(configs, plans, strict_parity=True)
        assert _comparable_rows(rerun) == _comparable_rows(chaos)

    def test_needs_a_config(self):
        with pytest.raises(ValueError):
            run_chaos_sweep([], sample_fault_plans(1, seed=0))


def _cell(**overrides):
    base = dict(
        config_id="cfg",
        spec="erdos-renyi",
        engine="legacy",
        analysis="triangle",
        plan_name="drop-0",
        plan_kind="drop",
        plan={},
    )
    base.update(overrides)
    return ChaosCell(**base)


class TestGates:
    def test_completed_cell_panel_mismatch_flagged(self):
        from repro.sweep.chaos import _gate_completed

        cell = _cell(triangles=5, baseline_triangles=5)
        _gate_completed(cell, {"a": 1}, {"a": 2})
        assert not cell.parity_ok
        assert "panel differs" in cell.parity_detail

    def test_crash_free_triangle_mismatch_flagged(self):
        from repro.sweep.chaos import _gate_completed

        cell = _cell(triangles=4, baseline_triangles=5)
        _gate_completed(cell, {"a": 1}, {"a": 1})
        assert not cell.parity_ok
        assert "triangles" in cell.parity_detail

    def test_crashed_cell_triangles_exempt(self):
        from repro.sweep.chaos import _gate_completed

        cell = _cell(
            triangles=9, baseline_triangles=5, fault_stats={"crashes": 1}
        )
        _gate_completed(cell, {"a": 1}, {"a": 1})
        assert cell.parity_ok

    def test_degraded_cell_needs_finite_estimate(self):
        from repro.sweep.chaos import _gate_degraded

        cell = _cell(degraded=True, estimate=None, estimate_stderr=1.0)
        _gate_degraded(cell)
        assert not cell.parity_ok

        good = _cell(degraded=True, estimate=10.0, estimate_stderr=2.0)
        _gate_degraded(good)
        assert good.parity_ok

    def test_parity_error_names_cells(self):
        bad = _cell(parity_ok=False, parity_detail="panel differs")
        err = ChaosParityError([bad])
        assert bad.label() in str(err)
        result = ChaosResult(configs=[], plans=[], cells=[bad], baselines={})
        with pytest.raises(ChaosParityError):
            result.raise_on_parity_failure()

    def test_extra_comm_bytes(self):
        cell = _cell(comm_bytes=120, baseline_comm_bytes=100)
        assert cell.extra_comm_bytes == 20
        assert cell.as_row()["extra_comm_bytes"] == 20


class TestArtifacts:
    def test_payload_schema(self, small_chaos):
        configs, plans, chaos = small_chaos
        payload = chaos_payload(chaos, sample=SAMPLE, seed=SEED)
        assert payload["schema"] == "repro.sweep/v1"
        assert payload["mode"] == "chaos"
        assert payload["sample"] == SAMPLE
        assert payload["seed"] == SEED
        assert len(payload["chaos"]["plans"]) == len(plans)
        assert len(payload["chaos"]["rows"]) == len(chaos.cells)
        assert payload["chaos"]["failures"] == []
        counts = payload["counts"]
        assert counts["cells"] == len(chaos.cells)
        assert counts["parity_failures"] == 0
        assert counts["restarts"] == sum(c.restarts for c in chaos.cells)
        json.dumps(payload)  # artifact must be JSON-serializable

    def test_plans_round_trip_from_payload(self, small_chaos):
        _, plans, chaos = small_chaos
        payload = chaos_payload(chaos)
        revived = [FaultPlan.from_dict(spec) for spec in payload["chaos"]["plans"]]
        assert revived == list(plans)

    def test_tables_render(self, small_chaos):
        _, _, chaos = small_chaos
        table = format_chaos_table(chaos)
        assert "plan_kind" in table
        assert "recovery-parity failures" in table
        markdown = format_chaos_markdown(chaos, sample=SAMPLE, seed=SEED)
        assert "chaos" in markdown.lower()

    def test_write_artifacts(self, small_chaos, tmp_path):
        _, _, chaos = small_chaos
        json_path, md_path = write_chaos_artifacts(
            chaos,
            json_path=str(tmp_path / "chaos.json"),
            markdown_path=str(tmp_path / "chaos.md"),
            sample=SAMPLE,
            seed=SEED,
        )
        payload = json.loads((tmp_path / "chaos.json").read_text())
        assert payload["mode"] == "chaos"
        assert (tmp_path / "chaos.md").read_text().strip()


class TestCli:
    def test_chaos_cli_smoke(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = sweep_main(
            [
                "--chaos",
                "--sample",
                "2",
                "--seed",
                "0",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "chaos"
        assert payload["counts"]["parity_failures"] == 0
        assert (tmp_path / "chaos.md").exists()
        captured = capsys.readouterr()
        assert "chaos" in captured.out
