"""Sweep runner: coverage, oracle rows, parity plumbing, degenerates, artifacts."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import engine_names
from repro.sweep import (
    ANALYSES,
    SweepParityError,
    cell_world,
    degenerate_world_configs,
    format_sweep_table,
    run_sweep,
    sample_space,
    sweep_payload,
    world_spec_names,
    write_sweep_artifacts,
)
from repro.sweep.report import format_sweep_markdown
from repro.sweep.runner import ORACLE_ENGINE


@pytest.fixture(scope="module")
def small_sweep():
    configs = sample_space(world_spec_names(), 4, seed=0)
    return configs, run_sweep(configs)


def broken(result):
    """``result`` with its first non-oracle cell failing the contract."""
    cell = next(cell for cell in result.cells if cell.engine != ORACLE_ENGINE)
    cell.problems = ["wire_messages 3 != oracle 4"]
    return cell


class TestCoverage:
    @pytest.mark.parametrize("analysis", ANALYSES)
    def test_every_engine_runs_every_analysis(self, small_sweep, analysis):
        configs, result = small_sweep
        for config in configs:
            engines = [
                cell.engine
                for cell in result.cells
                if cell.config == config and cell.analysis == analysis
            ]
            assert engines == list(engine_names())

    def test_the_oracle_is_a_fault_free_row(self, small_sweep):
        _configs, result = small_sweep
        oracles = [cell for cell in result.cells if cell.engine == ORACLE_ENGINE]
        assert len(oracles) == len(result.cells) // len(engine_names())
        assert all(cell.outcome.plan is None for cell in result.cells)

    def test_parity_holds_across_the_sample(self, small_sweep):
        _configs, result = small_sweep
        assert result.parity_failures() == []
        result.raise_on_parity_failure()

    def test_streams_are_compared_step_by_step(self, small_sweep):
        configs, result = small_sweep
        streams = [cell for cell in result.cells if cell.analysis == "streaming"]
        assert len(streams) == len(configs) * len(engine_names())
        for cell in streams:
            assert len(cell.outcome.steps) == len(cell_world(cell.config).batches) > 0


class TestValidation:
    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError, match="unknown analyses"):
            run_sweep([], analyses=("nope",))

    def test_unknown_analysis_suggests_closest_name(self):
        with pytest.raises(ValueError) as excinfo:
            run_sweep([], analyses=("triangel",))
        message = str(excinfo.value)
        assert "did you mean 'triangle'?" in message
        for name in ANALYSES:
            assert name in message

    def test_analyses_constant_is_complete(self):
        assert set(ANALYSES) == {"triangle", "closure", "labels", "streaming"}


class TestParityFailures:
    def test_raise_names_the_cell_and_problem(self):
        result = run_sweep(sample_space(["erdos-renyi"], 1, seed=0), analyses=("triangle",))
        cell = broken(result)
        assert result.parity_failures() == [cell]
        with pytest.raises(SweepParityError, match="wire_messages 3 != oracle 4") as excinfo:
            result.raise_on_parity_failure()
        assert cell.label() in str(excinfo.value)

    def test_failures_section_lists_the_cell(self):
        result = run_sweep(sample_space(["erdos-renyi"], 1, seed=0), analyses=("triangle",))
        cell = broken(result)
        assert f"FAIL {cell.label()}: wire_messages 3 != oracle 4" in format_sweep_table(result)
        markdown = format_sweep_markdown(result)
        assert "## Parity failures" in markdown
        assert "wire_messages 3 != oracle 4" in markdown
        payload = sweep_payload(result)
        assert payload["counts"]["parity_failures"] == 1
        assert payload["failures"] == [
            {"cell": cell.label(), "detail": "wire_messages 3 != oracle 4"}
        ]
        assert [row["parity_ok"] for row in payload["rows"]].count(False) == 1


class TestDegenerateWorlds:
    def test_all_degenerates_survey_cleanly(self):
        result = run_sweep(degenerate_world_configs())
        assert result.parity_failures() == []
        specs = {cell.config.spec for cell in result.cells}
        assert specs == {
            "degenerate-empty",
            "degenerate-single-vertex",
            "degenerate-single-rank",
            "degenerate-self-loops",
            "degenerate-all-new-delta",
        }

    def test_empty_world_has_no_streaming_cells(self):
        configs = [c for c in degenerate_world_configs() if c.spec == "degenerate-empty"]
        result = run_sweep(configs)
        assert [c for c in result.cells if c.analysis == "streaming"] == []
        assert all(row["triangles"] == 0 for row in result.rows())


class TestReporting:
    def test_payload_schema(self, small_sweep):
        configs, result = small_sweep
        payload = sweep_payload(result, sample=4, seed=0)
        assert payload["schema"] == "repro.sweep/v2"
        assert payload["mode"] == "sweep"
        assert payload["plans"] == []
        assert payload["counts"]["configs"] == len(configs)
        assert payload["counts"]["cells"] == len(result.cells)
        assert payload["counts"]["parity_failures"] == 0
        assert payload["engines"] == list(engine_names())
        assert len(payload["rows"]) == len(result.cells)
        assert all(row["plan"] is None and not row["degraded"] for row in payload["rows"])
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_rows_keep_no_slowdown_ratio(self, small_sweep):
        _configs, result = small_sweep
        row = result.rows()[0]
        assert "slowdown_vs_legacy" not in row
        assert row["host_seconds"] > 0

    def test_clean_sweep_reports_none(self, small_sweep):
        _configs, result = small_sweep
        assert "(none" in format_sweep_table(result)
        assert "None — every cell matched its oracle." in format_sweep_markdown(result)

    def test_write_artifacts(self, small_sweep, tmp_path):
        _configs, result = small_sweep
        json_path, md_path = write_sweep_artifacts(
            result,
            json_path=tmp_path / "sweep.json",
            markdown_path=tmp_path / "sweep.md",
            sample=4,
            seed=0,
        )
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro.sweep/v2"
        assert payload["seed"] == 0
        assert md_path.read_text().startswith("# Scenario sweep coverage map (sweep)")


class TestCLI:
    def test_module_entry_point(self, tmp_path):
        from repro.sweep.__main__ import main

        out = tmp_path / "sweep.json"
        code = main([
            "--sample", "2", "--seed", "0", "--specs", "erdos-renyi",
            "--analyses", "triangle", "--quiet", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["counts"]["configs"] == 2
        assert (tmp_path / "sweep.md").exists()

    @pytest.mark.parametrize("flag", ["--engines", "--slow-tolerance", "--lenient"])
    def test_removed_flags_are_rejected(self, flag, capsys):
        from repro.sweep.__main__ import main

        with pytest.raises(SystemExit):
            main(["--sample", "1", flag, "x"])
        assert "unrecognized arguments" in capsys.readouterr().err
