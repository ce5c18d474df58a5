"""Sweep runner: coverage, parity plumbing, regression flagging, degenerates."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import engine_names
from repro.sweep import (
    ANALYSES,
    ORACLE_ENGINE,
    SweepCell,
    SweepParityError,
    SweepResult,
    degenerate_world_configs,
    format_sweep_table,
    run_sweep,
    sample_space,
    sweep_engine_axis,
    sweep_payload,
    world_spec_names,
    write_sweep_artifacts,
)
from repro.sweep.report import format_sweep_markdown


@pytest.fixture(scope="module")
def small_sweep():
    configs = sample_space(world_spec_names(), 4, seed=0)
    return configs, run_sweep(configs, strict_parity=True)


class TestCoverage:
    def test_engine_axis_is_the_registry(self):
        assert sweep_engine_axis() == engine_names()

    def test_every_engine_runs_every_full_analysis(self, small_sweep):
        configs, result = small_sweep
        for config in configs:
            for analysis in ("triangle", "closure", "labels"):
                engines = {
                    cell.engine
                    for cell in result.cells
                    if cell.config_id == config.config_id()
                    and cell.analysis == analysis
                }
                assert engines == set(engine_names())

    def test_streaming_covers_incremental_engines(self, small_sweep):
        configs, result = small_sweep
        for config in configs:
            engines = {
                cell.engine
                for cell in result.cells
                if cell.config_id == config.config_id()
                and cell.analysis == "streaming"
            }
            assert engines == set(engine_names())

    def test_parity_holds_across_the_sample(self, small_sweep):
        _configs, result = small_sweep
        assert result.parity_failures() == []
        for cell in result.cells:
            if cell.engine != ORACLE_ENGINE:
                assert cell.slowdown_vs_legacy is not None

    def test_oracle_runs_even_when_filtered_out(self):
        configs = sample_space(["erdos-renyi"], 1, seed=0)
        result = run_sweep(configs, analyses=("triangle",), engines=("columnar",))
        assert result.engines == ("columnar",)
        assert {cell.engine for cell in result.cells} == {"columnar"}
        # parity was still computed against the (unreported) legacy run
        assert all(cell.slowdown_vs_legacy is not None for cell in result.cells)


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

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engines"):
            run_sweep([], engines=("warp-drive",))

    def test_unknown_engine_suggests_closest_name(self):
        with pytest.raises(ValueError) as excinfo:
            run_sweep([], engines=("colunmar",))
        assert "did you mean 'columnar'?" in str(excinfo.value)

    def test_analyses_constant_is_complete(self):
        assert set(ANALYSES) == {"triangle", "closure", "labels", "streaming"}


def _cell(engine="columnar", analysis="triangle", parity_ok=True,
          slowdown=None, detail=""):
    return SweepCell(
        config_id="cafebabe0000", spec="rmat", generator="rmat", params={},
        nranks=2, engine=engine, analysis=analysis, parity_ok=parity_ok,
        parity_detail=detail, slowdown_vs_legacy=slowdown,
    )


class TestRegressionFlagger:
    def test_slow_and_parity_regions(self):
        result = SweepResult(
            configs=[],
            cells=[
                _cell(engine="legacy"),
                _cell(slowdown=0.8),
                _cell(slowdown=1.05),  # within the 0.1 tolerance
                _cell(slowdown=1.5),
                _cell(engine="columnar", parity_ok=False, slowdown=0.9,
                      detail="triangles 1 != legacy 2"),
            ],
            engines=tuple(engine_names()),
            analyses=("triangle",),
        )
        regions = result.regressions()
        assert len(regions["slow"]) == 1
        assert regions["slow"][0]["slowdown_vs_legacy"] == 1.5
        assert len(regions["parity"]) == 1
        assert "triangles 1 != legacy 2" in regions["parity"][0]["parity_detail"]

    def test_legacy_never_flagged_slow(self):
        result = SweepResult(
            configs=[], cells=[_cell(engine="legacy", slowdown=9.0)],
            engines=("legacy",), analyses=("triangle",),
        )
        assert result.slow_cells() == []

    def test_strict_parity_raises(self):
        bad = _cell(parity_ok=False, detail="wire_messages 3 != legacy 4")
        result = SweepResult(
            configs=[], cells=[bad], engines=("columnar",), analyses=("triangle",)
        )
        with pytest.raises(SweepParityError, match="wire_messages 3 != legacy 4"):
            result.raise_on_parity_failure()


class TestDegenerateWorlds:
    def test_all_degenerates_survey_cleanly(self):
        result = run_sweep(degenerate_world_configs(), strict_parity=True)
        assert result.parity_failures() == []
        specs = {cell.spec for cell in result.cells}
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
        assert all(cell.triangles == 0 for cell in result.cells)


class TestReporting:
    def test_payload_schema(self, small_sweep):
        configs, result = small_sweep
        payload = sweep_payload(result, sample=4, seed=0)
        assert payload["schema"] == "repro.sweep/v1"
        assert payload["counts"]["configs"] == len(configs)
        assert payload["counts"]["cells"] == len(result.cells)
        assert payload["engines"] == list(engine_names())
        assert len(payload["rows"]) == len(result.cells)
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_slow_fail_section_nonempty_when_regressing(self):
        result = SweepResult(
            configs=[], cells=[_cell(slowdown=2.0)],
            engines=("columnar",), analyses=("triangle",),
        )
        text = format_sweep_table(result)
        assert "slow/fail regions" in text
        assert "SLOW" in text
        md = format_sweep_markdown(result)
        assert "Slow/fail regions" in md
        assert "2.00x legacy host time" in md

    def test_clean_sweep_reports_none(self, small_sweep):
        _configs, result = small_sweep
        if result.slow_cells():
            pytest.skip("host timing flagged slow cells on this machine")
        assert "(none" in format_sweep_table(result)

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
        assert payload["schema"] == "repro.sweep/v1"
        assert payload["seed"] == 0
        assert md_path.read_text().startswith("# Scenario sweep coverage map")


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
