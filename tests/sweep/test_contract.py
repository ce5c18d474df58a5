"""The equivalence contract's rules, one by one, on hand-built outcomes."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.runtime.faults import FaultPlan
from repro.runtime.stats import PhaseStats
from repro.sweep import REPORT_FIELDS, CellOutcome, contract_problems

PLAN = FaultPlan(name="drop-0", drop_rate=0.1)


def full(panel=None, phases=None, **fields):
    report = dict(dict.fromkeys(REPORT_FIELDS, 0), triangles=5)
    report.update(fields)
    return CellOutcome(
        report=report,
        panel={"a": 1} if panel is None else panel,
        phases={"push": PhaseStats(rpcs_sent=3)} if phases is None else phases,
    )


def stream(snapshots=({"a": 1},), **fields):
    outcome = full(phases={}, **fields)
    outcome.steps = [
        dict(outcome.report, snapshot=snap, cumulative=snap) for snap in snapshots
    ]
    outcome.panel = snapshots[-1]
    return outcome


def test_identical_outcomes_hold():
    assert contract_problems(full(), full()) == []
    assert contract_problems(stream(), stream()) == []


@pytest.mark.parametrize("name", REPORT_FIELDS)
def test_every_report_field_is_checked(name):
    problems = contract_problems(full(**{name: 7}), full())
    assert len(problems) == 1 and problems[0].startswith(f"{name} 7 != oracle")


def test_phase_counters_and_panel_are_checked():
    assert contract_problems(full(phases={"push": PhaseStats(rpcs_sent=4)}), full()) == [
        "push phase counters differ from the oracle"
    ]
    assert contract_problems(full(panel={"a": 2}), full()) == [
        "reducer panel differs from the oracle"
    ]


def test_streams_compare_step_by_step():
    problems = contract_problems(stream(({"a": 2}, {"a": 1})), stream(({"a": 1}, {"a": 1})))
    assert problems == [
        "step 0 snapshot differs from the oracle",
        "step 0 cumulative differs from the oracle",
    ]
    assert contract_problems(stream(({"a": 1},)), stream(({"a": 1}, {"a": 1}))) == [
        "1 steps != oracle 2"
    ]


def test_a_fault_plan_compares_panel_and_crash_free_triangles_only():
    got = full(panel={"a": 1}, communication_bytes=999, phases={})
    got.plan = PLAN
    assert contract_problems(got, full()) == []
    got.report["triangles"] = 9
    assert contract_problems(got, full()) == ["triangles 9 != oracle 5 with no crash"]
    got.fault_stats = {"crashes": 1}
    assert contract_problems(got, full()) == []
    got.panel = {"a": 2}
    assert contract_problems(got, full()) == ["reducer panel differs from the oracle"]


def test_a_stream_against_a_full_recompute_compares_panel_and_triangles():
    assert contract_problems(stream(wire_messages=3), full()) == []
    assert contract_problems(stream(triangles=4), full()) == [
        "triangles 4 != oracle 5 with no crash"
    ]


def test_a_degraded_cell_needs_a_finite_estimate_when_it_has_one():
    got = CellOutcome(report=dict.fromkeys(REPORT_FIELDS, 0), plan=PLAN, degraded=True)
    assert contract_problems(got, full()) == []  # no survivor: no estimate
    got.estimate = SimpleNamespace(estimate=float("nan"), stderr=1.0)
    assert contract_problems(got, full())[0].startswith("degraded cell has no finite estimate")
    got.estimate = SimpleNamespace(estimate=10.0, stderr=2.0)
    assert contract_problems(got, full()) == []


def test_leaked_segments_are_problems():
    got = full()
    got.leaked = ["repro-pb-1", "/tmp/seg.bin"]
    assert contract_problems(got, full()) == [
        "left repro-pb-1 behind",
        "left /tmp/seg.bin behind",
    ]
