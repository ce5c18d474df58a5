"""Fault-injection hooks — dormant cost, lossy-plan recovery parity (ISSUE 7).

Not a figure from the paper: this benchmark validates and gates the
resilience layer (``runtime/faults.py`` + ``core/engine/checkpoint.py``).
The fault hooks sit on the hot delivery path of every survey, so they must
be free when dormant and honest when armed.

Contract, pinned by the parity tests below (these run before — and fail the
CI smoke job independently of — the timing gate):

* **fault-free transparency** — a world that armed a plan and cleared it
  again produces bit-identical panels and byte-identical wire totals to a
  world that never saw the fault machinery, and an *armed but all-zero-rate*
  reliable plan (sequence ids, acks, dedup active) changes nothing
  observable either;
* **lossy-plan parity** — under seeded drop/duplicate/delay/mixed plans the
  at-least-once transport delivers every engine's panels bit-identical to
  the fault-free run, with the retry traffic visible as extra wire bytes;
* **crash-recovery parity** — a mid-survey rank crash restarted through
  ``run_survey_with_recovery`` reproduces the fault-free panel exactly.

Dormant cost is checked exactly, not timed: a survey on a world whose plan
was armed and cleared makes no call into the fault module
(``runtime/faults.py``), counted with ``sys.setprofile``, while the same
count sees the armed plan's calls.  The never-armed and cleared host-time
medians are printed and ungated (two medians on a shared host differ by
more than the hooks cost).  One timing gate remains, deliberately lenient:
an armed lossy plan may cost at most ``ARMED_GATE``x the dormant run end to
end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from _artifacts import emit
from repro.bench import format_table, human_bytes, load_dataset
from repro.core.callbacks import TriangleCounter
from repro.core.engine import engine_names, run_survey_with_recovery
from repro.core.survey import triangle_survey_push
from repro.graph.dodgr import DODGraph
from repro.runtime import faults
from repro.runtime.faults import FaultPlan, sample_fault_plans
from repro.runtime.world import World

NODES = 8
REPEATS = 5
#: Armed lossy plans pay for retries, dedup bookkeeping and extra sweeps;
#: the gate only guards against pathological blowup.
ARMED_GATE = 5.0


def build_survey_world(dataset, plan=None):
    """Fresh world + DODGr + counting reducer; plan armed after the build."""
    world = World(NODES)
    dodgr = DODGraph.build(dataset.to_distributed(world), mode="bulk")
    if plan is not None:
        world.install_fault_plan(plan)
    return world, dodgr, TriangleCounter(world)


def run_once(dataset, plan=None, engine="legacy", clear_first=False):
    """One timed survey; returns (host_seconds, panel, report)."""
    world, dodgr, reducer = build_survey_world(dataset, plan)
    if clear_first:
        world.clear_fault_plan()
    start = time.perf_counter()
    report = triangle_survey_push(dodgr, reducer.callback, engine=engine)
    host = time.perf_counter() - start
    return host, reducer.result(), report


def wire_signature(report):
    return (report.triangles, report.communication_bytes, report.wire_messages)


def test_fault_free_transparency():
    """Dormant and armed-zero-rate runs are indistinguishable from clean."""
    dataset = load_dataset("rmat-weak")
    _, base_panel, base_report = run_once(dataset)

    # Armed then cleared: the fast path must be fully restored.
    lossy = FaultPlan(name="cleared", seed=1, drop_rate=0.2)
    _, panel, report = run_once(dataset, plan=lossy, clear_first=True)
    assert panel == base_panel
    assert wire_signature(report) == wire_signature(base_report)

    # Armed, zero rates, reliable tracking on: sequence ids and acks are
    # exercised but nothing observable may change.
    armed = FaultPlan(name="armed-quiet", seed=1, reliable=True)
    _, panel, report = run_once(dataset, plan=armed)
    assert panel == base_panel
    assert wire_signature(report) == wire_signature(base_report)


def test_lossy_plans_recover_bit_identical():
    """Every delivery-fault plan kind x engine: panels match, retries show."""
    dataset = load_dataset("rmat-weak")
    _, base_panel, base_report = run_once(dataset)
    plans = [
        p
        for p in sample_fault_plans(8, seed=0)
        if p.has_delivery_faults() and p.crash_rank is None
    ]
    assert plans, "sample must cover delivery-fault kinds"

    rows = []
    for plan in plans:
        for engine in engine_names():
            world, dodgr, reducer = build_survey_world(dataset, plan)
            report = triangle_survey_push(dodgr, reducer.callback, engine=engine)
            context = f"{plan.name}/{engine}"
            assert reducer.result() == base_panel, context
            assert report.triangles == base_report.triangles, context
            extra = report.communication_bytes - base_report.communication_bytes
            assert extra >= 0, context
            stats = world.fault_injector.stats
            if stats.drops:
                assert stats.retries >= stats.drops, context
                assert extra > 0, f"{context}: retries must be on the books"
            rows.append(
                {
                    "plan": plan.name,
                    "engine": engine,
                    "drops": stats.drops,
                    "dups": stats.duplicates,
                    "delays": stats.delays,
                    "retries": stats.retries,
                    "extra wire": human_bytes(extra),
                }
            )
    emit(
        format_table(
            rows,
            title="fault injection — lossy plans, recovered bit-identical",
        )
    )


def test_crash_recovery_parity():
    """A mid-push rank crash restarts and reproduces the clean panel."""
    dataset = load_dataset("rmat-weak")
    _, base_panel, _ = run_once(dataset)
    plan = FaultPlan(
        name="crash", seed=2, crash_rank=1, crash_phase="push", crash_after_executions=4
    )
    world = World(NODES)
    graph = dataset.to_distributed(world)
    dodgr = DODGraph.build(graph, mode="bulk")
    result = run_survey_with_recovery(
        dodgr, TriangleCounter, plan=plan, graph=graph
    )
    assert result.recovery.restarts == 1
    assert not result.degraded
    assert result.panel == base_panel


def fault_module_calls(dataset, plan, clear_first=False):
    """Calls into ``runtime/faults.py`` made by one survey, by function name."""
    world, dodgr, reducer = build_survey_world(dataset, plan)
    if clear_first:
        world.clear_fault_plan()
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == faults.__file__:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        triangle_survey_push(dodgr, reducer.callback, engine="legacy")
    finally:
        sys.setprofile(None)
    return calls


def test_dormant_overhead_gate():
    """Cleared makes no fault-module call (exact); armed lossy bounded (lenient)."""
    dataset = load_dataset("rmat-weak")
    lossy = FaultPlan(name="mixed", seed=3, drop_rate=0.1, duplicate_rate=0.05)

    assert fault_module_calls(dataset, lossy, clear_first=True) == Counter(), (
        "clearing a plan left the fault hooks on the delivery path"
    )
    armed_calls = fault_module_calls(dataset, lossy)
    assert armed_calls["delivery_fate"] > 0, "the count must see an armed plan's hooks"

    def median_host(**kwargs):
        times = sorted(run_once(dataset, **kwargs)[0] for _ in range(REPEATS))
        return times[REPEATS // 2]

    never_armed = median_host()
    cleared = median_host(plan=lossy, clear_first=True)
    armed = median_host(plan=lossy)
    emit(
        format_table(
            [
                {"run": "never armed", "host median (s)": f"{never_armed:.4f}"},
                {"run": "cleared", "host median (s)": f"{cleared:.4f}"},
                {"run": "armed lossy", "host median (s)": f"{armed:.4f}"},
            ],
            title="fault injection — dormant and armed survey host time (cleared ungated)",
        )
    )
    assert armed <= never_armed * ARMED_GATE, (
        f"armed lossy plan cost {armed:.4f}s vs {never_armed:.4f}s dormant"
    )
