"""The columnar Push-Pull (array-built dry run, mask-driven push, index-driven
pull) against the ``legacy`` oracle, phase by phase.

The cross-engine suites compare survey totals; this one pins the *split*:
every ``PhaseStats`` counter of the dry run, the push phase and the pull
phase must equal the scalar reference's — on fresh Worlds, over rank counts,
on the degenerate shapes where an array driver is most likely to slip (no
edges, ranks without wedges, uniform degrees, non-integer vertex ids) and
with buffers so small that flush boundaries fall inside the proposal,
advise and pull streams (where the dry run's flush-window split is pinned
as literals: see ``test_flush_boundaries_inside_every_stream``).  One case
each then
crosses the other execution axes: the process backend, mmap storage and a
sampled fault plan.
"""

from __future__ import annotations

import os

import pytest

from repro.core import (
    ClosureTimeSurvey,
    incremental_triangle_survey,
    triangle_survey,
    triangle_survey_push_pull,
)
from repro.core.callbacks import TriangleCounter
from repro.core.engine import EngineConfig, run_survey_with_recovery
from repro.graph import DODGraph, DistributedGraph, community_host_graph
from repro.graph.delta import DeltaBuffer
from repro.graph.generators import erdos_renyi, rmat
from repro.graph.ooc import StorageConfig, active_segment_paths
from repro.runtime import World, active_segment_names
from repro.runtime.faults import sample_fault_plans
from repro.runtime.message_buffer import WIRE_ENVELOPE_BYTES
from repro.runtime.stats import PhaseStats

PHASES = ("dry_run", "push", "pull")


def stamped(pairs, rename=lambda v: v):
    """Deterministic per-edge timestamps (spread over many log2 buckets)."""
    return [
        (rename(u), rename(v), float((u * 7919 + v * 104729) % 100003))
        for u, v in pairs
    ]


def host_edges():
    """Community structure: the graph pulls *and* pushes on every rank count."""
    generated = community_host_graph(
        120, community_size=40, intra_probability=0.3, cross_links_per_vertex=0.5, seed=4
    )
    return stamped((u, v) for u, v, *_ in generated.edges)


GRAPHS = {
    "host": host_edges,
    "rmat": lambda: stamped((u, v) for u, v, *_ in rmat(6, edge_factor=6, seed=3).edges),
    "empty": lambda: [],
    # Leaves have out-degree one: only the ranks owning the one triangle's
    # vertices have any wedge at all.
    "star": lambda: stamped([(0, leaf) for leaf in range(1, 40)] + [(1, 2)]),
    "clique": lambda: stamped((u, v) for u in range(14) for v in range(u + 1, 14)),
    # Non-integer ids take the scalar sizing paths of the CSR build.
    "strings": lambda: stamped(
        ((u, v) for u, v, *_ in erdos_renyi(40, 0.25, seed=11).edges),
        rename=lambda v: f"host-{v}.example.org",
    ),
}

REDUCERS = {"closure_times": ClosureTimeSurvey, "count": TriangleCounter}


def run(edges, nranks, engine, reducer="closure_times", world_kwargs=None, **axes):
    """One fresh-World Push-Pull survey: (panel, report, per-phase totals)."""
    world = World(nranks, **(world_kwargs or {}))
    dodgr = DODGraph.build(DistributedGraph.from_edges(world, edges), mode="bulk")
    survey = REDUCERS[reducer](world)
    report = triangle_survey_push_pull(
        dodgr, survey.callback, engine=EngineConfig(engine=engine, **axes)
    )
    phases = {name: world.stats.phase_total(name) for name in PHASES}
    if hasattr(survey, "finalize"):
        survey.finalize()
    panel = survey.snapshot()
    dodgr.release()
    return panel, report, phases


def assert_same_run(got, oracle):
    panel, report, phases = got
    oracle_panel, oracle_report, oracle_phases = oracle
    for name in PHASES:
        assert phases[name] == oracle_phases[name], f"{name} phase counters differ"
    assert panel == oracle_panel
    for field in (
        "triangles",
        "vertices_pulled",
        "wedge_checks",
        "communication_bytes",
        "wire_messages",
        "simulated_seconds",
    ):
        assert getattr(report, field) == getattr(oracle_report, field), field


@pytest.mark.parametrize("nranks", [1, 2, 3, 8])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_every_phase_counter_matches_legacy(graph, nranks):
    edges = GRAPHS[graph]()
    assert_same_run(run(edges, nranks, "columnar"), run(edges, nranks, "legacy"))


@pytest.mark.parametrize("nranks", [1, 2, 3, 8])
def test_triangle_counter_panels_match(nranks):
    edges = GRAPHS["host"]()
    got = run(edges, nranks, "columnar", reducer="count")
    assert_same_run(got, run(edges, nranks, "legacy", reducer="count"))
    assert got[0] == got[1].triangles > 0


def test_all_three_streams_carry_traffic():
    """The parity above is not vacuous: on the host graph the dry run
    proposes and advises, the push phase pushes and the pull phase pulls."""
    _, report, phases = run(GRAPHS["host"](), 4, "columnar")
    assert report.vertices_pulled > 0
    assert all(phases[name].rpcs_executed > 0 for name in PHASES)
    # Some remote targets were answered "push" (advise replies flowed), some
    # "pull": both later phases checked wedges.
    assert phases["push"].bytes_received > 0
    assert phases["push"].app_counters["wedge_checks"] > 0
    assert phases["pull"].app_counters["wedge_checks"] > 0


#: The coalesced dry run's totals on the host graph over 4 ranks, split into
#: flush windows at each tiny threshold: (wire_messages, wire_bytes).  A
#: coalesced dry run filled by a scalar walk records the same split.
TINY_BUFFER_DRY_RUN_WIRE = {1: (323, 24340), 48: (82, 8916), 200: (34, 5844)}


@pytest.mark.parametrize("threshold", [1, 48, 200])
def test_flush_boundaries_inside_every_stream(threshold):
    """A buffer of a few messages, so flush boundaries fall inside the
    proposal, advise, push and pull streams.

    Against ``legacy`` the push and pull phases replay in every counter; the
    dry run matches in every total, and in its flush-window split up to the
    documented ``BatchedCall`` bound: once a proposal buffer overflows
    mid-drive, legacy answers the early proposals into buffers that still
    hold unflushed ones, which no coalesced dry run replays.  The coalesced
    split itself is pinned as literals.
    """
    edges = GRAPHS["host"]()
    tiny = {"flush_threshold_bytes": threshold}
    got = run(edges, 4, "columnar", world_kwargs=tiny)
    wire_messages, wire_bytes = TINY_BUFFER_DRY_RUN_WIRE[threshold]
    assert got[2]["dry_run"] == PhaseStats(
        bytes_sent_remote=3668,
        rpcs_sent=323,
        rpcs_executed=323,
        wire_messages=wire_messages,
        wire_bytes=wire_bytes,
        bytes_received=3668,
    )

    legacy_panel, _, legacy = run(edges, 4, "legacy", world_kwargs=tiny)
    assert got[0] == legacy_panel
    assert got[2]["push"] == legacy["push"]
    assert got[2]["pull"] == legacy["pull"]
    dry, oracle = got[2]["dry_run"], legacy["dry_run"]
    for field in (
        "rpcs_sent", "rpcs_executed", "bytes_sent_remote", "bytes_sent_local",
        "bytes_received", "compute_units", "app_counters",
    ):
        assert getattr(dry, field) == getattr(oracle, field), field
    assert (
        dry.wire_bytes - WIRE_ENVELOPE_BYTES * dry.wire_messages
        == oracle.wire_bytes - WIRE_ENVELOPE_BYTES * oracle.wire_messages
    )

    roomy = run(edges, 4, "columnar")
    for name in PHASES:
        assert got[2][name].wire_messages > roomy[2][name].wire_messages, name


def test_small_buffer_without_dry_run_overflow_matches_legacy_exactly():
    """400 bytes: no proposal buffer overflows mid-drive, while the push and
    pull streams still split across flush windows — every counter replays."""
    edges = GRAPHS["host"]()
    small = {"flush_threshold_bytes": 400}
    got = run(edges, 4, "columnar", world_kwargs=small)
    assert_same_run(got, run(edges, 4, "legacy", world_kwargs=small))
    roomy = run(edges, 4, "columnar")
    for name in ("push", "pull"):
        assert got[2][name].wire_messages > roomy[2][name].wire_messages, name


#: Handler registrations per survey, by (program, engine): what the oracle's
#: builders must keep registering, in the production builders' order.  The
#: columnar Push-Pull's fifth slot is its one addition: a sixth would push
#: handler ids past 63 (one byte wider) a survey sooner.
HANDLER_SLOTS = {
    ("push", "legacy"): 1,
    ("push", "columnar"): 1,
    ("push_pull", "legacy"): 4,
    ("push_pull", "columnar"): 5,
    ("delta", "legacy"): 2,
    ("delta", "columnar"): 2,
}


@pytest.mark.parametrize("program, engine", sorted(HANDLER_SLOTS))
def test_handler_slots_per_survey_unchanged(program, engine):
    world = World(4)
    edges = GRAPHS["host"]()
    if program == "delta":
        buffer = DeltaBuffer(world)
        buffer.stage_edges(edges)
        applied = buffer.apply(DistributedGraph(world, name="slots"))

        def survey():
            incremental_triangle_survey(applied.dodgr, applied, engine=engine)

    else:
        dodgr = DODGraph.build(DistributedGraph.from_edges(world, edges), mode="bulk")

        def survey():
            triangle_survey(dodgr, None, program, engine=engine)

    before = len(world.registry)
    survey()
    assert len(world.registry) - before == HANDLER_SLOTS[program, engine]


def test_no_per_target_python_state_is_built(monkeypatch):
    """The columnar dry run never probes the partitioner per target."""
    world = World(4)
    dodgr = DODGraph.build(
        DistributedGraph.from_edges(world, GRAPHS["host"]()), mode="bulk"
    )
    for rank in range(world.nranks):
        dodgr.csr(rank)

    def scalar_owner(vertex):
        raise AssertionError(f"scalar owner() lookup for {vertex!r}")

    monkeypatch.setattr(dodgr, "owner", scalar_owner)
    report = triangle_survey_push_pull(dodgr, engine="columnar")
    assert report.vertices_pulled > 0


# ---------------------------------------------------------------------------
# One case on each other execution axis
# ---------------------------------------------------------------------------


def test_process_backend_matches_and_leaks_no_shm():
    edges = GRAPHS["host"]()
    got = run(edges, 4, "columnar", backend="process", workers=2)
    assert_same_run(got, run(edges, 4, "legacy"))
    assert active_segment_names() == frozenset()
    if os.path.isdir("/dev/shm"):
        assert [n for n in os.listdir("/dev/shm") if n.startswith("repro-pb")] == []


def test_mmap_storage_matches_and_leaks_no_segments(tmp_path):
    edges = GRAPHS["strings"]() + GRAPHS["host"]()
    storage = StorageConfig(mode="mmap", directory=str(tmp_path))
    got = run(edges, 4, "columnar", storage=storage)
    assert_same_run(got, run(edges, 4, "legacy"))
    assert active_segment_paths() == frozenset()
    assert list(tmp_path.iterdir()) == []


def test_sampled_fault_plans_recover_the_fault_free_panel():
    """Drops, duplicates, delays and recoverable crashes of the coalesced
    proposal / advise / pull messages: the recovered panel is the oracle's."""
    edges = GRAPHS["host"]()
    oracle_panel, oracle_report, _ = run(edges, 4, "legacy")
    plans = [p for p in sample_fault_plans(7, seed=14) if p.crash_recoverable]
    assert len(plans) == 6
    for plan in plans:
        world = World(4)
        dodgr = DODGraph.build(DistributedGraph.from_edges(world, edges), mode="bulk")
        result = run_survey_with_recovery(
            dodgr, ClosureTimeSurvey, engine="columnar", algorithm="push_pull", plan=plan
        )
        assert not result.degraded, plan.name
        assert result.panel == oracle_panel, plan.name
    # (A recovered report also counts the crashed attempt's triangles, so the
    # panel — one increment per surveyed triangle — is what is compared.)
    assert sum(oracle_panel.values()) == oracle_report.triangles
