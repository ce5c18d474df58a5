"""Property-based cross-backend equivalence (process backend tentpole).

The simulated world is the oracle; ``backend="process"`` (rank-sharded
forked workers exchanging messages over shared memory) must reproduce it
*bit-exactly* on arbitrary inputs: identical reducer ``snapshot()`` panels
and identical wire accounting — not just byte totals but the flush-window
split (``wire_messages``) — for every registered engine, both survey
algorithms, at any rank count.  The random inputs are the generators the
paper benchmarks on (R-MAT, Erdős–Rényi), the same strategy the
cross-engine suite uses.

Examples are deliberately few: each process-backend run forks real worker
processes, so the suite trades example count for full engine × algorithm
coverage per example (the deterministic test below covers the full matrix
on a fixed graph every run).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import triangle_survey_push, triangle_survey_push_pull
from repro.core.callbacks import LocalTriangleCounter
from repro.core.engine import EngineConfig, backend_names, engine_names
from repro.graph import DODGraph
from repro.graph.generators import erdos_renyi, rmat
from repro.graph.ooc import StorageConfig, active_segment_paths
from repro.runtime import World, active_segment_names

WIRE_FIELDS = (
    "triangles",
    "communication_bytes",
    "wire_messages",
    "wedge_checks",
    "vertices_pulled",
)


@st.composite
def random_generated_graphs(draw):
    """Small random rmat/erdos graphs with varied shape and seed."""
    kind = draw(st.sampled_from(["rmat", "erdos"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if kind == "rmat":
        scale = draw(st.integers(min_value=2, max_value=6))
        edge_factor = draw(st.integers(min_value=2, max_value=8))
        return rmat(scale, edge_factor=edge_factor, seed=seed)
    n = draw(st.integers(min_value=2, max_value=28))
    p = draw(st.floats(min_value=0.05, max_value=0.6))
    return erdos_renyi(n, p, seed=seed)


def run_backend(generated, nranks, algorithm, engine, backend, storage=None):
    """One fresh-world survey run on ``backend``: (reducer panel, report).

    The DODGr is released afterwards, so a ``storage`` spill leaves nothing.
    """
    world = World(nranks)
    dodgr = DODGraph.build(generated.to_distributed(world), mode="bulk")
    reducer = LocalTriangleCounter(world)
    survey = triangle_survey_push if algorithm == "push" else triangle_survey_push_pull
    # Two workers whenever the rank count allows: parity over the *multi*-
    # worker exchange path is the property under test, and auto-resolution
    # would collapse to one worker on single-core CI runners.
    workers = min(2, nranks) if backend == "process" else None
    config = EngineConfig(engine=engine, backend=backend, workers=workers, storage=storage)
    report = survey(dodgr, reducer.callback, engine=config)
    reducer.finalize()
    dodgr.release()
    return reducer.snapshot(), report


def assert_reports_match(report, oracle, context):
    for field in WIRE_FIELDS:
        assert getattr(report, field) == getattr(oracle, field), (
            f"{context}: {field} diverged "
            f"({getattr(report, field)} != {getattr(oracle, field)})"
        )


def test_process_backend_is_registered():
    """The properties below must actually cover the new backend axis."""
    assert backend_names() == ("simulated", "process")


@given(
    random_generated_graphs(),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["push", "push_pull"]),
)
@settings(max_examples=6, deadline=None)
def test_process_backend_matches_simulated_oracle(generated, nranks, algorithm):
    """Panels and every wire counter are identical across backends, for
    every registered engine."""
    for engine in engine_names():
        oracle_panel, oracle = run_backend(
            generated, nranks, algorithm, engine, "simulated"
        )
        panel, report = run_backend(generated, nranks, algorithm, engine, "process")
        context = f"{engine}/{algorithm}/{nranks} ranks on {generated.name}"
        assert panel == oracle_panel, f"{context}: reducer panels differ"
        assert_reports_match(report, oracle, context)
    assert active_segment_names() == frozenset()


@pytest.mark.parametrize("storage_mode", ["resident", "mmap"])
@pytest.mark.parametrize("algorithm", ["push", "push_pull"])
@pytest.mark.parametrize("engine", sorted(engine_names()))
def test_fixed_graph_full_matrix(algorithm, engine, storage_mode, tmp_path):
    """Deterministic full engine × algorithm coverage on one non-trivial
    graph — runs every time, no example budget involved.  Under mmap
    storage the workers read the CSR segments spilled before the fork, and
    every segment file — the parent's and the ones workers spill after the
    fork — is gone from the spill directory once the DODGr is released."""
    generated = rmat(6, edge_factor=6, seed=13)
    storage = None
    if storage_mode == "mmap":
        storage = StorageConfig(mode="mmap", chunk_candidates=256, directory=str(tmp_path))
    segments = active_segment_paths()
    oracle_panel, oracle = run_backend(generated, 5, algorithm, engine, "simulated")
    panel, report = run_backend(generated, 5, algorithm, engine, "process", storage)
    context = f"{engine}/{algorithm}/storage={storage_mode} on {generated.name}"
    assert panel == oracle_panel, f"{context}: reducer panels differ"
    assert_reports_match(report, oracle, context)
    assert list(tmp_path.iterdir()) == []
    assert active_segment_paths() == segments
    assert active_segment_names() == frozenset()


def test_single_rank_single_worker_process_run():
    """The degenerate world (one rank, one worker) still runs the genuine
    process path and matches the oracle."""
    generated = erdos_renyi(20, 0.4, seed=3)
    oracle_panel, oracle = run_backend(generated, 1, "push", "legacy", "simulated")
    panel, report = run_backend(generated, 1, "push", "legacy", "process")
    assert panel == oracle_panel
    assert_reports_match(report, oracle, "1 rank/1 worker")
