"""The equivalence contract over the whole legal execution matrix.

A cell is one selector — engine × backend × kernel tier × storage × workers
— that :func:`repro.core.engine.registry.check_supported` lets run: the
selector product of ``test_engine_registry.py`` filtered through the one
table of unsupported combinations, which must be exactly the matrix that
test states independently.  Every cell runs through
:func:`repro.sweep.run_cell` on a fresh world and is checked by
:func:`repro.sweep.contract_problems` against the ``legacy`` / simulated /
resident oracle: every report field, every phase's counters, the reducer
panel, a stream step by step, and no shared-memory segment or memmap file
left behind.

* The deterministic part runs every distinct legal full-survey cell × both
  survey algorithms once on one fixed world, and every distinct legal
  incremental cell over that world's stream.
* The hypothesis part draws a legal cell, an analysis and a sweep world
  (any spec at a drawn seed, or a degenerate world) at 1–6 ranks.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig
from repro.core.engine.registry import check_supported
from repro.graph.ooc import StorageConfig
from repro.runtime import UnsupportedBackendError
from repro.sweep import (
    ANALYSES,
    cell_world,
    contract_problems,
    degenerate_world_configs,
    run_cell,
    sample_configs,
    world_spec_names,
)
from repro.sweep.runner import _merged
from tests.core.test_engine_registry import SELECTOR_CELLS, cell_features, stated_legal

ALGORITHMS = ("push", "push_pull")


def legal_cells(incremental):
    """The selector cells the table lets run, in product order."""
    cells = []
    for cell in SELECTOR_CELLS:
        features = cell_features(*cell) | ({"incremental"} if incremental else set())
        try:
            check_supported(features)
        except UnsupportedBackendError:
            continue
        cells.append(cell)
    return cells


def distinct(cells):
    """One cell per distinct execution: ``"auto"`` and an unset tier are the
    same tier, unset storage is resident, and workers only count on the
    process backend."""
    seen = {}
    for engine, backend, tier, storage, workers in cells:
        key = (
            engine,
            backend,
            None if tier == "auto" else tier,
            storage or "resident",
            workers if backend == "process" else None,
        )
        seen.setdefault(key, key)
    return list(seen)


FULL_CELLS = legal_cells(incremental=False)
DELTA_CELLS = legal_cells(incremental=True)


def selector(cell, storage_directory=None):
    engine, backend, tier, storage, workers = cell
    if storage == "mmap":
        # Small chunks: spilled phases stream their candidates in parts.
        storage = StorageConfig(mode="mmap", chunk_candidates=256, directory=storage_directory)
    return EngineConfig(
        engine=engine, backend=backend, kernel_tier=tier, storage=storage, workers=workers
    )


def cell_id(cell):
    return "-".join(str(axis) for axis in cell)


@pytest.mark.parametrize("incremental", [False, True])
def test_the_legal_matrix_is_the_stated_one(incremental):
    """A new UNSUPPORTED row or axis value shows up here as a diff."""
    cells = legal_cells(incremental)
    assert cells == [cell for cell in SELECTOR_CELLS if stated_legal(*cell, incremental)]
    assert len(cells) == (12 if incremental else 72)
    assert len(distinct(cells)) == (4 if incremental else 24)


# ---------------------------------------------------------------------------
# Deterministic: every distinct legal cell once on one fixed world
# ---------------------------------------------------------------------------

#: An rmat-6 sweep world at 5 ranks: every rank pushes, pulls and streams.
FIXED_WORLD = replace(cell_world(sample_configs("rmat", 1, seed=0)[0]), nranks=5)


@lru_cache(maxsize=None)
def fixed_oracle(analysis, algorithm):
    return run_cell(FIXED_WORLD, analysis, "legacy", algorithm)


def test_the_fixed_world_exercises_every_phase():
    assert fixed_oracle("triangle", "push_pull").report["vertices_pulled"] > 0
    assert len(fixed_oracle("streaming", "push").steps) == len(FIXED_WORLD.batches) > 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("cell", distinct(FULL_CELLS), ids=cell_id)
def test_every_full_cell_keeps_the_contract(cell, algorithm, tmp_path):
    got = run_cell(FIXED_WORLD, "triangle", selector(cell, str(tmp_path)), algorithm)
    assert contract_problems(got, fixed_oracle("triangle", algorithm)) == []
    assert list(tmp_path.iterdir()) == []  # worker-spilled segments too


@pytest.mark.parametrize("cell", distinct(DELTA_CELLS), ids=cell_id)
def test_every_incremental_cell_keeps_the_contract(cell):
    got = run_cell(FIXED_WORLD, "streaming", selector(cell))
    assert contract_problems(got, fixed_oracle("streaming", "push")) == []


def test_a_one_rank_world_runs_one_worker():
    """The degenerate process world (one rank, one worker) still forks."""
    world = replace(FIXED_WORLD, nranks=1)
    got = run_cell(world, "triangle", EngineConfig(engine="legacy", backend="process"))
    assert contract_problems(got, run_cell(world, "triangle", "legacy")) == []


# ---------------------------------------------------------------------------
# Hypothesis: drawn cell × analysis × sweep world × rank count
# ---------------------------------------------------------------------------

#: A config sampled from one spec at a drawn seed, or a degenerate world.
sweep_configs = st.one_of(
    st.builds(
        lambda spec, seed: sample_configs(spec, 1, seed=seed)[0],
        st.sampled_from(world_spec_names()),
        st.integers(min_value=0, max_value=2**16),
    ),
    st.sampled_from(degenerate_world_configs()),
)


@st.composite
def drawn_cells(draw):
    analysis = draw(st.sampled_from(ANALYSES))
    cell = draw(st.sampled_from(DELTA_CELLS if analysis == "streaming" else FULL_CELLS))
    config = draw(sweep_configs)
    nranks = draw(st.integers(min_value=1, max_value=6))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    return cell, analysis, config, nranks, algorithm


@given(drawn_cells())
@settings(max_examples=30, deadline=None)
def test_a_drawn_cell_keeps_the_contract(drawn):
    cell, analysis, config, nranks, algorithm = drawn
    world = replace(cell_world(config), nranks=nranks)
    oracle = run_cell(world, analysis, "legacy", algorithm)
    got = run_cell(world, analysis, selector(cell), algorithm)
    assert contract_problems(got, oracle) == [], (cell, analysis, config.label(), nranks)
    if analysis == "streaming" and oracle.steps:
        # The legacy stream lands on a full recompute of its final graph.
        recompute = run_cell(_merged(world), "triangle", "legacy")
        assert contract_problems(oracle, recompute) == []
