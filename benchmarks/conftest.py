"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (see DESIGN.md
for the experiment index).  The regenerated rows/series are printed (visible
with ``-s``) and appended to ``bench_artifacts.txt`` in the repository root
via :mod:`benchmarks._artifacts`; timing numbers and key measurements are
also attached to each benchmark's ``extra_info``.

Node counts are scaled down from the paper's 2-256 compute nodes; the
mapping is recorded in EXPERIMENTS.md.  Set ``REPRO_BENCH_SCALE`` to grow or
shrink the stand-in datasets.
"""

from __future__ import annotations

import pytest

from _artifacts import reset_artifacts
from repro.core.engine import DEFAULT_ENGINE, backend_names, engine_names


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        action="store",
        default=DEFAULT_ENGINE,
        choices=engine_names(),
        help=(
            "Survey execution engine the paper-table benchmarks run on "
            f"(default: {DEFAULT_ENGINE}, the production engine; pass legacy "
            "for the scalar oracle); choices come from the engine registry "
            "(repro.core.engine).  Every engine reproduces identical result "
            "columns — communicated bytes included — so the tables can be "
            "regenerated on any of them."
        ),
    )
    parser.addoption(
        "--backend",
        action="store",
        default="simulated",
        choices=backend_names(),
        help=(
            "Execution backend the scaling benchmarks run on (default: "
            "simulated); choices come from the backend axis "
            "(repro.core.engine.backend_names).  Backends reproduce "
            "identical result columns, differing only in host wall-clock."
        ),
    )


@pytest.fixture(scope="session")
def survey_engine(request):
    """Engine selected with ``--engine`` (any registered engine name)."""
    return request.config.getoption("--engine")


@pytest.fixture(scope="session")
def survey_backend(request):
    """Backend selected with ``--backend`` (``simulated`` or ``process``)."""
    return request.config.getoption("--backend")


@pytest.fixture(scope="session", autouse=True)
def _fresh_artifact_file():
    """Start each benchmark session with an empty artifact file."""
    reset_artifacts()
    yield


@pytest.fixture(scope="session")
def strong_scaling_nodes():
    """Simulated node counts used by the strong-scaling figures (paper: 2-256)."""
    return [2, 8, 32]


@pytest.fixture(scope="session")
def weak_scaling_nodes():
    """Simulated node counts used by the weak-scaling figures (paper: 1-256)."""
    return [1, 2, 4, 8]


@pytest.fixture(scope="session")
def comparison_nodes():
    """Node count for the Table 2 comparison (paper: 64 nodes / 1024 cores)."""
    return 16
