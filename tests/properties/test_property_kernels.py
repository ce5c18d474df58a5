"""Property-based cross-tier kernel equivalence (out-of-core tentpole).

The kernel-tier layer promises that every tier — ``scalar`` (reference
loops), ``columnar`` (NumPy pipelines with closed-form comparison replay)
and ``compiled`` (numba-jitted merge loops) — produces *identical* matches
and *identical* aggregate comparison counts for every batch/row kernel, on
arbitrary inputs.  The scalar tier is the oracle; the suite drives every
registered tier plus the compiled loop bodies directly (they are plain
Python when numba is absent, so the contract is pinned with or without the
wheel) over random and adversarial inputs: empty adjacencies, empty
segments, empty rows, single-element segments, and keys duplicated across
segments and shared with the adjacency.

A final block pins the downgrade semantics: :mod:`repro.core.intersection_compiled`
must import cleanly without numba, the ``compiled`` tier must appear in the
tier tables exactly when :data:`NUMBA_AVAILABLE`, and
``resolve_kernel_tier("compiled")`` must fall back along the declared
``compiled -> columnar -> scalar`` chain rather than erroring.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import intersection_compiled
from repro.core.intersection import (
    BATCH_KERNEL_TIERS,
    INTERSECTION_KERNELS,
    KERNEL_TIER_FALLBACK,
    KERNEL_TIERS,
    ROW_KERNEL_TIERS,
    RowAdjacency,
    available_kernel_tiers,
    batch_kernel,
    resolve_kernel_tier,
    row_kernel,
)
from repro.core.intersection_compiled import (
    COMPILED_BATCH_KERNELS,
    COMPILED_ROW_KERNELS,
    NUMBA_AVAILABLE,
)

KERNEL_NAMES = tuple(INTERSECTION_KERNELS)


def canonical_batch(result):
    """(sorted match triples, comparisons) — tier-independent form."""
    return (sorted(tuple(map(int, m)) for m in result.matches), int(result.comparisons))


def canonical_rows(result):
    """(seg, cand_pos, adj_pos, comparisons) as plain int lists."""
    return (
        [int(v) for v in result.seg],
        [int(v) for v in result.cand_pos],
        [int(v) for v in result.adj_pos],
        int(result.comparisons),
    )


def sorted_unique(draw, order_count, max_len, min_len=0):
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=order_count - 1),
            min_size=min_len,
            max_size=max_len,
            unique=True,
        )
    )
    return sorted(keys)


@st.composite
def batch_cases(draw):
    """Candidate segments + one shared adjacency, adversarial shapes included.

    Segment lengths of 0 and 1 arise naturally; keys repeat across segments
    and overlap the adjacency (the same small order-id universe), which is
    the duplicate-key regime the composite-key row kernels must not confuse.
    """
    order_count = draw(st.integers(min_value=1, max_value=40))
    n_segments = draw(st.integers(min_value=0, max_value=6))
    segments = [
        sorted_unique(draw, order_count, max_len=min(order_count, 8))
        for _ in range(n_segments)
    ]
    offsets = [0]
    flat = []
    for seg in segments:
        flat.extend(seg)
        offsets.append(len(flat))
    adjacency = sorted_unique(draw, order_count, max_len=min(order_count, 12))
    return flat, offsets, adjacency


@st.composite
def row_cases(draw):
    """Candidate segments + a multi-row adjacency (empty rows included)."""
    order_count = draw(st.integers(min_value=1, max_value=40))
    n_rows = draw(st.integers(min_value=1, max_value=5))
    rows = [
        sorted_unique(draw, order_count, max_len=min(order_count, 8))
        for _ in range(n_rows)
    ]
    keys = []
    indptr = [0]
    for row in rows:
        keys.extend(row)
        indptr.append(len(keys))
    n_segments = draw(st.integers(min_value=0, max_value=6))
    segments = [
        sorted_unique(draw, order_count, max_len=min(order_count, 8))
        for _ in range(n_segments)
    ]
    offsets = [0]
    flat = []
    for seg in segments:
        flat.extend(seg)
        offsets.append(len(flat))
    seg_rows = [
        draw(st.integers(min_value=0, max_value=n_rows - 1)) for _ in range(n_segments)
    ]
    adjacency = RowAdjacency(
        np.asarray(keys, dtype=np.int64),
        np.asarray(indptr, dtype=np.int64),
        order_count,
    )
    return flat, offsets, seg_rows, adjacency


def batch_variants(name):
    """Every batch implementation of ``name``: registered tiers + compiled loops."""
    variants = {
        f"tier:{tier}": kernels[name] for tier, kernels in BATCH_KERNEL_TIERS.items()
    }
    variants["compiled-loops"] = COMPILED_BATCH_KERNELS[name]
    return variants


def row_variants(name):
    variants = {
        f"tier:{tier}": kernels[name] for tier, kernels in ROW_KERNEL_TIERS.items()
    }
    variants["compiled-loops"] = COMPILED_ROW_KERNELS[name]
    return variants


@settings(max_examples=120, deadline=None)
@given(case=batch_cases())
def test_batch_kernels_agree_across_tiers(case):
    """Same matches, same comparison totals: every tier, every batch kernel."""
    flat, offsets, adjacency = case
    for name in KERNEL_NAMES:
        variants = batch_variants(name)
        oracle = canonical_batch(variants["tier:scalar"](flat, offsets, adjacency))
        for label, kernel_fn in variants.items():
            got = canonical_batch(kernel_fn(flat, offsets, adjacency))
            assert got == oracle, f"{name}/{label} diverged: {got} != {oracle}"


@settings(max_examples=120, deadline=None)
@given(case=row_cases())
def test_row_kernels_agree_across_tiers(case):
    """Same matches, same comparison totals: every tier, every row kernel."""
    flat, offsets, seg_rows, adjacency = case
    for name in KERNEL_NAMES:
        variants = row_variants(name)
        oracle = canonical_rows(
            variants["tier:scalar"](flat, offsets, seg_rows, adjacency)
        )
        for label, kernel_fn in variants.items():
            got = canonical_rows(kernel_fn(flat, offsets, seg_rows, adjacency))
            assert got == oracle, f"{name}/{label} diverged: {got} != {oracle}"


def _adjacency(rows, order_count=64):
    keys, indptr = [], [0]
    for row in rows:
        keys.extend(row)
        indptr.append(len(keys))
    return RowAdjacency(
        np.asarray(keys, dtype=np.int64), np.asarray(indptr, dtype=np.int64), order_count
    )


#: Hand-written adversarial shapes: (flat candidates, offsets, seg_rows, rows).
ADVERSARIAL_ROW_CASES = [
    # everything empty
    ([], [0], [], [[]]),
    # empty segments interleaved with singletons
    ([5], [0, 0, 1, 1], [0, 0, 0], [[5]]),
    # segment against an empty row
    ([1, 2, 3], [0, 3], [1], [[1, 2, 3], []]),
    # single-element segments, duplicate keys across segments
    ([7, 7, 7], [0, 1, 2, 3], [0, 1, 0], [[7], [3, 7]]),
    # full overlap: candidates == the row
    ([2, 4, 6], [0, 3], [0], [[2, 4, 6]]),
    # no overlap, candidate keys below/above the row's range
    ([0, 1, 60, 63], [0, 2, 4], [0, 0], [[10, 20, 30]]),
]


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_row_kernels_adversarial_cases(name):
    for flat, offsets, seg_rows, rows in ADVERSARIAL_ROW_CASES:
        adjacency = _adjacency(rows)
        variants = row_variants(name)
        oracle = canonical_rows(
            variants["tier:scalar"](flat, offsets, seg_rows, adjacency)
        )
        for label, kernel_fn in variants.items():
            got = canonical_rows(kernel_fn(flat, offsets, seg_rows, adjacency))
            assert got == oracle, f"{name}/{label} on {flat, offsets, seg_rows}"


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_batch_kernels_adversarial_cases(name):
    cases = [
        ([], [0], []),
        ([], [0, 0, 0], [1, 2, 3]),
        ([5], [0, 1], []),
        ([1, 2, 3], [0, 1, 2, 3], [2]),
        ([2, 4, 6], [0, 3], [2, 4, 6]),
    ]
    for flat, offsets, adjacency in cases:
        variants = batch_variants(name)
        oracle = canonical_batch(variants["tier:scalar"](flat, offsets, adjacency))
        for label, kernel_fn in variants.items():
            got = canonical_batch(kernel_fn(flat, offsets, adjacency))
            assert got == oracle, f"{name}/{label} on {flat, offsets}"


# ---------------------------------------------------------------------------
# Downgrade semantics: with and without numba
# ---------------------------------------------------------------------------


def test_compiled_module_imports_without_numba():
    """The compiled module is importable either way; its loops are callable."""
    assert isinstance(intersection_compiled.NUMBA_AVAILABLE, bool)
    result = COMPILED_BATCH_KERNELS["merge_path"]([1, 2], [0, 2], [2, 3])
    assert canonical_batch(result) == ([(0, 1, 0)], 2)


def test_compiled_tier_registration_matches_numba():
    """``compiled`` is a registered tier exactly when numba is installed."""
    assert ("compiled" in BATCH_KERNEL_TIERS) == NUMBA_AVAILABLE
    assert ("compiled" in ROW_KERNEL_TIERS) == NUMBA_AVAILABLE
    assert available_kernel_tiers() == tuple(
        tier for tier in KERNEL_TIERS if tier in ROW_KERNEL_TIERS
    )


def test_resolve_compiled_follows_fallback_chain():
    """Requesting the compiled tier never errors: it downgrades as declared."""
    resolved = resolve_kernel_tier("compiled")
    if NUMBA_AVAILABLE:
        assert resolved == "compiled"
    else:
        assert resolved == KERNEL_TIER_FALLBACK["compiled"] == "columnar"
    # The accessors hand back callables for every name at every spelling.
    for name in KERNEL_NAMES:
        assert callable(batch_kernel(name, "compiled"))
        assert callable(row_kernel(name, "compiled"))
        assert callable(batch_kernel(name, None))
        assert callable(row_kernel(name, "auto"))
    with pytest.raises(ValueError):
        resolve_kernel_tier("vectorized")


def test_survey_accepts_compiled_tier_everywhere():
    """End-to-end: kernel_tier="compiled" runs (downgrading without numba)
    and reproduces the default-tier survey exactly."""
    from repro.core.engine import EngineConfig
    from repro.core.survey import triangle_survey_push
    from repro.graph import DODGraph
    from repro.graph.generators import rmat
    from repro.runtime import World

    def run(kernel_tier):
        world = World(4)
        dodgr = DODGraph.build(
            rmat(6, edge_factor=6, seed=9).to_distributed(world), mode="bulk"
        )
        report = triangle_survey_push(
            dodgr, None, engine=EngineConfig(engine="columnar", kernel_tier=kernel_tier)
        )
        return (
            report.triangles,
            report.wedge_checks,
            report.communication_bytes,
            report.wire_messages,
        )

    assert run("compiled") == run(None) == run("scalar")
