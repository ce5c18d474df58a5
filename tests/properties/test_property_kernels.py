"""Property-based cross-tier kernel equivalence.

The kernel-tier layer promises that every tier — ``columnar`` (a NumPy
composite-key match and the comparison-count table) and ``compiled``
(stamp and probe in C, built by the system compiler) — produces
*identical* matches and *identical* aggregate comparison counts for every
row kernel, on arbitrary inputs.  The oracle is
:func:`repro.oracle.kernels.reference_rows`, one pairwise kernel call per
segment; the suite drives every *registered* tier (so the C kernels
wherever a compiler built them) over random and adversarial inputs.
Segments are spans of one source key array, drawn as the surveys pass them:
inside the sorted runs of a CSR-like source, overlapping (nested suffixes
included), empty and in any order.  The adversarial shapes add empty adjacencies,
empty rows, single-element segments, keys duplicated across segments and
shared with the adjacency, one 10^5-key segment, and non-contiguous /
int32 / memmapped input columns.

A final block pins the downgrade semantics: the ``compiled`` tier must
appear in the row tier table exactly when ``compiled_tier_status()`` says
it loaded, and ``resolve_kernel_tier("compiled")`` must run ``columnar``
rather than erroring where it did not.  ``tests/core/test_kernel_loader.py``
covers the ways the build itself can fail.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intersection import (
    COMPARISON_COUNTS,
    KERNEL_TIERS,
    ROW_KERNEL_TIERS,
    RowAdjacency,
    available_kernel_tiers,
    compiled_tier_status,
    resolve_kernel_tier,
    row_kernel,
)
from repro.core.intersection_compiled import COMPILED_ROW_KERNELS
from repro.oracle.kernels import reference_rows

COMPILED_AVAILABLE = compiled_tier_status().available

KERNEL_NAMES = tuple(COMPARISON_COUNTS)


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
def row_cases(draw):
    """Spans over one source array + a multi-row adjacency (empty rows included).

    The source is a run of sorted rows end to end, like a CSR's ``tgt_ids``;
    each span lies inside one run, so spans of a run overlap and their
    total length can pass the source's.  Span lengths of 0 and 1 arise
    naturally; keys repeat across runs and overlap the rows (the same small
    order-id universe), which is the duplicate-key regime the composite-key
    row kernels must not confuse.
    """
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
    source, runs = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        run = sorted_unique(draw, order_count, max_len=min(order_count, 8))
        runs.append((len(source), len(source) + len(run)))
        source.extend(run)
    starts, ends = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        lo, hi = draw(st.sampled_from(runs))
        start = draw(st.integers(min_value=lo, max_value=hi))
        starts.append(start)
        ends.append(draw(st.integers(min_value=start, max_value=hi)))
    seg_rows = [
        draw(st.integers(min_value=0, max_value=n_rows - 1)) for _ in starts
    ]
    adjacency = RowAdjacency(
        np.asarray(keys, dtype=np.int64),
        np.asarray(indptr, dtype=np.int64),
        order_count,
    )
    return source, starts, ends, seg_rows, adjacency


def row_variants(name):
    """Every registered row implementation of ``name`` (the C one included
    wherever it built)."""
    return {
        f"tier:{tier}": kernels[name] for tier, kernels in ROW_KERNEL_TIERS.items()
    }


def assert_rows_agree(name, source, starts, ends, seg_rows, adjacency):
    """Every registered tier returns the oracle's arrays and count, and
    counted alone (``matches=False``) the same match count and comparison
    total with no index arrays."""
    variants = row_variants(name)
    args = (source, starts, ends, seg_rows, adjacency)
    oracle = canonical_rows(reference_rows(name, *args))
    for label, kernel_fn in variants.items():
        got = canonical_rows(kernel_fn(*args))
        assert got == oracle, f"{name}/{label} diverged on {source, starts, ends, seg_rows}"
        counted = kernel_fn(*args, matches=False)
        assert (len(counted), counted.comparisons) == (len(oracle[0]), oracle[3]), (
            f"{name}/{label} count-only diverged on {source, starts, ends, seg_rows}"
        )
        assert counted.seg is counted.cand_pos is counted.adj_pos is None
    return oracle


@settings(max_examples=120, deadline=None)
@given(case=row_cases())
def test_row_kernels_agree_across_tiers(case):
    """Same matches, same comparison totals: every tier, every row kernel."""
    for name in KERNEL_NAMES:
        assert_rows_agree(name, *case)


def _adjacency(rows, order_count=64):
    keys, indptr = [], [0]
    for row in rows:
        keys.extend(row)
        indptr.append(len(keys))
    return RowAdjacency(
        np.asarray(keys, dtype=np.int64), np.asarray(indptr, dtype=np.int64), order_count
    )


#: Hand-written adversarial shapes: (source keys, starts, ends, seg_rows, rows).
ADVERSARIAL_ROW_CASES = [
    # everything empty
    ([], [], [], [], [[]]),
    # empty spans interleaved with singletons, one at the source's end
    ([5], [0, 0, 1], [0, 1, 1], [0, 0, 0], [[5]]),
    # span against an empty row
    ([1, 2, 3], [0], [3], [1], [[1, 2, 3], []]),
    # single-element spans, duplicate keys across spans
    ([7, 7, 7], [0, 1, 2], [1, 2, 3], [0, 1, 0], [[7], [3, 7]]),
    # one key read by three spans, one against each row
    ([7], [0, 0, 0], [1, 1, 1], [0, 1, 0], [[7], [3, 7]]),
    # full overlap: candidates == the row
    ([2, 4, 6], [0], [3], [0], [[2, 4, 6]]),
    # no overlap, candidate keys below/above the row's range
    ([0, 1, 60, 63], [0, 2], [2, 4], [0, 0], [[10, 20, 30]]),
    # equal keys at both ends of span and row; a one-key tie
    ([1, 5, 9], [0], [3], [0], [[1, 9]]),
    ([4], [0], [1], [0], [[4]]),
    # candidates exhaust before the row does, and after it
    ([1, 2], [0], [2], [0], [[1, 2, 3, 4, 50]]),
    ([1, 2, 60, 61], [0], [4], [0], [[1, 2]]),
    # nested suffixes of one row, starts descending (the push shape)
    ([3, 5, 9, 12], [3, 2, 1, 0], [4, 4, 4, 4], [0, 1, 0, 1], [[5, 9, 12], [3, 12]]),
]


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_row_kernels_adversarial_cases(name):
    for source, starts, ends, seg_rows, rows in ADVERSARIAL_ROW_CASES:
        assert_rows_agree(name, source, starts, ends, seg_rows, _adjacency(rows))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_row_kernels_single_large_segment(name):
    """One 10^5-key segment against one 10^5-key row (10^3 probes for the
    binary-search kernel, whose oracle is a Python loop per probe)."""
    rng = np.random.default_rng(5)
    universe = 1 << 18
    row = np.sort(rng.choice(universe, size=100_000, replace=False)).astype(np.int64)
    size = 1_000 if name == "binary_search" else 100_000
    flat = np.sort(rng.choice(universe, size=size, replace=False)).astype(np.int64)
    adjacency = RowAdjacency(row, np.array([0, row.size], dtype=np.int64), universe)
    seg, _cand, _adj, comparisons = assert_rows_agree(
        name, flat, np.array([0]), np.array([flat.size]), np.array([0]), adjacency
    )
    assert len(seg) > 0 and comparisons >= flat.size


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_row_kernels_accept_any_column_form(name, tmp_path):
    """Strided views, int32 columns and memmapped columns (``storage="mmap"``
    hands the kernels ``np.memmap`` CSR columns) intersect like plain int64."""
    rows = [[1, 3, 5, 7, 9], [], [2, 3, 4, 40, 41, 42], [0, 63]]
    source = [3, 4, 5, 9, 2, 40, 63, 0, 63]
    starts, ends = [0, 4, 7, 7, 1], [4, 7, 7, 9, 4]
    seg_rows = [0, 2, 1, 3, 2]
    plain = _adjacency(rows)
    oracle = assert_rows_agree(name, source, starts, ends, seg_rows, plain)

    def strided(values):
        doubled = np.repeat(np.asarray(values, dtype=np.int64), 2)
        view = doubled[::2]
        assert not view.flags.c_contiguous or view.size <= 1
        return view

    def int32(values):
        return np.asarray(values, dtype=np.int32)

    def memmapped(values):
        path = tmp_path / f"col-{len(list(tmp_path.iterdir()))}.bin"
        column = np.memmap(path, dtype=np.int64, mode="w+", shape=(len(values),))
        column[:] = values
        column.flush()
        return np.memmap(path, dtype=np.int64, mode="r", shape=(len(values),))

    for form in (strided, int32, memmapped):
        adjacency = RowAdjacency(form(plain.keys), form(plain.indptr), plain.order_count)
        got = assert_rows_agree(
            name, form(source), form(starts), form(ends), form(seg_rows), adjacency
        )
        assert got == oracle, f"{name} over {form.__name__} columns"


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_row_kernels_reject_out_of_range_rows(name):
    """Regression: a segment row outside the adjacency was an IndexError past
    the end, a silent wrap onto the wrong row at -1 (columnar) — and would
    be an out-of-bounds read in C.  Every tier now raises the same
    IndexError; no rows at all is simply empty."""
    adjacency = _adjacency([[1, 2, 3], [2, 9]])
    shapes = [
        ([2], [0], [1]),
        (list(range(10)) * 10, list(range(0, 100, 10)), list(range(10, 101, 10))),
    ]
    for label, kernel_fn in row_variants(name).items():
        for source, starts, ends in shapes:
            n_seg = len(starts)
            messages = set()
            for bad in (-1, 2):
                with pytest.raises(IndexError) as caught:
                    kernel_fn(source, starts, ends, [0] * (n_seg - 1) + [bad], adjacency)
                messages.add(str(caught.value).split(";")[0])
            assert messages == {"segment rows must lie in [0, 2)"}, label
        assert canonical_rows(kernel_fn([], [], [], [], adjacency)) == ([], [], [], 0)


class KeysUnread:
    """A source of ``size`` keys that fails the test if any key is read."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, index):
        raise AssertionError("a key was read before the spans were checked")


#: Malformed spans over a 6-key source: (starts, ends, rows, message).
MALFORMED_SPANS = [
    ([0, 4, 2], [4, 2, 6], [0, 1, 0], r"^segment spans must satisfy 0 <= start <= end <= 6$"),
    ([-1], [2], [0], r"^segment spans must satisfy 0 <= start <= end <= 6$"),
    ([2], [7], [0], r"^segment spans must satisfy 0 <= start <= end <= 6$"),
    ([0, 2], [2], [0, 1], r"^one start, end and row per segment; got 2 starts, 1 ends"),
]


@pytest.mark.parametrize("name", KERNEL_NAMES)
@pytest.mark.parametrize("matches", [True, False])
def test_count_only_rejects_what_the_full_call_rejects(name, matches):
    """Malformed spans raise the same ValueError in both modes, before any
    key is read (the NumPy tiers are handed a source whose keys fail the
    test when read; the compiled tier checks every span in C before its
    first load)."""
    adjacency = _adjacency([[1, 2, 3], [4, 5, 6]], order_count=8)
    for label, kernel_fn in row_variants(name).items():
        source = list(range(1, 7)) if label == "tier:compiled" else KeysUnread(6)
        for starts, ends, rows, message in MALFORMED_SPANS:
            with pytest.raises(ValueError, match=message):
                kernel_fn(source, starts, ends, rows, adjacency, matches=matches)


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled tier not built here")
@pytest.mark.parametrize("name", KERNEL_NAMES)
@pytest.mark.parametrize("matches", [True, False])
def test_count_only_rejects_out_of_range_adjacency_keys(name, matches):
    """The compiled stamp's key check runs for every kernel in both modes:
    an adjacency key outside ``[0, order_count)`` is the same ValueError,
    never a stray store into the stamp array."""
    kernel_fn = COMPILED_ROW_KERNELS[name]
    for rows, order_count in (([[1, 3, 8]], 8), ([[1, 3], [1, 9]], 8), ([[-1, 1, 3]], 8)):
        adjacency = _adjacency(rows, order_count)
        with pytest.raises(ValueError, match=rf"adjacency keys must lie in \[0, {order_count}\)"):
            kernel_fn([1, 3, 1], [0, 2], [2, 3], [0, len(rows) - 1], adjacency, matches=matches)


# ---------------------------------------------------------------------------
# Downgrade semantics: with and without a C compiler
# ---------------------------------------------------------------------------


def test_compiled_module_import_never_raises():
    """Importing the compiled module succeeded (this file imported it) and
    left a status record consistent with the kernels it exports."""
    status = compiled_tier_status()
    assert status.reason
    assert bool(COMPILED_ROW_KERNELS) == status.available
    if status.available:
        assert set(COMPILED_ROW_KERNELS) == set(KERNEL_NAMES)
        assert status.compiler and status.library
    else:
        assert status.library is None


def test_compiled_tier_registration_matches_status():
    """``compiled`` is a registered row tier exactly when its library loaded."""
    assert ("compiled" in ROW_KERNEL_TIERS) == COMPILED_AVAILABLE
    assert available_kernel_tiers() == tuple(
        tier for tier in KERNEL_TIERS if tier in ROW_KERNEL_TIERS
    )


def test_resolve_compiled_downgrades_to_columnar():
    """Requesting the compiled tier never errors: it runs ``columnar`` where
    the library did not load.  ``scalar`` is no tier."""
    resolved = resolve_kernel_tier("compiled")
    assert resolved == ("compiled" if COMPILED_AVAILABLE else "columnar")
    # None / "auto" pick the best tier there is.
    assert resolve_kernel_tier(None) == resolve_kernel_tier("auto") == resolved
    assert resolve_kernel_tier("columnar") == "columnar"
    with pytest.raises(ValueError, match=r"^unknown kernel tier 'scalar'"):
        resolve_kernel_tier("scalar")
    # The accessor hands back callables for every name at every spelling.
    for name in KERNEL_NAMES:
        assert row_kernel(name, "compiled") is ROW_KERNEL_TIERS[resolved][name]
        assert row_kernel(name, "auto") is ROW_KERNEL_TIERS[resolved][name]
    with pytest.raises(ValueError):
        resolve_kernel_tier("vectorized")


def test_survey_accepts_compiled_tier_everywhere(monkeypatch):
    """End-to-end: kernel_tier="compiled" runs (downgrading without a
    compiler) and reproduces every other tier's survey exactly; unset, the
    survey runs on the compiled kernels wherever they are available."""
    from repro.core.engine import EngineConfig
    from repro.core.survey import triangle_survey_push
    from repro.graph import DODGraph
    from repro.graph.generators import rmat
    from repro.runtime import World

    best = resolve_kernel_tier(None)
    calls = {"best": 0}
    kernel_fn = ROW_KERNEL_TIERS[best]["merge_path"]

    def counting_kernel(*args, matches):
        # The survey below has no callback: it counts, so no match columns.
        assert matches is False
        calls["best"] += 1
        return kernel_fn(*args, matches=matches)

    monkeypatch.setitem(ROW_KERNEL_TIERS[best], "merge_path", counting_kernel)

    def run(kernel_tier, engine="columnar"):
        world = World(4)
        dodgr = DODGraph.build(
            rmat(6, edge_factor=6, seed=9).to_distributed(world), mode="bulk"
        )
        report = triangle_survey_push(
            dodgr, None, engine=EngineConfig(engine=engine, kernel_tier=kernel_tier)
        )
        return (
            report.triangles,
            report.wedge_checks,
            report.communication_bytes,
            report.wire_messages,
        )

    legacy = run(None, engine="legacy")
    assert run("columnar") == legacy
    before = calls["best"]
    default = run(None)
    assert calls["best"] > before, f"kernel_tier=None did not run the {best} kernels"
    assert best == ("compiled" if COMPILED_AVAILABLE else "columnar")
    assert run("compiled") == default == legacy
