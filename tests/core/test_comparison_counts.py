"""The comparison-count table against the oracle's pairwise kernels.

:data:`repro.core.intersection.COMPARISON_COUNTS` says what each ``kernel=``
name costs, from the candidates' ranks in their rows: the merge walk's
``consumed - matches``, the hash model's table build plus probes, and a
replay of the binary search's halving loop.  Each formula must equal the
comparisons the named pairwise kernel of :mod:`repro.oracle.kernels` makes
— for every row length up to 64 and every rank in it, hit or miss — and
every registered tier must agree with both.  The empty-span cases settle
the hash model's charge: a table build over the row even when no candidate
probes it, as the pairwise kernel builds before it probes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import triangle_survey
from repro.core.engine import EngineConfig
from repro.core.intersection import COMPARISON_COUNTS, ROW_KERNEL_TIERS, RowAdjacency
from repro.graph import DODGraph
from repro.graph.generators import rmat
from repro.oracle.kernels import INTERSECTION_KERNELS, reference_rows
from repro.runtime import World

KERNEL_NAMES = tuple(COMPARISON_COUNTS)


def identity(key):
    return key


def formula_count(name, span, row):
    """The table's count of one span against one row, from its ranks."""
    row = np.asarray(row, dtype=np.int64)
    cands = np.asarray(span, dtype=np.int64)
    rank = np.searchsorted(row, cands)
    hit = np.isin(cands, row)
    return COMPARISON_COUNTS[name](
        lambda: (rank, np.full(cands.size, row.size, dtype=np.int64)),
        hit,
        np.array([0, cands.size], dtype=np.int64),
        np.array([row.size], dtype=np.int64),
    )


def pairwise_count(name, span, row):
    return INTERSECTION_KERNELS[name](list(span), list(row), identity, identity).comparisons


def canonical(result):
    return (
        [int(v) for v in result.seg],
        [int(v) for v in result.cand_pos],
        [int(v) for v in result.adj_pos],
        int(result.comparisons),
    )


def assert_tiers_agree(name, spans, rows, order_count):
    """``spans[s]`` against ``rows[seg_rows[s]]``, laid end to end in one
    call: every tier equals the oracle's reference loop, matches and count,
    and counted alone the same count."""
    source = [key for span, _row in spans for key in span]
    ends = np.cumsum([len(span) for span, _row in spans], dtype=np.int64)
    starts = ends - np.array([len(span) for span, _row in spans], dtype=np.int64)
    seg_rows = [row for _span, row in spans]
    keys = [key for row in rows for key in row]
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    adjacency = RowAdjacency(np.asarray(keys, dtype=np.int64), indptr, order_count)
    args = (source, starts, ends, seg_rows, adjacency)
    expected = canonical(reference_rows(name, *args))
    for tier, kernels in ROW_KERNEL_TIERS.items():
        assert canonical(kernels[name](*args)) == expected, tier
        counted = kernels[name](*args, matches=False)
        assert (len(counted), counted.comparisons) == (len(expected[0]), expected[3]), tier
    return expected


def spans_of_every_rank(n):
    """Spans against the row ``2, 4, ..., 2n``, whose key ``2r + 1`` misses
    at rank ``r`` and ``2r + 2`` hits at rank ``r``: each key alone, every
    run from the smallest key up to it, and every run from it past the row's
    end — so every rank ends a span, hit and miss, and starts one."""
    top = 2 * n + 2
    spans = []
    for key in range(1, top):
        spans.append([key])
        spans.append(list(range(1, key + 1)))
        spans.append(list(range(key, top)))
    return spans


@pytest.mark.parametrize("n", range(65))
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_every_rank_of_a_row(name, n):
    row = list(range(2, 2 * n + 1, 2))
    spans = spans_of_every_rank(n)
    for span in spans:
        assert formula_count(name, span, row) == pairwise_count(name, span, row), span
    comparisons = assert_tiers_agree(name, [(span, 0) for span in spans], [row], 2 * n + 2)[3]
    assert comparisons == sum(pairwise_count(name, span, row) for span in spans)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_empty_spans_and_empty_rows(name):
    """An empty span costs the hash kernel its row's table build and the
    other kernels nothing; any span against an empty row costs the hash
    kernel its probes and the other kernels nothing."""
    rows = [[], [3], [1, 4, 9], list(range(0, 40, 3))]
    for row in rows:
        expected = len(row) if name == "hash" else 0
        assert formula_count(name, [], row) == pairwise_count(name, [], row) == expected
    for span in ([], [5], [0, 2, 7, 11]):
        expected = len(span) if name == "hash" else 0
        assert formula_count(name, span, []) == pairwise_count(name, span, []) == expected
    spans = [([], 0), ([], 1), ([], 2), ([], 3), ([5], 0), ([0, 2, 7, 11], 0), ([], 2)]
    comparisons = assert_tiers_agree(name, spans, rows, 64)[3]
    hash_count = sum(len(span) + len(rows[row]) for span, row in spans)
    assert comparisons == (hash_count if name == "hash" else 0)


@pytest.mark.parametrize("engine", ["legacy", "columnar"])
@pytest.mark.parametrize("algorithm", ["push", "push_pull"])
def test_scalar_tier_is_an_unknown_name(engine, algorithm, monkeypatch):
    """``kernel_tier="scalar"`` is rejected, with the names that exist,
    before a handler registers or a phase begins."""
    world = World(2)
    dodgr = DODGraph.build(rmat(5, edge_factor=4, seed=1).to_distributed(world), mode="bulk")
    handlers = len(world.registry)
    began = []
    monkeypatch.setattr(World, "begin_phase", lambda self, name: began.append(name))
    selector = EngineConfig(engine=engine, kernel_tier="scalar")
    known = r"\('compiled', 'columnar'\)"
    with pytest.raises(ValueError, match=rf"^unknown kernel tier 'scalar'; known: {known}"):
        triangle_survey(dodgr, None, algorithm, engine=selector)
    assert len(world.registry) == handlers and began == []
    dodgr.release()
