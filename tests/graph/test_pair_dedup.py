"""``unique_pair_indices`` (the generators' and ``simplify``'s pair dedup) and
``GeneratedGraph.num_vertices`` on columnar graphs."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.columnar import unique_pair_indices
from repro.graph.generators import GeneratedGraph, rmat

endpoints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
narrow = st.integers(min_value=-3, max_value=3)


@given(st.lists(st.tuples(st.one_of(narrow, endpoints), st.one_of(narrow, endpoints)), max_size=60))
@settings(max_examples=200, deadline=None)
def test_first_occurrences_are_numpy_uniques(pairs):
    """Same pairs, same order, same ``return_index`` as the void-dtype
    ``np.unique(..., axis=0)`` it replaced — int64 extremes included."""
    lo = np.array([pair[0] for pair in pairs], dtype=np.int64)
    hi = np.array([pair[1] for pair in pairs], dtype=np.int64)
    first = unique_pair_indices(lo, hi)
    expected, expected_first = np.unique(
        np.stack([lo, hi], axis=1), axis=0, return_index=True
    )
    assert first.tolist() == expected_first.tolist()
    assert np.stack([lo[first], hi[first]], axis=1).tolist() == expected.tolist()


def test_num_vertices_counts_endpoints_and_isolated_decorations():
    graph = rmat(6, edge_factor=4, seed=3)
    us, vs = graph.edge_columns()
    endpoints = set(us.tolist()) | set(vs.tolist())
    assert graph.num_vertices() == len(endpoints)
    known = min(endpoints)
    decorated = GeneratedGraph(
        name="decorated",
        edge_columns=(us, vs),
        vertex_meta={known: "seen", 10**6: "isolated", "s": "isolated too"},
    )
    assert decorated.num_vertices() == len(endpoints) + 2
    assert type(decorated.num_vertices()) is int
