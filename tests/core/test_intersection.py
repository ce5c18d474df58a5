"""Unit tests for the oracle's pairwise intersection kernels."""

from __future__ import annotations

import pytest

from repro.oracle.kernels import (
    INTERSECTION_KERNELS,
    binary_search_intersection,
    hash_intersection,
    merge_path_intersection,
)

identity = lambda x: x  # noqa: E731 - simple key function for plain values

ALL_KERNELS = list(INTERSECTION_KERNELS.values())


def matched_values(candidates, adjacency, result):
    return [(candidates[i], adjacency[j]) for i, j in result.matches]


class TestKernelsAgree:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=list(INTERSECTION_KERNELS))
    def test_basic_intersection(self, kernel):
        candidates = [1, 3, 5, 7, 9]
        adjacency = [2, 3, 4, 7, 10]
        result = kernel(candidates, adjacency, identity, identity)
        assert matched_values(candidates, adjacency, result) == [(3, 3), (7, 7)]

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=list(INTERSECTION_KERNELS))
    def test_empty_inputs(self, kernel):
        assert len(kernel([], [1, 2], identity, identity)) == 0
        assert len(kernel([1, 2], [], identity, identity)) == 0
        assert len(kernel([], [], identity, identity)) == 0

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=list(INTERSECTION_KERNELS))
    def test_disjoint_and_identical(self, kernel):
        assert len(kernel([1, 2, 3], [4, 5, 6], identity, identity)) == 0
        full = kernel([1, 2, 3], [1, 2, 3], identity, identity)
        assert len(full) == 3

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=list(INTERSECTION_KERNELS))
    def test_key_functions_are_applied(self, kernel):
        # Entries are tuples; intersection happens on the first element only.
        candidates = [(1, "a"), (4, "b"), (6, "c")]
        adjacency = [(2, "x"), (4, "y"), (9, "z")]
        result = kernel(candidates, adjacency, lambda e: e[0], lambda e: e[0])
        assert matched_values(candidates, adjacency, result) == [((4, "b"), (4, "y"))]

    def test_all_kernels_agree_on_random_inputs(self):
        import random

        rng = random.Random(13)
        for _ in range(50):
            candidates = sorted(rng.sample(range(200), rng.randint(0, 40)))
            adjacency = sorted(rng.sample(range(200), rng.randint(0, 40)))
            results = {
                name: {matched_values(candidates, adjacency, kernel(candidates, adjacency, identity, identity))[i][0]
                       for i in range(len(kernel(candidates, adjacency, identity, identity).matches))}
                for name, kernel in INTERSECTION_KERNELS.items()
            }
            expected = set(candidates) & set(adjacency)
            for name, found in results.items():
                assert found == expected, name


class TestComparisonCounts:
    def test_merge_path_linear(self):
        candidates = list(range(0, 100, 2))
        adjacency = list(range(1, 100, 2))
        result = merge_path_intersection(candidates, adjacency, identity, identity)
        assert result.comparisons <= len(candidates) + len(adjacency)

    def test_binary_search_logarithmic_per_candidate(self):
        candidates = [50]
        adjacency = list(range(1024))
        result = binary_search_intersection(candidates, adjacency, identity, identity)
        assert result.comparisons <= 12

    def test_hash_comparisons_linear(self):
        candidates = list(range(10))
        adjacency = list(range(100))
        result = hash_intersection(candidates, adjacency, identity, identity)
        assert result.comparisons == len(candidates) + len(adjacency)

    def test_result_is_iterable_and_sized(self):
        result = merge_path_intersection([1, 2], [2, 3], identity, identity)
        assert len(result) == 1
        assert list(result) == [(1, 0)]
