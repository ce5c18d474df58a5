"""Tests for the community detection helpers used by the Fig. 8 ordering."""

from __future__ import annotations

import networkx as nx

from repro.analysis import community_ordering, domain_cooccurrence_graph
from repro.analysis.communities import detect_communities


def two_cluster_counts():
    """Triple counts forming two well-separated domain clusters."""
    counts = {}
    cluster_a = ["a1.com", "a2.com", "a3.com", "a4.com"]
    cluster_b = ["b1.org", "b2.org", "b3.org", "b4.org"]
    for cluster in (cluster_a, cluster_b):
        for i in range(len(cluster)):
            for j in range(i + 1, len(cluster)):
                for k in range(j + 1, len(cluster)):
                    counts[(cluster[i], cluster[j], cluster[k])] = 50
    counts[(cluster_a[0], cluster_a[1], cluster_b[0])] = 1  # single weak bridge
    return counts, cluster_a, cluster_b


class TestCooccurrenceGraph:
    def test_edge_weights_accumulate(self):
        counts = {("a", "b", "c"): 2, ("a", "b", "d"): 3}
        graph = domain_cooccurrence_graph(counts)
        assert graph["a"]["b"]["weight"] == 5
        assert graph["a"]["c"]["weight"] == 2
        assert not graph.has_edge("c", "d")

    def test_empty_counts(self):
        assert domain_cooccurrence_graph({}).number_of_nodes() == 0


class TestCommunities:
    def test_two_clusters_recovered(self):
        counts, cluster_a, cluster_b = two_cluster_counts()
        graph = domain_cooccurrence_graph(counts)
        communities = detect_communities(graph, seed=1)
        assert len(communities) >= 2
        community_sets = [set(c) for c in communities]
        assert set(cluster_a) in community_sets
        assert set(cluster_b) in community_sets

    def test_empty_graph(self):
        assert detect_communities(nx.Graph()) == []

    def test_ordering_is_contiguous_by_community(self):
        counts, cluster_a, cluster_b = two_cluster_counts()
        graph = domain_cooccurrence_graph(counts)
        ordered, membership = community_ordering(graph, seed=1)
        assert set(ordered) == set(cluster_a) | set(cluster_b)
        community_sequence = [membership[d] for d in ordered]
        # Once a community id stops appearing it must not reappear.
        seen = []
        for community in community_sequence:
            if community in seen:
                assert community == seen[-1]
            else:
                seen.append(community)
