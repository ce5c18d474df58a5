"""Community detection over domain co-occurrence graphs (Fig. 8 ordering).

Section 5.8 orders the FQDNs appearing in triangles with "amazon.com" by the
communities the Louvain method finds, which makes the block structure of the
2D distribution visible (brand domains together, the education/library
cluster together, ...).  networkx provides Louvain; this module wraps it
(falling back to greedy modularity when Louvain is unavailable) and adds the
helpers needed to turn FQDN-triple counts into a weighted domain graph.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import networkx as nx

__all__ = [
    "domain_cooccurrence_graph",
    "community_ordering",
]


def domain_cooccurrence_graph(
    triple_counts: Mapping[Tuple[str, str, str], int],
) -> nx.Graph:
    """Weighted domain graph: edge weight = number of triangles joining two domains."""
    graph = nx.Graph()
    for triple, count in triple_counts.items():
        domains = list(triple)
        for i in range(len(domains)):
            for j in range(i + 1, len(domains)):
                u, v = domains[i], domains[j]
                if u == v:
                    continue
                if graph.has_edge(u, v):
                    graph[u][v]["weight"] += count
                else:
                    graph.add_edge(u, v, weight=count)
    return graph


def detect_communities(graph: nx.Graph, seed: int = 0) -> List[List[str]]:
    """Louvain communities (greedy modularity fallback), largest first."""
    if graph.number_of_nodes() == 0:
        return []
    try:
        communities = nx.community.louvain_communities(graph, weight="weight", seed=seed)
    except AttributeError:  # pragma: no cover - very old networkx
        communities = nx.community.greedy_modularity_communities(graph, weight="weight")
    ordered = [sorted(community) for community in communities]
    ordered.sort(key=len, reverse=True)
    return ordered


def community_ordering(
    graph: nx.Graph, seed: int = 0
) -> Tuple[List[str], Dict[str, int]]:
    """Domains ordered by community (then alphabetically), plus community ids.

    Returns ``(ordered_domains, community_of_domain)`` — the orderings used
    for the axes of the Fig. 8 heat map.
    """
    communities = detect_communities(graph, seed=seed)
    ordered: List[str] = []
    membership: Dict[str, int] = {}
    for community_id, members in enumerate(communities):
        for domain in members:
            ordered.append(domain)
            membership[domain] = community_id
    # Isolated domains (present in the count keys but not the graph) go last.
    return ordered, membership
