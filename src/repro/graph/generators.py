"""Synthetic graph generators: R-MAT plus stand-ins for the paper's datasets.

The paper evaluates on R-MAT graphs (weak scaling) and on massive real-world
graphs (LiveJournal, Friendster, Twitter, uk-2007-05, web-cc12-hostgraph,
Web Data Commons 2012, Reddit).  None of those datasets are available
offline — and would not fit on one machine anyway — so this module provides
scaled-down generators whose *topological character* matches what the
paper's results depend on:

* :func:`rmat` — the standard recursive-matrix generator (Chakrabarti et
  al.), used exactly as in the paper's weak-scaling study.
* :func:`chung_lu_power_law` — skewed-degree social-network-like graphs with
  modest clustering (Friendster / Twitter / LiveJournal stand-ins).
* :func:`clustered_web_graph` — preferential attachment with triad closure
  and planted host-level communities, producing the very heavy hubs and high
  triangle density of web/host graphs (uk-2007-05, web-cc12-hostgraph, WDC
  2012 stand-ins).  These graphs are where the Push-Pull optimisation shines.
* :func:`reddit_like_temporal_graph` — a temporal comment multigraph between
  authors with human-timescale reply delays (the Reddit closure-time study).
* :func:`fqdn_web_graph` — a page-level web graph whose vertices carry FQDN
  strings as metadata, with planted brand / competitor / education
  communities (the Section 5.8 survey).
* :func:`erdos_renyi` — uniform random graphs for tests.

Every generator is deterministic given its seed and returns a
:class:`GeneratedGraph` holding plain edge records + vertex metadata, which
:meth:`GeneratedGraph.to_distributed` loads into a
:class:`~repro.graph.distributed_graph.DistributedGraph`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..runtime.world import World
from .columnar import unique_pair_indices
from .distributed_graph import DistributedGraph
from .metadata import temporal_edge_meta
from .partition import Partitioner

__all__ = [
    "GeneratedGraph",
    "rmat",
    "erdos_renyi",
    "chung_lu_power_law",
    "clustered_web_graph",
    "community_host_graph",
    "reddit_like_temporal_graph",
    "fqdn_web_graph",
    "generator_rng",
]


def generator_rng(
    seed: int, rng: Optional[np.random.Generator] = None
) -> np.random.Generator:
    """The single source of randomness for every generator in this module.

    All generators draw every sample from one
    :class:`numpy.random.Generator` (PCG64 — bit-reproducible across runs
    and platforms) seeded here; passing ``rng`` explicitly lets callers
    compose several generators off one shared stream.  No generator touches
    :mod:`random`, ``numpy.random``'s legacy global state, or hash-seeded
    iteration, so output for a given seed is pinned — see
    ``tests/graph/test_generator_determinism.py`` for the frozen digests.
    """
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


class GeneratedGraph:
    """Output of a generator: undirected edge records plus vertex metadata.

    Two storage shapes coexist.  List-shaped generators pass ``edges`` (a
    list of ``(u, v, meta)`` tuples).  Array-native generators (R-MAT,
    Erdős–Rényi, Chung-Lu) pass ``edge_columns`` — a pair of parallel int64
    endpoint arrays plus one shared ``edge_meta`` value — and never
    materialize per-edge tuples unless a consumer reads :attr:`edges`, which
    synthesizes (and caches) the exact tuple list the legacy representation
    carried.  :meth:`to_distributed` feeds columns straight into
    :meth:`~repro.graph.distributed_graph.DistributedGraph.from_columns`,
    keeping the ingest path array-shaped end to end.
    """

    def __init__(
        self,
        name: str,
        edges: Optional[List[Tuple[Hashable, Hashable, Any]]] = None,
        vertex_meta: Optional[Dict[Hashable, Any]] = None,
        params: Optional[Dict[str, Any]] = None,
        edge_columns: Optional[Tuple[Any, Any]] = None,
        edge_meta: Any = None,
    ) -> None:
        if (edges is None) == (edge_columns is None):
            raise ValueError("provide exactly one of edges / edge_columns")
        self.name = name
        self.vertex_meta: Dict[Hashable, Any] = vertex_meta if vertex_meta is not None else {}
        #: free-form provenance (generator parameters), recorded for reports
        self.params: Dict[str, Any] = params if params is not None else {}
        self._edges = edges
        self._columns = edge_columns
        self._edge_meta = edge_meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeneratedGraph({self.name!r}, |E|={self.num_edges()})"

    @property
    def edges(self) -> List[Tuple[Hashable, Hashable, Any]]:
        """Edge records as tuples (materialized lazily for columnar graphs).

        Treat the returned list as **read-only**: for columnar graphs it is
        a cached projection of the endpoint arrays, and ``num_edges()`` /
        ``to_distributed()`` read the arrays, not this list — appending to
        it would silently desynchronise the two views.  Build a new
        :class:`GeneratedGraph` to derive a modified graph (see
        ``repro.bench.datasets._simplified_reddit`` for the idiom).
        """
        if self._edges is None:
            us, vs = self._columns
            meta = self._edge_meta
            self._edges = [
                (u, v, meta) for u, v in zip(us.tolist(), vs.tolist())
            ]
        return self._edges

    def edge_columns(self) -> Optional[Tuple[Any, Any]]:
        """The endpoint arrays when this graph is columnar, else None."""
        return self._columns

    def num_edges(self) -> int:
        if self._columns is not None:
            return len(self._columns[0])
        return len(self.edges)

    def num_vertices(self) -> int:
        if self._columns is not None:
            endpoints = np.unique(np.concatenate(self._columns))
            if not self.vertex_meta:
                return endpoints.size
            isolated = set(self.vertex_meta).difference(endpoints.tolist())
            return endpoints.size + len(isolated)
        seen = set(self.vertex_meta)
        for u, v, _ in self.edges:
            seen.add(u)
            seen.add(v)
        return len(seen)

    def to_distributed(
        self,
        world: World,
        partitioner: Optional[Partitioner] = None,
        default_vertex_meta: Any = None,
        name: Optional[str] = None,
    ) -> DistributedGraph:
        """Bulk-load into a distributed graph on ``world``."""
        if self._columns is not None:
            us, vs = self._columns
            return DistributedGraph.from_columns(
                world,
                us,
                vs,
                edge_meta=self._edge_meta,
                vertex_meta=self.vertex_meta,
                partitioner=partitioner,
                default_vertex_meta=default_vertex_meta,
                name=name or self.name,
            )
        return DistributedGraph.from_edges(
            world,
            self.edges,
            vertex_meta=self.vertex_meta,
            partitioner=partitioner,
            default_vertex_meta=default_vertex_meta,
            name=name or self.name,
        )

    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        for u, v, meta in self.edges:
            if u != v:
                g.add_edge(u, v, meta=meta)
        for vertex, meta in self.vertex_meta.items():
            if vertex in g:
                g.nodes[vertex]["meta"] = meta
        return g


# ---------------------------------------------------------------------------
# R-MAT (weak scaling workload)
# ---------------------------------------------------------------------------


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    edge_meta: Any = True,
    name: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> GeneratedGraph:
    """Generate an R-MAT graph with ``2**scale`` vertices.

    Parameters follow the Graph500 convention: ``edge_factor`` undirected
    edges per vertex are sampled (before removing duplicates and self loops),
    with recursive quadrant probabilities (a, b, c, d = 1 - a - b - c).  The
    paper affixes dummy boolean metadata to every edge for the triangle
    counting runs; ``edge_meta`` reproduces that default.  The result is
    columnar: endpoint arrays, no per-edge tuples.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("R-MAT probabilities must sum to <= 1")
    num_vertices = 1 << scale
    num_samples = num_vertices * edge_factor
    rng = generator_rng(seed, rng)

    rows = np.zeros(num_samples, dtype=np.int64)
    cols = np.zeros(num_samples, dtype=np.int64)
    # Probability that a sample falls in the top half (row bit 0) and, given
    # the row half, the probability it falls in the left half (col bit 0).
    p_row_top = a + b
    for bit in range(scale):
        row_top = rng.random(num_samples) < p_row_top
        p_col_left = np.where(row_top, a / (a + b), c / (c + d) if (c + d) > 0 else 0.5)
        col_left = rng.random(num_samples) < p_col_left
        rows |= (~row_top).astype(np.int64) << bit
        cols |= (~col_left).astype(np.int64) << bit

    mask = rows != cols
    rows, cols = rows[mask], cols[mask]
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    first = unique_pair_indices(lo, hi)
    return GeneratedGraph(
        name=name or f"rmat_scale{scale}",
        edge_columns=(lo[first], hi[first]),
        edge_meta=edge_meta,
        params={"scale": scale, "edge_factor": edge_factor, "a": a, "b": b, "c": c, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Uniform random graphs (tests)
# ---------------------------------------------------------------------------


def erdos_renyi(
    num_vertices: int,
    edge_probability: float,
    seed: int = 0,
    edge_meta: Any = True,
    name: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> GeneratedGraph:
    """G(n, p) random graph (vectorised sampling of the upper triangle)."""
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = generator_rng(seed, rng)
    us = np.empty(0, dtype=np.int64)
    vs = np.empty(0, dtype=np.int64)
    if num_vertices >= 2 and edge_probability > 0.0:
        iu, iv = np.triu_indices(num_vertices, k=1)
        mask = rng.random(iu.shape[0]) < edge_probability
        us = iu[mask].astype(np.int64)
        vs = iv[mask].astype(np.int64)
    return GeneratedGraph(
        name=name or f"er_{num_vertices}",
        edge_columns=(us, vs),
        edge_meta=edge_meta,
        params={"n": num_vertices, "p": edge_probability, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Chung-Lu power-law graphs (social-network stand-ins)
# ---------------------------------------------------------------------------


def chung_lu_power_law(
    num_vertices: int,
    average_degree: float = 12.0,
    exponent: float = 2.4,
    max_degree: Optional[int] = None,
    seed: int = 0,
    edge_meta: Any = True,
    name: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> GeneratedGraph:
    """Chung-Lu graph with power-law expected degrees.

    Produces the heavy-tailed degree distributions of large social networks
    (Friendster, Twitter, LiveJournal) with comparatively low clustering —
    the regime where the paper observes Push-Pull gaining little or nothing
    over Push-Only.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be >= 2")
    rng = generator_rng(seed, rng)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    weights *= (average_degree * num_vertices / 2.0) / weights.sum()
    if max_degree is not None:
        weights = np.minimum(weights, max_degree)
    total_weight = weights.sum()

    # Sample edges proportionally to w_u * w_v via two independent
    # weight-proportional endpoint draws (standard fast Chung-Lu sampling).
    num_samples = int(round(total_weight))
    probabilities = weights / total_weight
    us = rng.choice(num_vertices, size=num_samples, p=probabilities)
    vs = rng.choice(num_vertices, size=num_samples, p=probabilities)
    mask = us != vs
    us, vs = us[mask], vs[mask]
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    first = unique_pair_indices(lo, hi)
    # Shuffle vertex labels so ids carry no degree information (the paper's
    # datasets have arbitrary ids); keeps partitioners honest.
    perm = rng.permutation(num_vertices)
    return GeneratedGraph(
        name=name or f"chung_lu_{num_vertices}",
        edge_columns=(
            perm[lo[first]].astype(np.int64),
            perm[hi[first]].astype(np.int64),
        ),
        edge_meta=edge_meta,
        params={
            "n": num_vertices,
            "average_degree": average_degree,
            "exponent": exponent,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Clustered web-like graphs (uk-2007 / hostgraph / WDC stand-ins)
# ---------------------------------------------------------------------------


def clustered_web_graph(
    num_vertices: int,
    attachment_edges: int = 6,
    triad_probability: float = 0.85,
    num_hubs: int = 8,
    hub_fanout: float = 0.05,
    seed: int = 0,
    edge_meta: Any = True,
    name: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> GeneratedGraph:
    """Preferential attachment with triad closure plus planted super-hubs.

    Web/host graphs differ from social graphs in two ways that matter for
    TriPoll: triangle density is far higher (every site's pages interlink)
    and a handful of hosts have extreme degree (d_max in the millions for
    web-cc12).  This generator reproduces both: a Holme-Kim-style process
    gives power-law degrees with high clustering, and ``num_hubs`` designated
    vertices additionally attach to a ``hub_fanout`` fraction of all
    vertices.  The resulting adjacency overlap between neighbours of popular
    targets is what makes pulling adjacency lists so profitable (Table 4's
    web-cc12 rows).
    """
    if num_vertices < attachment_edges + 1:
        raise ValueError("num_vertices must exceed attachment_edges")
    rng = generator_rng(seed, rng)
    edges_set: set = set()
    adjacency: Dict[int, List[int]] = {}
    # Target array for preferential attachment: every endpoint of every edge.
    attachment_targets: List[int] = []

    def add_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in edges_set:
            return False
        edges_set.add(key)
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
        attachment_targets.append(u)
        attachment_targets.append(v)
        return True

    # Seed clique keeps early triangle density high.
    seed_size = attachment_edges + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            add_edge(u, v)

    for new_vertex in range(seed_size, num_vertices):
        first_target = None
        for _ in range(attachment_edges):
            if (
                first_target is not None
                and rng.random() < triad_probability
            ):
                # Triad closure: connect to a random neighbour of the
                # previous target, closing a triangle.
                neighbours = adjacency.get(first_target, ())
                if neighbours:
                    candidate = int(neighbours[int(rng.integers(len(neighbours)))])
                    if add_edge(new_vertex, candidate):
                        continue
            # Preferential attachment step.
            target = int(attachment_targets[int(rng.integers(len(attachment_targets)))])
            if add_edge(new_vertex, target):
                first_target = target

    # Planted super-hubs: old, popular hosts linked from everywhere.
    hub_ids = rng.choice(num_vertices, size=min(num_hubs, num_vertices), replace=False)
    fanout = max(1, int(hub_fanout * num_vertices))
    for hub in hub_ids:
        targets = rng.choice(num_vertices, size=fanout, replace=False)
        for target in targets:
            add_edge(int(hub), int(target))

    edges = [(u, v, edge_meta) for (u, v) in sorted(edges_set)]
    return GeneratedGraph(
        name=name or f"web_{num_vertices}",
        edges=edges,
        params={
            "n": num_vertices,
            "attachment_edges": attachment_edges,
            "triad_probability": triad_probability,
            "num_hubs": num_hubs,
            "hub_fanout": hub_fanout,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Host graphs: dense host-level communities (web-cc12-hostgraph stand-in)
# ---------------------------------------------------------------------------


def community_host_graph(
    num_vertices: int,
    community_size: int = 150,
    intra_probability: float = 0.35,
    cross_links_per_vertex: float = 2.0,
    num_hubs: int = 6,
    hub_fanout: float = 0.08,
    seed: int = 0,
    edge_meta: Any = True,
    name: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> GeneratedGraph:
    """Union of dense host communities plus cross links and super-hubs.

    Host-level web graphs (web-cc12-hostgraph, and the Web Data Commons page
    graph at host granularity) consist of tightly interlinked groups — all
    the hosts of one organisation / country / platform reference each other —
    plus a long tail of cross-community links and a few hosts referenced from
    everywhere.  The dense communities are what give the Push-Pull
    optimisation its order-of-magnitude communication reduction in Table 4:
    many pivots colocated on one rank all target the same popular vertices,
    so pulling one adjacency list replaces thousands of pushed suffixes.

    ``intra_probability`` controls how dense each community is;
    ``community_size`` controls how many vertices share each dense block.
    """
    if num_vertices < community_size:
        raise ValueError("num_vertices must be at least community_size")
    rng = generator_rng(seed, rng)
    edges_set: set = set()

    def add_edge(u: int, v: int) -> None:
        if u != v:
            edges_set.add((u, v) if u < v else (v, u))

    # Dense intra-community blocks (vectorised Bernoulli sampling per block).
    num_communities = (num_vertices + community_size - 1) // community_size
    membership = np.repeat(np.arange(num_communities), community_size)[:num_vertices]
    rng.shuffle(membership)
    for community in range(num_communities):
        members = np.where(membership == community)[0]
        count = len(members)
        if count < 2:
            continue
        iu, iv = np.triu_indices(count, k=1)
        mask = rng.random(iu.shape[0]) < intra_probability
        for a, b in zip(iu[mask], iv[mask]):
            add_edge(int(members[a]), int(members[b]))

    # Cross-community links with a preferential flavour (popular targets).
    num_cross = int(cross_links_per_vertex * num_vertices)
    popularity = rng.zipf(2.0, size=num_cross) % num_vertices
    sources = rng.integers(0, num_vertices, size=num_cross)
    for u, v in zip(sources, popularity):
        add_edge(int(u), int(v))

    # Super-hubs referenced from a large fraction of all vertices.
    hub_ids = rng.choice(num_vertices, size=min(num_hubs, num_vertices), replace=False)
    fanout = max(1, int(hub_fanout * num_vertices))
    for hub in hub_ids:
        targets = rng.choice(num_vertices, size=fanout, replace=False)
        for target in targets:
            add_edge(int(hub), int(target))

    edges = [(u, v, edge_meta) for (u, v) in sorted(edges_set)]
    return GeneratedGraph(
        name=name or f"hostgraph_{num_vertices}",
        edges=edges,
        params={
            "n": num_vertices,
            "community_size": community_size,
            "intra_probability": intra_probability,
            "cross_links_per_vertex": cross_links_per_vertex,
            "num_hubs": num_hubs,
            "hub_fanout": hub_fanout,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Reddit-like temporal comment graph
# ---------------------------------------------------------------------------


def reddit_like_temporal_graph(
    num_authors: int,
    num_comments: int,
    start_time: float = 0.0,
    horizon_seconds: float = 3.0 * 365 * 24 * 3600,
    reply_halflife_seconds: float = 6 * 3600,
    community_count: int = 24,
    seed: int = 0,
    name: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> GeneratedGraph:
    """A temporal multigraph of comments between authors.

    Mirrors the construction of Section 5.2/5.7: authors are vertices;
    each comment between two authors is an undirected edge carrying a
    timestamp.  Authors belong to interest communities (subreddits); reply
    probability is heavily biased inside a community and towards active
    authors, and reply delays follow a heavy-tailed (log-normal-like)
    distribution on human time scales — seconds for bots, hours-to-days for
    people — so triangle closure-time distributions show the paper's shape
    (wedges close quickly, triangles take much longer on average).

    The returned multigraph generally contains parallel edges; the caller is
    expected to simplify it keeping the chronologically-first edge, exactly
    as the paper does (use ``DistributedEdgeList.simplify("earliest")`` or
    :meth:`repro.bench.datasets` helpers).
    """
    if num_authors < 3:
        raise ValueError("need at least 3 authors")
    rng = generator_rng(seed, rng)
    communities = rng.integers(0, community_count, size=num_authors)
    # Author activity follows a power law: a few prolific posters.
    activity = (np.arange(1, num_authors + 1, dtype=np.float64)) ** -0.8
    rng.shuffle(activity)
    activity /= activity.sum()

    # Comment times arrive over the horizon with mild growth over time.
    base_times = np.sort(rng.random(num_comments) ** 0.7) * horizon_seconds + start_time

    authors = rng.choice(num_authors, size=num_comments, p=activity)
    # Choose reply targets: mostly same community, weighted by activity.
    partners = np.empty(num_comments, dtype=np.int64)
    community_members: Dict[int, np.ndarray] = {
        c: np.where(communities == c)[0] for c in range(community_count)
    }
    community_weights: Dict[int, np.ndarray] = {}
    for c, members in community_members.items():
        if len(members) == 0:
            continue
        w = activity[members]
        community_weights[c] = w / w.sum()
    for i in range(num_comments):
        author = authors[i]
        if rng.random() < 0.8:
            members = community_members[int(communities[author])]
            if len(members) > 1:
                partners[i] = int(rng.choice(members, p=community_weights[int(communities[author])]))
            else:
                partners[i] = int(rng.choice(num_authors, p=activity))
        else:
            partners[i] = int(rng.choice(num_authors, p=activity))

    # Reply delay: mixture of fast (bot-like) and human-timescale delays.
    is_fast = rng.random(num_comments) < 0.05
    human_delay = rng.lognormal(mean=math.log(reply_halflife_seconds), sigma=1.6, size=num_comments)
    bot_delay = rng.lognormal(mean=math.log(30.0), sigma=1.0, size=num_comments)
    delays = np.where(is_fast, bot_delay, human_delay)
    timestamps = base_times + delays

    edges: List[Tuple[Hashable, Hashable, Any]] = []
    for i in range(num_comments):
        u = int(authors[i])
        v = int(partners[i])
        if u == v:
            continue
        edges.append((u, v, temporal_edge_meta(float(timestamps[i]))))

    vertex_meta = {author: int(communities[author]) for author in range(num_authors)}
    return GeneratedGraph(
        name=name or f"reddit_like_{num_authors}",
        edges=edges,
        vertex_meta=vertex_meta,
        params={
            "num_authors": num_authors,
            "num_comments": num_comments,
            "horizon_seconds": horizon_seconds,
            "reply_halflife_seconds": reply_halflife_seconds,
            "community_count": community_count,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# FQDN-decorated web graph (Section 5.8 stand-in)
# ---------------------------------------------------------------------------

#: Domain families planted in the FQDN generator.  The anchor brand and its
#: sister domains reproduce the "amazon.com / amazon.co.uk / audible.com"
#: rows of Fig. 8; the competitor reproduces "abebooks.com"; the education
#: community reproduces the universities-and-libraries cluster.
_ANCHOR_BRAND = "anchor-shop.com"
_BRAND_SISTERS = [
    "anchor-shop.co.uk",
    "anchor-shop.ca",
    "anchor-audio.com",
    "anchor-cloud.com",
]
_COMPETITOR = "rival-books.com"
_EDU_TEMPLATE = "university-{:02d}.edu"
_LIB_TEMPLATE = "library-{:02d}.org"
_GENERIC_TEMPLATE = "site-{:04d}.net"


def fqdn_web_graph(
    num_pages: int = 4000,
    num_generic_domains: int = 120,
    num_edu_domains: int = 20,
    pages_per_brand: int = 60,
    seed: int = 0,
    name: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> GeneratedGraph:
    """A page-level web graph whose vertex metadata is the page's FQDN string.

    Structure planted to reproduce the qualitative findings of Section 5.8:

    * the anchor brand's pages are linked from everywhere (dense rows for the
      sister brand domains in the anchor-domain triangle slice),
    * generic commerce sites that link to an anchor product page usually also
      link to the competitor's equivalent page,
    * an education/library community exists whose members interlink heavily
      and include the competitor (booksellers inside the community).
    """
    rng = generator_rng(seed, rng)

    domains: List[str] = [_ANCHOR_BRAND] + _BRAND_SISTERS + [_COMPETITOR]
    edu_domains = [_EDU_TEMPLATE.format(i) for i in range(num_edu_domains // 2)] + [
        _LIB_TEMPLATE.format(i) for i in range(num_edu_domains - num_edu_domains // 2)
    ]
    generic_domains = [_GENERIC_TEMPLATE.format(i) for i in range(num_generic_domains)]
    domains += edu_domains + generic_domains

    # Assign pages to domains: brand domains get a fixed page budget, the
    # rest of the pages are spread over edu + generic domains with a skew.
    vertex_meta: Dict[int, str] = {}
    pages_by_domain: Dict[str, List[int]] = {domain: [] for domain in domains}
    next_page = 0
    brand_domains = [_ANCHOR_BRAND] + _BRAND_SISTERS + [_COMPETITOR]
    for domain in brand_domains:
        for _ in range(pages_per_brand):
            vertex_meta[next_page] = domain
            pages_by_domain[domain].append(next_page)
            next_page += 1
    other_domains = edu_domains + generic_domains
    weights = np.array([1.0 / (i + 1) ** 0.5 for i in range(len(other_domains))])
    weights /= weights.sum()
    while next_page < num_pages:
        domain = other_domains[int(rng.choice(len(other_domains), p=weights))]
        vertex_meta[next_page] = domain
        pages_by_domain[domain].append(next_page)
        next_page += 1

    edges_set: set = set()

    def add_edge(u: int, v: int) -> None:
        if u != v:
            edges_set.add((u, v) if u < v else (v, u))

    # 1. Intra-domain link structure (site navigation): each domain's pages
    #    form a dense-ish ring + random chords.
    for domain, pages in pages_by_domain.items():
        pages_arr = pages
        count = len(pages_arr)
        if count < 2:
            continue
        for i in range(count):
            add_edge(pages_arr[i], pages_arr[(i + 1) % count])
            add_edge(pages_arr[i], pages_arr[(i + 2) % count])
        extra = count
        for _ in range(extra):
            u, v = rng.integers(0, count, size=2)
            add_edge(pages_arr[int(u)], pages_arr[int(v)])

    all_pages = np.arange(num_pages)
    anchor_pages = pages_by_domain[_ANCHOR_BRAND]
    competitor_pages = pages_by_domain[_COMPETITOR]

    # 2. Everyone links to the anchor brand; sister brands co-link with it.
    for page in range(num_pages):
        if vertex_meta[page] in brand_domains:
            continue
        if rng.random() < 0.35:
            add_edge(page, int(rng.choice(anchor_pages)))
            # Pages linking to the anchor often also link to the competitor
            # (same product at the rival retailer) and to a sister brand.
            if rng.random() < 0.5:
                add_edge(page, int(rng.choice(competitor_pages)))
            if rng.random() < 0.4:
                sister = _BRAND_SISTERS[int(rng.integers(len(_BRAND_SISTERS)))]
                add_edge(page, int(rng.choice(pages_by_domain[sister])))
    for sister in _BRAND_SISTERS:
        for page in pages_by_domain[sister]:
            for _ in range(2):
                add_edge(page, int(rng.choice(anchor_pages)))
    # The competitor's product pages cross-reference the anchor's equivalent
    # pages (price comparison / same-product listings), which is what turns
    # "page links to both retailers" wedges into triangles.
    for page in competitor_pages:
        for _ in range(2):
            add_edge(page, int(rng.choice(anchor_pages)))

    # 3. Education/library community: members interlink heavily and cite the
    #    competitor bookseller frequently, the anchor occasionally.
    edu_pages = [p for d in edu_domains for p in pages_by_domain[d]]
    if edu_pages:
        edu_arr = np.array(edu_pages)
        for page in edu_pages:
            for _ in range(3):
                add_edge(page, int(rng.choice(edu_arr)))
            if rng.random() < 0.45:
                add_edge(page, int(rng.choice(competitor_pages)))
            if rng.random() < 0.15:
                add_edge(page, int(rng.choice(anchor_pages)))

    # 4. Background cross-links between random pages.
    background = num_pages * 2
    for _ in range(background):
        u, v = rng.choice(all_pages, size=2, replace=False)
        add_edge(int(u), int(v))

    edges = [(u, v, True) for (u, v) in sorted(edges_set)]
    return GeneratedGraph(
        name=name or f"fqdn_web_{num_pages}",
        edges=edges,
        vertex_meta={page: domain for page, domain in vertex_meta.items()},
        params={
            "num_pages": num_pages,
            "num_generic_domains": num_generic_domains,
            "num_edu_domains": num_edu_domains,
            "pages_per_brand": pages_per_brand,
            "seed": seed,
            "anchor_domain": _ANCHOR_BRAND,
            "competitor_domain": _COMPETITOR,
            "sister_domains": list(_BRAND_SISTERS),
        },
    )
