"""Stand-in dataset registry for the paper's evaluation graphs (Table 1).

The paper's datasets range from 69 million to 224 billion edges and cannot be
downloaded (or held in memory) here, so each one is represented by a
scaled-down synthetic stand-in whose *topological character* — degree skew,
clustering, community structure, temporal behaviour — matches what the
corresponding experiment depends on.  DESIGN.md records the mapping; the
``paper_row`` field of each entry carries the published Table 1 numbers so
the Table 1 benchmark can print paper-vs-measured side by side.

Sizes are chosen so that a single triangle survey over any stand-in finishes
in a couple of seconds on a laptop while still generating enough wedges
(tens to hundreds of thousands) for the communication effects the paper
studies to be visible.  Set the environment variable ``REPRO_BENCH_SCALE``
to a float to grow or shrink every stand-in together.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Optional

from ..graph.edge_list import canonical_pair
from ..graph.generators import (
    GeneratedGraph,
    chung_lu_power_law,
    clustered_web_graph,
    community_host_graph,
    fqdn_web_graph,
    reddit_like_temporal_graph,
    rmat,
)
from ..graph.metadata import edge_timestamp

__all__ = ["DATASETS", "load_dataset", "bench_scale"]


def bench_scale() -> float:
    """Global size multiplier taken from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    try:
        value = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0
    return max(0.1, value)


@dataclass(frozen=True)
class StandInDataset:
    """One stand-in dataset and its provenance."""

    #: registry key
    name: str
    #: dataset in the paper this stands in for
    paper_name: str
    #: Table 1 row from the paper (|V|, |E|, |T|, d_max, d+_max), as published
    paper_row: Dict[str, Any]
    #: one-line description of why this generator matches the original
    character: str
    #: generator taking the global scale factor and returning the graph
    build: Callable[[float], GeneratedGraph] = field(repr=False)


def _simplified_reddit(scale: float) -> GeneratedGraph:
    """Reddit-like multigraph reduced to the chronologically-first edge per pair."""
    raw = reddit_like_temporal_graph(
        num_authors=int(3500 * scale),
        num_comments=int(52000 * scale),
        seed=2005,
        name="reddit-like",
    )
    first: Dict[Any, Any] = {}
    for u, v, meta in raw.edges:
        key = canonical_pair(u, v)
        if key not in first or edge_timestamp(meta) < edge_timestamp(first[key]):
            first[key] = meta
    edges = [(u, v, meta) for (u, v), meta in first.items()]
    return GeneratedGraph(
        name="reddit-like",
        edges=edges,
        vertex_meta=raw.vertex_meta,
        params=dict(raw.params, simplified="earliest"),
    )


DATASETS: Dict[str, StandInDataset] = {
    "livejournal-like": StandInDataset(
        name="livejournal-like",
        paper_name="LiveJournal",
        paper_row={"|V|": 4.85e6, "|E|": 69.0e6, "|T|": 286e6, "d_max": 20333, "d+_max": 686},
        character="medium social network: power-law degrees, moderate clustering",
        build=lambda scale: chung_lu_power_law(
            int(6000 * scale), average_degree=8, exponent=2.4, seed=11, name="livejournal-like"
        ),
    ),
    "friendster-like": StandInDataset(
        name="friendster-like",
        paper_name="Friendster",
        paper_row={"|V|": 66e6, "|E|": 3.6e9, "|T|": 4.2e9, "d_max": 5214, "d+_max": 868},
        character="huge social network with comparatively low triangle density; "
        "the dataset where Push-Pull gains nothing",
        build=lambda scale: chung_lu_power_law(
            int(12000 * scale), average_degree=6, exponent=2.7, seed=12, name="friendster-like"
        ),
    ),
    "twitter-like": StandInDataset(
        name="twitter-like",
        paper_name="Twitter",
        paper_row={"|V|": 42e6, "|E|": 2.4e9, "|T|": 34.8e9, "d_max": 3.0e6, "d+_max": 4102},
        character="follower graph: extreme degree skew, celebrity hubs",
        build=lambda scale: chung_lu_power_law(
            int(8000 * scale), average_degree=7, exponent=2.1, seed=13, name="twitter-like"
        ),
    ),
    "uk2007-like": StandInDataset(
        name="uk2007-like",
        paper_name="uk-2007-05",
        paper_row={"|V|": 106e6, "|E|": 6.6e9, "|T|": 286.7e9, "d_max": 975e3, "d+_max": 5704},
        character="page-level web crawl: high clustering from site-internal links",
        build=lambda scale: clustered_web_graph(
            int(5000 * scale), attachment_edges=5, triad_probability=0.8, seed=14,
            name="uk2007-like",
        ),
    ),
    "hostgraph-like": StandInDataset(
        name="hostgraph-like",
        paper_name="web-cc12-hostgraph",
        paper_row={"|V|": 101e6, "|E|": 3.8e9, "|T|": 415e9, "d_max": 3.0e6, "d+_max": 10654},
        character="host-level web graph: dense organisational communities; the "
        "dataset where Push-Pull cuts communication by an order of magnitude",
        build=lambda scale: community_host_graph(
            int(2500 * scale), community_size=220, intra_probability=0.13,
            cross_links_per_vertex=1.0, seed=15, name="hostgraph-like",
        ),
    ),
    "wdc2012-like": StandInDataset(
        name="wdc2012-like",
        paper_name="Web Data Commons 2012",
        paper_row={"|V|": 3.56e9, "|E|": 224.5e9, "|T|": 9.65e12, "d_max": 95e6, "d+_max": 10683},
        character="largest web crawl in the paper (224B edges): extreme hubs plus "
        "dense communities",
        build=lambda scale: community_host_graph(
            int(4000 * scale), community_size=150, intra_probability=0.12,
            cross_links_per_vertex=1.5, num_hubs=10, hub_fanout=0.1, seed=16,
            name="wdc2012-like",
        ),
    ),
    "reddit-like": StandInDataset(
        name="reddit-like",
        paper_name="Reddit",
        paper_row={"|V|": 835e6, "|E|": 9.4e9, "|T|": 88.1e9, "d_max": 1.70e6, "d+_max": 3301},
        character="temporal comment graph between authors; edges carry timestamps, "
        "multigraph simplified to the chronologically-first comment per pair",
        build=_simplified_reddit,
    ),
    "fqdn-web": StandInDataset(
        name="fqdn-web",
        paper_name="Web Data Commons 2012 (FQDN-decorated)",
        paper_row={"|V|": 3.56e9, "|E|": 224.5e9, "|T|": 9.65e12, "d_max": 95e6, "d+_max": 10683},
        character="page graph whose vertices carry FQDN strings; planted brand / "
        "competitor / education communities for the Fig. 8 survey",
        build=lambda scale: fqdn_web_graph(int(3000 * scale), seed=18, name="fqdn-web"),
    ),
    "rmat-weak": StandInDataset(
        name="rmat-weak",
        paper_name="R-MAT (weak scaling)",
        paper_row={"|V|": 2 ** 24, "|E|": 2 ** 28, "|T|": None, "d_max": None, "d+_max": None},
        character="Graph500-style R-MAT used for the weak-scaling studies",
        build=lambda scale: rmat(12, edge_factor=8, seed=19, name="rmat-weak"),
    ),
}


@lru_cache(maxsize=None)
def _cached_build(name: str, scale: float) -> GeneratedGraph:
    return DATASETS[name].build(scale)


def load_dataset(name: str, scale: Optional[float] = None) -> GeneratedGraph:
    """Generate (and cache) the stand-in dataset ``name``."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    return _cached_build(name, scale if scale is not None else bench_scale())
