"""FQDN triangle survey (Section 5.8, Fig. 8 of the paper).

The Web Data Commons experiment attaches each page's fully-qualified domain
name as vertex metadata (variable-length strings — the workload that
motivates YGM's serialization layer), surveys 3-tuples of FQDNs over all
triangles with three distinct FQDNs, then post-processes on one machine:
pick an anchor domain ("amazon.com" in the paper), build the 2D distribution
of the other two domains over all triangles containing the anchor, and order
the axes by the communities of the domain co-occurrence graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.callbacks import FqdnTripleSurvey
from ..core.engine import EngineSelector
from ..core.incremental import StreamingSurvey
from ..core.push_pull import triangle_survey
from ..core.results import SurveyReport
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph
from ..runtime.world import World
from .communities import community_ordering, domain_cooccurrence_graph

__all__ = [
    "run_fqdn_survey",
    "run_streaming_fqdn_survey",
    "anchor_domain_slice",
]


@dataclass
class FqdnSurveyResult:
    """Output of the distributed part of the FQDN experiment."""

    report: SurveyReport
    #: counts of sorted FQDN 3-tuples (only triangles with 3 distinct FQDNs)
    triple_counts: Dict[Tuple[str, str, str], int]

    def distinct_triples(self) -> int:
        return len(self.triple_counts)

    def triangles_with_distinct_fqdns(self) -> int:
        return sum(self.triple_counts.values())

    def domains(self) -> List[str]:
        seen = set()
        for triple in self.triple_counts:
            seen.update(triple)
        return sorted(seen)


@dataclass
class AnchorSlice:
    """The Fig. 8 artifact: the 2D distribution around one anchor domain."""

    anchor: str
    #: (domain a, domain b) -> triangle count, a/b sorted
    pair_counts: Dict[Tuple[str, str], int]
    #: domains ordered by community (axis order of the heat map)
    ordered_domains: List[str]
    #: community id per domain
    communities: Dict[str, int] = field(default_factory=dict)

    def top_partners(self, k: int = 10) -> List[Tuple[str, int]]:
        """Domains most frequently seen in triangles with the anchor."""
        totals: Dict[str, int] = {}
        for (a, b), count in self.pair_counts.items():
            totals[a] = totals.get(a, 0) + count
            totals[b] = totals.get(b, 0) + count
        return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def community_of(self, domain: str) -> Optional[int]:
        return self.communities.get(domain)

    def matrix(self) -> Tuple[List[str], List[List[int]]]:
        """Dense matrix form of the 2D distribution in community order."""
        index = {domain: i for i, domain in enumerate(self.ordered_domains)}
        size = len(self.ordered_domains)
        grid = [[0] * size for _ in range(size)]
        for (a, b), count in self.pair_counts.items():
            if a in index and b in index:
                grid[index[a]][index[b]] += count
                grid[index[b]][index[a]] += count
        return self.ordered_domains, grid


def run_fqdn_survey(
    graph: DistributedGraph,
    dodgr: Optional[DODGraph] = None,
    algorithm: str = "push_pull",
    graph_name: Optional[str] = None,
    engine: EngineSelector = None,
) -> FqdnSurveyResult:
    """Run the distributed FQDN 3-tuple survey.

    Vertex metadata of ``graph`` must be the FQDN string of each page.
    ``engine`` accepts any registered engine name or an
    :class:`~repro.core.engine.EngineConfig`.
    """
    world = graph.world
    if dodgr is None:
        dodgr = DODGraph.build(graph, mode="bulk")
    survey = FqdnTripleSurvey(world)
    report = triangle_survey(
        dodgr, survey.callback, algorithm, graph_name=graph_name, engine=engine
    )
    survey.finalize()
    return FqdnSurveyResult(report=report, triple_counts=survey.result())


@dataclass
class StreamingFqdnStep:
    """One crawl batch's view of a sliding-window FQDN survey.

    ``window`` holds the 3-tuple counts over the triangles discovered by the
    batches currently inside the window; ``cumulative`` accumulates every
    batch and equals a full recompute's :meth:`FqdnTripleSurvey.result` at
    this step (FQDN keys are sorted, hence role-order invariant).  The
    windowed result is a full :class:`FqdnSurveyResult`, so the Fig. 8
    post-processing (:func:`anchor_domain_slice`) applies to any window.
    """

    batch_index: int
    new_edges: int
    report: SurveyReport
    window: FqdnSurveyResult
    cumulative: Dict[Tuple[str, str, str], int]


def run_streaming_fqdn_survey(
    world: World,
    batches: Iterable[Iterable[tuple]],
    vertex_meta: Optional[Dict[Any, str]] = None,
    window_batches: Optional[int] = None,
    engine: Optional[EngineSelector] = None,
    graph_name: Optional[str] = None,
) -> List[StreamingFqdnStep]:
    """Sliding-window variant of :func:`run_fqdn_survey` for crawl streams.

    ``batches`` are iterables of ``(u, v, edge_meta)`` link records as a
    crawler discovers them; ``vertex_meta`` maps page ids to FQDN strings
    and is staged with every batch but applied first-write-wins, so a page's
    domain is pinned by the batch that first mentions it.
    """
    survey = StreamingSurvey(
        world,
        lambda w: FqdnTripleSurvey(w),
        window_batches=window_batches,
        engine=engine,
        graph_name=graph_name or "streaming_fqdn",
    )
    steps: List[StreamingFqdnStep] = []
    try:
        for batch in batches:
            step = survey.ingest(batch, vertex_meta=vertex_meta)
            steps.append(
                StreamingFqdnStep(
                    batch_index=step.batch_index,
                    new_edges=step.new_edges,
                    report=step.report,
                    window=FqdnSurveyResult(report=step.report, triple_counts=step.window),
                    cumulative=step.cumulative,
                )
            )
    finally:
        # Free the stream's live DODGr in the caller's world.
        survey.close()
    return steps


def anchor_domain_slice(
    result: FqdnSurveyResult, anchor: str, seed: int = 0
) -> AnchorSlice:
    """Post-process the survey into the anchor-domain 2D distribution (Fig. 8).

    This is the single-machine post-processing step of Section 5.8: filter
    the 3-tuples to those containing ``anchor``, accumulate counts of the
    remaining domain pairs, and order the domains by the communities of the
    full co-occurrence graph.
    """
    pair_counts: Dict[Tuple[str, str], int] = {}
    for triple, count in result.triple_counts.items():
        if anchor not in triple:
            continue
        others = tuple(sorted(d for d in triple if d != anchor))
        if len(others) != 2:
            continue
        pair_counts[others] = pair_counts.get(others, 0) + count

    cooccurrence = domain_cooccurrence_graph(
        {t: c for t, c in result.triple_counts.items() if anchor in t}
    )
    cooccurrence.remove_nodes_from([anchor] if cooccurrence.has_node(anchor) else [])
    ordered, membership = community_ordering(cooccurrence, seed=seed)
    # Domains that appear in pairs but were filtered out of the graph go last.
    present = set(ordered)
    extras = sorted(
        {d for pair in pair_counts for d in pair if d not in present}
    )
    ordered.extend(extras)
    return AnchorSlice(
        anchor=anchor,
        pair_counts=pair_counts,
        ordered_domains=ordered,
        communities=membership,
    )
