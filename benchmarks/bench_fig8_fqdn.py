"""Fig. 8 — FQDN survey on the web graph and the anchor-domain distribution.

The paper attaches each page's FQDN as string metadata, surveys FQDN
3-tuples over all triangles with three distinct domains (1694.6 s vs 456.7 s
for plain counting on the real system), then post-processes the 39.2 billion
tuples to plot the 2D distribution of domains appearing in triangles with
"amazon.com", ordered by Louvain communities.

Expected shape: sister brand domains form dense rows, the competing
bookseller is prominent, and an education/library community is visible.
Including string metadata makes the survey measurably more expensive than
plain counting on the same graph (the paper sees ~3.7x).
"""

from __future__ import annotations

from _artifacts import emit
from repro.analysis import anchor_domain_slice, run_fqdn_survey
from repro.bench import format_kv, format_table, human_bytes, load_dataset
from repro.core import triangle_survey_push_pull
from repro.graph import DistributedGraph, DODGraph
from repro.runtime import World

NODES = 16


def test_fig8_fqdn_survey_and_anchor_slice(benchmark):
    dataset = load_dataset("fqdn-web")
    anchor = dataset.params["anchor_domain"]
    competitor = dataset.params["competitor_domain"]
    sisters = dataset.params["sister_domains"]

    world = World(NODES)
    graph = dataset.to_distributed(world)

    result = benchmark.pedantic(
        lambda: run_fqdn_survey(graph, algorithm="push_pull"),
        rounds=1,
        iterations=1,
    )

    # Plain counting on the same graph, for the metadata-overhead comparison.
    world_plain = World(NODES)
    plain_graph = DistributedGraph.from_edges(
        world_plain,
        dataset.edges,
        vertex_meta=dict.fromkeys(dataset.vertex_meta, True),
        default_vertex_meta=True,
        name=dataset.name,
    )
    plain = triangle_survey_push_pull(DODGraph.build(plain_graph))

    slice_ = anchor_domain_slice(result, anchor)

    emit(format_kv(
        {
            "triangles identified": result.report.triangles,
            "triangles with 3 distinct FQDNs": result.triangles_with_distinct_fqdns(),
            "unique FQDN 3-tuples": result.distinct_triples(),
            "FQDN survey sim runtime": f"{result.report.simulated_seconds * 1e3:.2f} ms",
            "plain counting sim runtime": f"{plain.simulated_seconds * 1e3:.2f} ms",
            "FQDN survey comm": human_bytes(result.report.communication_bytes),
            "plain counting comm": human_bytes(plain.communication_bytes),
        },
        title="Fig. 8 / Sec. 5.8 — FQDN survey vs plain counting",
    ))

    rows = [
        {"domain": domain, "triangles with anchor": count, "community": slice_.community_of(domain)}
        for domain, count in slice_.top_partners(15)
    ]
    emit(format_table(rows, title=f"Fig. 8 — domains in triangles with {anchor!r} (community-ordered)"))

    benchmark.extra_info.update(
        {
            "triangles": result.report.triangles,
            "distinct_triples": result.distinct_triples(),
            "fqdn_sim_seconds": result.report.simulated_seconds,
            "plain_sim_seconds": plain.simulated_seconds,
        }
    )

    # Shape assertions mirroring the paper's observations.
    partners = dict(slice_.top_partners(20))
    assert sum(1 for s in sisters if s in partners) >= 2, "sister brands should be prominent"
    assert competitor in partners, "the competing retailer should co-occur with the anchor"
    # String metadata costs real time/traffic compared with plain counting.
    assert result.report.simulated_seconds > plain.simulated_seconds
    assert result.report.communication_bytes > plain.communication_bytes
