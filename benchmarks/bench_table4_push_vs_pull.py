"""Table 4 — Push-Only vs Push-Pull: communication volume and runtime.

The paper's Table 4 reports, for Friendster, Twitter, uk-2007-05 and
web-cc12-hostgraph at 8-256 nodes, the total communication volume and the
runtime of both algorithm variants.

Expected shape (paper):

* Push-Only communication volume is essentially flat in the node count;
* Push-Pull volume *grows* with the node count (fewer aggregation
  opportunities per rank) but stays below Push-Only wherever the graph has
  exploitable structure;
* the reduction is dramatic on the host-graph-like datasets (>10x at small
  node counts in the paper) and negligible-to-negative on Friendster-like
  social graphs, where the dry-run overhead can make Push-Pull slower.

Run with ``--engine <name>`` — any engine registered in
:mod:`repro.core.engine` (``legacy``, ``columnar``, ...) — to
regenerate the table on that survey engine; the communicated-bytes columns
(and every other result column) are identical across engines by the
equivalence contract, so the engine choice only changes how long the
regeneration takes.
"""

from __future__ import annotations

import pytest

from _artifacts import emit
from repro.bench import format_table, human_bytes, load_dataset, strong_scaling

DATASET_NAMES = ["friendster-like", "twitter-like", "uk2007-like", "hostgraph-like"]
NODE_COUNTS = [8, 32]


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_table4_push_vs_push_pull(benchmark, name, survey_engine):
    dataset = load_dataset(name)

    def run_both():
        return {
            "push": strong_scaling(
                dataset, NODE_COUNTS, algorithm="push", engine=survey_engine
            ),
            "push_pull": strong_scaling(
                dataset, NODE_COUNTS, algorithm="push_pull", engine=survey_engine
            ),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = []
    for algorithm, result in results.items():
        for point in result.points:
            rows.append(
                {
                    "algorithm": algorithm,
                    "nodes": point.nodes,
                    "comm volume": human_bytes(point.report.communication_bytes),
                    "comm bytes": point.report.communication_bytes,
                    "sim seconds": point.simulated_seconds,
                    "pulled": point.report.vertices_pulled,
                    "triangles": point.report.triangles,
                }
            )
    emit(
        format_table(
            rows,
            title=f"Table 4 — Push-Only vs Push-Pull on {name} ({survey_engine} engine)",
        )
    )

    push = results["push"]
    push_pull = results["push_pull"]
    benchmark.extra_info.update(
        {
            "dataset": name,
            "engine": survey_engine,
            "nodes": NODE_COUNTS,
            "push_comm_bytes": push.communication_bytes(),
            "push_pull_comm_bytes": push_pull.communication_bytes(),
            "push_sim_seconds": [p.simulated_seconds for p in push.points],
            "push_pull_sim_seconds": [p.simulated_seconds for p in push_pull.points],
        }
    )

    # Correctness: identical triangle counts everywhere.
    counts = {p.report.triangles for p in push.points + push_pull.points}
    assert len(counts) == 1

    # Shape: Push-Only volume is essentially flat in the node count.  (The
    # paper sees <1% growth; at laptop-scale rank counts the shrinking
    # fraction of rank-local traffic and the per-message envelope add a bit
    # more, so allow ~35%.)
    push_bytes = push.communication_bytes()
    assert max(push_bytes) < 1.35 * min(push_bytes)

    # Shape: Push-Pull volume grows with the node count on every dataset.
    pp_bytes = push_pull.communication_bytes()
    assert pp_bytes[-1] >= pp_bytes[0]

    # Shape: on the community-heavy host graph the reduction is substantial at
    # the smallest node count; on the Friendster-like graph it is small or
    # absent (the paper's extremes — 42x on web-cc12, <1x on Friendster — need
    # billions of edges and thousands of pivots per rank per target; at
    # laptop scale the contrast survives but is compressed).
    ratio_smallest = push_bytes[0] / pp_bytes[0]
    if name == "hostgraph-like":
        assert ratio_smallest > 1.5
    if name == "friendster-like":
        assert ratio_smallest < 1.3
