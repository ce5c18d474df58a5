"""Seeded input decoration shared by the metadata workloads."""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.graph.metadata import temporal_edge_meta

__all__ = ["NUM_LABELS", "temporal_metas"]

NUM_LABELS = 5


def temporal_metas(seed: int, count: int) -> List[Any]:
    """One ``temporal_edge_meta(timestamp, label)`` per edge.

    Timestamps are the running sum of log-normal gaps (bursty, like comment
    streams: most gaps are seconds, a few are days), so closure-time
    buckets spread over the whole ``log2`` range; labels are uniform over
    :data:`NUM_LABELS`.  Drawn from a stream of their own so that the graph
    for a seed does not depend on whether it is decorated.
    """
    rng = np.random.default_rng([seed, 0x7E3A])
    stamps = np.cumsum(rng.lognormal(mean=3.0, sigma=2.0, size=count))
    labels = rng.integers(0, NUM_LABELS, size=count)
    return [
        temporal_edge_meta(stamp, label)
        for stamp, label in zip(stamps.tolist(), labels.tolist())
    ]
