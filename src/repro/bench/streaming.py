"""Streaming workload helpers: batch schedules and the recompute baseline.

The streaming benchmark (``benchmarks/bench_streaming_survey.py``) replays an
edge stream two ways — through the incremental subsystem
(:class:`~repro.core.incremental.StreamingSurvey`) and as a from-scratch
recompute at every step — and compares results (bit-identical) and host time
(the speedup gate).  This module holds the pieces both the benchmark and the
examples share: deterministic schedule construction and the timed
full-recompute baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import EngineSelector
from ..core.survey import triangle_survey_push
from ..graph.distributed_graph import DistributedGraph
from ..graph.dodgr import DODGraph

__all__ = ["make_streaming_schedule", "full_recompute_survey"]


@dataclass
class StreamingSchedule:
    """A deterministic split of an edge list into a base load plus deltas."""

    #: edges ingested as the first (bulk) batch
    base: List[Tuple[Any, Any, Any]]
    #: subsequent delta batches, in arrival order
    batches: List[List[Tuple[Any, Any, Any]]]

    def num_edges(self) -> int:
        return len(self.base) + sum(len(batch) for batch in self.batches)

    def delta_fraction(self) -> float:
        """Largest delta batch as a fraction of the total edge count."""
        total = self.num_edges()
        if not self.batches or total == 0:
            return 0.0
        return max(len(batch) for batch in self.batches) / total


def make_streaming_schedule(
    edges: Sequence[Tuple[Any, Any, Any]],
    num_batches: int = 3,
    delta_fraction: float = 0.01,
    seed: int = 0,
    sort_key: Optional[Callable[[Tuple[Any, Any, Any]], Any]] = None,
) -> StreamingSchedule:
    """Split ``edges`` into a base load plus ``num_batches`` delta batches.

    By default the edges are shuffled with a seeded NumPy generator (a
    uniform random arrival model); pass ``sort_key`` (e.g. the edge
    timestamp) to replay in data order instead.  Each delta batch holds
    ``delta_fraction`` of the total edge count (the last batch takes any
    rounding remainder), the base batch the rest.
    """
    if not 0.0 < delta_fraction * num_batches < 1.0:
        raise ValueError("delta batches must leave room for a non-empty base")
    records = list(edges)
    if sort_key is not None:
        records.sort(key=sort_key)
    else:
        rng = np.random.default_rng(seed)
        records = [records[i] for i in rng.permutation(len(records))]
    total = len(records)
    per_batch = max(1, int(total * delta_fraction))
    base_end = total - per_batch * num_batches
    if base_end <= 0:
        # The 1-record floor kicked in on a tiny edge list: honouring
        # delta_fraction is impossible without an empty base.
        raise ValueError(
            f"{total} edges cannot fill {num_batches} delta batches of "
            f"{per_batch} records plus a non-empty base"
        )
    batches = [
        records[base_end + k * per_batch : base_end + (k + 1) * per_batch]
        for k in range(num_batches - 1)
    ]
    batches.append(records[base_end + (num_batches - 1) * per_batch :])
    return StreamingSchedule(base=records[:base_end], batches=batches)


@dataclass
class FullRecompute:
    """Result and timing of one from-scratch survey over the live graph."""

    #: full-survey telemetry (all triangles of the current graph)
    report: Any
    #: the reducer's :meth:`result` over the whole graph
    result: Any
    #: wall-clock seconds of rebuild + survey + reducer finalize
    host_seconds: float


def full_recompute_survey(
    graph: DistributedGraph,
    reducer_factory: Callable[[Any], Any],
    engine: EngineSelector = None,
) -> FullRecompute:
    """The non-streaming baseline: rebuild the DODGr and survey everything.

    This is what a deployment without the incremental subsystem does after
    every batch: one ``DODGraph.build(mode="bulk")`` over the accumulated
    graph, a full push survey with a fresh reducer, and the reducer's cache
    flush.  Wall-clock covers all three (matching what
    :attr:`~repro.core.incremental.StreamingStep.host_seconds` covers on the
    incremental side).
    """
    world = graph.world
    host_start = time.perf_counter()
    dodgr = DODGraph.build(graph, mode="bulk")
    reducer = reducer_factory(world)
    report = triangle_survey_push(dodgr, reducer.callback, engine=engine)
    if hasattr(reducer, "finalize"):
        reducer.finalize()
    result = reducer.result()
    return FullRecompute(
        report=report,
        result=result,
        host_seconds=time.perf_counter() - host_start,
    )
