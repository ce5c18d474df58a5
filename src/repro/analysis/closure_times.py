"""Triangle closure-time analysis (Section 5.7, Fig. 6/7 of the paper).

For a temporal graph whose edges carry timestamps, every triangle's three
edge timestamps ``t1 <= t2 <= t3`` define the wedge opening time
``dt_open = t2 - t1`` and the triangle closing time ``dt_close = t3 - t1``.
The paper surveys the joint distribution of
``(ceil(log2 dt_open), ceil(log2 dt_close))`` over the 9.4-billion-edge
Reddit comment graph; this module runs the same survey over any temporal
:class:`~repro.graph.distributed_graph.DistributedGraph` and post-processes
the histogram into the marginal and joint distributions plotted in Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.callbacks import ClosureTimeSurvey, closure_marginals
from ..core.engine import EngineSelector
from ..core.incremental import StreamingSurvey
from ..core.push_pull import triangle_survey
from ..core.results import SurveyReport
from ..graph.dodgr import DODGraph
from ..graph.distributed_graph import DistributedGraph
from ..graph.metadata import edge_timestamp
from ..runtime.world import World

__all__ = [
    "run_closure_time_survey",
    "run_streaming_closure_time_survey",
    "describe_bucket",
]


@dataclass
class ClosureTimeResult:
    """Output of one closure-time survey run."""

    report: SurveyReport
    #: joint histogram keyed by (open bucket, close bucket)
    joint: Dict[Tuple[int, int], int]
    #: marginal histogram of closing-time buckets
    closing: Dict[int, int]
    #: marginal histogram of opening-time buckets
    opening: Dict[int, int]

    def triangles_surveyed(self) -> int:
        return sum(self.joint.values())

    def median_closing_bucket(self) -> int:
        """Bucket containing the median closing time (0 if no triangles)."""
        total = sum(self.closing.values())
        if total == 0:
            return 0
        running = 0
        for bucket in sorted(self.closing):
            running += self.closing[bucket]
            if running * 2 >= total:
                return bucket
        return max(self.closing)

    def fraction_above_diagonal(self) -> float:
        """Fraction of triangles whose closing bucket exceeds the opening bucket.

        Always well above one half on human-generated temporal graphs: wedges
        form quickly but closure takes longer (the paper's main qualitative
        observation about Reddit).
        """
        total = sum(self.joint.values())
        if total == 0:
            return 0.0
        above = sum(
            count for (open_b, close_b), count in self.joint.items() if close_b > open_b
        )
        return above / total


def run_closure_time_survey(
    graph: DistributedGraph,
    dodgr: Optional[DODGraph] = None,
    algorithm: str = "push_pull",
    timestamp: Optional[Callable[[Any], float]] = None,
    graph_name: Optional[str] = None,
    engine: EngineSelector = None,
) -> ClosureTimeResult:
    """Survey triangle closure times over a temporal graph.

    Parameters
    ----------
    graph:
        Temporal graph; edge metadata must yield a timestamp through
        ``timestamp`` (default: :func:`repro.graph.metadata.edge_timestamp`).
    dodgr:
        Pre-built DODGr (built on demand otherwise).
    algorithm:
        ``"push"`` or ``"push_pull"``.
    engine:
        Engine selector: any registered engine name (``"legacy"``,
        ``"columnar"``) or an
        :class:`~repro.core.engine.EngineConfig`; the columnar default
        buckets closure times through
        :meth:`ClosureTimeSurvey.callback_batch`.
    """
    world = graph.world
    if dodgr is None:
        dodgr = DODGraph.build(graph, mode="bulk")
    survey = ClosureTimeSurvey(world, timestamp=timestamp or edge_timestamp)
    report = triangle_survey(
        dodgr, survey.callback, algorithm, graph_name=graph_name, engine=engine
    )
    survey.finalize()
    joint = survey.result()
    closing, opening = closure_marginals(joint)
    return ClosureTimeResult(report=report, joint=joint, closing=closing, opening=opening)


@dataclass
class StreamingClosureTimeStep:
    """One edge batch's view of a sliding-window closure-time survey.

    ``window`` is the survey result over the triangles *discovered* by the
    batches currently inside the window (each triangle is attributed to the
    batch whose edge completed it — the delta-delivery semantics of
    :mod:`repro.core.incremental`); ``cumulative`` is the joint histogram of
    every batch so far, which is bit-identical to a full recompute at this
    step (timestamps never mutate and the closure key is role-order
    invariant).
    """

    batch_index: int
    #: edges accepted from this batch (duplicates/self-loops dropped)
    new_edges: int
    #: delta-survey telemetry of this batch only
    report: SurveyReport
    #: windowed survey result (joint + marginals over the window's panels)
    window: ClosureTimeResult
    #: joint histogram accumulated since the stream started
    cumulative: Dict[Tuple[int, int], int]


def run_streaming_closure_time_survey(
    world: World,
    batches: Iterable[Iterable[tuple]],
    window_batches: Optional[int] = None,
    timestamp: Optional[Callable[[Any], float]] = None,
    engine: Optional[EngineSelector] = None,
    graph_name: Optional[str] = None,
) -> List[StreamingClosureTimeStep]:
    """Sliding-window variant of :func:`run_closure_time_survey`.

    Ingests ``batches`` (iterables of ``(u, v, edge_meta)`` records, e.g.
    comment streams split by arrival time) one at a time through a
    :class:`~repro.core.incremental.StreamingSurvey`: each batch is merged
    into the live graph (first write wins), only the triangles it completes
    are surveyed, and the per-batch histograms are merged into sliding-window
    and cumulative views.  ``window_batches=None`` keeps every batch in the
    window.
    """
    factory = (
        (lambda w: ClosureTimeSurvey(w, timestamp=timestamp))
        if timestamp is not None
        else (lambda w: ClosureTimeSurvey(w))
    )
    survey = StreamingSurvey(
        world,
        factory,
        window_batches=window_batches,
        engine=engine,
        graph_name=graph_name or "streaming_closure",
    )
    steps: List[StreamingClosureTimeStep] = []
    try:
        for batch in batches:
            step = survey.ingest(batch)
            closing, opening = closure_marginals(step.window)
            steps.append(
                StreamingClosureTimeStep(
                    batch_index=step.batch_index,
                    new_edges=step.new_edges,
                    report=step.report,
                    window=ClosureTimeResult(
                        report=step.report,
                        joint=step.window,
                        closing=closing,
                        opening=opening,
                    ),
                    cumulative=step.cumulative,
                )
            )
    finally:
        # Free the stream's live DODGr in the caller's world.
        survey.close()
    return steps


#: Human-readable labels for log2-second buckets (used by reports/examples).
_BUCKET_LABELS = [
    (0, "<= 1 second"),
    (6, "~1 minute"),
    (12, "~1 hour"),
    (17, "~1 day"),
    (20, "~1 week"),
    (22, "~1 month"),
    (25, "~1 year"),
]


def describe_bucket(bucket: int) -> str:
    """Human-readable description of a ``ceil(log2 seconds)`` bucket."""
    if bucket <= 0:
        return "<= 1 second"
    description = f"2^{bucket} seconds"
    closest = min(_BUCKET_LABELS, key=lambda item: abs(item[0] - bucket))
    return f"{description} ({closest[1]})"
