"""Admission control: bounded queue, load shedding, and the cost model.

The service's queue is bounded; a submit that finds it full is *shed* —
answered immediately with a structured rejection carrying a
``Retry-After``-style hint — instead of growing an unbounded backlog
(the classic overload failure).  The hint is honest: expected time for
the current backlog to drain at the observed service rate.

The :class:`CostModel` is an EWMA of observed seconds-per-directed-edge
per (analysis, engine).  The service consults it *before* starting an
exact survey: when the predicted cost (with a safety margin) exceeds the
query's remaining deadline budget, the exact rung is skipped outright and
the query walks down the degradation ladder — spending a doomed query's
budget on a survey that cannot finish helps no one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["AdmissionController", "CostModel"]

#: Retry-after floor so a hint is never a busy-loop invitation.
_MIN_RETRY_AFTER_S = 0.01


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    #: when not admitted: suggested client back-off in seconds
    retry_after_s: float = 0.0
    reason: str = ""


class CostModel:
    """EWMA cost estimates per (analysis, engine), in seconds.

    Per-query cost is modelled as linear in the graph's directed-edge
    count (the survey drivers walk every directed edge at least once), so
    observations are normalised to seconds-per-edge before smoothing and
    estimates re-scale to the queried epoch's size.  Estimates fall back
    from the exact (analysis, engine) key to any engine of the same
    analysis to the global mean, and return ``None`` with no history at
    all — the service treats an unknown cost as admissible.
    """

    def __init__(self, smoothing: float = 0.3) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        self._per_edge: Dict[Tuple[str, str], float] = {}
        #: EWMA of absolute per-query service seconds (drain-rate estimate)
        self._service_seconds: Optional[float] = None
        self.observations = 0

    def observe(
        self, analysis: str, engine: str, directed_edges: int, seconds: float
    ) -> None:
        per_edge = seconds / max(directed_edges, 1)
        key = (analysis, engine)
        prior = self._per_edge.get(key)
        self._per_edge[key] = (
            per_edge
            if prior is None
            else prior + self.smoothing * (per_edge - prior)
        )
        self._service_seconds = (
            seconds
            if self._service_seconds is None
            else self._service_seconds + self.smoothing * (seconds - self._service_seconds)
        )
        self.observations += 1

    def estimate_seconds(
        self, analysis: str, engine: str, directed_edges: int
    ) -> Optional[float]:
        per_edge = self._per_edge.get((analysis, engine))
        if per_edge is None:
            same_analysis = [
                rate for (a, _), rate in self._per_edge.items() if a == analysis
            ]
            if same_analysis:
                per_edge = sum(same_analysis) / len(same_analysis)
            elif self._per_edge:
                per_edge = sum(self._per_edge.values()) / len(self._per_edge)
            else:
                return None
        return per_edge * max(directed_edges, 1)

    @property
    def mean_service_seconds(self) -> Optional[float]:
        return self._service_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "observations": self.observations,
            "mean_service_seconds": self._service_seconds,
            "per_edge": {
                f"{analysis}/{engine}": rate
                for (analysis, engine), rate in sorted(self._per_edge.items())
            },
        }


class AdmissionController:
    """Bounded-queue admission with honest retry-after hints."""

    def __init__(
        self, max_queue_depth: int, cost_model: Optional[CostModel] = None
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        self.max_queue_depth = max_queue_depth
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.shed = 0

    def admit(self, queue_depth: int) -> AdmissionDecision:
        if queue_depth < self.max_queue_depth:
            return AdmissionDecision(admitted=True)
        self.shed += 1
        return AdmissionDecision(
            admitted=False,
            retry_after_s=self.retry_after(queue_depth),
            reason=(
                f"queue saturated ({queue_depth}/{self.max_queue_depth})"
            ),
        )

    def retry_after(self, queue_depth: int) -> float:
        """Expected seconds for the current backlog to drain (floored)."""
        per_query = self.cost_model.mean_service_seconds
        if per_query is None:
            return _MIN_RETRY_AFTER_S
        return max(_MIN_RETRY_AFTER_S, (queue_depth + 1) * per_query)
