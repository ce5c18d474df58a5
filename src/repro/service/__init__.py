"""Resident survey service: deadline-bounded queries over a live graph.

The serving layer of the reproduction (ROADMAP item 2).  A
:class:`SurveyService` owns a live graph fed through a
:class:`~repro.graph.delta.DeltaBuffer` and answers survey queries
concurrently with ingest, guaranteeing every query a structured answer
within its deadline via snapshot isolation (epoch pinning), admission
control with load shedding, and a graceful-degradation ladder ending in
bounded-error estimates.  See ``docs/service.md`` for the query
lifecycle and ladder semantics.
"""

from .admission import AdmissionController, CostModel
from .cache import CacheEntry, PanelCache
from .deadline import Deadline, DeadlineExceeded
from .service import (
    ANALYSES,
    ServiceError,
    ServicePolicy,
    SurveyAnswer,
    SurveyQuery,
    SurveyService,
)
from .stats import OUTCOMES, ServiceCounters, ServiceStats

__all__ = [
    "ANALYSES",
    "AdmissionController",
    "CacheEntry",
    "CostModel",
    "Deadline",
    "DeadlineExceeded",
    "OUTCOMES",
    "PanelCache",
    "ServiceCounters",
    "ServiceError",
    "ServicePolicy",
    "ServiceStats",
    "SurveyAnswer",
    "SurveyQuery",
    "SurveyService",
]
