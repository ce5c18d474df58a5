"""End-to-end analyses reproducing the paper's application studies."""

from .closure_times import (
    describe_bucket,
    run_closure_time_survey,
    run_streaming_closure_time_survey,
)
from .clustering import run_clustering_coefficients, run_truss_support
from .communities import community_ordering, domain_cooccurrence_graph
from .degree_triples import decorate_with_degrees, run_degree_triple_survey
from .fqdn import anchor_domain_slice, run_fqdn_survey, run_streaming_fqdn_survey
from .truss import truss_decomposition

__all__ = [
    "truss_decomposition",
    "run_closure_time_survey",
    "run_streaming_closure_time_survey",
    "describe_bucket",
    "decorate_with_degrees",
    "run_degree_triple_survey",
    "run_fqdn_survey",
    "run_streaming_fqdn_survey",
    "anchor_domain_slice",
    "domain_cooccurrence_graph",
    "community_ordering",
    "run_clustering_coefficients",
    "run_truss_support",
]
