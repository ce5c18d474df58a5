"""Benchmark harness: stand-in datasets, scaling drivers, reporting."""

from .comparison import compare_systems
from .datasets import DATASETS, bench_scale, load_dataset
from .reporting import (
    format_histogram,
    format_markdown_table,
    format_kv,
    format_table,
    human_bytes,
    human_count,
    percentiles,
)
from .scaling import run_survey_at_scale, strong_scaling, weak_scaling_rmat
from .streaming import full_recompute_survey, make_streaming_schedule

__all__ = [
    "DATASETS",
    "load_dataset",
    "bench_scale",
    "run_survey_at_scale",
    "strong_scaling",
    "weak_scaling_rmat",
    "make_streaming_schedule",
    "full_recompute_survey",
    "compare_systems",
    "format_table",
    "format_markdown_table",
    "format_kv",
    "format_histogram",
    "human_bytes",
    "human_count",
    "percentiles",
]
