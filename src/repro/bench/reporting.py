"""Plain-text table and series formatting for the benchmark harness.

The paper reports results as tables (Tables 1-4) and figures (Figs. 4-9).
The benchmark scripts regenerate the same rows/series and print them with
these helpers, so ``pytest benchmarks/ --benchmark-only -s`` produces a
textual version of every artifact next to the timing numbers.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_markdown_table",
    "format_kv",
    "format_histogram",
    "human_bytes",
    "human_count",
    "percentiles",
    "peak_rss_bytes",
    "AllocationTracker",
    "memory_snapshot",
]


def percentiles(
    values: Iterable[float],
    ps: Sequence[float] = (50, 90, 99),
) -> Dict[str, Optional[float]]:
    """Linear-interpolation percentiles of ``values`` keyed ``"p50"``-style.

    The estimator is the standard ``rank = (n - 1) * p / 100`` linear
    interpolation (NumPy's default), in pure Python so every benchmark can
    use it whether or not NumPy is installed.  Empty input yields ``None``
    for every requested percentile; a singleton yields that value.  Keys
    drop a trailing ``.0`` (``p99.9`` stays ``"p99.9"``).
    """
    data = sorted(float(v) for v in values)
    out: Dict[str, Optional[float]] = {}
    for p in ps:
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p!r}")
        key = f"p{int(p)}" if float(p) == int(p) else f"p{p}"
        if not data:
            out[key] = None
            continue
        rank = (len(data) - 1) * p / 100.0
        lo = int(rank)
        hi = min(lo + 1, len(data) - 1)
        frac = rank - lo
        out[key] = data[lo] + (data[hi] - data[lo]) * frac
    return out


def human_bytes(value: float) -> str:
    """Format a byte count with a binary-ish unit (B, KB, MB, GB)."""
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{value:,.0f} B"
        value /= 1024.0
    return f"{value:,.1f} TB"


def human_count(value: Optional[float]) -> str:
    """Format a count with K/M/B suffixes (Table 1 style)."""
    if value is None:
        return "-"
    for threshold, suffix in ((1e12, "T"), (1e9, "B"), (1e6, "M"), (1e3, "K")):
        if abs(value) >= threshold:
            return f"{value / threshold:.2f}{suffix}"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return f"{int(value)}"


def _stringify(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as an aligned plain-text table."""
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    header = list(columns)
    body = [[_stringify(row.get(col)) for col in header] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def format_markdown_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as a GitHub-flavoured markdown table.

    Same row/column semantics as :func:`format_table` (column order defaults
    to first-seen key order), but pipe-delimited so the output drops
    straight into a ``.md`` artifact — the sweep harness's coverage map uses
    this for its human-readable half.  Cell text is escaped minimally
    (pipes only); a ``title`` becomes a bold caption line.
    """
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    header = list(columns)

    def cell(value: Any) -> str:
        return _stringify(value).replace("|", "\\|")

    lines: List[str] = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(cell(row.get(col)) for col in header) + " |")
    return "\n".join(lines)


def format_kv(pairs: Mapping[str, Any], title: Optional[str] = None) -> str:
    """Render a mapping as aligned ``key: value`` lines."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if pairs:
        width = max(len(str(key)) for key in pairs)
        for key, value in pairs.items():
            lines.append(f"{str(key).ljust(width)} : {_stringify(value)}")
    return "\n".join(lines)


def format_histogram(
    histogram: Mapping[Any, int],
    key_label: str = "bucket",
    title: Optional[str] = None,
    max_bar: int = 40,
) -> str:
    """Render a histogram with proportional ASCII bars (log-style figures)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not histogram:
        lines.append("(empty)")
        return "\n".join(lines)
    peak = max(histogram.values())
    keys = sorted(histogram.keys(), key=lambda k: (isinstance(k, str), k))
    key_width = max(len(str(k)) for k in keys)
    for key in keys:
        count = histogram[key]
        bar = "#" * max(1, int(max_bar * count / peak)) if count > 0 else ""
        lines.append(f"{str(key).ljust(key_width)}  {count:>10,d}  {bar}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Peak-memory tracking (out-of-core gates, ISSUE 10)
# ---------------------------------------------------------------------------


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process so far, in bytes.

    ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` — kilobytes on Linux,
    bytes on macOS — normalised to bytes.  A process-lifetime high-water
    mark: it never decreases, so benchmarks report it as context (how big
    did the process ever get) and gate *phase* allocations with
    :class:`AllocationTracker` instead.  Returns ``None`` on platforms
    without the ``resource`` module (Windows), so artifact emission can
    degrade gracefully.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    import sys

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(rss)
    return int(rss) * 1024


class AllocationTracker:
    """Python-allocation high-water mark over one measured region.

    ``tracemalloc``-based: unlike :func:`peak_rss_bytes` this *can* be reset
    between phases, which is what lets the out-of-core benchmark gate the
    survey phase's transient allocations against the configured budget after
    the (unavoidably resident) graph build.  Use as a context manager::

        with AllocationTracker() as tracker:
            run_survey(...)
        assert tracker.peak_bytes <= budget

    Nested/pre-existing tracing is respected: if ``tracemalloc`` was already
    running, the tracker only resets the peak counter and leaves tracing on
    at exit.
    """

    def __init__(self) -> None:
        self.peak_bytes: Optional[int] = None
        self._started_here = False

    def __enter__(self) -> "AllocationTracker":
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            self._started_here = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _current, peak = tracemalloc.get_traced_memory()
        self.peak_bytes = int(peak)
        if self._started_here:
            tracemalloc.stop()


def memory_snapshot() -> Dict[str, Optional[int]]:
    """The memory facts every benchmark artifact can carry.

    ``peak_rss_bytes`` is the process high-water mark;
    ``traced_current_bytes``/``traced_peak_bytes`` are present only while a
    :class:`AllocationTracker` (or other ``tracemalloc`` client) is tracing.
    """
    snapshot: Dict[str, Optional[int]] = {"peak_rss_bytes": peak_rss_bytes()}
    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        snapshot["traced_current_bytes"] = int(current)
        snapshot["traced_peak_bytes"] = int(peak)
    return snapshot
