"""In-memory span recorder for the traced run (outside-in: no code in src/).

A span is ``(name, start ns, end ns, parent id, op id)`` plus the counts
taken at the same boundary.  The benchmark opens one *root* span per op
(``Tracer.op``) and one child span around every call it makes into a
layer's public functions; a span's self time is its duration minus the
part its children cover, so the root's self time is the dark time no
layer accounts for.  Spans stay in memory until :meth:`Tracer.write`
dumps them in Chrome-trace format (load in ``chrome://tracing`` or
Perfetto).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    __slots__ = ("id", "name", "start_ns", "end_ns", "parent", "op", "counts")

    def __init__(self, span_id: int, name: str, parent: Optional[int], op: int) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start_ns = 0
        self.end_ns = 0
        #: counts taken at this boundary (rpcs, bytes, rank, outcome, ...)
        self.counts: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._by_op: Dict[int, List[Span]] = {}
        self._stack: List[Span] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str, **counts: Any) -> Iterator[Span]:
        """Record a child span of whatever span is open."""
        parent = self._stack[-1]
        span = Span(len(self.spans), name, parent.id, parent.op)
        yield from self._record(span, counts)

    @contextmanager
    def op(self, name: str, **counts: Any) -> Iterator[Span]:
        """Record a root span; every span opened inside shares its op id."""
        if self._stack:
            raise RuntimeError(f"op {name!r} opened inside span {self._stack[-1].name!r}")
        self._ops += 1
        yield from self._record(Span(len(self.spans), name, None, self._ops), counts)

    def _record(self, span: Span, counts: Dict[str, Any]) -> Iterator[Span]:
        span.counts.update(counts)
        self.spans.append(span)
        self._by_op.setdefault(span.op, []).append(span)
        self._stack.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    # -- queries ---------------------------------------------------------
    def within(self, root: Span, name: str) -> List[Span]:
        """Spans called ``name`` recorded anywhere inside ``root``'s op."""
        return [s for s in self._by_op[root.op] if s.name == name]

    def seconds(self, root: Span, name: str) -> float:
        return sum(s.seconds for s in self.within(root, name))

    def calibrated(self, root: Span, name: Optional[str] = None) -> float:
        """Seconds of ``name`` spans (default: the root itself) inside
        ``root``'s op, divided by the host speed factor ``Clock.op`` left
        in the root's counts."""
        seconds = root.seconds if name is None else self.seconds(root, name)
        return seconds / root.counts["factor"]

    def self_seconds(self, span: Span) -> float:
        children = sum(s.seconds for s in self._by_op[span.op] if s.parent == span.id)
        return span.seconds - children

    def coverage(self) -> float:
        """Share of all ops' wall time that falls inside a child span."""
        roots = [s for s in self.spans if s.parent is None]
        wall = sum(s.seconds for s in roots)
        dark = sum(self.self_seconds(s) for s in roots)
        return 1.0 - dark / wall if wall else 0.0

    # -- export ----------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        events = [
            {
                "name": s.name,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": s.start_ns / 1e3,
                "dur": (s.end_ns - s.start_ns) / 1e3,
                "args": {"id": s.id, "parent": s.parent, "op": s.op, **s.counts},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
