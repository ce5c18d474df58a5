"""Independent reference answers, computed from the raw edge columns.

Nothing here imports ``repro``: the triangle count every op is checked
against must not share code with the program under test.  The count is a
degree-oriented sorted-adjacency intersection in plain NumPy, chunked so
that its working set stays far below the workloads' own footprint — a
SciPy ``A @ A * A`` product was measured at 3.7 s and 300 MB peak RSS on
rmat-14, which would have been most of ``setup_s`` and all of
``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

import numpy as np

__all__ = ["triangle_count", "panel_digest"]

#: Wedges expanded per chunk (three int64 arrays of this length are alive).
_CHUNK_WEDGES = 1 << 20


def triangle_count(us: Any, vs: Any) -> int:
    """Triangles of the simple undirected graph on the edge columns.

    Self loops and parallel edges are dropped, matching what the graph
    layers under test do on ingest.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    keep = us != vs
    lo = np.minimum(us[keep], vs[keep])
    hi = np.maximum(us[keep], vs[keep])
    if lo.size == 0:
        return 0
    n = int(hi.max()) + 1
    pairs = np.unique(lo * n + hi)
    lo, hi = pairs // n, pairs % n
    # Orient every edge from the lower (degree, id) endpoint to the higher:
    # out-degrees stay small on skewed graphs, so the wedge list is short.
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
    src = np.minimum(rank[lo], rank[hi])
    dst = np.maximum(rank[lo], rank[hi])
    keys = np.sort(src * n + dst)
    src, dst = keys // n, keys % n
    row_end = np.cumsum(np.bincount(src, minlength=n))[src]
    # Edge e = (s, dst[e]) pairs with every later edge (s, dst[k]) of its
    # row; the wedge closes iff (dst[e], dst[k]) is itself an oriented edge.
    partners = row_end - np.arange(keys.size) - 1
    bounds = np.cumsum(partners)
    total = 0
    start = 0
    while start < keys.size:
        base = bounds[start - 1] if start else 0
        stop = int(np.searchsorted(bounds, base + _CHUNK_WEDGES, side="right"))
        stop = max(stop, start + 1)
        count = partners[start:stop]
        first = np.repeat(np.arange(start, stop), count)
        offset = np.arange(first.size) - np.repeat(bounds[start:stop] - count - base, count)
        wedge = dst[first] * n + dst[first + 1 + offset]
        pos = np.searchsorted(keys, wedge)
        pos[pos == keys.size] = 0
        total += int(np.count_nonzero(keys[pos] == wedge))
        start = stop
    return total


def panel_digest(panel: Mapping[Any, int]) -> str:
    """Order-independent fingerprint of a reducer panel (histogram dict)."""
    text = repr(sorted(panel.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
