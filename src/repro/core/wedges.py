"""Wedge accounting helpers.

The paper normalises weak-scaling throughput by |W+| — the number of wedge
checks generated by the degree-ordered push algorithm — because that is the
algorithm's true work measure (Section 5.5 plots ``|W+| / (N * t)``).  These
helpers compute |W+| and per-rank wedge loads for any DODGr, and the
equivalent quantities from raw edges for test oracles.

Both drivers are vectorized: degree columns come from one pass over the
stores (or, for raw edges, one :func:`~repro.graph.degree.order_positions`
call to orient every edge), and the wedge totals fall out of ``np.bincount``
over those degrees — ``sum(count_d * C(d, 2))``.  The scalar parity oracle
is :func:`~repro.graph.properties.dodgr_wedge_count`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as _np

from ..graph.degree import order_positions
from ..graph.dodgr import DODGraph

__all__ = [
    "wedge_count",
    "per_rank_wedge_counts",
    "wedge_count_from_edges",
    "work_rate",
]


def _wedges_from_degrees(degrees: "_np.ndarray") -> int:
    """``sum(C(d, 2))`` over an out-degree column via one ``bincount``."""
    if degrees.size == 0:
        return 0
    histogram = _np.bincount(degrees)
    d = _np.arange(histogram.size, dtype=_np.int64)
    return int((histogram * (d * (d - 1) // 2)).sum())


def wedge_count(dodgr: DODGraph) -> int:
    """|W+| of a distributed DODGr."""
    return dodgr.wedge_count()


def per_rank_wedge_counts(dodgr: DODGraph) -> List[int]:
    """Wedge checks generated by each rank's local pivots (load-balance view)."""
    return [
        _wedges_from_degrees(_np.diff(dodgr.csr(rank).indptr))
        for rank in range(dodgr.world.nranks)
    ]


def wedge_count_from_edges(
    edges: Iterable[Tuple[Hashable, Hashable]] | Iterable[Tuple[Hashable, Hashable, object]],
) -> int:
    """|W+| computed serially from raw edges (test oracle).

    Vectorized: vertices are densified through one Python pass, degrees come
    from ``bincount`` over the deduplicated endpoint columns, every edge is
    oriented by one ``<+``-position comparison
    (:func:`~repro.graph.degree.order_positions` replays the exact legacy
    order, ``repr`` tie-breaks included), and |W+| is the ``bincount`` sum
    over the resulting out-degrees.
    """
    index_of: Dict[Hashable, int] = {}
    vertices: List[Hashable] = []
    src_idx: List[int] = []
    tgt_idx: List[int] = []
    for edge in edges:
        u, v = edge[0], edge[1]
        if u == v:
            continue
        iu = index_of.get(u)
        if iu is None:
            index_of[u] = iu = len(vertices)
            vertices.append(u)
        iv = index_of.get(v)
        if iv is None:
            index_of[v] = iv = len(vertices)
            vertices.append(v)
        src_idx.append(iu)
        tgt_idx.append(iv)
    if not src_idx:
        return 0
    src = _np.asarray(src_idx, dtype=_np.int64)
    tgt = _np.asarray(tgt_idx, dtype=_np.int64)
    # Deduplicate undirected edges on (min, max) index pairs.
    n = len(vertices)
    lo = _np.minimum(src, tgt)
    hi = _np.maximum(src, tgt)
    unique_pairs = _np.unique(lo * n + hi)
    lo = unique_pairs // n
    hi = unique_pairs % n
    degrees = _np.bincount(lo, minlength=n) + _np.bincount(hi, minlength=n)
    pos, _order = order_positions(vertices, degrees.tolist())
    # Each undirected edge contributes one out-edge at its <+-smaller endpoint.
    out_src = _np.where(pos[lo] < pos[hi], lo, hi)
    return _wedges_from_degrees(_np.bincount(out_src, minlength=n))


def work_rate(wedges: int, num_nodes: int, seconds: float) -> float:
    """The paper's weak-scaling metric: wedges processed per node per second."""
    if num_nodes <= 0 or seconds <= 0.0:
        return 0.0
    return wedges / (num_nodes * seconds)
