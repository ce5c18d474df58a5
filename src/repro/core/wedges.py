"""Wedge accounting helpers.

The paper normalises weak-scaling throughput by |W+| — the number of wedge
checks generated by the degree-ordered push algorithm — because that is the
algorithm's true work measure (Section 5.5 plots ``|W+| / (N * t)``).
:meth:`~repro.graph.dodgr.DODGraph.wedge_count` computes |W+|; its scalar
parity oracle is :func:`~repro.graph.properties.dodgr_wedge_count`.
"""

from __future__ import annotations

__all__ = ["work_rate"]


def work_rate(wedges: int, num_nodes: int, seconds: float) -> float:
    """The paper's weak-scaling metric: wedges processed per node per second."""
    if num_nodes <= 0 or seconds <= 0.0:
        return 0.0
    return wedges / (num_nodes * seconds)
