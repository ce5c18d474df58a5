"""Degree ordering used to build the degree-ordered directed graph (DODGr).

Section 3 defines the total order ``u <+ v`` as

* ``d(u) < d(v)``, or
* ``d(u) == d(v)`` and ``hash(u) < hash(v)``

with a deterministic tie-breaking hash.  This reproduction additionally
breaks exact hash collisions by the vertex id itself so the relation is a
strict total order even on adversarial inputs (the C++ code relies on a
collision-free 64-bit hash of distinct ids; in Python we make the guarantee
explicit).
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence, Tuple

import numpy as _np

from ..runtime.world import stable_hash, stable_hash_int_array
from .columnar import id_array

__all__ = ["order_key", "order_positions"]


def order_key(vertex: Hashable, degree: int) -> Tuple[int, int, str]:
    """Sort key implementing the ``<+`` comparison for a vertex of known degree."""
    return (degree, stable_hash(vertex), repr(vertex))


def order_positions(
    vertices: Sequence[Hashable], degrees: Sequence[int]
) -> Tuple[Any, Any]:
    """Dense ranks of ``vertices`` under ``<+``, computed with array argsort.

    Returns ``(pos, order)`` where ``pos[i]`` is the rank of ``vertices[i]``
    in the global degree order and ``order`` is the inverse permutation
    (``vertices[order[k]]`` is the ``k``-th vertex in ``<+`` order) — exactly
    the ordering ``sorted(..., key=order_key)`` produces, but via one
    ``np.lexsort`` over (hash, degree) columns instead of per-vertex key
    tuples.  ``vertices`` is a sequence or an id column (int64 / object
    array); integer ids hash through the vectorized mix, other id types fall
    back to a scalar hashing pass but still sort columnar.  The
    ``repr`` tie-break of :func:`order_key` only matters on exact 64-bit
    hash collisions between equal-degree vertices; those (vanishingly rare)
    runs are re-sorted scalar-side so the result matches the legacy key on
    adversarial inputs too.
    """
    n = len(vertices)
    deg = _np.asarray(degrees, dtype=_np.int64)
    ids = id_array(vertices)
    if ids is not None:
        hashes = stable_hash_int_array(ids)
    else:
        # Scalar hashing pass (non-int or huge ids); results are < 2**63 so
        # the columnar sort below still applies.
        hashes = _np.fromiter(
            (stable_hash(v) for v in vertices), dtype=_np.int64, count=n
        )
    order = _np.lexsort((hashes, deg))
    if n > 1:
        deg_sorted = deg[order]
        hash_sorted = hashes[order]
        ties = (deg_sorted[1:] == deg_sorted[:-1]) & (hash_sorted[1:] == hash_sorted[:-1])
        if ties.any():
            order_list = order.tolist()
            tie_flags = ties.tolist()
            if isinstance(vertices, _np.ndarray):
                vertices = vertices.tolist()  # repr() of the ids, not of NumPy scalars
            start = 0
            while start < n - 1:
                if not tie_flags[start]:
                    start += 1
                    continue
                end = start + 1
                while end < n - 1 and tie_flags[end]:
                    end += 1
                run = order_list[start : end + 1]
                run.sort(key=lambda i: repr(vertices[i]))
                order_list[start : end + 1] = run
                start = end + 1
            order = _np.asarray(order_list, dtype=_np.int64)
    pos = _np.empty(n, dtype=_np.int64)
    pos[order] = _np.arange(n, dtype=_np.int64)
    return pos, order
