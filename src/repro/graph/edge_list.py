"""Distributed edge lists: ingestion, symmetrization and de-duplication.

Real decorated temporal datasets arrive as *records*: ``(u, v, metadata)``
rows, frequently forming a multigraph (the Reddit data has one edge per
comment between two authors).  Before triangle processing the paper's
pipeline turns the records into a simple undirected graph — e.g. keeping the
chronologically-first comment between two authors (Section 5.2).

:class:`DistributedEdgeList` holds raw records partitioned across ranks and
implements the cleanup steps:

* drop self loops,
* canonicalise each unordered pair,
* deduplicate parallel edges with a pluggable reduction (keep-first,
  earliest timestamp, smallest metadata, or a user function).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from ..runtime.world import RankContext, World, stable_hash
from .metadata import edge_timestamp

import numpy as _np

__all__ = [
    "DistributedEdgeList",
    "canonical_pair",
    "validate_edge_columns",
    "int64_id_columns",
]

#: A raw edge record: (source, target, edge metadata).
EdgeRecord = Tuple[Hashable, Hashable, Any]


def canonical_pair(u: Hashable, v: Hashable) -> Tuple[Hashable, Hashable]:
    """Order an unordered vertex pair deterministically (for dedup keys)."""
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


# Built-in parallel-edge reductions -----------------------------------------


def _keep_first(existing: Any, incoming: Any) -> Any:
    return existing


def _keep_earliest_timestamp(existing: Any, incoming: Any) -> Any:
    return existing if edge_timestamp(existing) <= edge_timestamp(incoming) else incoming


def _keep_min(existing: Any, incoming: Any) -> Any:
    try:
        return existing if existing <= incoming else incoming
    except TypeError:
        return existing


# Columnar input validation --------------------------------------------------


def validate_edge_columns(
    us: Any, vs: Any, edge_metas: Optional[List[Any]] = None
) -> None:
    """Reject malformed endpoint columns with an error naming the column.

    The columnar ingestion paths (``DistributedGraph.from_columns``,
    ``DeltaBuffer.stage_columns``) take parallel *integer* id columns; a
    float column would otherwise truncate silently through ``int()`` and a
    ragged or negative column would surface as a confusing partitioner or
    adjacency error deep inside the build.  Checks are vectorized when the
    columns are numeric NumPy arrays — one dtype test and one ``min()``
    per column, far cheaper than the build's own lexsort.
    """
    n_us, n_vs = len(us), len(vs)
    if n_us != n_vs:
        raise ValueError(
            f"ragged edge columns: column 'us' has {n_us} entries but "
            f"column 'vs' has {n_vs}"
        )
    if edge_metas is not None and len(edge_metas) != n_us:
        raise ValueError(
            f"ragged edge columns: column 'edge_metas' has {len(edge_metas)} "
            f"entries but the endpoint columns have {n_us}"
        )
    for name, column in (("us", us), ("vs", vs)):
        _validate_id_column(name, column)


def _validate_id_column(name: str, column: Any) -> None:
    arr = _np.asarray(column)
    if arr.size == 0:
        # An empty plain list coerces to float64; there are no ids to
        # reject, so don't let the default dtype fail the column.
        return
    if arr.dtype != object:
        if not _np.issubdtype(arr.dtype, _np.integer):
            raise ValueError(
                f"column {name!r} has non-integer dtype {arr.dtype}; "
                "vertex ids must be integers (float ids would truncate "
                "silently)"
            )
        if arr.size and int(arr.min()) < 0:
            raise ValueError(
                f"column {name!r} contains negative vertex ids "
                f"(min {int(arr.min())})"
            )
        return
    for index, value in enumerate(column):
        if isinstance(value, bool) or not _is_integral(value):
            raise ValueError(
                f"column {name!r} entry {index} is "
                f"{type(value).__name__} {value!r}; vertex ids must be integers"
            )
        if value < 0:
            raise ValueError(
                f"column {name!r} contains a negative vertex id at entry "
                f"{index} ({value})"
            )


def _is_integral(value: Any) -> bool:
    return isinstance(value, (int, _np.integer))


def int64_id_columns(us: Any, vs: Any) -> Optional[Tuple[Any, Any]]:
    """Validated endpoint columns as int64 arrays, or None when an id does not fit.

    A list of Python ints beyond int64 raises ``OverflowError`` on conversion,
    but an unsigned array holding values ``>= 2**63`` would wrap without
    raising, so it is range-checked first.  ``None`` sends the caller down
    its object-id (per-edge) lane.
    """
    columns = []
    for column in (us, vs):
        if (
            isinstance(column, _np.ndarray)
            and column.dtype.kind == "u"
            and column.size
            and int(column.max()) > _np.iinfo(_np.int64).max
        ):
            return None
        try:
            columns.append(_np.asarray(column, dtype=_np.int64))
        except OverflowError:  # Python ints beyond int64
            return None
    return columns[0], columns[1]


_REDUCTIONS: Dict[str, Callable[[Any, Any], Any]] = {
    "first": _keep_first,
    "earliest": _keep_earliest_timestamp,
    "min": _keep_min,
}


class DistributedEdgeList:
    """Raw edge records partitioned across the ranks of a simulated world."""

    def __init__(self, world: World, name: Optional[str] = None) -> None:
        self.world = world
        if name is None:
            name = world.anonymous_name("edge_list")
        self.name = world.unique_name(name)
        for ctx in world.ranks:
            ctx.local_state.setdefault(self._slot, [])
        self._h_insert = world.register_handler(self._handle_insert, f"{self.name}.insert")
        self._next_rank = 0

    @property
    def _slot(self) -> str:
        return f"edge_list:{self.name}"

    def local_edges(self, rank_or_ctx: int | RankContext) -> List[EdgeRecord]:
        ctx = (
            rank_or_ctx
            if isinstance(rank_or_ctx, RankContext)
            else self.world.rank(rank_or_ctx)
        )
        return ctx.local_state[self._slot]

    # ------------------------------------------------------------------
    def _handle_insert(self, ctx: RankContext, u: Hashable, v: Hashable, meta: Any) -> None:
        self.local_edges(ctx).append((u, v, meta))

    def async_insert(
        self, ctx: RankContext, u: Hashable, v: Hashable, meta: Any = None
    ) -> None:
        """Route a record to the rank owning its canonical pair (fire-and-forget)."""
        dest = stable_hash((self.name, canonical_pair(u, v))) % self.world.nranks
        ctx.async_call(dest, self._h_insert, u, v, meta)

    def insert(self, u: Hashable, v: Hashable, meta: Any = None) -> None:
        """Driver-side bulk insert, round-robin across ranks."""
        self.local_edges(self._next_rank).append((u, v, meta))
        self._next_rank = (self._next_rank + 1) % self.world.nranks

    def extend(self, records: Iterable[Tuple[Hashable, Hashable] | EdgeRecord]) -> None:
        for record in records:
            if len(record) == 2:
                self.insert(record[0], record[1], None)
            else:
                self.insert(record[0], record[1], record[2])

    # ------------------------------------------------------------------
    def num_records(self) -> int:
        return sum(len(self.local_edges(r)) for r in range(self.world.nranks))

    def __len__(self) -> int:
        return self.num_records()

    def records(self) -> Iterator[EdgeRecord]:
        for rank in range(self.world.nranks):
            yield from self.local_edges(rank)

    def rank_sizes(self) -> List[int]:
        return [len(self.local_edges(r)) for r in range(self.world.nranks)]

    def clear(self) -> None:
        for rank in range(self.world.nranks):
            self.local_edges(rank).clear()

    # ------------------------------------------------------------------
    def simplify(
        self,
        reduction: str | Callable[[Any, Any], Any] = "first",
        drop_self_loops: bool = True,
    ) -> "DistributedEdgeList":
        """Return a new edge list with one record per unordered vertex pair.

        Parameters
        ----------
        reduction:
            How to combine metadata of parallel edges: ``"first"`` keeps the
            first record encountered (rank order), ``"earliest"`` keeps the
            record with the smallest timestamp (Reddit semantics),
            ``"min"`` keeps the smallest metadata value, or pass a callable
            ``f(existing, incoming) -> kept``.
        drop_self_loops:
            Remove ``(u, u)`` records (triangles never involve self loops).
        """
        if callable(reduction):
            reducer = reduction
        else:
            try:
                reducer = _REDUCTIONS[reduction]
            except KeyError as exc:
                raise ValueError(
                    f"unknown reduction {reduction!r}; expected one of {sorted(_REDUCTIONS)}"
                ) from exc

        # Shuffle records to the owner of their canonical pair so parallel
        # edges meet on one rank, then reduce locally.  Done driver-side for
        # speed; the async ingestion path exercises the same owner function.
        per_rank: List[Dict[Tuple[Hashable, Hashable], Any]] = [
            {} for _ in range(self.world.nranks)
        ]
        for u, v, meta in self.records():
            if drop_self_loops and u == v:
                continue
            pair = canonical_pair(u, v)
            dest = stable_hash((self.name, pair)) % self.world.nranks
            bucket = per_rank[dest]
            if pair in bucket:
                bucket[pair] = reducer(bucket[pair], meta)
            else:
                bucket[pair] = meta

        # The derived list gets an auto-generated unique name: simplify() may
        # be called more than once per world and handler names must not clash.
        out = DistributedEdgeList(self.world)
        for rank, bucket in enumerate(per_rank):
            store = out.local_edges(rank)
            for (u, v), meta in bucket.items():
                store.append((u, v, meta))
        return out

    def num_undirected_edges(self) -> int:
        """Number of distinct unordered pairs (excluding self loops)."""
        seen = set()
        for u, v, _ in self.records():
            if u == v:
                continue
            seen.add(canonical_pair(u, v))
        return len(seen)

    def vertices(self) -> set:
        out = set()
        for u, v, _ in self.records():
            out.add(u)
            out.add(v)
        return out
