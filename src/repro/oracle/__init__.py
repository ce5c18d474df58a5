"""The scalar oracle: the ``legacy`` engine, whole.

TriPoll's survey is one algorithm with interchangeable communication
strategies (Table 4).  This package keeps the paper's per-wedge strategy as
the ``legacy`` engine: one sized RPC per wedge, dry-run proposal, pulled row
and delta candidate; scalar intersection of each message; per-triangle
callback delivery over the DODGr's record store
(:meth:`~repro.graph.dodgr.DODGraph.local_store`).  It is the reference every
byte-identical wire-accounting check compares the production engine against.

Production code never imports it: :func:`repro.core.engine.registry.oracle_builder`
maps ``engine="legacy"`` to :data:`LEGACY_BUILDERS`, importing this package
on first use, and ``tools/check_engines.py`` check 10 fails on any other
import.  Each builder registers its handlers in the order the production
builder of the same program does, so handler ids — and every accounted
message size — agree between the two engines.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.engine.program import SurveyProgram
from ..core.engine.request import (
    DRY_RUN_PHASE,
    PULL_PHASE,
    PUSH_PHASE,
    SurveyRequest,
    TriangleCallback,
)
from ..core.intersection import INTERSECTION_KERNELS
from ..graph.degree import order_key
from ..graph.delta import AppliedDelta
from ..graph.dodgr import DODGraph, entry_key
from ..graph.edge_list import canonical_pair
from ..graph.metadata import TriangleMetadata

__all__ = [
    "DeltaRecords",
    "make_legacy_intersect_handler",
    "drive_legacy_push",
    "make_legacy_pull_handler",
    "drive_legacy_pull",
    "drive_legacy_delta",
    "build_legacy_push_program",
    "build_legacy_push_pull_program",
    "build_legacy_delta_program",
    "LEGACY_BUILDERS",
]


def candidate_key(candidate: tuple) -> tuple:
    """Sort key of a pushed candidate entry (r, d_r, meta_pr[, meta_r])."""
    return order_key(candidate[0], candidate[1])


# ---------------------------------------------------------------------------
# Push: one sized RPC per wedge, scalar intersection
# ---------------------------------------------------------------------------


def make_legacy_intersect_handler(
    dodgr: DODGraph,
    intersect,
    callback: Optional[TriangleCallback],
    per_triangle_compute: int,
    rows_by_rank: Optional[Sequence[Dict[Any, list]]] = None,
):
    """Build the owner-side handler of one per-wedge candidate push.

    Executed on Rank(q): intersect the pushed candidates with ``Adj^m_+(q)``
    and run the callback for every match.  ``rows_by_rank[rank][q]`` — a
    subsequence of ``Adj^m_+(q)`` — replaces the row it intersects against
    (the delta survey's new-check stream, over a batch's new entries);
    ``None`` intersects the full row.
    """

    def _intersect_handler(
        ctx,
        q: Any,
        p: Any,
        meta_p: Any,
        meta_pq: Any,
        candidates: List[tuple],
    ) -> None:
        record = dodgr.local_store(ctx).get(q)
        ctx.add_counter("wedge_checks", len(candidates))
        if record is None:
            return
        adjacency = record["adj"] if rows_by_rank is None else rows_by_rank[ctx.rank].get(q, ())
        meta_q = record["meta"]
        result = intersect(candidates, adjacency, candidate_key, entry_key)
        ctx.add_compute(result.comparisons)
        for cand_idx, adj_idx in result.matches:
            r, _d_r, meta_pr = candidates[cand_idx]
            _, _, meta_qr, meta_r = adjacency[adj_idx]
            ctx.add_counter("triangles_found", 1)
            if callback is not None:
                ctx.add_compute(per_triangle_compute)
                callback(
                    ctx,
                    TriangleMetadata(
                        p=p,
                        q=q,
                        r=r,
                        meta_p=meta_p,
                        meta_q=meta_q,
                        meta_r=meta_r,
                        meta_pq=meta_pq,
                        meta_pr=meta_pr,
                        meta_qr=meta_qr,
                    ),
                )

    return _intersect_handler


def drive_legacy_push(ctx, dodgr: DODGraph, handler, allowed=None) -> None:
    """Walk one rank's pivots, one sized RPC per wedge.

    ``allowed`` — a vertex set — restricts targets (the Push-Pull push phase
    skips targets that will be pulled); ``None`` pushes to every target.
    """
    store = dodgr.local_store(ctx)
    for p, record in store.items():
        adjacency = record["adj"]
        if len(adjacency) < 2:
            continue
        meta_p = record["meta"]
        for i in range(len(adjacency) - 1):
            q, _d_q, meta_pq, _meta_q = adjacency[i]
            if allowed is not None and q not in allowed:
                continue
            # Candidate entries drop meta(r): Rank(q) already stores
            # meta(r) in Adj^m_+(q) whenever Δpqr exists (Section 4.3).
            candidates = [
                (entry[0], entry[1], entry[2]) for entry in adjacency[i + 1 :]
            ]
            # Sized delivery: exact legacy wire accounting, no codec run
            # for what is (in-process) an accounting-only payload.
            ctx.async_call_sized(dodgr.owner(q), handler, q, p, meta_p, meta_pq, candidates)


# ---------------------------------------------------------------------------
# Pull: one sized RPC per (q, requester), one scalar merge per waiting pivot
# ---------------------------------------------------------------------------


def make_legacy_pull_handler(
    dodgr: DODGraph,
    intersect,
    callback: Optional[TriangleCallback],
    per_triangle_compute: int,
    pivots_by_target,
):
    """Pull-phase: Adj^m_+(q) arrives at a source rank; intersect locally.

    ``pivots_by_target[rank][q]`` lists the ``(pivot, index of q in its
    adjacency)`` pairs the rank's dry run recorded as waiting on ``q``.
    """

    def _pull_deliver_handler(
        ctx, q: Any, meta_q: Any, adjacency_q: List[tuple]
    ) -> None:
        ctx.add_counter("vertices_pulled", 1)
        store = dodgr.local_store(ctx)
        wanting_pivots = pivots_by_target[ctx.rank].get(q, ())
        for p, q_index in wanting_pivots:
            record = store.get(p)
            if record is None:
                continue
            adjacency_p = record["adj"]
            meta_p = record["meta"]
            meta_pq = adjacency_p[q_index][2]
            suffix = adjacency_p[q_index + 1 :]
            ctx.add_counter("wedge_checks", len(suffix))
            result = intersect(suffix, adjacency_q, entry_key, candidate_key)
            ctx.add_compute(result.comparisons)
            for suff_idx, pulled_idx in result.matches:
                r, _d_r, meta_pr, meta_r = suffix[suff_idx]
                meta_qr = adjacency_q[pulled_idx][2]
                ctx.add_counter("triangles_found", 1)
                if callback is not None:
                    ctx.add_compute(per_triangle_compute)
                    callback(
                        ctx,
                        TriangleMetadata(
                            p=p, q=q, r=r,
                            meta_p=meta_p, meta_q=meta_q, meta_r=meta_r,
                            meta_pq=meta_pq, meta_pr=meta_pr, meta_qr=meta_qr,
                        ),
                    )

    return _pull_deliver_handler


def drive_legacy_pull(ctx, dodgr: DODGraph, handler, pull_list) -> None:
    """Run one owner rank's pull deliveries, one sized RPC per (q, requester).

    ``pull_list`` maps each locally owned ``q`` to the source ranks that
    should receive ``Adj^m_+(q)``.
    """
    store = dodgr.local_store(ctx)
    for q, requesters in pull_list.items():
        record = store.get(q)
        if record is None:
            continue
        meta_q = record["meta"]
        # The pulled payload omits meta(r): the requesting rank stores
        # meta(r) locally for every r in its pivots' adjacency lists.
        payload = [(entry[0], entry[1], entry[2]) for entry in record["adj"]]
        for source_rank in requesters:
            ctx.async_call_sized(source_rank, handler, q, meta_q, payload)


# ---------------------------------------------------------------------------
# Delta: one sized RPC per (wedge, stream) over the batch's object views
# ---------------------------------------------------------------------------


class DeltaRecords:
    """The object views of an :class:`~repro.graph.delta.AppliedDelta`.

    ``edges`` are the accepted edge records ``(u, v, meta)``, ``(u, v)``
    canonical, and ``new_pairs`` their canonical unordered pairs — what the
    scalar delta drive tests candidates against.
    """

    def __init__(self, delta: AppliedDelta) -> None:
        self.delta = delta
        vertices = delta.row_column("row_vertices")
        self.edges: List[Tuple[Hashable, Hashable, Any]] = list(
            zip(
                vertices[delta.src_rows].tolist(),
                vertices[delta.dst_rows].tolist(),
                delta.edge_meta.tolist(),
            )
        )
        self.new_pairs = {(u, v) for u, v, _meta in self.edges}

    def is_new(self, u: Hashable, v: Hashable) -> bool:
        """True when the undirected edge (u, v) arrived in this batch."""
        return canonical_pair(u, v) in self.new_pairs

    def new_sources(self) -> set:
        """Vertices with at least one new *outgoing* directed edge in the DODGr.

        The directed form of a new undirected pair points from the
        ``<+``-smaller endpoint to the larger, so only the smaller endpoint
        can own a new entry.  Old-old wedges targeting any other vertex
        cannot close a delta triangle.
        """
        order_ids = self.delta.dodgr.order_ids()
        return {u if order_ids[u] < order_ids[v] else v for u, v, _meta in self.edges}

    def new_adjacency(self, rank: int) -> Dict[Hashable, List[Tuple[Any, int]]]:
        """Per-vertex new entries of rank ``rank``'s store.

        Maps each local vertex ``q`` with at least one new directed edge to
        the list of ``(adjacency entry, position in Adj^m_+(q))`` pairs of
        its new entries, in adjacency order.
        """
        out: Dict[Hashable, List[Tuple[Any, int]]] = {}
        for q, record in self.delta.dodgr.local_store(rank).items():
            filtered = [
                (entry, i) for i, entry in enumerate(record["adj"]) if self.is_new(q, entry[0])
            ]
            if filtered:
                out[q] = filtered
        return out


def drive_legacy_delta(
    ctx,
    dodgr: DODGraph,
    records: DeltaRecords,
    h_full,
    h_new,
    new_sources: set,
) -> None:
    """Per-wedge scalar drive of one rank's delta candidate streams."""
    store = dodgr.local_store(ctx)
    for p, record in store.items():
        adjacency = record["adj"]
        if len(adjacency) < 2:
            continue
        meta_p = record["meta"]
        new_flags = [records.is_new(p, entry[0]) for entry in adjacency]
        # suffix_new[i]: any new flag at position >= i (one reverse
        # pass; keeps quiet high-degree rows O(d), not O(d^2)).
        suffix_new = [False] * (len(adjacency) + 1)
        for j in range(len(adjacency) - 1, -1, -1):
            suffix_new[j] = suffix_new[j + 1] or new_flags[j]
        for i in range(len(adjacency) - 1):
            q, _d_q, meta_pq, _meta_q = adjacency[i]
            q_new = new_flags[i]
            q_has_new_out = q in new_sources
            if not q_new and not q_has_new_out and not suffix_new[i + 1]:
                continue
            full_c: List[tuple] = []
            new_c: List[tuple] = []
            for j in range(i + 1, len(adjacency)):
                entry = adjacency[j]
                candidate = (entry[0], entry[1], entry[2])
                if q_new or new_flags[j]:
                    full_c.append(candidate)
                elif q_has_new_out and records.is_new(q, entry[0]):
                    new_c.append(candidate)
            if full_c:
                ctx.async_call_sized(
                    dodgr.owner(q), h_full, q, p, meta_p, meta_pq, full_c
                )
            if new_c:
                ctx.async_call_sized(
                    dodgr.owner(q), h_new, q, p, meta_p, meta_pq, new_c
                )


# ---------------------------------------------------------------------------
# Program builders: what the registry maps ``engine="legacy"`` to
# ---------------------------------------------------------------------------


def _legacy_intersect(request: SurveyRequest, rows_by_rank=None):
    return make_legacy_intersect_handler(
        request.dodgr,
        INTERSECTION_KERNELS[request.kernel],
        request.callback,
        request.per_triangle_compute(),
        rows_by_rank,
    )


def build_legacy_push_program(request: SurveyRequest, spec) -> SurveyProgram:
    """The Push-Only survey, one RPC per wedge: one handler registration."""
    dodgr = request.dodgr
    handler = dodgr.world.register_handler(_legacy_intersect(request))

    def drive(ctx) -> None:
        drive_legacy_push(ctx, dodgr, handler)

    return SurveyProgram(
        algorithm="push", request=request, spec=spec, phases=[(request.phase_name, drive)]
    )


def build_legacy_push_pull_program(request: SurveyRequest, spec) -> SurveyProgram:
    """The Push-Pull survey over the record store: four handler registrations
    (propose, advise, intersect, pull), the production builder's first four."""
    dodgr = request.dodgr
    world = dodgr.world
    nranks = world.nranks
    # pivots_by_target[rank][q] = list of (pivot vertex, index of q in its adj)
    pivots_by_target: List[Dict[Any, List[Tuple[Any, int]]]] = [dict() for _ in range(nranks)]
    # push_targets[rank] = targets this rank was told to push to
    push_targets: List[set] = [set() for _ in range(nranks)]
    # pull_lists[rank][q] = source ranks that should receive Adj^m_+(q)
    pull_lists: List[Dict[Any, List[int]]] = [{} for _ in range(nranks)]

    def _propose_handler(ctx, q: Any, source_rank: int, candidate_count: int) -> None:
        """Owner of q decides: pull (remember source) or advise push."""
        record = dodgr.local_store(ctx).get(q)
        out_degree = len(record["adj"]) if record is not None else 0
        if record is not None and out_degree < candidate_count:
            pull_lists[ctx.rank].setdefault(q, []).append(source_rank)
        else:
            ctx.async_call_sized(source_rank, _advise_push_handler, q)

    def _advise_push_handler(ctx, q: Any) -> None:
        push_targets[ctx.rank].add(q)

    h_propose = world.register_handler(_propose_handler)
    world.register_handler(_advise_push_handler)
    h_intersect = world.register_handler(_legacy_intersect(request))
    h_pull_deliver = world.register_handler(
        make_legacy_pull_handler(
            dodgr,
            INTERSECTION_KERNELS[request.kernel],
            request.callback,
            request.per_triangle_compute(),
            pivots_by_target,
        )
    )

    def drive_dry_run(ctx) -> None:
        rank = ctx.rank
        candidate_totals: Dict[Any, int] = {}
        targets = pivots_by_target[rank]
        for p, record in dodgr.local_store(ctx).items():
            adjacency = record["adj"]
            if len(adjacency) < 2:
                continue
            for i in range(len(adjacency) - 1):
                q = adjacency[i][0]
                suffix_len = len(adjacency) - 1 - i
                targets.setdefault(q, []).append((p, i))
                if dodgr.owner(q) == rank:
                    # Local targets are always pushed (zero wire cost).
                    push_targets[rank].add(q)
                else:
                    candidate_totals[q] = candidate_totals.get(q, 0) + suffix_len
        for q, total in candidate_totals.items():
            ctx.async_call_sized(dodgr.owner(q), h_propose, q, rank, total)

    def drive_push_phase(ctx) -> None:
        drive_legacy_push(ctx, dodgr, h_intersect, allowed=push_targets[ctx.rank])

    def drive_pull_phase(ctx) -> None:
        drive_legacy_pull(ctx, dodgr, h_pull_deliver, pull_lists[ctx.rank])

    return SurveyProgram(
        algorithm="push_pull",
        request=request,
        spec=spec,
        phases=[
            (DRY_RUN_PHASE, drive_dry_run),
            (PUSH_PHASE, drive_push_phase),
            (PULL_PHASE, drive_pull_phase),
        ],
    )


def build_legacy_delta_program(request: SurveyRequest, spec, delta: AppliedDelta):
    """The delta survey of ``delta``, one RPC per (wedge, stream): two
    handler registrations (full check, then new check).  Returns the program
    and the function that releases its handlers."""
    dodgr = request.dodgr
    world = dodgr.world
    records = DeltaRecords(delta)
    # Precomputed, so mid-drive buffer flushes (which execute handlers)
    # never observe a partially built view.
    rows_by_rank = [
        {q: [entry for entry, _pos in rows] for q, rows in records.new_adjacency(rank).items()}
        for rank in range(world.nranks)
    ]
    h_full = world.register_handler(_legacy_intersect(request))
    h_new = world.register_handler(_legacy_intersect(request, rows_by_rank))
    new_sources = records.new_sources()

    def drive(ctx) -> None:
        drive_legacy_delta(ctx, dodgr, records, h_full, h_new, new_sources)

    def release() -> None:
        world.registry.release(h_full)
        world.registry.release(h_new)

    program = SurveyProgram(
        algorithm="incremental_push",
        request=request,
        spec=spec,
        phases=[(request.phase_name, drive)],
    )
    return program, release


#: The oracle's program builders, by program: what
#: :func:`repro.core.engine.registry.oracle_builder` hands the production
#: builders for ``engine="legacy"``.
LEGACY_BUILDERS = {
    "push": build_legacy_push_program,
    "push_pull": build_legacy_push_pull_program,
    "delta": build_legacy_delta_program,
}
