"""End-to-end parity: coalesced surveys vs the legacy per-wedge path.

The columnar engine's contract is *observational equivalence*: on the same
graph and world shape it must produce identical triangle counts, identical
callback invocations, and identical communication/compute accounting — per
rank and per phase — while only the host wall-clock changes, although it
coalesces one RPC per rank pair, coalesces pull deliveries and hands
reducers TriangleBatch columns.  Every parity case here runs on both survey
algorithms, all three kernels, every kernel tier the columnar engine
declares (``compiled`` downgrades where no C compiler built it), and against
the NetworkX oracle.
"""

from __future__ import annotations

import pytest

from repro.baselines.networkx_ref import triangle_count_nx
from repro.core.engine import EngineConfig
from repro.core.intersection import KERNEL_TIERS
from repro.core.push_pull import triangle_survey
from repro.core.survey import triangle_survey_push
from repro.graph.dodgr import DODGraph
from repro.graph.generators import GeneratedGraph
from repro.runtime.world import World


def path_graph(n: int) -> GeneratedGraph:
    """A triangle-free path graph with per-edge metadata."""
    edges = [(i, i + 1, float(i)) for i in range(n - 1)]
    return GeneratedGraph(name=f"path_{n}", edges=edges)


def run_survey(
    dataset, nranks, algorithm, engine, kernel="merge_path", kernel_tier=None
):
    """Fresh world + DODGr + survey; returns (report, callbacks, stats)."""
    world = World(nranks)
    graph = dataset.to_distributed(world)
    dodgr = DODGraph.build(graph, mode="bulk")
    invocations = []

    def callback(ctx, tri):
        invocations.append(
            (
                tri.p, tri.q, tri.r,
                repr(tri.meta_p), repr(tri.meta_q), repr(tri.meta_r),
                repr(tri.meta_pq), repr(tri.meta_pr), repr(tri.meta_qr),
                ctx.rank,
            )
        )

    report = triangle_survey(
        dodgr,
        callback,
        algorithm,
        engine=EngineConfig(engine=engine, kernel=kernel, kernel_tier=kernel_tier),
    )
    return report, sorted(invocations), stats_snapshot(world, report.phases)


def stats_snapshot(world, phases):
    """Every counter of every rank in every phase, as a comparable dict."""
    snapshot = {}
    for name in phases:
        for rank_stats in world.stats.ranks:
            phase = rank_stats.phases.get(name)
            if phase is None:
                continue
            snapshot[(name, rank_stats.rank)] = (
                phase.bytes_sent_remote,
                phase.bytes_sent_local,
                phase.rpcs_sent,
                phase.rpcs_executed,
                phase.wire_messages,
                phase.wire_bytes,
                phase.bytes_received,
                phase.compute_units,
                dict(phase.app_counters),
            )
    return snapshot


@pytest.mark.parametrize("kernel_tier", KERNEL_TIERS)
@pytest.mark.parametrize("algorithm", ["push", "push_pull"])
class TestCoalescedMatchesLegacy:
    @pytest.fixture(autouse=True)
    def _tier(self, kernel_tier):
        self.kernel_tier = kernel_tier

    def assert_equivalent(self, dataset, nranks, algorithm, kernel="merge_path"):
        legacy = run_survey(dataset, nranks, algorithm, engine="legacy", kernel=kernel)
        coalesced = run_survey(
            dataset,
            nranks,
            algorithm,
            engine="columnar",
            kernel=kernel,
            kernel_tier=self.kernel_tier,
        )
        assert coalesced[0].triangles == legacy[0].triangles
        assert coalesced[1] == legacy[1], "callback invocations differ"
        assert coalesced[2] == legacy[2], "per-rank per-phase accounting differs"
        assert coalesced[0].communication_bytes == legacy[0].communication_bytes
        assert coalesced[0].wire_messages == legacy[0].wire_messages
        assert coalesced[0].wedge_checks == legacy[0].wedge_checks
        assert coalesced[0].simulated_seconds == pytest.approx(legacy[0].simulated_seconds)

    def test_rmat_fixture(self, small_rmat, algorithm):
        self.assert_equivalent(small_rmat, 4, algorithm)

    def test_erdos_renyi_fixture(self, small_er, algorithm):
        self.assert_equivalent(small_er, 4, algorithm)

    def test_single_rank_world(self, small_er, algorithm):
        self.assert_equivalent(small_er, 1, algorithm)

    def test_many_ranks(self, small_rmat, algorithm):
        self.assert_equivalent(small_rmat, 13, algorithm)

    @pytest.mark.parametrize("kernel", ["hash", "binary_search"])
    def test_alternate_kernels(self, small_er, algorithm, kernel):
        self.assert_equivalent(small_er, 4, algorithm, kernel=kernel)

    def test_triangle_free_graph(self, algorithm):
        path = path_graph(30)
        self.assert_equivalent(path, 4, algorithm)
        report, invocations, _ = run_survey(
            path, 4, algorithm, engine="columnar", kernel_tier=self.kernel_tier
        )
        assert report.triangles == 0
        assert invocations == []


class TestColumnarAgainstOracle:
    @pytest.mark.parametrize("kernel_tier", KERNEL_TIERS)
    @pytest.mark.parametrize("nranks", [1, 4, 8])
    def test_push_matches_networkx(self, small_rmat, nranks, kernel_tier):
        expected = triangle_count_nx((u, v) for u, v, _ in small_rmat.edges)
        report, _, _ = run_survey(
            small_rmat, nranks, "push", engine="columnar", kernel_tier=kernel_tier
        )
        assert report.triangles == expected

    @pytest.mark.parametrize("kernel_tier", KERNEL_TIERS)
    def test_dispatcher_matches_networkx(self, small_er, kernel_tier):
        expected = triangle_count_nx((u, v) for u, v, _ in small_er.edges)
        world = World(4)
        dodgr = DODGraph.build(small_er.to_distributed(world), mode="bulk")
        report = triangle_survey(
            dodgr,
            algorithm="push_pull",
            engine=EngineConfig(engine="columnar", kernel_tier=kernel_tier),
        )
        assert report.triangles == expected

    def test_runs_reuse_same_dodgr(self, small_er):
        # The CSR snapshot is cached on the DODGr; repeated surveys on any
        # engine (and interleaved legacy ones) over the same structure must
        # agree.
        expected = triangle_count_nx((u, v) for u, v, _ in small_er.edges)
        world = World(4)
        dodgr = DODGraph.build(small_er.to_distributed(world), mode="bulk")
        for engine in ("columnar", "legacy", "columnar", "legacy", "columnar"):
            report = triangle_survey_push(dodgr, engine=engine)
            assert report.triangles == expected


class TestRpcSendingCallbacks:
    """Contract bound: callbacks that send RPCs mid-survey.

    Coalescing changes *when* handlers run inside the barrier, so messages a
    callback sends can land in different flush windows than in a legacy run.
    The contract (documented on ``RankContext.async_call_batched``) is:
    every total — triangles, callback invocations and their side effects,
    RPC counts, payload bytes sent/received, compute units — still matches
    exactly; only the split of those payload bytes into wire messages (and
    therefore the per-flush envelope component of ``wire_bytes``) may
    differ.
    """

    def run_with_forwarding_callback(self, dataset, engine):
        """``engine`` is a name or an :class:`EngineConfig`."""
        from repro.runtime.message_buffer import WIRE_ENVELOPE_BYTES

        world = World(4, flush_threshold_bytes=256)
        dodgr = DODGraph.build(dataset.to_distributed(world), mode="bulk")
        tallies = [0] * world.nranks

        def remote_count(ctx, vertex):
            tallies[ctx.rank] += 1

        handle = world.register_handler(remote_count)

        def callback(ctx, tri):
            ctx.async_call(ctx.owner_of(tri.r), handle, tri.r)

        report = triangle_survey_push(dodgr, callback, engine=engine)
        total = world.stats.total()
        invariants = (
            report.triangles,
            tuple(tallies),
            total.rpcs_sent,
            total.rpcs_executed,
            total.bytes_sent_remote,
            total.bytes_sent_local,
            total.bytes_received,
            total.compute_units,
            # Payload volume on the wire, independent of the flush split.
            total.wire_bytes - WIRE_ENVELOPE_BYTES * total.wire_messages,
        )
        return invariants

    @pytest.mark.parametrize("kernel_tier", KERNEL_TIERS)
    def test_all_totals_match_even_when_callback_sends(self, small_er, kernel_tier):
        legacy = self.run_with_forwarding_callback(small_er, engine="legacy")
        coalesced = self.run_with_forwarding_callback(
            small_er, engine=EngineConfig(engine="columnar", kernel_tier=kernel_tier)
        )
        assert coalesced == legacy


def test_path_graph_helper():
    # Guard for the helper used above: a path graph has no triangles.
    assert len(path_graph(5).edges) == 4
    assert triangle_count_nx((u, v) for u, v, _ in path_graph(5).edges) == 0
