"""CSRAdjacency: the per-rank columns must mirror the routed records exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.columnar import VALUE_MEMO_EXTRACTORS
from repro.graph.degree import order_key
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dodgr import CSRAdjacency, DODGraph
from repro.graph.generators import GeneratedGraph, rmat
from repro.graph.metadata import edge_timestamp, temporal_edge_meta
from repro.oracle import entry_key, record_view, routed_build
from repro.oracle.codec import dumps
from repro.runtime.serialization import serialized_size
from repro.runtime.world import World


def build_dodgr(dataset, nranks):
    world = World(nranks)
    return DODGraph.build(dataset.to_distributed(world), mode="bulk")


def entries(csr):
    """The ``(v, d(v), meta(u, v), meta(v))`` tuples of ``csr``, by edge position."""
    return list(
        zip(
            csr.tgt_vertex.tolist(),
            csr.tgt_degree.tolist(),
            csr.edge_meta.tolist(),
            csr.tgt_meta.tolist(),
        )
    )


class TestCSRMirrorsRecords:
    def test_rows_cover_every_local_vertex(self, small_rmat):
        dodgr = build_dodgr(small_rmat, 4)
        routed = routed_build(small_rmat.to_distributed(World(4)))
        for rank in range(4):
            store, csr = routed[rank], dodgr.csr(rank)
            assert csr.row_vertices.tolist() == list(store)
            tuples = entries(csr)
            for row, record in enumerate(store.values()):
                lo, hi = csr.row_slice(row)
                assert tuples[lo:hi] == record["adj"]
                assert csr.row_meta[row] == record["meta"]
                assert csr.row_degree[row] == record["degree"]

    def test_edge_count_matches(self, small_rmat):
        dodgr = build_dodgr(small_rmat, 4)
        total = sum(dodgr.csr(rank).num_edges for rank in range(4))
        assert total == dodgr.num_directed_edges()

    def test_csr_is_a_lookup(self, small_er):
        """Built once by the build, never rebuilt or invalidated."""
        dodgr = build_dodgr(small_er, 2)
        before = [dodgr.csr(rank) for rank in range(2)]
        rows = dodgr.rows_by_order_id()
        dodgr.num_vertices(), dodgr.wedge_count(), dodgr.global_columns()
        assert [dodgr.csr(rank) for rank in range(2)] == before
        assert dodgr.rows_by_order_id() is rows


def dense_order_ranks(graph):
    """The scalar oracle of the order ids: each vertex's dense rank in
    ``sorted(vertices, key=<+)``, from the graph's own degrees."""
    degree = graph.degrees()
    in_order = sorted(degree, key=lambda v: order_key(v, degree[v]))
    return {vertex: k for k, vertex in enumerate(in_order)}


class TestOrderIds:
    def test_ids_are_dense_and_order_isomorphic(self, small_rmat):
        world = World(4)
        graph = small_rmat.to_distributed(world)
        order_ids = record_view(DODGraph.build(graph)).order_ids
        assert sorted(order_ids.values()) == list(range(len(order_ids)))
        # Ids must sort exactly like the <+ order key of each vertex.
        by_id = sorted(order_ids, key=order_ids.__getitem__)
        keys = [order_key(v, graph.degree(v)) for v in by_id]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ids_equal_the_scalar_oracle_on_rmat(self, seed):
        graph = rmat(8, edge_factor=8, seed=seed).to_distributed(World(5))
        dodgr = DODGraph.build(graph)
        want = dense_order_ranks(graph)
        assert record_view(dodgr).order_ids == want
        got = {
            vertex: order_id
            for rank in range(5)
            for vertex, order_id in zip(
                dodgr.csr(rank).row_vertices.tolist(), dodgr.csr(rank).row_order_ids.tolist()
            )
        }
        assert got == want

    def test_ids_equal_the_scalar_oracle_on_mixed_ids(self):
        edges = [(f"v{i % 7}", (i % 5, "t"), None) for i in range(30)]
        edges += [(2**70 + i % 4, f"v{i % 3}", i) for i in range(20)]
        edges += [(i % 6, 2**70 + i % 5, float(i)) for i in range(25)]
        graph = DistributedGraph.from_edges(World(5), edges)
        assert record_view(DODGraph.build(graph)).order_ids == dense_order_ranks(graph)

    def test_row_ids_sorted_ascending(self, small_rmat):
        dodgr = build_dodgr(small_rmat, 4)
        for rank in range(4):
            csr = dodgr.csr(rank)
            for row in range(csr.num_rows):
                ids = list(csr.row_ids(row))
                assert ids == sorted(ids)
                # Sorted identically to the record view's entry_key order.
                lo, hi = csr.row_slice(row)
                keys = [entry_key(e) for e in entries(csr)[lo:hi]]
                assert keys == sorted(keys)

    def test_owners_match_partitioner(self, small_er):
        dodgr = build_dodgr(small_er, 4)
        for rank in range(4):
            csr = dodgr.csr(rank)
            for pos, vertex in enumerate(csr.tgt_vertex.tolist()):
                assert csr.tgt_owner[pos] == dodgr.owner(vertex)


class TestWireSizePrecompute:
    def test_suffix_bytes_match_legacy_candidate_list(self, small_rmat):
        """cand_size_cumsum must reproduce dumps() of the legacy suffix list."""
        dodgr = build_dodgr(small_rmat, 4)
        checked = 0
        for rank in range(4):
            csr = dodgr.csr(rank)
            tuples = entries(csr)
            for row in range(min(csr.num_rows, 20)):
                lo, hi = csr.row_slice(row)
                for qpos in range(lo, hi - 1):
                    candidates = [(e[0], e[1], e[2]) for e in tuples[qpos + 1 : hi]]
                    # Legacy candidate list minus its 2 framing bytes
                    # (list tag + length prefix), which the survey driver
                    # accounts separately via uvarint_size.
                    assert csr.suffix_wire_bytes(qpos, hi) == len(dumps(candidates)) - 2
                    checked += 1
        assert checked > 50

    def test_row_and_target_sizes(self, small_er):
        dodgr = build_dodgr(small_er, 2)
        for rank in range(2):
            csr = dodgr.csr(rank)
            for row in range(csr.num_rows):
                vertex = csr.row_vertices[row]
                expected = len(dumps(vertex)) + len(dumps(csr.row_meta[row]))
                assert csr.row_wire_sizes[row] == expected
            for pos, entry in enumerate(entries(csr)):
                assert csr.tgt_wire_sizes[pos] == len(dumps(entry[0])) + len(
                    dumps(entry[2])
                )


#: (column, sized as one array expression?) — each recognised shape, then the
#: mixed and structured ones that must be rejected, not mis-sized.
SIZED_COLUMNS = {
    "float": ([0.5, -3.25, 1e300, float("inf")], True),
    "int": ([0, -1, 63, 64, 2**40, -(2**62), 2**63 - 1], True),
    "int_beyond_int64": ([1, 2**63], False),
    "none": ([None, None], True),
    "bool": ([True, False, True], True),
    "float_int_pair": ([temporal_edge_meta(1.5, 3), temporal_edge_meta(2e9, 2**33)], True),
    "nested_tuple": ([((1, 2.0), None), ((300, 4.0), None)], True),
    "empty_tuple": ([(), ()], True),
    "mixed_scalars": ([1, 2.0], False),
    "bool_and_int": ([True, 1], False),
    "mixed_arity": ([(1.0, 2), (1.0,)], False),
    "mixed_field": ([(1.0, 2), (1.0, "label")], False),
    "tuple_and_list": ([(1.0, 2), [1.0, 2]], False),
    "str": (["a", "bc"], False),
    "dict": ([{"timestamp": 1.0}, {"timestamp": 2.0}], False),
}


class TestVectorSizing:
    @pytest.mark.parametrize("shape", sorted(SIZED_COLUMNS))
    def test_vector_sizes_equal_scalar_sizes(self, shape):
        column, recognised = SIZED_COLUMNS[shape]
        sizes = CSRAdjacency._vector_value_sizes(column)
        assert (sizes is not None) == recognised
        if recognised:
            assert sizes.tolist() == [serialized_size(value) for value in column]
            assert sizes.tolist() == [len(dumps(value)) for value in column]

    @pytest.mark.parametrize("shape", sorted(SIZED_COLUMNS))
    def test_csr_wire_columns_equal_the_scalar_loop(self, shape, monkeypatch):
        """A CSR sized through the vector path == one sized value by value."""
        column, _recognised = SIZED_COLUMNS[shape]
        edges = [
            (u, v, column[(u + v) % len(column)])
            for u in range(9)
            for v in range(u + 1, 9)
        ]
        dataset = GeneratedGraph(name=shape, edges=edges)
        vector = build_dodgr(dataset, 2)
        monkeypatch.setattr(
            CSRAdjacency, "_vector_value_sizes", staticmethod(lambda values: None)
        )
        scalar = build_dodgr(dataset, 2)
        for rank in range(2):
            got, want = vector.csr(rank), scalar.csr(rank)
            assert got.tgt_wire_sizes.tolist() == want.tgt_wire_sizes.tolist()
            assert got.tgt_vertex_wire.tolist() == want.tgt_vertex_wire.tolist()
            assert got.cand_size_cumsum.tolist() == want.cand_size_cumsum.tolist()
            assert got.row_wire_sizes.tolist() == want.row_wire_sizes.tolist()


def temporal_clique(stamp_of, size=8):
    """A clique whose edge (u, v) carries ``stamp_of(u, v)``; vertex meta = id."""
    edges = [(u, v, stamp_of(u, v)) for u in range(size) for v in range(u + 1, size)]
    return GeneratedGraph(
        name="clique", edges=edges, vertex_meta={v: v for v in range(size)}
    )


def identity(meta):
    return meta


class TestExtractedValues:
    """The per-position value memo behind ``TriangleBatch.edge_values``."""

    @staticmethod
    def one_rank_csr(dataset):
        return build_dodgr(dataset, 1).csr(0)

    def test_float_values_are_float64_and_exact(self):
        csr = self.one_rank_csr(temporal_clique(lambda u, v: temporal_edge_meta(u + v / 7, u)))
        positions = np.arange(csr.num_edges, dtype=np.int64)[::-1]
        values = csr.extracted_values(edge_timestamp, "edge", positions)
        assert values.dtype == np.float64
        assert values.tolist() == [
            edge_timestamp(csr.edge_meta[pos]) for pos in positions.tolist()
        ]

    def test_int_values_are_int64_up_to_2_62(self):
        base = 2**62 - 100
        csr = self.one_rank_csr(temporal_clique(lambda u, v: base + 8 * u + v))
        positions = np.arange(csr.num_edges, dtype=np.int64)
        values = csr.extracted_values(identity, "edge", positions)
        assert values.dtype == np.int64
        assert values.tolist() == csr.edge_meta.tolist()
        rows = np.arange(csr.num_rows, dtype=np.int64)
        assert csr.extracted_values(identity, "row", rows).tolist() == csr.row_meta.tolist()
        targets = csr.extracted_values(identity, "target", positions)
        assert targets.tolist() == csr.tgt_meta.tolist()

    @pytest.mark.parametrize(
        "stamp_of",
        [
            lambda u, v: 2**62 + u,  # an int64 difference could overflow
            lambda u, v: -(2**62) - 1,
            lambda u, v: -(2**63),  # where abs() itself overflows
            lambda u, v: 2**64,  # beyond int64 altogether
            lambda u, v: float(u) if v % 2 else u,  # mixed int / float
            lambda u, v: bool(u % 2),
            lambda u, v: None,
            lambda u, v: f"{u}-{v}",
            lambda u, v: float("nan") if (u, v) == (2, 5) else 1.0,
        ],
        ids=["int_2_62", "int_minus_2_62", "int64_min", "int_2_64", "mixed", "bool", "none", "str", "nan"],
    )
    def test_values_without_an_exact_array_form(self, stamp_of):
        csr = self.one_rank_csr(temporal_clique(stamp_of))
        positions = np.arange(csr.num_edges, dtype=np.int64)
        assert csr.extracted_values(identity, "edge", positions) is None
        # ... and the verdict sticks for the snapshot's life.
        assert csr.extracted_values(identity, "edge", positions[:1]) is None

    def test_a_later_fill_of_another_type_retires_the_memo(self):
        csr = self.one_rank_csr(temporal_clique(lambda u, v: 1.5 if u else 7))
        is_float = np.array([meta.__class__ is float for meta in csr.edge_meta.tolist()])
        floats, ints = np.flatnonzero(is_float), np.flatnonzero(~is_float)
        assert csr.extracted_values(identity, "edge", floats).dtype == np.float64
        assert csr.extracted_values(identity, "edge", ints) is None
        assert csr.extracted_values(identity, "edge", floats) is None

    def test_unhashable_or_raising_extractors_have_no_array_form(self):
        csr = self.one_rank_csr(temporal_clique(lambda u, v: 1.0))
        positions = np.arange(csr.num_edges, dtype=np.int64)

        class Unhashable:
            __hash__ = None

            def __call__(self, meta):
                return meta

        assert csr.extracted_values(Unhashable(), "edge", positions) is None

        def raising(meta):
            raise KeyError("timestamp")

        assert csr.extracted_values(raising, "edge", positions) is None

    def test_fill_is_sparse_and_happens_once(self):
        csr = self.one_rank_csr(temporal_clique(lambda u, v: float(u * 8 + v)))
        seen = []

        def extract(meta):
            seen.append(meta)
            return meta

        touched = np.array([3, 5, 3, 9], dtype=np.int64)
        assert csr.extracted_values(extract, "edge", touched).tolist() == [
            csr.edge_meta[pos] for pos in touched.tolist()
        ]
        assert sorted(seen) == sorted({csr.edge_meta[pos] for pos in (3, 5, 9)})
        del seen[:]
        csr.extracted_values(extract, "edge", np.array([5, 9, 10], dtype=np.int64))
        assert seen == [csr.edge_meta[10]]

    def test_row_and_target_reads_share_one_slot_per_vertex(self):
        dodgr = build_dodgr(temporal_clique(lambda u, v: 1.0), 2)
        seen = []

        def extract(meta):
            seen.append(meta)
            return meta

        csrs = [dodgr.csr(rank) for rank in range(2)]
        for csr in csrs:
            edges = np.arange(csr.num_edges, dtype=np.int64)
            assert csr.extracted_values(extract, "target", edges).tolist() == csr.tgt_meta.tolist()
        targets = {meta for csr in csrs for meta in csr.tgt_meta.tolist()}
        in_edges = sum(csr.num_edges for csr in csrs)
        # Once per vertex, not once per in-edge.
        assert sorted(seen) == sorted(targets) and len(seen) < in_edges
        del seen[:]
        for csr in csrs:
            rows = np.arange(csr.num_rows, dtype=np.int64)
            assert csr.extracted_values(extract, "row", rows).tolist() == csr.row_meta.tolist()
        # The rows' reads find their targets' slots filled: only the vertex
        # no edge points at (the first in <+ order) is extracted.
        assert seen == sorted(set(range(8)) - targets) and len(seen) == 1
        assert csrs[0].value_columns["row"].memo is csrs[1].value_columns["target"].memo

    def test_an_empty_read_of_an_unfilled_memo_is_an_empty_array(self):
        csr = self.one_rank_csr(temporal_clique(lambda u, v: 1.0))
        nothing = np.empty(0, dtype=np.int64)
        for field in ("edge", "row", "target"):
            read = csr.extracted_values(identity, field, nothing)
            assert read is not None and read.size == 0, field
        assert csr.value_columns["edge"].memo.extractors() == []

    def test_memo_keeps_a_handful_of_extractors(self):
        csr = self.one_rank_csr(temporal_clique(lambda u, v: 1.0))
        positions = np.arange(csr.num_edges, dtype=np.int64)
        extractors = [
            (lambda meta, k=k: meta + k) for k in range(VALUE_MEMO_EXTRACTORS + 2)
        ]
        for k, extract in enumerate(extractors):
            assert csr.extracted_values(extract, "edge", positions).tolist() == [
                1.0 + k
            ] * csr.num_edges
        assert csr.value_columns["edge"].memo.extractors() == extractors[2:]

    def test_memo_dies_with_the_snapshot(self, small_er):
        dodgr = build_dodgr(small_er, 2)
        before = dodgr.csr(0)
        before.extracted_values(float, "edge", np.arange(before.num_edges))
        assert float in before.value_columns["edge"].memo.extractors()
        dodgr.release()
        assert before.value_columns is None
        assert build_dodgr(small_er, 2).csr(0).value_columns["edge"].memo.extractors() == []
