"""Columnar input validation: malformed endpoint columns fail loudly.

``validate_edge_columns`` guards both columnar ingestion paths
(``DistributedGraph.from_columns`` and ``DeltaBuffer.stage_columns``): a
float id column would otherwise truncate silently through ``int()``, and a
ragged or negative column would surface as a confusing partitioner error
deep inside the build.  Every rejection must name the offending column so
the error points at the caller's data, not the graph internals.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.graph import validate_edge_columns
from repro.graph.edge_list import int64_id_columns
from repro.graph.delta import DeltaBuffer
from repro.graph.distributed_graph import DistributedGraph
from repro.runtime.world import World


class TestValidColumns:
    def test_plain_lists_pass(self):
        validate_edge_columns([0, 1, 2], [1, 2, 0])

    def test_numpy_integer_columns_pass(self):
        validate_edge_columns(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 2, 0], dtype=np.int32),
        )

    def test_empty_columns_pass(self):
        validate_edge_columns([], [])
        validate_edge_columns(np.array([], dtype=np.int64), [])

    def test_numpy_scalars_in_lists_pass(self):
        validate_edge_columns([np.int64(3), np.int32(1)], [np.int64(0), 2])

    def test_matching_edge_metas_pass(self):
        validate_edge_columns([0, 1], [1, 2], edge_metas=["a", "b"])


class TestInt64Lane:
    """``int64_id_columns``: the shared step deciding int64 arrays vs object ids."""

    def test_in_range_columns_become_int64(self):
        us, vs = int64_id_columns([0, 2**63 - 1], np.array([1, 2], dtype=np.uint64))
        assert us.dtype == vs.dtype == np.int64
        assert us.tolist() == [0, 2**63 - 1] and vs.tolist() == [1, 2]

    @pytest.mark.parametrize(
        "column",
        [
            np.array([2**63, 1], dtype=np.uint64),  # would wrap, not raise
            np.array([2**64 - 1], dtype=np.uint64),
            [2**70, 1],  # Python ints: OverflowError on conversion
        ],
        ids=["uint64_2_63", "uint64_max", "python_int_2_70"],
    )
    def test_ids_beyond_int64_answer_none_in_either_column(self, column):
        small = [1] * len(column)
        assert int64_id_columns(column, small) is None
        assert int64_id_columns(small, column) is None

    def test_empty_unsigned_column_is_int64(self):
        us, vs = int64_id_columns(np.array([], dtype=np.uint64), [])
        assert us.dtype == vs.dtype == np.int64 and us.size == vs.size == 0


class TestRaggedColumns:
    def test_endpoint_length_mismatch_names_both_columns(self):
        with pytest.raises(ValueError, match="ragged") as excinfo:
            validate_edge_columns([0, 1, 2], [1, 2])
        message = str(excinfo.value)
        assert "'us'" in message and "'vs'" in message

    def test_edge_metas_length_mismatch(self):
        with pytest.raises(ValueError, match="edge_metas"):
            validate_edge_columns([0, 1], [1, 2], edge_metas=["only-one"])


class TestBadIds:
    def test_float_numpy_column_rejected(self):
        with pytest.raises(ValueError, match="non-integer dtype") as excinfo:
            validate_edge_columns(np.array([0.0, 1.5]), np.array([1, 2]))
        assert "'us'" in str(excinfo.value)

    def test_float_column_named_even_when_second(self):
        with pytest.raises(ValueError) as excinfo:
            validate_edge_columns(np.array([0, 1]), np.array([1.0, 2.0]))
        assert "'vs'" in str(excinfo.value)

    def test_negative_numpy_ids_rejected(self):
        with pytest.raises(ValueError, match="negative vertex ids"):
            validate_edge_columns(np.array([0, -3]), np.array([1, 2]))

    def test_float_list_coerces_and_is_rejected(self):
        # A plain list with a float entry coerces to a float64 array, so
        # the vectorized dtype check catches it before the per-entry scan.
        with pytest.raises(ValueError, match="non-integer dtype"):
            validate_edge_columns([0, 2.5], [1, 2])

    def test_float_entry_in_object_column_rejected(self):
        # Object columns fall back to the per-entry scan, which names the
        # offending entry's index and type.
        column = np.array([0, 2.5], dtype=object)
        with pytest.raises(ValueError, match="entry 1") as excinfo:
            validate_edge_columns(column, [1, 2])
        assert "float" in str(excinfo.value)

    def test_bool_entry_in_object_column_rejected(self):
        # bool is an int subclass; accepting it would silently map True -> 1.
        column = np.array([0, True], dtype=object)
        with pytest.raises(ValueError, match="bool"):
            validate_edge_columns(column, [1, 2])

    def test_negative_entry_in_object_column_rejected(self):
        us = np.array([0, 1], dtype=object)
        vs = np.array([1, -2], dtype=object)
        with pytest.raises(ValueError, match="negative vertex id at entry 1"):
            validate_edge_columns(us, vs)


class TestIngestionPaths:
    def test_from_columns_rejects_float_ids(self):
        world = World(4)
        with pytest.raises(ValueError, match="non-integer dtype"):
            DistributedGraph.from_columns(
                world, np.array([0.5, 1.5]), np.array([1, 2]), name="g"
            )

    def test_from_columns_keeps_unsigned_ids_beyond_int64_exact(self):
        # uint64 passes validation (integer dtype, min() >= 0); a cast to
        # int64 would wrap 2**63 + 5 to a negative id without raising.
        big = 2**63 + 5
        us = np.array([big, 1, 2], dtype=np.uint64)
        vs = np.array([1, 2, big], dtype=np.uint64)
        graph = DistributedGraph.from_columns(World(2), us, vs, name="g")
        assert sorted(graph.vertices()) == [1, 2, big]
        assert all(type(vertex) is int for vertex in graph.vertices())
        assert graph.has_edge(big, 1) and graph.has_edge(2, big)

    def test_stage_columns_rejects_before_staging(self):
        world = World(4)
        buffer = DeltaBuffer(world)
        with pytest.raises(ValueError, match="ragged"):
            buffer.stage_columns([0, 1, 2], [1, 2])
        assert buffer.pending_edges == 0

    def test_stage_columns_accepts_valid_columns(self):
        world = World(4)
        buffer = DeltaBuffer(world)
        buffer.stage_columns(
            np.array([0, 1, 2]), np.array([1, 2, 3]), edge_metas=[1.0, 2.0, 3.0]
        )
        assert buffer.pending_edges == 3
