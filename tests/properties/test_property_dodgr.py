"""Property-based tests for DODGr construction invariants."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.backend.process as process_backend
from repro.core.engine import EngineConfig
from repro.core.push_pull import triangle_survey_push_pull
from repro.graph import (
    CyclicPartitioner,
    DeltaBuffer,
    DODGraph,
    DistributedGraph,
    HashPartitioner,
    rmat,
)
from repro.graph.columnar import HalfEdgeColumns
from repro.graph.degree import order_key
from repro.graph.edge_list import canonical_pair
from repro.graph.dodgr import CSRAdjacency, _value_sizes
from repro.graph.ooc import StorageConfig, active_segment_paths
from repro.oracle import DeltaRecords, load_records, record_view, routed_build
from repro.oracle.records import _VIEWS
from repro.runtime import World, active_segment_names
from repro.runtime.backend.shm import shared_memory_available


@st.composite
def simple_edge_sets(draw, max_vertices=20, max_edges=60):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=max_edges,
        )
    )
    return [(u, v) for u, v in raw if u != v]


@given(simple_edge_sets(), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_dodgr_orients_each_edge_exactly_once(edges, nranks):
    world = World(nranks)
    graph = DistributedGraph.from_edges(world, edges)
    dodgr = DODGraph.build(graph)
    undirected = {frozenset((u, v)) for u, v in edges}
    directed = list(record_view(dodgr).directed_edges())
    assert len(directed) == len(undirected)
    assert {frozenset(e) for e in directed} == undirected


@given(simple_edge_sets(), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_dodgr_respects_degree_order(edges, nranks):
    world = World(nranks)
    graph = DistributedGraph.from_edges(world, edges)
    degrees = graph.degrees()
    dodgr = DODGraph.build(graph)
    for u, v in record_view(dodgr).directed_edges():
        assert order_key(u, degrees[u]) < order_key(v, degrees[v])


@given(simple_edge_sets(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_routed_and_bulk_construction_agree(edges, nranks):
    world_a = World(nranks)
    bulk = DODGraph.build(DistributedGraph.from_edges(world_a, edges), mode="bulk")
    world_b = World(nranks)
    routed = routed_build(DistributedGraph.from_edges(world_b, edges))
    routed_edges = [
        (u, entry[0]) for store in routed for u, record in store.items() for entry in record["adj"]
    ]
    assert sorted(record_view(bulk).directed_edges()) == sorted(routed_edges)
    out_degrees = [len(record["adj"]) for store in routed for record in store.values()]
    assert bulk.wedge_count() == sum(d * (d - 1) // 2 for d in out_degrees)


@given(simple_edge_sets())
@settings(max_examples=40, deadline=None)
def test_wedge_count_invariant_under_partitioning(edges):
    counts = set()
    for nranks in (1, 3, 7):
        world = World(nranks)
        dodgr = DODGraph.build(DistributedGraph.from_edges(world, edges))
        counts.add(dodgr.wedge_count())
    assert len(counts) <= 1 or (len(counts) == 1)
    assert len(counts) == 1


# ---------------------------------------------------------------------------
# The equivalence contract over the column seam
# ---------------------------------------------------------------------------
#
# A graph loads three ways — the from_columns image and the oracle's
# flattened per-edge records, both through the bulk DODGr build, and the
# oracle's routed build of records over from_edges — and every
# object-shaped view (the oracle's records, entries and order_ids) is
# derived from the columns.  All of it must agree, value for value and in
# dict order.

EDGE_META_COLUMNS = {
    "float": st.floats(allow_nan=False),
    "int": st.integers(min_value=-(2**40), max_value=2**40),
    "bool": st.booleans(),
    "none": st.none(),
    "float_int_pair": st.tuples(st.floats(allow_nan=False), st.integers(0, 9)),
    "mixed": st.one_of(st.integers(0, 9), st.floats(allow_nan=False), st.text(max_size=3)),
    "untyped": st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
}

PARTITIONERS = {
    "hash": lambda nranks, n: HashPartitioner(nranks),
    "seeded_hash": lambda nranks, n: HashPartitioner(nranks, seed=42),
    "cyclic": lambda nranks, n: CyclicPartitioner(nranks),
}


@st.composite
def decorated_columns(draw, max_vertices=14, max_edges=40):
    """Endpoint columns with duplicates in both orientations and self loops,
    shared or per-edge metadata, and vertex metadata reaching past the
    endpoints (isolated vertices)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    kwargs = {}
    shape = draw(st.sampled_from(sorted(EDGE_META_COLUMNS)))
    if draw(st.booleans()):
        kwargs["edge_meta"] = draw(EDGE_META_COLUMNS[shape])
    else:
        kwargs["edge_metas"] = draw(
            st.lists(EDGE_META_COLUMNS[shape], min_size=len(pairs), max_size=len(pairs))
        )
    kwargs["vertex_meta"] = draw(
        st.dictionaries(st.integers(0, n + 3), st.one_of(st.none(), st.integers(0, 5)), max_size=6)
    )
    kwargs["default_vertex_meta"] = draw(st.sampled_from([None, "unlabelled"]))
    return n, us, vs, kwargs


def edge_records(us, vs, kwargs):
    metas = kwargs.get("edge_metas") or [kwargs.get("edge_meta")] * len(us)
    return list(zip(us, vs, metas))


def load_three_ways(n, us, vs, kwargs, nranks, partitioner):
    """(graph, dodgr) from the ``from_columns`` image and from the oracle's
    flattened per-edge records, and (graph, records) from the routed build
    over ``from_edges``."""
    placement = PARTITIONERS[partitioner](nranks, n + 4)
    load = dict(
        vertex_meta=kwargs["vertex_meta"],
        default_vertex_meta=kwargs["default_vertex_meta"],
        partitioner=placement,
    )
    worlds = [World(nranks) for _ in range(3)]
    # One column an array, one a list: both are accepted.
    image = DistributedGraph.from_columns(
        worlds[0], np.array(us, dtype=np.int64), vs, partitioner=placement, name="g", **kwargs
    )
    stores = load_records(worlds[1], edge_records(us, vs, kwargs), **load).graph("g")
    routed = DistributedGraph.from_edges(worlds[2], edge_records(us, vs, kwargs), name="g", **load)
    built = [
        (image, DODGraph.build(image, mode="bulk")),
        (stores, DODGraph.build(stores, mode="bulk")),
        (routed, routed_build(routed)),
    ]
    # A graph registers no handler; a DODGr (or the routed build) one.
    assert [len(world.registry) for world in worlds] == [1, 1, 1]
    return built


def assert_same_columns(csr_a, csr_b):
    for name in CSRAdjacency.COLUMNS:
        column_a, column_b = getattr(csr_a, name), getattr(csr_b, name)
        assert column_a.dtype == column_b.dtype, name
        assert column_a.tolist() == column_b.tolist(), name


def assert_same_views(dodgr_a, dodgr_b):
    """Records, entries and order_ids, dict insertion order included."""
    view_a, view_b = record_view(dodgr_a), record_view(dodgr_b)
    assert list(view_a.order_ids.items()) == list(view_b.order_ids.items())
    assert [list(store.items()) for store in view_a.stores] == [
        list(store.items()) for store in view_b.stores
    ]
    assert view_a.entries == view_b.entries


def assert_same_records(routed, dodgr):
    """The routed build's records == the DODGr's record view, in store order."""
    assert [list(store.items()) for store in routed] == [
        list(store.items()) for store in record_view(dodgr).stores
    ]


def assert_same_images(graph_a, graph_b):
    image_a, image_b = graph_a.half_edge_columns(), graph_b.half_edge_columns()
    for field in ("vertices", "vertex_meta", "rank_offsets", "degree", "tgt", "edge_meta"):
        column_a, column_b = getattr(image_a, field), getattr(image_b, field)
        assert column_a.dtype == column_b.dtype, field
        assert column_a.tolist() == column_b.tolist(), field


@given(
    decorated_columns(),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(sorted(PARTITIONERS)),
)
@settings(max_examples=120, deadline=None)
def test_columns_agree_across_the_three_origins(columns, nranks, partitioner):
    (image, from_image), (stores, from_stores), (_, routed) = load_three_ways(
        *columns, nranks, partitioner
    )
    for rank in range(nranks):
        assert_same_columns(from_image.csr(rank), from_stores.csr(rank))
    # Nothing object-shaped was needed to get here.
    assert from_image not in _VIEWS and from_stores not in _VIEWS
    # <+ ids against the definition, not against another build.
    degrees = stores.degrees()
    in_order = sorted(degrees, key=lambda v: order_key(v, degrees[v]))
    assert list(record_view(from_image).order_ids) == in_order
    assert_same_views(from_image, from_stores)
    assert_same_records(routed, from_image)
    assert_same_records(routed, from_stores)
    assert_same_images(image, stores)


@given(decorated_columns(), st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_mutation_after_from_columns_matches_from_edges(columns, nranks, data):
    n, us, vs, kwargs = columns
    image = DistributedGraph.from_columns(World(nranks), us, vs, **kwargs)
    stores = load_records(
        World(nranks),
        edge_records(us, vs, kwargs),
        vertex_meta=kwargs["vertex_meta"],
        default_vertex_meta=kwargs["default_vertex_meta"],
    ).graph()
    vertex = st.integers(min_value=0, max_value=n + 5)
    late = data.draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 3)), max_size=6))
    rebuilt = []
    for graph in (image, stores):
        delta = DeltaBuffer(graph.world)
        delta.stage_edges(late)
        delta.stage_vertex_meta(n + 9, "staged")
        rebuilt.append(delta.apply(graph).dodgr)
    assert_same_images(image, stores)
    for rank in range(nranks):
        assert_same_columns(rebuilt[0].csr(rank), rebuilt[1].csr(rank))


# ---------------------------------------------------------------------------
# DeltaBuffer.apply: random batch schedules against the per-edge merge
# ---------------------------------------------------------------------------
#
# apply() merges a batch into the graph's column image with array
# operations.  The oracle replays the per-edge loop that image must equal —
# canonical_pair + an adjacency lookup / add_edge, then the first-write-wins
# vertex metadata — on the oracle's record store, batch by batch.


def replay_per_edge(store, edges, vertex_meta):
    """Merge one batch edge by edge into ``store`` (a ``RecordStore``);
    returns the accepted ``(u, v, meta)`` records."""

    def record(vertex):
        return store.stores[store.partitioner.owner(vertex)].get(vertex)

    accepted, seen = [], set()
    for edge in edges:
        u, v, meta = edge[0], edge[1], None if len(edge) == 2 else edge[2]
        if u == v:
            continue
        pair = canonical_pair(u, v)
        if pair in seen or (record(pair[0]) is not None and pair[1] in record(pair[0])["adj"]):
            continue
        seen.add(pair)
        accepted.append((pair[0], pair[1], meta))
        store.add_edge(pair[0], pair[1], meta)
    for vertex, meta in vertex_meta.items():
        if record(vertex) is None or record(vertex)["meta"] is None:
            store.set_vertex_meta(vertex, meta)
    return accepted


#: Metadata types a batch may hold exclusively, in the order batches cycle them.
META_FAMILIES = (
    st.integers(0, 5),
    st.tuples(st.floats(0, 9), st.integers(0, 2)),
    st.none(),
    st.text(max_size=3),
)


@st.composite
def batch_schedules(draw):
    """A base graph and up to four batches over int or string ids.

    Batches repeat pairs within and across batches in both orientations,
    carry self loops and records without metadata, stage metadata on
    endpoints, on vertices no edge names yet and on vertices whose metadata
    is None, and may be empty; a ``has_edge`` read may precede any batch.
    Either every batch mixes metadata types, or each holds one type and the
    type changes from batch to batch (int, (float, int), None, str, ...), so
    per-batch metadata sizing meets the cold build's whole-column sizing.
    """
    ids = draw(st.sampled_from(["int", "str"]))
    n = draw(st.integers(min_value=1, max_value=10))
    name = (lambda i: i) if ids == "int" else (lambda i: f"v{i}")
    vertex = st.integers(min_value=0, max_value=n - 1).map(name)
    meta = st.one_of(st.none(), st.integers(0, 5), st.tuples(st.floats(0, 9), st.integers(0, 2)))
    mixed = st.one_of(st.tuples(vertex, vertex, meta), st.tuples(vertex, vertex))
    first_family = draw(st.one_of(st.none(), st.integers(0, len(META_FAMILIES) - 1)))
    base = draw(st.sampled_from(["empty", "from_edges"] + (["from_columns"] if ids == "int" else [])))
    base_edges = draw(st.lists(st.tuples(vertex, vertex, meta), max_size=12)) if base != "empty" else []
    batches = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        if first_family is None:
            record = mixed
        else:
            family = META_FAMILIES[(first_family + index) % len(META_FAMILIES)]
            record = st.tuples(vertex, vertex, family)
        batches.append(
            (
                draw(st.lists(record, max_size=12)),
                draw(
                    st.dictionaries(
                        st.integers(0, n + 2).map(name), st.one_of(st.none(), st.integers(0, 5)), max_size=4
                    )
                ),
                draw(st.sampled_from(["stage_edges", "stage_edge"] + (["stage_columns"] if ids == "int" else []))),
                draw(st.booleans()),  # read has_edge before this batch
            )
        )
    return base, base_edges, batches


def load_base(base, base_edges, nranks, partitioner, default_vertex_meta):
    placement = PARTITIONERS[partitioner](nranks, 16)
    kwargs = dict(partitioner=placement, default_vertex_meta=default_vertex_meta, name="g")
    world = World(nranks)
    if base == "records":  # the oracle's per-edge load
        del kwargs["name"]
        return load_records(world, base_edges, **kwargs)
    if base == "from_columns":
        us, vs, metas = (list(column) for column in zip(*base_edges)) if base_edges else ([], [], [])
        return DistributedGraph.from_columns(world, us, vs, edge_metas=metas, **kwargs)
    if base == "from_edges":
        return DistributedGraph.from_edges(world, base_edges, **kwargs)
    return DistributedGraph(world, **kwargs)


def stage(buffer, how, edges, vertex_meta):
    if how == "stage_edges":
        buffer.stage_edges(iter(edges))
    elif how == "stage_edge":
        for edge in edges:
            buffer.stage_edge(*edge)
    else:
        buffer.stage_columns(
            np.array([e[0] for e in edges], dtype=np.int64),
            [e[1] for e in edges],
            edge_metas=[None if len(e) == 2 else e[2] for e in edges],
        )
    for vertex, meta in vertex_meta.items():
        buffer.stage_vertex_meta(vertex, meta)


def numeric(meta):
    return meta[0] if isinstance(meta, tuple) else meta


def none_raises(meta):
    if meta is None:
        raise ValueError("no metadata")
    return 1.0


#: Extractors the memo-carry checks read: typed on int / (float, int)
#: batches, without an array form on None / str / mixed ones (``numeric``)
#: or raising on None (``none_raises``).
EXTRACTORS = (numeric, none_raises)


def array_form(values):
    """Whether ``values`` fill one typed memo array (the memo's rule)."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return not any(v != v for v in values)
    return kinds == {int} and all(-(2**62) < v < 2**62 for v in values)


def memo_arrays(memo):
    """Copies of ``memo``'s arrays by extractor (None without an array form)."""
    if memo is None:
        return None
    return {
        extract: None if values is None else values.copy()
        for extract, values in memo._by_extract.items()
    }


def assert_memo_kept(memo, arrays):
    """``memo`` still holds ``arrays`` (:func:`memo_arrays` of it), unchanged."""
    if memo is None:
        return
    assert memo.extractors() == list(arrays)
    for extract, values in arrays.items():
        held = memo._by_extract[extract]
        assert (held is None) == (values is None)
        if values is not None:
            np.testing.assert_array_equal(held, values)


def no_array_form(memo):
    """The extractors ``memo`` holds without an array form."""
    if memo is None:
        return set()
    return {extract for extract in memo.extractors() if memo._by_extract[extract] is None}


def holes(values):
    """Where a memo array is unfilled: NaN (float64) or int64 min (int64)."""
    return np.isnan(values) if values.dtype.kind == "f" else values == np.iinfo(np.int64).min


def assert_filled_slots_hold(memo, metas, lost):
    """Every filled slot of a memo just moved holds ``extract`` of its value,
    typed alike; extractors without an array form (``lost``) did not ride."""
    for extract in memo.extractors():
        assert extract not in lost
        values = memo._by_extract[extract]
        for slot in np.flatnonzero(~holes(values)).tolist():
            assert values[slot] == extract(metas[slot])
            assert type(values[slot].item()) is type(extract(metas[slot]))


def vertex_stamp(meta):
    """Typed on every vertex metadata a schedule makes (None, int, str)."""
    if meta is None:
        return 0.0
    return -1.0 if isinstance(meta, str) else float(meta)


class CountedStamp:
    """``vertex_stamp`` recording every metadata value it is called on."""

    def __init__(self):
        self.seen = []

    def __call__(self, meta):
        self.seen.append(meta)
        return vertex_stamp(meta)


def assert_read_equals_extract(read, extract, metas, fresh_and_lost):
    """A memo read against ``extract`` over the metadata it covers."""
    try:
        expected = [extract(meta) for meta in metas.tolist()]
    except ValueError:
        assert read is None
        return
    if read is not None:
        assert read.tolist() == expected
    # The first fill of a fresh memo types it: no earlier verdict.
    assert read is not None or not (fresh_and_lost and array_form(expected))


def assert_memo_carried(carried, kept, lost, image, applied):
    """The image's half-edge memo after an apply, then read half full.

    Every filled value is ``extract`` at its half edge; the previous image's
    memo still holds what it held before the apply (``kept``), so an older
    epoch reads it without extracting again; extractors without an array form
    (``lost``) did not ride forward, so a batch whose new edges have one
    reads typed arrays even though an earlier batch had none.
    """
    assert_memo_kept(carried, kept)
    assert_filled_slots_hold(image.edge_values, image.edge_meta.tolist(), lost)
    dodgr = applied.dodgr
    first_read = True
    for rank in range(dodgr.world.nranks):
        csr = dodgr.csr(rank)
        new = np.flatnonzero(applied.edge_mask(rank))
        for extract in EXTRACTORS:
            read = csr.extracted_values(extract, "edge", new)
            fresh_and_lost = first_read and extract in lost
            assert_read_equals_extract(read, extract, csr.edge_meta[new], fresh_and_lost)
        first_read = first_read and not new.size
    # Half the old edges too, so the next apply carries a partial fill.
    for rank in range(dodgr.world.nranks):
        csr = dodgr.csr(rank)
        csr.extracted_values(numeric, "edge", np.arange(0, csr.num_edges, 2))


def assert_vertex_memo_carried(carried, kept, lost, image, applied, unfilled, stamp):
    """The image's vertex memo after an apply, read in full by row and target.

    The previous image's memo still holds what it held before the apply
    (``kept``); row and target reads equal ``extract`` of ``row_meta`` /
    ``tgt_meta`` at every position; and ``stamp``, read in full before the
    apply, runs once on each vertex of ``unfilled`` — the new vertices and
    those whose metadata went from None to a staged value (0.0 before, the
    staged value now) — and on nothing else: a target reads its vertex's
    slot.
    """
    assert_memo_kept(carried, kept)
    assert_filled_slots_hold(image.vertex_values, image.vertex_meta.tolist(), lost)
    del stamp.seen[:]
    dodgr = applied.dodgr
    first_read = True
    for rank in range(dodgr.world.nranks):
        csr = dodgr.csr(rank)
        rows, edges = np.arange(csr.num_rows), np.arange(csr.num_edges)
        for extract in EXTRACTORS + (stamp,):
            truth = vertex_stamp if extract is stamp else extract
            read = csr.extracted_values(extract, "row", rows)
            assert_read_equals_extract(read, truth, csr.row_meta, first_read and extract in lost)
            read = csr.extracted_values(extract, "target", edges)
            assert_read_equals_extract(read, truth, csr.tgt_meta, False)
        first_read = first_read and not rows.size
    metas = dict(zip(image.vertices.tolist(), image.vertex_meta.tolist()))
    assert sorted(map(repr, stamp.seen)) == sorted(repr(metas[vertex]) for vertex in unfilled)


@given(
    batch_schedules(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(sorted(PARTITIONERS)),
    st.sampled_from([None, "unlabelled"]),
)
@settings(max_examples=150, deadline=None)
def test_apply_equals_the_per_edge_merge(schedule, nranks, partitioner, default_vertex_meta):
    base, base_edges, batches = schedule
    graph = load_base(base, base_edges, nranks, partitioner, default_vertex_meta)
    oracle = load_base("records", base_edges, nranks, partitioner, default_vertex_meta)
    buffer = DeltaBuffer(graph.world)
    stamp = CountedStamp()
    for index, (edges, vertex_meta, how, read_first) in enumerate(batches):
        if read_first and edges:
            graph.has_edge(edges[0][0], edges[0][1])
        stage(buffer, how, edges, vertex_meta)
        old_image = graph.half_edge_columns()
        carried, carried_vertex = old_image.edge_values, old_image.vertex_values
        lost, lost_vertex = no_array_form(carried), no_array_form(carried_vertex)
        kept, kept_vertex = memo_arrays(carried), memo_arrays(carried_vertex)
        old_metas = dict(zip(old_image.vertices.tolist(), old_image.vertex_meta.tolist()))
        stamped = carried_vertex is not None and stamp in carried_vertex.extractors()
        applied = buffer.apply(graph)
        accepted = replay_per_edge(oracle, edges, vertex_meta)
        want = DODGraph.build(oracle.graph(), name=f"oracle@{index}")
        got_image, want_image = graph.half_edge_columns(), oracle.columns()
        assert_memo_carried(carried, kept, lost, got_image, applied)
        unfilled = [
            vertex
            for vertex in got_image.vertices.tolist()
            if not stamped
            or vertex not in old_metas
            or (vertex in vertex_meta and old_metas[vertex] is None)
        ]
        assert_vertex_memo_carried(
            carried_vertex, kept_vertex, lost_vertex, got_image, applied, unfilled, stamp
        )
        for column in HalfEdgeColumns._fields:
            got_column, want_column = getattr(got_image, column), getattr(want_image, column)
            if column in ("edge_values", "vertex_values"):  # a flattened image carries no memo
                slots = len(got_image.tgt if column == "edge_values" else got_image.vertices)
                assert want_column is None and got_column.size == slots
                continue
            if column == "edge_meta_sizes":  # the oracle's flattened image carries none
                want_column = _value_sizes(want_image.edge_meta)
            assert got_column.dtype == want_column.dtype, column
            assert got_column.tolist() == want_column.tolist(), column
        for rank in range(nranks):
            assert_same_columns(applied.dodgr.csr(rank), want.csr(rank))
        # The new-edge description, against the oracle's order_ids and pairs.
        pairs = {(u, v) for u, v, _ in accepted}
        order_ids, stride = record_view(want).order_ids, want.order_count()
        keys = sorted(
            min(order_ids[u], order_ids[v]) * stride + max(order_ids[u], order_ids[v])
            for u, v in pairs
        )
        assert applied.directed_edge_keys().tolist() == keys
        for rank in range(nranks):
            csr = want.csr(rank)
            sources = np.repeat(csr.row_vertices, np.diff(csr.indptr)).tolist()
            expected = [
                canonical_pair(u, v) in pairs for u, v in zip(sources, csr.tgt_vertex.tolist())
            ]
            assert applied.edge_mask(rank).tolist() == expected
        assert applied.dodgr not in _VIEWS
        records = DeltaRecords(applied)
        assert records.edges == accepted
        assert records.new_pairs == pairs
        assert applied.batch_index == index
        applied.dodgr.release()
        want.release()


OBJECT_ID_GRAPHS = {
    "strings": [(f"v{i}", f"v{(i * 5 + 2) % 17}", float(i)) for i in range(60)],
    "beyond_int64": [(2**70 + i, 2**70 + (i * 3 + 1) % 9, i) for i in range(40)],
    "tuples_and_ints": [((i % 5, "x"), (i * 7 + 1) % 11, None) for i in range(50)],
}


@pytest.mark.parametrize("ids", sorted(OBJECT_ID_GRAPHS))
def test_object_id_graphs_take_the_same_pipeline(ids):
    edges = OBJECT_ID_GRAPHS[ids]
    nranks = 3
    bulk = DODGraph.build(DistributedGraph.from_edges(World(nranks), edges), mode="bulk")
    routed = routed_build(DistributedGraph.from_edges(World(nranks), edges))
    for rank in range(nranks):
        assert bulk.csr(rank).row_vertices.dtype == object
    assert bulk not in _VIEWS
    assert_same_records(routed, bulk)
    if ids == "beyond_int64":  # from_columns relabels them: same graph
        graph = DistributedGraph.from_columns(
            World(nranks),
            [e[0] for e in edges],
            [e[1] for e in edges],
            edge_metas=[e[2] for e in edges],
        )
        assert graph.half_edge_columns().vertices.dtype == object
        from_columns = DODGraph.build(graph)
        for rank in range(nranks):
            assert_same_columns(from_columns.csr(rank), bulk.csr(rank))
        assert_same_records(routed, from_columns)


def test_mmap_storage_spills_the_same_seven_segments(tmp_path):
    dataset = rmat(8, edge_factor=8, seed=3)
    nranks = 4
    dodgr = DODGraph.build(dataset.to_distributed(World(nranks)))
    resident = [dodgr.csr(rank) for rank in range(nranks)]
    want = triangle_survey_push_pull(dodgr, None, engine="columnar")
    before = active_segment_paths()
    storage = StorageConfig(mode="mmap", directory=str(tmp_path))
    got = triangle_survey_push_pull(dodgr, None, engine=EngineConfig(storage=storage))
    assert (got.triangles, got.communication_bytes) == (want.triangles, want.communication_bytes)
    # The prebuilt snapshots were spilled in place: the six integer per-edge
    # columns (indptr among them) plus the composite-key array, 8 bytes each.
    assert [dodgr.csr(rank) for rank in range(nranks)] == resident
    segments = [
        path
        for path in sorted(active_segment_paths() - before)
        if not path.endswith("send_scratch.seg")  # the drives' staging area
    ]
    assert len(segments) == 7 * nranks
    # tgt_ids, tgt_owner, tgt_wire_sizes, tgt_vertex_wire and composite hold
    # one word per edge (an empty column still gets a one-word file),
    # cand_size_cumsum one more, indptr one per row plus one.
    assert sum(os.path.getsize(path) for path in segments) == 8 * sum(
        5 * max(csr.num_edges, 1) + (csr.num_edges + 1) + (csr.num_rows + 1)
        for csr in resident
    )
    assert dodgr not in _VIEWS
    # Back to resident: same objects again, columns read back, files gone.
    dodgr.configure_storage(None)
    assert active_segment_paths() == before and list(tmp_path.iterdir()) == []
    assert triangle_survey_push_pull(dodgr, None, engine="columnar").triangles == want.triangles
    dodgr.release()


@pytest.mark.skipif(not shared_memory_available(), reason="needs POSIX shared memory")
def test_process_backend_shares_the_prebuilt_snapshots(monkeypatch):
    dataset = rmat(8, edge_factor=8, seed=3)
    nranks = 4
    dodgr = DODGraph.build(dataset.to_distributed(World(nranks)))
    prebuilt = [dodgr.csr(rank) for rank in range(nranks)]
    shared = []
    original = process_backend._prewarm_shared

    def spy(dodgr, nranks):
        objects, ids = original(dodgr, nranks)
        shared.append(objects)
        return objects, ids

    monkeypatch.setattr(process_backend, "_prewarm_shared", spy)
    want = triangle_survey_push_pull(dodgr, None, engine="columnar")
    got = triangle_survey_push_pull(
        dodgr, None, engine=EngineConfig(backend="process", workers=2)
    )
    assert (got.triangles, got.communication_bytes) == (want.triangles, want.communication_bytes)
    # What the workers inherit over the fork is what the build produced.
    assert all(shared[0][("csr", rank)] is prebuilt[rank] for rank in range(nranks))
    assert active_segment_names() == frozenset()
    assert dodgr not in _VIEWS
