"""World-spec layer: distributions, registry, decoration, batch schedules."""

from __future__ import annotations

import pytest

from repro.graph.generators import generator_rng
from repro.graph.metadata import edge_timestamp
from repro.sweep import (
    Choice,
    Fixed,
    FloatRange,
    IntRange,
    WorldConfig,
    WorldSpec,
    decorated_edges,
    degenerate_world_configs,
    get_world_spec,
    register_world_spec,
    sample_configs,
    streaming_batches,
    world_spec_names,
)
from repro.sweep.worlds import WORLD_SPECS, build_graph


class TestDistributions:
    def test_float_range_bounds(self):
        rng = generator_rng(0)
        dist = FloatRange(0.25, 0.75)
        draws = [dist.sample(rng) for _ in range(200)]
        assert all(0.25 <= value <= 0.75 for value in draws)
        assert len(set(draws)) > 1

    def test_int_range_inclusive(self):
        rng = generator_rng(0)
        dist = IntRange(1, 3)
        draws = {dist.sample(rng) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_choice_draws_only_members(self):
        rng = generator_rng(0)
        dist = Choice(("a", "b"))
        assert {dist.sample(rng) for _ in range(50)} == {"a", "b"}

    def test_fixed_consumes_no_randomness(self):
        rng_a, rng_b = generator_rng(3), generator_rng(3)
        Fixed(42).sample(rng_a)
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_describe(self):
        assert FloatRange(0.0, 1.0).describe() == "uniform[0.0, 1.0]"
        assert IntRange(1, 4).describe() == "int[1, 4]"
        assert Fixed(0.5).describe() == "fixed(0.5)"


class TestSpecRegistry:
    def test_builtin_specs_registered(self):
        assert set(world_spec_names()) >= {"rmat", "erdos-renyi", "chung-lu", "metadata"}

    def test_get_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown world spec"):
            get_world_spec("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_world_spec("rmat")
        with pytest.raises(ValueError, match="already registered"):
            register_world_spec(spec)

    def test_replace_allows_shadowing(self):
        original = get_world_spec("rmat")
        try:
            shadow = WorldSpec(
                name="rmat", generator="rmat", description="shadow", params={}
            )
            assert register_world_spec(shadow, replace=True) is shadow
            assert get_world_spec("rmat") is shadow
        finally:
            WORLD_SPECS["rmat"] = original


class TestBuildGraph:
    def test_unknown_generator_raises(self):
        config = WorldConfig(
            spec="x", generator="not-a-generator", params=(), nranks=1,
            metadata_cardinality=1, burstiness=0.0, num_batches=1,
            base_fraction=0.5, seed=0,
        )
        with pytest.raises(ValueError, match="unknown generator"):
            build_graph(config)

    def test_sampled_configs_build(self):
        for name in world_spec_names():
            config = sample_configs(name, 1, seed=0)[0]
            graph = build_graph(config)
            assert graph.edges is not None

    def test_rmat_skew_always_valid(self):
        """Every sampled rmat `a` must leave d = 1 - a - b - c >= 0."""
        for config in sample_configs("rmat", 25, seed=3):
            build_graph(config)  # raises if the quadrant skew is invalid


class TestDecoration:
    @pytest.fixture()
    def config(self):
        return sample_configs("erdos-renyi", 1, seed=0)[0]

    def test_deterministic(self, config):
        assert decorated_edges(config) == decorated_edges(config)

    def test_edge_set_preserved(self, config):
        graph = build_graph(config)
        edges, _meta = decorated_edges(config, graph=graph)
        original = {frozenset((u, v)) for u, v, _ in graph.edges}
        decorated = {frozenset((u, v)) for u, v, _ in edges}
        assert decorated == original

    def test_timestamps_increase(self, config):
        edges, _meta = decorated_edges(config)
        times = [edge_timestamp(meta) for _u, _v, meta in edges]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_labels_within_cardinality(self, config):
        edges, vertex_meta = decorated_edges(config)
        labels = {meta[1] for _u, _v, meta in edges}
        assert labels <= set(range(config.metadata_cardinality))
        assert all(
            value.startswith("label-") for value in vertex_meta.values()
        )

    def test_every_endpoint_has_vertex_meta(self, config):
        edges, vertex_meta = decorated_edges(config)
        endpoints = {u for u, _v, _ in edges} | {v for _u, v, _ in edges}
        assert endpoints <= set(vertex_meta)


class TestStreamingBatches:
    def test_partition_is_exact(self):
        for name in world_spec_names():
            config = sample_configs(name, 1, seed=1)[0]
            edges, _meta = decorated_edges(config)
            batches = streaming_batches(config, edges)
            flattened = [edge for batch in batches for edge in batch]
            assert flattened == list(edges)
            assert all(batch for batch in batches)

    def test_empty_stream(self):
        config = degenerate_world_configs()[0]  # empty world
        edges, _meta = decorated_edges(config)
        assert edges == []
        assert streaming_batches(config, edges) == []

    def test_all_new_delta_has_no_base(self):
        config = next(
            c for c in degenerate_world_configs() if c.spec == "degenerate-all-new-delta"
        )
        assert config.base_fraction == 0.0
        edges, _meta = decorated_edges(config)
        batches = streaming_batches(config, edges)
        assert len(batches) == 1
        assert batches[0] == list(edges)


class TestWorldConfigIdentity:
    def test_config_id_stable(self):
        config = sample_configs("rmat", 1, seed=0)[0]
        assert config.config_id() == config.config_id()
        assert len(config.config_id()) == 12

    def test_config_id_distinguishes_seeds(self):
        a = sample_configs("rmat", 1, seed=1)[0]
        b = sample_configs("rmat", 1, seed=2)[0]
        assert a.config_id() != b.config_id()

    def test_label_names_spec_and_id(self):
        config = sample_configs("chung-lu", 1, seed=0)[0]
        assert config.label().startswith("chung-lu#0:")
