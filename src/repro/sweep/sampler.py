"""Deterministic config sampling over world specs.

One :func:`~repro.graph.generators.generator_rng` stream (PCG64, seeded)
drives every draw, in a fixed field order, so the sampled configs for a
``(spec, n, seed)`` triple are bit-reproducible across machines — the same
contract the generators pin in ``tests/graph/test_generator_determinism.py``,
frozen for the sampler in ``tests/sweep/test_sampler_determinism.py``.

Draw order per config (part of the contract — reordering it is a breaking
change that moves every sweep row):

1. each entry of ``spec.params``, in declaration order;
2. the sweep-level axes in :meth:`WorldSpec.axis_fields` order
   (``nranks``, ``metadata_cardinality``, ``burstiness``, ``num_batches``,
   ``base_fraction``);
3. the per-config generator ``seed`` (one 31-bit draw).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Union

from ..graph.generators import generator_rng
from .worlds import WorldConfig, WorldSpec, get_world_spec

__all__ = ["sample_configs", "sample_space", "config_digest"]


def _resolve(spec: Union[str, WorldSpec]) -> WorldSpec:
    return get_world_spec(spec) if isinstance(spec, str) else spec


def sample_configs(
    spec: Union[str, WorldSpec], n: int, seed: int = 0
) -> List[WorldConfig]:
    """Draw ``n`` concrete configs from ``spec``'s parameter space."""
    spec = _resolve(spec)
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = generator_rng(seed)
    configs: List[WorldConfig] = []
    for index in range(n):
        params = tuple(
            (name, dist.sample(rng)) for name, dist in spec.params.items()
        )
        axes = {name: dist.sample(rng) for name, dist in spec.axis_fields()}
        configs.append(
            WorldConfig(
                spec=spec.name,
                generator=spec.generator,
                params=params,
                nranks=int(axes["nranks"]),
                metadata_cardinality=int(axes["metadata_cardinality"]),
                burstiness=float(axes["burstiness"]),
                num_batches=int(axes["num_batches"]),
                base_fraction=float(axes["base_fraction"]),
                seed=int(rng.integers(2**31 - 1)),
                index=index,
            )
        )
    return configs


def sample_space(
    specs: Sequence[Union[str, WorldSpec]], total: int, seed: int = 0
) -> List[WorldConfig]:
    """Spread ``total`` configs across ``specs`` (earlier specs take the
    remainder), sampling each spec with a seed derived from the master seed
    in spec order.  The flat result keeps spec grouping and per-spec index
    order, so row N of a sweep is the same config on every machine."""
    specs = [_resolve(spec) for spec in specs]
    if not specs:
        raise ValueError("sample_space needs at least one world spec")
    if total < 0:
        raise ValueError("total must be non-negative")
    rng = generator_rng(seed)
    spec_seeds = [int(rng.integers(2**31 - 1)) for _ in specs]
    base, remainder = divmod(total, len(specs))
    configs: List[WorldConfig] = []
    for position, (spec, spec_seed) in enumerate(zip(specs, spec_seeds)):
        count = base + (1 if position < remainder else 0)
        configs.extend(sample_configs(spec, count, seed=spec_seed))
    return configs


def config_digest(configs: Iterable[WorldConfig]) -> str:
    """16-hex digest over the canonical keys of ``configs``, order-sensitive.

    Frozen in ``tests/sweep/test_sampler_determinism.py``; a change means the
    sampler's draw sequence changed and every sweep artifact row moves with
    it — treat as a breaking change, not a refresh.
    """
    hasher = hashlib.sha256()
    for config in configs:
        hasher.update(config.canonical_key().encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]
