"""Parameterized graph worlds: the declarative half of the scenario sweep.

Every perf and parity gate before this subsystem ran on a single rmat-weak
point.  Following the GraphWorld methodology (parameterized generator
"worlds", sampled configs, one tabular result artifact), a *world spec*
declares a region of generator parameter space — degree skew, density,
clustering, temporal burstiness, metadata cardinality, rank count — and the
sampler (:mod:`repro.sweep.sampler`) draws concrete :class:`WorldConfig`
points from it.  The runner (:mod:`repro.sweep.runner`) then executes every
registered engine on every sampled point.

Three layers:

* :class:`FloatRange` / :class:`IntRange` / :class:`Choice` / :class:`Fixed`
  — parameter distributions, each with a ``sample(rng)`` drawing from the
  single seeded :class:`numpy.random.Generator` stream (no wall-clock
  randomness anywhere — see :func:`repro.graph.generators.generator_rng`);
* :class:`WorldSpec` — a named declarative region: which generator, which
  parameter ranges, plus the sweep-level axes shared by every world
  (``nranks``, ``metadata_cardinality``, temporal ``burstiness`` and the
  :class:`~repro.graph.delta.DeltaBuffer` batch schedule shape);
* :class:`WorldConfig` — one sampled point, fully concrete and hashable to
  a stable :meth:`~WorldConfig.config_id` so sweep rows are joinable across
  machines and runs.

The module also materializes configs into survey inputs: a generated graph
(:func:`build_graph`), temporally-decorated edge records with label metadata
(:func:`decorated_edges`) and a burstiness-shaped streaming batch schedule
(:func:`streaming_batches`).  Degenerate worlds — empty graph, single
vertex, single rank, duplicate/self-loop-heavy edge columns, an all-new-
edges delta — ship as :func:`degenerate_world_configs` so the runner and the
edge-case suites exercise exactly the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.generators import (
    GeneratedGraph,
    chung_lu_power_law,
    erdos_renyi,
    generator_rng,
    rmat,
)
from ..graph.metadata import temporal_edge_meta

__all__ = [
    "FloatRange",
    "IntRange",
    "Choice",
    "Fixed",
    "WorldSpec",
    "WorldConfig",
    "world_spec_names",
    "get_world_spec",
    "register_world_spec",
    "decorated_edges",
    "streaming_batches",
    "degenerate_world_configs",
]


# ---------------------------------------------------------------------------
# Parameter distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloatRange:
    """Uniform float in ``[low, high]``."""

    low: float
    high: float

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def describe(self) -> str:
        return f"uniform[{self.low}, {self.high}]"


@dataclass(frozen=True)
class IntRange:
    """Uniform integer in ``[low, high]`` (both inclusive)."""

    low: int
    high: int

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def describe(self) -> str:
        return f"int[{self.low}, {self.high}]"


@dataclass(frozen=True)
class Choice:
    """Uniform draw from a fixed tuple of values."""

    values: Tuple[Any, ...]

    def sample(self, rng: np.random.Generator) -> Any:
        return self.values[int(rng.integers(len(self.values)))]

    def describe(self) -> str:
        return f"choice{list(self.values)!r}"


@dataclass(frozen=True)
class Fixed:
    """A degenerate distribution: always ``value`` (consumes no randomness)."""

    value: Any

    def sample(self, rng: np.random.Generator) -> Any:
        return self.value

    def describe(self) -> str:
        return f"fixed({self.value!r})"


# ---------------------------------------------------------------------------
# Spec and sampled config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorldSpec:
    """A named region of generator parameter space, declared as data.

    ``params`` holds the generator's own keyword ranges (sampled in
    declaration order — the order is part of the determinism contract, see
    ``tests/sweep/test_sampler_determinism.py``).  The remaining fields are
    the sweep-level axes every world shares:

    * ``nranks`` — simulated rank count of the :class:`~repro.runtime.World`;
    * ``metadata_cardinality`` — number of distinct vertex/edge label values
      planted by :func:`decorated_edges`;
    * ``burstiness`` — 0 (steady clock) … 1 (heavy-tailed bursts): shapes
      both the edge timestamps and the delta-batch size skew;
    * ``num_batches`` / ``base_fraction`` — the
      :class:`~repro.graph.delta.DeltaBuffer` schedule: how many delta
      batches follow the bulk base load, and how big the base is
      (``base_fraction=0`` makes the first delta an all-new-edges batch).
    """

    name: str
    generator: str
    description: str
    params: Dict[str, Any] = field(default_factory=dict)
    nranks: Any = IntRange(1, 4)
    metadata_cardinality: Any = IntRange(2, 8)
    burstiness: Any = FloatRange(0.0, 1.0)
    num_batches: Any = IntRange(2, 4)
    base_fraction: Any = Fixed(0.5)

    def axis_fields(self) -> Tuple[Tuple[str, Any], ...]:
        """The sweep-level axes, in the fixed sampling order."""
        return (
            ("nranks", self.nranks),
            ("metadata_cardinality", self.metadata_cardinality),
            ("burstiness", self.burstiness),
            ("num_batches", self.num_batches),
            ("base_fraction", self.base_fraction),
        )


@dataclass(frozen=True)
class WorldConfig:
    """One fully-sampled point of a :class:`WorldSpec`.

    Every field is concrete; ``seed`` is the per-config generator seed the
    sampler drew, so rebuilding the graph/decoration/schedule from a config
    is bit-reproducible with no reference to the spec or the sampler state.
    """

    spec: str
    generator: str
    params: Tuple[Tuple[str, Any], ...]
    nranks: int
    metadata_cardinality: int
    burstiness: float
    num_batches: int
    base_fraction: float
    seed: int
    index: int = 0

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def canonical_key(self) -> str:
        """A stable textual identity (machine-independent repr)."""
        return repr(
            (
                self.spec,
                self.generator,
                self.params,
                self.nranks,
                self.metadata_cardinality,
                round(self.burstiness, 12),
                self.num_batches,
                round(self.base_fraction, 12),
                self.seed,
            )
        )

    def config_id(self) -> str:
        """12-hex digest identifying this config in sweep rows."""
        return hashlib.sha256(self.canonical_key().encode()).hexdigest()[:12]

    def label(self) -> str:
        return f"{self.spec}#{self.index}:{self.config_id()}"


# ---------------------------------------------------------------------------
# Built-in world specs (the default sweep space)
# ---------------------------------------------------------------------------

#: Registration-ordered spec table, mirroring the engine registry idiom.
WORLD_SPECS: Dict[str, WorldSpec] = {}


def register_world_spec(spec: WorldSpec, replace: bool = False) -> WorldSpec:
    """Register ``spec`` under its name (``replace=True`` to shadow)."""
    if not replace and spec.name in WORLD_SPECS:
        raise ValueError(f"world spec {spec.name!r} is already registered")
    WORLD_SPECS[spec.name] = spec
    return spec


def world_spec_names() -> Tuple[str, ...]:
    """Registered world-spec names, in registration order."""
    return tuple(WORLD_SPECS)


def get_world_spec(name: str) -> WorldSpec:
    spec = WORLD_SPECS.get(name)
    if spec is None:
        raise ValueError(f"unknown world spec {name!r}; known: {world_spec_names()}")
    return spec


register_world_spec(
    WorldSpec(
        name="rmat",
        generator="rmat",
        description=(
            "R-MAT recursive-matrix graphs (the paper's weak-scaling "
            "workload) with varying scale, edge factor and quadrant skew."
        ),
        params={
            "scale": IntRange(3, 6),
            "edge_factor": IntRange(2, 8),
            # b = c = 0.19 stay at the generator defaults, so a <= 0.62
            # keeps d = 1 - a - b - c non-negative.
            "a": FloatRange(0.45, 0.60),
        },
    )
)

register_world_spec(
    WorldSpec(
        name="erdos-renyi",
        generator="erdos_renyi",
        description="Uniform G(n, p) graphs spanning sparse to dense-ish.",
        params={
            "num_vertices": IntRange(8, 48),
            "edge_probability": FloatRange(0.04, 0.45),
        },
    )
)

register_world_spec(
    WorldSpec(
        name="chung-lu",
        generator="chung_lu_power_law",
        description=(
            "Chung-Lu power-law graphs (social-network stand-ins) with "
            "varying degree skew and density."
        ),
        params={
            "num_vertices": IntRange(30, 110),
            "average_degree": FloatRange(3.0, 10.0),
            "exponent": FloatRange(2.1, 3.0),
        },
    )
)

register_world_spec(
    WorldSpec(
        name="metadata",
        generator="erdos_renyi",
        description=(
            "Label-cardinality stress: modest uniform graphs whose vertex/"
            "edge label alphabet spans one value (every triangle filtered by "
            "distinct-label surveys) to many (all pass)."
        ),
        params={
            "num_vertices": IntRange(10, 36),
            "edge_probability": FloatRange(0.1, 0.4),
        },
        metadata_cardinality=IntRange(1, 32),
    )
)


# ---------------------------------------------------------------------------
# Materializing configs into survey inputs
# ---------------------------------------------------------------------------


def _self_loop_noise_graph(
    num_vertices: int = 12, seed: int = 0, **_ignored: Any
) -> GeneratedGraph:
    """Duplicate/self-loop-heavy edge columns: the ingest pipeline's dirtiest
    legal input.  Roughly a third of the raw records are self loops and the
    rest repeat a small clean edge set several times; ``from_columns`` must
    drop the loops and first-write-wins the duplicates."""
    rng = generator_rng(seed)
    clean = erdos_renyi(num_vertices, 0.4, seed=seed + 1)
    us, vs = clean.edge_columns()
    if us.size:
        repeats = rng.integers(1, 4, size=us.size)
        us = np.repeat(us, repeats)
        vs = np.repeat(vs, repeats)
    loops = rng.integers(0, num_vertices, size=max(4, num_vertices // 2)).astype(np.int64)
    us = np.concatenate([us, loops])
    vs = np.concatenate([vs, loops])
    order = rng.permutation(us.size)
    return GeneratedGraph(
        name=f"self_loop_noise_{num_vertices}",
        edge_columns=(us[order], vs[order]),
        edge_meta=True,
        params={"num_vertices": num_vertices, "seed": seed},
    )


def _empty_graph(seed: int = 0, **_ignored: Any) -> GeneratedGraph:
    return GeneratedGraph(
        name="empty",
        edge_columns=(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
        edge_meta=True,
        params={"seed": seed},
    )


def _single_vertex_graph(seed: int = 0, **_ignored: Any) -> GeneratedGraph:
    return GeneratedGraph(
        name="single_vertex",
        edges=[],
        vertex_meta={0: "lonely"},
        params={"seed": seed},
    )


#: Generator dispatch: spec ``generator`` name -> callable(seed=..., **params).
_GENERATORS = {
    "rmat": rmat,
    "erdos_renyi": erdos_renyi,
    "chung_lu_power_law": chung_lu_power_law,
    # Degenerate worlds (not sampled by default; see degenerate_world_configs)
    "empty": _empty_graph,
    "single_vertex": _single_vertex_graph,
    "self_loop_noise": _self_loop_noise_graph,
}


def build_graph(config: WorldConfig) -> GeneratedGraph:
    """Instantiate the raw generator output for one sampled config."""
    builder = _GENERATORS.get(config.generator)
    if builder is None:
        raise ValueError(
            f"world config names unknown generator {config.generator!r}; "
            f"known: {tuple(_GENERATORS)}"
        )
    return builder(seed=config.seed, **config.param_dict())


def _decoration_rng(config: WorldConfig, stream: int) -> np.random.Generator:
    """A derived deterministic stream per (config, purpose) pair."""
    return generator_rng(
        int(
            hashlib.sha256(
                f"{config.canonical_key()}/{stream}".encode()
            ).hexdigest()[:15],
            16,
        )
    )


def decorated_edges(
    config: WorldConfig, graph: Optional[GeneratedGraph] = None
) -> Tuple[List[Tuple[Hashable, Hashable, Any]], Dict[Hashable, Any]]:
    """Temporal + label decoration of a config's edges.

    Returns ``(edges, vertex_meta)`` where each edge record carries
    ``temporal_edge_meta(timestamp, label)`` metadata and every vertex a
    string label drawn from a ``metadata_cardinality``-sized alphabet.

    Timestamps model burstiness: inter-arrival gaps are log-normal with a
    sigma that grows with ``config.burstiness``, so 0 gives a near-steady
    clock and 1 gives the heavy-tailed bursts of real event streams.  Edge
    arrival order is a seeded shuffle of the generator's (sorted, canonical)
    edge list — the decoration changes metadata and order only, never the
    underlying edge set, so survey triangle counts stay comparable with the
    undecorated graph.
    """
    if graph is None:
        graph = build_graph(config)
    rng = _decoration_rng(config, stream=1)
    records = list(graph.edges)
    order = rng.permutation(len(records)) if records else []
    cardinality = max(1, config.metadata_cardinality)
    sigma = 0.25 + 2.75 * config.burstiness
    gaps = rng.lognormal(mean=0.0, sigma=sigma, size=len(records))
    times = np.cumsum(gaps)
    edges: List[Tuple[Hashable, Hashable, Any]] = []
    for position, index in enumerate(order):
        u, v, _meta = records[int(index)]
        label = int(rng.integers(cardinality))
        edges.append((u, v, temporal_edge_meta(float(times[position]), label)))
    vertices = sorted(
        {u for u, v, _ in edges} | {v for u, v, _ in edges} | set(graph.vertex_meta),
        key=repr,
    )
    vertex_meta = {
        vertex: f"label-{int(rng.integers(cardinality))}" for vertex in vertices
    }
    return edges, vertex_meta


def streaming_batches(
    config: WorldConfig,
    edges: Sequence[Tuple[Hashable, Hashable, Any]],
) -> List[List[Tuple[Hashable, Hashable, Any]]]:
    """Split decorated edges into the config's DeltaBuffer batch schedule.

    The first batch is the bulk base load (``base_fraction`` of the edges —
    zero makes the whole stream delta batches, the all-new-edges case); the
    remainder is cut into ``num_batches`` deltas whose relative sizes are a
    Dirichlet draw sharpened by burstiness (steady streams get near-equal
    batches, bursty streams get a few huge ones).  Empty cuts are dropped;
    the concatenation of the returned batches is exactly ``edges`` in order.
    """
    records = list(edges)
    if not records:
        return []
    rng = _decoration_rng(config, stream=2)
    base_count = int(round(config.base_fraction * len(records)))
    base_count = min(base_count, len(records))
    batches: List[List[Tuple[Hashable, Hashable, Any]]] = []
    if base_count:
        batches.append(records[:base_count])
    remainder = records[base_count:]
    if remainder:
        k = max(1, config.num_batches)
        # Sharper (more uneven) cuts as burstiness approaches 1.
        alpha = max(0.25, 4.0 * (1.0 - config.burstiness))
        weights = rng.dirichlet(np.full(k, alpha))
        counts = np.floor(weights * len(remainder)).astype(int)
        shortfall = len(remainder) - int(counts.sum())
        # Largest-remainder top-up keeps the partition exact.
        for i in np.argsort(-(weights * len(remainder) - counts))[:shortfall]:
            counts[int(i)] += 1
        start = 0
        for count in counts:
            if count > 0:
                batches.append(remainder[start : start + count])
                start += int(count)
    return batches


# ---------------------------------------------------------------------------
# Degenerate worlds
# ---------------------------------------------------------------------------


def degenerate_world_configs() -> Tuple[WorldConfig, ...]:
    """Hand-pinned boundary configs every engine must survey cleanly.

    Covers: the empty graph, a single isolated vertex, a single-rank world,
    duplicate/self-loop-heavy edge columns, and an all-new-edges delta
    (``base_fraction=0`` with one batch — the cold-start case where the
    incremental survey must degenerate to the full survey).
    """

    def pin(name: str, generator: str, *, params=(), nranks=2, base_fraction=0.5,
            num_batches=2, seed=13, index=0) -> WorldConfig:
        return WorldConfig(
            spec=name,
            generator=generator,
            params=tuple(params),
            nranks=nranks,
            metadata_cardinality=3,
            burstiness=0.5,
            num_batches=num_batches,
            base_fraction=base_fraction,
            seed=seed,
            index=index,
        )

    return (
        pin("degenerate-empty", "empty"),
        pin("degenerate-single-vertex", "single_vertex"),
        pin(
            "degenerate-single-rank",
            "erdos_renyi",
            params=(("num_vertices", 14), ("edge_probability", 0.3)),
            nranks=1,
        ),
        pin("degenerate-self-loops", "self_loop_noise", params=(("num_vertices", 12),)),
        pin(
            "degenerate-all-new-delta",
            "erdos_renyi",
            params=(("num_vertices", 12), ("edge_probability", 0.35)),
            base_fraction=0.0,
            num_batches=1,
        ),
    )
