#!/usr/bin/env python
"""Engine registry smoke: docs and registry agree, every engine runs clean.

Ten checks, exit status 1 on any failure (each printed to stderr):

1. **Listing parity** — the engine names in README.md's engine-selector
   table (the rows of the ``| Engine |`` table) must equal the registry
   (:func:`repro.core.engine.engine_names`), in order; likewise the
   backend names in the ``| Backend |`` table must equal the backend axis
   (:func:`repro.core.engine.backend_names`).  Registering an engine or
   backend without documenting it — or documenting one that does not
   exist — fails CI.
2. **Execution parity** — every registered engine runs a tiny survey (both
   algorithms, a graph small enough for CI seconds) and must match the
   legacy oracle exactly: reducer panel, triangle count, communicated
   bytes, wire messages.  The same smoke runs once on the process backend,
   which must match the simulated oracle bit-for-bit.
3. **Sweep axis parity** — the scenario sweep's default engine axis
   (:func:`repro.sweep.sweep_engine_axis`) must equal the registry, and a
   one-config sweep must produce a cell for every engine — so a newly
   registered engine can never be silently missing from the coverage map.
4. **Reducer contract** — every reducer in
   :data:`repro.core.callbacks.REDUCER_REGISTRY` must expose the
   ``snapshot()`` / ``merge()`` / ``callback_batch`` trio (and the plain
   ``callback``), so streaming windows, checkpoint/restart recovery and the
   columnar engines work with every registered reducer; and a columnar
   survey plus ``finalize()`` with it on a small decorated graph must make
   **zero** ``RpcRegistry.encode_call`` / ``decode_call`` invocations (a
   count, not a timing): a reducer that regrows a per-key RPC fails here.
5. **Execution-axis parity** — the kernel-tier names in README.md's
   ``| Kernel tier |`` table must equal
   :data:`repro.core.intersection.KERNEL_TIERS`, the storage modes in the
   ``| Storage |`` table must equal :data:`repro.graph.ooc.STORAGES`, and a
   survey smoke per tier (and one under ``storage="mmap"``) must match the
   legacy oracle exactly, leaking no segment files.
6. **One selector, one default** — the survey entry points take no loose
   execution keyword (``kernel``, ``batched``, ``backend``, ``workers``,
   ``kernel_tier``, ``storage``: ``engine=`` is the only selector), full,
   incremental and service surveys all default to
   :data:`repro.core.engine.DEFAULT_ENGINE`, which is the engine README.md's
   table marks ``**default**``; the built-in engines are exactly the
   ``legacy`` oracle and the ``columnar`` production engine,
   :class:`~repro.core.engine.EngineSpec` has exactly the fields ``name``
   and ``description``, and :mod:`repro.core.intersection`
   defines no batch-kernel name (a name with a word ``batch``) — so the
   selection surface cannot regrow unnoticed.
7. **The write path stays on the arrays** — a columnar
   :class:`~repro.core.incremental.StreamingSurvey` after four batches, and
   a :class:`~repro.service.SurveyService` after an ingest and one exact
   query, leave their live graph as a column image
   (``store_materialised`` False) and their DODGr with no object-shaped
   view (``materialised_views()`` empty): a ``DeltaBuffer`` that regrows a
   per-edge dict insert or flatten fails here.  Every stream step after the
   first makes at most one ``callback_batch`` delivery per rank, so a delta
   survey that goes back to delivering per message fails here too.
8. **One table says what may run** — an AST scan of ``src/repro`` finds no
   ``raise UnsupportedBackendError`` outside
   :func:`repro.core.engine.registry.check_supported`, and the
   ``| Unsupported combination |`` table in ``docs/architecture.md`` lists
   exactly the rows of :data:`repro.core.engine.registry.UNSUPPORTED`, in
   order — so a combination rule cannot grow back anywhere else, and the
   documented matrix is the enforced one.
9. **One survey loop** — an AST scan of ``src/repro/core`` finds no
   ``begin_phase(`` call outside
   :func:`repro.core.engine.program.run_simulated_phases`: every survey —
   push, push-pull and the incremental delta survey — is a
   :class:`~repro.core.engine.program.SurveyProgram` that loop runs, so a
   second hand-written phase loop cannot grow back.
10. **The oracle stays out of production** — an AST scan of ``src/repro``
   finds no import of :mod:`repro.oracle` outside that package and
   :func:`repro.core.engine.registry.oracle_builder`, the one lazy site;
   and none of ``src/repro/core/engine/*.py`` or ``core/incremental.py``
   calls ``local_store(`` or has a ``style`` parameter or a ``.style``
   read — so the scalar engine cannot leak back into the production
   modules, and production never loads it.

Used by the docs CI job (``python tools/check_engines.py``) and mirrored in
``tests/docs/test_docs.py`` so registry/README drift fails tier-1 first.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
import sys
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import triangle_survey  # noqa: E402
from repro.core.callbacks import LocalTriangleCounter  # noqa: E402
from repro.core.engine import EngineConfig, backend_names, engine_names  # noqa: E402
from repro.graph import DODGraph  # noqa: E402
from repro.graph.generators import GeneratedGraph, erdos_renyi  # noqa: E402
from repro.runtime import World  # noqa: E402

#: First cell of each engine-table row: ``| `name` | ...``.
_ENGINE_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|")

SMOKE_RANKS = 4
SMOKE_GRAPH = dict(num_vertices=40, edge_probability=0.25, seed=11)


def _documented_rows(readme: Path, header: str) -> List[Tuple[str, str]]:
    """``(first-cell backticked name, row text)`` of the README table at ``header``."""
    rows: List[Tuple[str, str]] = []
    in_table = False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith(header):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            match = _ENGINE_ROW.match(line)
            if match:
                rows.append((match.group(1), line))
    return rows


def _documented_table(readme: Path, header: str) -> Tuple[str, ...]:
    """First-cell backticked names of the README table starting at ``header``."""
    return tuple(name for name, _ in _documented_rows(readme, header))


def documented_engines(readme: Path) -> Tuple[str, ...]:
    """Engine names listed in the README's engine-selector table, in order."""
    return _documented_table(readme, "| Engine |")


def documented_engine_default(readme: Path) -> Optional[str]:
    """The engine whose README table row is marked ``**default**`` (exactly one)."""
    marked = [
        name for name, row in _documented_rows(readme, "| Engine |") if "**default**" in row
    ]
    return marked[0] if len(marked) == 1 else None


def documented_backends(readme: Path) -> Tuple[str, ...]:
    """Backend names listed in the README's backend-selector table, in order."""
    return _documented_table(readme, "| Backend |")


def documented_kernel_tiers(readme: Path) -> Tuple[str, ...]:
    """Tier names listed in the README's kernel-tier table, in order."""
    return _documented_table(readme, "| Kernel tier |")


def documented_storages(readme: Path) -> Tuple[str, ...]:
    """Storage modes listed in the README's storage table, in order."""
    return _documented_table(readme, "| Storage |")


def run_smoke(engine: str, algorithm: str, **axes):
    """One fresh-world survey: (panel, triangles, comm bytes, wire messages).

    ``axes`` are further :class:`~repro.core.engine.EngineConfig` fields
    (``backend``, ``workers``, ``kernel_tier``, ``storage``).
    """
    generated = erdos_renyi(**SMOKE_GRAPH)
    world = World(SMOKE_RANKS)
    dodgr = DODGraph.build(generated.to_distributed(world), mode="bulk")
    reducer = LocalTriangleCounter(world)
    report = triangle_survey(
        dodgr, reducer.callback, algorithm, engine=EngineConfig(engine=engine, **axes)
    )
    reducer.finalize()
    result = (
        reducer.snapshot(),
        report.triangles,
        report.communication_bytes,
        report.wire_messages,
    )
    dodgr.release()
    return result


def check_sweep_axis(registered: Tuple[str, ...]) -> List[str]:
    """The sweep's engine axis covers the whole registry (check 3)."""
    from repro.sweep import run_sweep, sample_configs, sweep_engine_axis, sweep_payload

    errors: List[str] = []
    axis = sweep_engine_axis()
    if axis != registered:
        errors.append(f"sweep engine axis {axis!r} != registry {registered!r}")
        return errors
    configs = sample_configs("erdos-renyi", 1, seed=0)
    result = run_sweep(configs, analyses=("triangle",), strict_parity=True)
    covered = {cell.engine for cell in result.cells}
    if covered != set(registered):
        errors.append(
            f"sweep smoke covered engines {sorted(covered)!r} != "
            f"registry {sorted(registered)!r}"
        )
    payload = sweep_payload(result)
    if tuple(payload["engines"]) != registered:
        errors.append(
            f"sweep artifact engine axis {payload['engines']!r} != "
            f"registry {registered!r}"
        )
    return errors


def survey_codec_calls(reducer_cls) -> int:
    """``encode_call`` + ``decode_call`` invocations of one columnar survey
    plus ``finalize()`` with ``reducer_cls`` on a small decorated graph.

    The decoration suits every stock reducer: float edge stamps, small-int
    vertex labels (a degree, a label, and distinct enough for FQDN triples).
    """
    edges = [(u, v, float(i + 1)) for i, (u, v, _) in enumerate(erdos_renyi(**SMOKE_GRAPH).edges)]
    vertex_meta = {v: v % 7 + 1 for edge in edges for v in edge[:2]}
    world = World(SMOKE_RANKS)
    graph = GeneratedGraph(name="decorated-smoke", edges=edges, vertex_meta=vertex_meta)
    dodgr = DODGraph.build(graph.to_distributed(world), mode="bulk")
    reducer = reducer_cls(world)
    calls = [0]
    for name in ("encode_call", "decode_call"):

        def counted(*args, _codec=getattr(world.registry, name)):
            calls[0] += 1
            return _codec(*args)

        setattr(world.registry, name, counted)
    report = triangle_survey(dodgr, reducer.callback, "push_pull", engine="columnar")
    assert report.triangles, "the smoke graph must deliver triangles to the reducer"
    if hasattr(reducer, "finalize"):
        reducer.finalize()
    dodgr.release()
    return calls[0]


def check_reducer_contract() -> List[str]:
    """Every registered reducer exposes the streaming/columnar trio and
    surveys without a codec call (check 4)."""
    from repro.core.callbacks import registered_reducers

    errors: List[str] = []
    required = ("callback", "callback_batch", "snapshot", "merge")
    for name, reducer_cls in registered_reducers().items():
        world = World(2)
        reducer = reducer_cls(world)
        missing = [
            attr for attr in required if not callable(getattr(reducer, attr, None))
        ]
        if missing:
            errors.append(
                f"reducer {name!r} ({reducer_cls.__name__}) is missing "
                f"{', '.join(missing)}"
            )
            continue
        # The snapshot/merge pair must round-trip an empty survey: merging
        # two empty panels yields an empty panel of the same shape.
        snap = reducer.snapshot()
        merged = type(reducer).merge([snap, snap])
        if type(merged) is not type(snap):
            errors.append(
                f"reducer {name!r}: merge() returned {type(merged).__name__}, "
                f"expected {type(snap).__name__}"
            )
        codec_calls = survey_codec_calls(reducer_cls)
        if codec_calls:
            errors.append(
                f"reducer {name!r}: a columnar survey + finalize() made "
                f"{codec_calls} encode_call/decode_call invocations, expected 0"
            )
    return errors


def check_write_path() -> List[str]:
    """Streaming and service ingest build no object-shaped view (check 7)."""
    from repro.core.callbacks import ClosureTimeSurvey
    from repro.core.incremental import StreamingSurvey
    from repro.graph.metadata import temporal_edge_meta
    from repro.service import SurveyService

    us, vs = erdos_renyi(**SMOKE_GRAPH).edge_columns()
    records = [
        (u, v, temporal_edge_meta(float(i), i % 3))
        for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist()))
    ]
    batches = [records[i::4] for i in range(4)]
    deliveries: List[int] = []

    class CountedClosure(ClosureTimeSurvey):
        def callback_batch(self, ctx, batch):
            deliveries[-1] += 1
            super().callback_batch(ctx, batch)

    stream = StreamingSurvey(World(SMOKE_RANKS), CountedClosure, engine="columnar")
    for batch in batches:
        deliveries.append(0)
        stream.ingest(batch)
    service = SurveyService(World(SMOKE_RANKS), engine="columnar")
    service.ingest(batches[0])
    errors: List[str] = []
    if max(deliveries[1:]) > SMOKE_RANKS:
        errors.append(
            f"StreamingSurvey: steps after the first made {deliveries[1:]} batch "
            f"deliveries, expected at most {SMOKE_RANKS} (one per rank)"
        )
    outcome = service.query("closure").outcome
    if outcome != "exact":
        errors.append(f"SurveyService: the write-path probe query answered {outcome!r}")
    probes = {
        "StreamingSurvey after 4 batches": (stream.graph, stream.dodgr),
        "SurveyService after an ingest and an exact query": (
            service._ledger.graph,
            service._ledger.dodgr,
        ),
    }
    for where, (graph, dodgr) in probes.items():
        views = dodgr.materialised_views()
        if views:
            errors.append(f"{where}: the DODGr built object view(s) {sorted(views)}")
        if graph.store_materialised:
            errors.append(f"{where}: the live graph's per-rank record dicts were built")
    service.close()
    return errors


def check_execution_axes() -> List[str]:
    """Kernel-tier/storage docs match their registries; both run clean (check 5)."""
    from repro.core.intersection import KERNEL_TIERS
    from repro.graph.ooc import STORAGES, active_segment_paths

    errors: List[str] = []
    readme = REPO_ROOT / "README.md"
    documented_tiers = documented_kernel_tiers(readme)
    if documented_tiers != KERNEL_TIERS:
        errors.append(
            f"README kernel-tier table {documented_tiers!r} != "
            f"KERNEL_TIERS {KERNEL_TIERS!r}"
        )
    documented_storage_table = documented_storages(readme)
    if documented_storage_table != STORAGES:
        errors.append(
            f"README storage table {documented_storage_table!r} != "
            f"STORAGES {STORAGES!r}"
        )
    if errors:
        return errors

    # Every tier spelling (including ones that downgrade here, and unset)
    # and the mmap storage mode reproduce the legacy oracle; no segment
    # files survive.
    oracle = run_smoke("legacy", "push")
    for tier in KERNEL_TIERS + (None,):
        result = run_smoke("columnar", "push", kernel_tier=tier)
        if result != oracle:
            errors.append(
                f"columnar/kernel_tier={tier!r}: parity smoke failed "
                f"({result[1:]} vs legacy {oracle[1:]})"
            )
    before = active_segment_paths()
    result = run_smoke("columnar", "push", storage="mmap")
    if result != oracle:
        errors.append(
            f"columnar/storage='mmap': parity smoke failed "
            f"({result[1:]} vs legacy {oracle[1:]})"
        )
    leaked = active_segment_paths() - before
    if leaked:
        errors.append(f"storage='mmap' smoke leaked segment files: {sorted(leaked)}")
    return errors


#: Execution keywords the entry points used to re-declare beside ``engine=``.
LOOSE_KEYWORDS = ("kernel", "batched", "backend", "workers", "kernel_tier", "storage")

#: The registry's built-in engines and the fields of an engine declaration.
BUILTIN_ENGINES = ("legacy", "columnar")
ENGINE_SPEC_FIELDS = ("name", "description")

#: A name with a word ``batch`` (``batch_kernel``, ``hash_batch``,
#: ``BATCH_KERNELS``, ...) — the deleted batch-kernel family.
_BATCH_WORD = re.compile(r"(?:^|_)batch", re.IGNORECASE)


def check_selector_surface() -> List[str]:
    """``engine=`` is the only selector and there is one default (check 6)."""
    from repro.core import (
        incremental_triangle_survey,
        intersection,
        triangle_survey_push,
        triangle_survey_push_pull,
    )
    from repro.core.engine import (
        DEFAULT_ENGINE,
        EngineSpec,
        resolve_engine,
        resolve_execution,
    )
    from repro.service import SurveyService

    errors: List[str] = []
    for entry_point in (
        triangle_survey_push,
        triangle_survey_push_pull,
        triangle_survey,
        incremental_triangle_survey,
    ):
        loose = [
            name
            for name in inspect.signature(entry_point).parameters
            if name in LOOSE_KEYWORDS
        ]
        if loose:
            errors.append(
                f"{entry_point.__name__} re-declares execution keyword(s) "
                f"{loose!r}; engine=<name | EngineConfig> is the only selector"
            )
    service = SurveyService(World(2))
    try:
        defaults = {
            "resolve_engine(None)": resolve_engine(None).name,
            "resolve_execution(None, incremental=True)": resolve_execution(
                None, incremental=True
            )[0].name,
            "SurveyService(world)": service.default_engine,
            "README engine table (**default**)": documented_engine_default(
                REPO_ROOT / "README.md"
            ),
        }
    finally:
        service.close()
    for where, name in defaults.items():
        if name != DEFAULT_ENGINE:
            errors.append(
                f"{where} defaults to {name!r}, not DEFAULT_ENGINE {DEFAULT_ENGINE!r}"
            )
    if engine_names() != BUILTIN_ENGINES:
        errors.append(f"registered engines {engine_names()!r} != {BUILTIN_ENGINES!r}")
    fields = tuple(f.name for f in dataclasses.fields(EngineSpec))
    if fields != ENGINE_SPEC_FIELDS:
        errors.append(f"EngineSpec fields {fields!r} != {ENGINE_SPEC_FIELDS!r}")
    batch_names = sorted(name for name in vars(intersection) if _BATCH_WORD.search(name))
    if batch_names:
        errors.append(f"repro.core.intersection regrew batch-kernel name(s) {batch_names!r}")
    return errors


#: Where the one ``raise UnsupportedBackendError`` lives: (file under
#: ``src/repro``, function).
CHECKER = ("core/engine/registry.py", "check_supported")


def _raises_unsupported(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
    return name == "UnsupportedBackendError"


def _stray_nodes(root: Path, home: Tuple[str, str], matches) -> List[str]:
    """``path:line`` of every AST node under ``root`` that ``matches``,
    outside the function ``home`` = (file relative to ``root``, name)."""
    stray: List[str] = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), relative)
        allowed = set()
        if relative == home[0]:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == home[1]:
                    allowed.update(map(id, ast.walk(node)))
        stray.extend(
            f"{relative}:{node.lineno}"
            for node in ast.walk(tree)
            if matches(node) and id(node) not in allowed
        )
    return stray


def stray_unsupported_raises(root: Path) -> List[str]:
    """``path:line`` of every ``raise UnsupportedBackendError`` under ``root``
    outside the :data:`CHECKER` function."""
    return _stray_nodes(root, CHECKER, _raises_unsupported)


def render_unsupported_table() -> List[str]:
    """:data:`~repro.core.engine.registry.UNSUPPORTED` as markdown table rows."""
    from repro.core.engine.registry import UNSUPPORTED

    return [
        "| " + " × ".join(f"`{feature}`" for feature in row) + f" | {reason} |"
        for row, reason in UNSUPPORTED
    ]


def check_unsupported_table() -> List[str]:
    """The one checker raises, and the docs render its table (check 8)."""
    errors = [
        f"raise UnsupportedBackendError outside {CHECKER[0]}::{CHECKER[1]}: {where}"
        for where in stray_unsupported_raises(REPO_ROOT / "src" / "repro")
    ]
    lines = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8").splitlines()
    header = [i for i, line in enumerate(lines) if line.startswith("| Unsupported combination |")]
    documented = []
    for line in lines[header[0] + 2 :] if header else []:  # past the | --- | rule
        if not line.startswith("|"):
            break
        documented.append(line)
    if documented != render_unsupported_table():
        errors.append(
            "docs/architecture.md's unsupported-combination table differs from "
            "UNSUPPORTED; paste tools/check_engines.render_unsupported_table()"
        )
    return errors


#: Where the one survey loop lives: (file under ``src/repro/core``, function).
SURVEY_LOOP = ("engine/program.py", "run_simulated_phases")


def _called_name(node: ast.AST) -> Optional[str]:
    """The function or method name a call node calls, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _begins_phase(node: ast.AST) -> bool:
    return _called_name(node) == "begin_phase"


def stray_phase_loops(root: Path) -> List[str]:
    """``path:line`` of every ``begin_phase(`` call under ``root`` outside
    the :data:`SURVEY_LOOP` function."""
    return _stray_nodes(root, SURVEY_LOOP, _begins_phase)


def check_one_survey_loop() -> List[str]:
    """Every core survey phase begins in the one loop (check 9)."""
    return [
        f"begin_phase( outside {SURVEY_LOOP[0]}::{SURVEY_LOOP[1]}: core/{where}"
        for where in stray_phase_loops(REPO_ROOT / "src" / "repro" / "core")
    ]


#: The one production site that may import the oracle: (file under
#: ``src/repro``, function).
ORACLE_GATE = ("core/engine/registry.py", "oracle_builder")
#: The production engine modules, which keep one path (globs under ``src/repro``).
ONE_PATH_MODULES = ("core/engine/*.py", "core/incremental.py")


def _imports_oracle(node: ast.AST) -> bool:
    """An import whose dotted target has an ``oracle`` component: ``repro.oracle``
    is the only module of that name in the package."""
    if isinstance(node, ast.Import):
        targets = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        targets = [f"{node.module or ''}.{alias.name}" for alias in node.names]
    else:
        return False
    return any("oracle" in target.split(".") for target in targets)


def _scalar_path(node: ast.AST) -> bool:
    """A ``local_store(`` call, a ``style`` parameter or a ``.style`` read."""
    return (
        _called_name(node) == "local_store"
        or (isinstance(node, ast.arg) and node.arg == "style")
        or (isinstance(node, ast.Attribute) and node.attr == "style")
    )


def oracle_leaks(root: Path) -> List[str]:
    """What fences the oracle out of ``root`` (a ``src/repro`` tree): every
    stray oracle import, then every scalar path in a production engine module."""
    leaks = [
        f"import of repro.oracle outside {ORACLE_GATE[0]}::{ORACLE_GATE[1]}: {where}"
        for where in _stray_nodes(root, ORACLE_GATE, _imports_oracle)
        if not where.startswith("oracle/")
    ]
    for pattern in ONE_PATH_MODULES:
        for path in sorted(root.glob(pattern)):
            relative = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), relative)
            leaks.extend(
                f"local_store( call or style parameter/branch in a production module: "
                f"{relative}:{node.lineno}"
                for node in ast.walk(tree)
                if _scalar_path(node)
            )
    return leaks


def check_oracle_fence() -> List[str]:
    """Production neither imports the oracle nor regrows its paths (check 10)."""
    return oracle_leaks(REPO_ROOT / "src" / "repro")


def main() -> int:
    errors: List[str] = []

    # What actually runs below: `None` resolves to the first tier listed.
    from repro.core.intersection import available_kernel_tiers, compiled_tier_status

    status = compiled_tier_status()
    print(
        f"check_engines: kernel tiers available {available_kernel_tiers()}; "
        f"compiled tier {'loaded' if status.available else 'NOT loaded'} "
        f"({status.reason}; compiler={status.compiler}, library={status.library})"
    )

    registered = engine_names()
    documented = documented_engines(REPO_ROOT / "README.md")
    if documented != registered:
        errors.append(
            f"README engine table {documented!r} != registry {registered!r}"
        )
    backends = backend_names()
    documented_backend_table = documented_backends(REPO_ROOT / "README.md")
    if documented_backend_table != backends:
        errors.append(
            f"README backend table {documented_backend_table!r} != "
            f"backend axis {backends!r}"
        )

    for algorithm in ("push", "push_pull"):
        oracle = run_smoke("legacy", algorithm)
        for engine in registered:
            if engine == "legacy":
                continue
            result = run_smoke(engine, algorithm)
            if result != oracle:
                errors.append(
                    f"{engine}/{algorithm}: parity smoke failed "
                    f"(panel/triangles/bytes/messages {result[1:]} vs "
                    f"legacy {oracle[1:]})"
                )
        # The backend axis replays the same contract: one process-backend
        # smoke per algorithm, bit-identical to the simulated oracle.
        process_result = run_smoke(
            "columnar", algorithm, backend="process", workers=2
        )
        if process_result != oracle:
            errors.append(
                f"columnar/{algorithm}: process-backend smoke diverged "
                f"(panel/triangles/bytes/messages {process_result[1:]} vs "
                f"simulated {oracle[1:]})"
            )

    errors.extend(check_sweep_axis(registered))
    errors.extend(check_reducer_contract())
    errors.extend(check_execution_axes())
    errors.extend(check_selector_surface())
    errors.extend(check_write_path())
    errors.extend(check_unsupported_table())
    errors.extend(check_one_survey_loop())
    errors.extend(check_oracle_fence())

    if errors:
        for error in errors:
            print(f"check_engines: {error}", file=sys.stderr)
        return 1
    from repro.core.callbacks import reducer_names
    from repro.core.intersection import KERNEL_TIERS
    from repro.graph.ooc import STORAGES

    print(
        f"check_engines: {len(registered)} engines documented, parity-clean, "
        f"and on the sweep axis ({', '.join(registered)}); "
        f"{len(backends)} backends documented and parity-clean "
        f"({', '.join(backends)}); "
        f"{len(reducer_names())} reducers honour the "
        "snapshot/merge/callback_batch contract with zero codec calls; "
        f"{len(KERNEL_TIERS)} kernel tiers and {len(STORAGES)} storage modes "
        "documented and parity-clean; engine= is the only execution selector; "
        "the write path builds no object view; one table says what may run; "
        "one loop runs every survey phase; the oracle stays out of production"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
