#!/usr/bin/env python
"""Engine registry smoke: docs and registry agree, every engine runs clean.

Seventeen checks, exit status 1 on any failure (each printed to stderr):

1. **Listing parity** — the engine names in README.md's engine-selector
   table (the rows of the ``| Engine |`` table) must equal the registry
   (:func:`repro.core.engine.engine_names`), in order; likewise the
   backend names in the ``| Backend |`` table must equal the backend axis
   (:func:`repro.core.engine.backend_names`).  Registering an engine or
   backend without documenting it — or documenting one that does not
   exist — fails CI.
2. **Execution parity** — every registered engine runs a tiny survey cell
   (both algorithms, a graph small enough for CI seconds) through
   :func:`repro.sweep.run_cell` and must keep the equivalence contract
   against the legacy oracle (:func:`repro.sweep.contract_problems`:
   report fields, per-phase counters, reducer panel, no leaked segment).
   The same smoke runs once on the process backend.
3. **Sweep coverage** — a one-config sweep must produce a parity-clean cell
   for every registered engine, and its artifact must name the registry as
   its engine axis — so a newly registered engine can never be silently
   missing from the coverage map.
4. **Reducer contract** — every reducer in
   :data:`repro.core.callbacks.REDUCER_REGISTRY` must expose the
   ``snapshot()`` / ``merge()`` / ``callback_batch`` trio (and the plain
   ``callback``), so streaming windows, checkpoint/restart recovery and the
   columnar engines work with every registered reducer; and a columnar
   survey plus ``finalize()`` with it on a small decorated graph must make
   **zero** per-message sends (``RankContext.async_call`` invocations; a
   count, not a timing): every stock reducer ships through coalesced
   ``async_call_batched`` calls, so one that regrows a per-key RPC fails
   here.
5. **Execution-axis parity** — the kernel-tier names in README.md's
   ``| Kernel tier |`` table must equal
   :data:`repro.core.intersection.KERNEL_TIERS`, the storage modes in the
   ``| Storage |`` table must equal :data:`repro.graph.ooc.STORAGES`, and a
   survey cell per tier (and one under ``storage="mmap"``) must keep the
   contract against the legacy oracle, leaking no segment files.
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
7. **The write path delivers once per rank** — every step of a columnar
   :class:`~repro.core.incremental.StreamingSurvey` after the first makes
   at most one ``callback_batch`` delivery per rank, so a delta survey that
   goes back to delivering per message fails here; and a
   :class:`~repro.service.SurveyService` ingest answers an exact query.
   (A graph is its column image and a DODGr its columns: neither has a
   record store to build, which check 10 holds statically.)
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
   no ``local_store`` call or definition outside the oracle package; and
   none of ``src/repro/core/engine/*.py`` or ``core/incremental.py`` has a
   ``style`` parameter or a ``.style`` read — so neither the record store
   nor the scalar engine can leak back into production, and production
   never loads them.
11. **One stable sort** — an AST scan of ``src/repro`` finds no
   ``argsort(..., kind="stable")`` call outside
   :func:`repro.runtime.world.stable_key_order` (the :mod:`repro.oracle`
   package is exempt): every stable integer ordering on the survey and
   build paths takes that primitive's linear-time radix passes, so an
   O(n log n) timsort cannot grow back at a call site.
12. **Every export has a caller** — every name in a ``repro.*`` ``__all__``
   is used (an identifier in code, a word in markdown) somewhere under
   ``src``, ``perf``, ``benchmarks``, ``examples``, ``tools``, ``docs`` or
   the README, outside its defining module and this file; a package
   ``__init__``'s re-export does not count, and neither does ``tests/``.
   A plain name or a markdown word counts for any export of that name; an
   attribute read ``obj.name`` counts only when the file binds ``obj`` by
   import to the defining module or to a package that re-exports the name,
   so ``other_object.name`` is no use.  The few names
   whose only callers are tests sit on :data:`PUBLIC_SURFACE_ALLOWLIST`
   with a reason each, and an entry that matches no export fails too — so
   dead public surface cannot grow back.
13. **Array-path reducers stay on the arrays** — on a numeric rmat-8 graph
   (float edge stamps, int vertex metadata) every stock reducer with an
   array path (:data:`ARRAY_PATH_REDUCERS`) hands each batch of at least
   :data:`~repro.graph.metadata.ARRAY_VALUES_MIN_BATCH` triangles to
   ``increment_grouped_run`` and decodes no
   :meth:`~repro.graph.metadata.TriangleBatch.column` object column doing
   so.  The object loop is correct, only slow, so no parity suite can see
   a reducer silently fall back to it.
14. **A count counts in place** — on an rmat-8 graph, ``callback=None``
   Push-Only and Push-Pull surveys make every row-kernel call with
   ``matches=False`` (no match columns written), and a stock reducer's
   survey makes every call with ``matches=True``.  A count that regrows the
   columns is only slower, so no parity suite can see it.
15. **A survey intersects and delivers once per rank per phase** — on the
   smoke graph with resident storage, a Push-Only and a Push-Pull
   :class:`~repro.core.callbacks.ClosureTimeSurvey` make at most one
   row-kernel call and one ``callback_batch`` delivery per rank in every
   phase: the handlers stage their messages and the barrier's drain pass
   intersects them (check 7's bound, for full surveys).  Delivering per
   message is only slower, so no parity suite can see it.
16. **A vertex label is extracted once per stream** — a columnar
   :class:`~repro.core.incremental.StreamingSurvey` of
   :class:`~repro.core.callbacks.MaxEdgeLabelDistribution` over three
   batches of the smoke graph, every batch on the array path, runs its
   vertex-label extractor at most once per ``(vertex, metadata)`` pair its
   graph held: the vertex memo rides the image from batch to batch, and a
   target reads its vertex's slot.  So does a
   :class:`~repro.service.SurveyService` answering exact queries at two
   pinned epochs after the second ingest: the move copies the memo, and
   the older epoch keeps what its ledger step extracted.  A memo that dies
   with each epoch, empties on the move, or keeps one slot per edge
   re-extracts what the stream already had — only slower, so no parity
   suite can see it.
17. **No unused import** — an AST scan of ``src/repro`` finds no import
   whose bound name its module never reads (a string annotation counts as
   a read).  Package ``__init__`` files, whose imports are re-exports,
   names in the module's ``__all__`` and ``from __future__`` imports are
   exempt.  Neither pyflakes nor ruff is a dependency, so this is the one
   gate that keeps a dead import from outliving the code that used it.

Used by the docs CI job (``python tools/check_engines.py``) and mirrored in
``tests/docs/test_docs.py`` so registry/README drift fails tier-1 first.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import fnmatch
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
from repro.sweep import CellWorld, contract_problems, run_cell  # noqa: E402

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


def smoke_world() -> CellWorld:
    """The smoke graph as a sweep cell's world."""
    generated = erdos_renyi(**SMOKE_GRAPH)
    return CellWorld(
        name=generated.name,
        nranks=SMOKE_RANKS,
        edges=generated.edges,
        vertex_meta=generated.vertex_meta or {},
    )


def smoke_problems(engine: EngineConfig, algorithm: str, oracle) -> List[str]:
    """How one smoke cell on ``engine`` breaks the contract against ``oracle``."""
    got = run_cell(smoke_world(), "triangle", engine, algorithm)
    return [f"{engine}/{algorithm}: {problem}" for problem in contract_problems(got, oracle)]


def check_sweep_coverage(registered: Tuple[str, ...]) -> List[str]:
    """A one-config sweep covers the whole registry, parity-clean (check 3)."""
    from repro.sweep import run_sweep, sample_configs, sweep_payload

    errors: List[str] = []
    configs = sample_configs("erdos-renyi", 1, seed=0)
    result = run_sweep(configs, analyses=("triangle",))
    errors += [f"sweep smoke: {cell.label()}: {cell.problems}" for cell in result.parity_failures()]
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


def survey_per_message_sends(reducer_cls) -> int:
    """``RankContext.async_call`` invocations of one columnar survey plus
    ``finalize()`` with ``reducer_cls`` on a small decorated graph.

    The decoration suits every stock reducer: float edge stamps, small-int
    vertex labels (a degree, a label, and distinct enough for FQDN triples).
    """
    edges = [(u, v, float(i + 1)) for i, (u, v, _) in enumerate(erdos_renyi(**SMOKE_GRAPH).edges)]
    vertex_meta = {v: v % 7 + 1 for edge in edges for v in edge[:2]}
    world = World(SMOKE_RANKS)
    graph = GeneratedGraph(name="decorated-smoke", edges=edges, vertex_meta=vertex_meta)
    dodgr = DODGraph.build(graph.to_distributed(world), mode="bulk")
    reducer = reducer_cls(world)
    sends = [0]
    for ctx in world.ranks:

        def counted(*args, _send=ctx.async_call):
            sends[0] += 1
            return _send(*args)

        ctx.async_call = counted
    report = triangle_survey(dodgr, reducer.callback, "push_pull", engine="columnar")
    assert report.triangles, "the smoke graph must deliver triangles to the reducer"
    if hasattr(reducer, "finalize"):
        reducer.finalize()
    dodgr.release()
    return sends[0]


def check_reducer_contract() -> List[str]:
    """Every registered reducer exposes the streaming/columnar trio and
    surveys without a per-message send (check 4)."""
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
        sends = survey_per_message_sends(reducer_cls)
        if sends:
            errors.append(
                f"reducer {name!r}: a columnar survey + finalize() made "
                f"{sends} per-message async_call sends, expected 0"
            )
    return errors


def check_write_path() -> List[str]:
    """Stream steps deliver once per rank; a service ingest answers (check 7)."""
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
    service.close()
    return errors


def check_execution_axes() -> List[str]:
    """Kernel-tier/storage docs match their registries; both run clean (check 5)."""
    from repro.core.intersection import KERNEL_TIERS
    from repro.graph.ooc import STORAGES

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
    # and the mmap storage mode keep the contract against the legacy oracle.
    oracle = run_cell(smoke_world(), "triangle", "legacy")
    for tier in KERNEL_TIERS + (None,):
        errors += smoke_problems(EngineConfig(engine="columnar", kernel_tier=tier), "push", oracle)
    errors += smoke_problems(EngineConfig(engine="columnar", storage="mmap"), "push", oracle)
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


def _record_store(node: ast.AST) -> bool:
    """A ``local_store(`` call or a ``local_store`` definition."""
    return _called_name(node) == "local_store" or (
        isinstance(node, ast.FunctionDef) and node.name == "local_store"
    )


def _style_path(node: ast.AST) -> bool:
    """A ``style`` parameter or a ``.style`` read."""
    return (isinstance(node, ast.arg) and node.arg == "style") or (
        isinstance(node, ast.Attribute) and node.attr == "style"
    )


def oracle_leaks(root: Path) -> List[str]:
    """What fences the oracle out of ``root`` (a ``src/repro`` tree): every
    stray oracle import, every record-store call or definition outside the
    oracle package, then every style path in a production engine module."""
    leaks = [
        f"import of repro.oracle outside {ORACLE_GATE[0]}::{ORACLE_GATE[1]}: {where}"
        for where in _stray_nodes(root, ORACLE_GATE, _imports_oracle)
        if not where.startswith("oracle/")
    ]
    leaks.extend(
        f"local_store( call or definition outside the oracle: {where}"
        for where in _stray_nodes(root, ("", ""), _record_store)
        if not where.startswith("oracle/")
    )
    for pattern in ONE_PATH_MODULES:
        for path in sorted(root.glob(pattern)):
            relative = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), relative)
            leaks.extend(
                f"style parameter/branch in a production module: {relative}:{node.lineno}"
                for node in ast.walk(tree)
                if _style_path(node)
            )
    return leaks


def check_oracle_fence() -> List[str]:
    """Production neither imports the oracle nor regrows its paths (check 10)."""
    return oracle_leaks(REPO_ROOT / "src" / "repro")


#: Where the one stable argsort lives: (file under ``src/repro``, function).
STABLE_SORT = ("runtime/world.py", "stable_key_order")


def _stable_argsort(node: ast.AST) -> bool:
    """An ``argsort(...)`` call with ``kind="stable"``."""
    return _called_name(node) == "argsort" and any(
        keyword.arg == "kind"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value == "stable"
        for keyword in node.keywords
    )


def stray_stable_sorts(root: Path) -> List[str]:
    """``path:line`` of every stable argsort under ``root`` (a ``src/repro``
    tree) outside the :data:`STABLE_SORT` function and the oracle package."""
    return [
        where
        for where in _stray_nodes(root, STABLE_SORT, _stable_argsort)
        if not where.startswith("oracle/")
    ]


def check_one_stable_sort() -> List[str]:
    """Every stable integer ordering goes through the primitive (check 11)."""
    return [
        f'argsort(..., kind="stable") outside {STABLE_SORT[0]}::{STABLE_SORT[1]}: {where}'
        for where in stray_stable_sorts(REPO_ROOT / "src" / "repro")
    ]


#: Where an exported name may find a caller: code under these directories of
#: the repository (identifiers, not strings or comments) and the markdown
#: beside it and in the README.  ``tests/`` is not among them, and neither
#: is this file: a probe of another check is no caller.
CALLER_DIRS = ("src", "perf", "benchmarks", "examples", "tools", "docs")
THIS_FILE = Path("tools") / "check_engines.py"

#: Exported names that need no caller outside ``tests/``, as ``fnmatch``
#: patterns over ``<defining module>.<name>``, each with its reason.
PUBLIC_SURFACE_ALLOWLIST = {
    "repro.baselines.networkx_ref.*": "test reference: the networkx oracle",
    "repro.baselines.serial.*": "test reference: the serial counting oracles",
    "repro.graph.properties.dodgr_wedge_count": "test reference: |W+| by a serial walk",
    "repro.graph.properties.serial_triangle_list": "test reference: the serial triangle list",
    "repro.oracle.*legacy*": "the legacy oracle's builders and drivers, which the tests run",
    "repro.analysis.truss.truss_decomposition": "paper analysis: the k-truss study",
    "repro.analysis.degree_triples.run_degree_triple_survey": "paper analysis: degree triples",
    "repro.graph.io.*": "edge-file readers and writers: the way graphs enter from disk",
    "repro.graph.partition.CyclicPartitioner": "the second distribution the property tests need",
    "repro.core.callbacks.reducer_names": "reducer registry lookup, counted in this file's summary",
    "repro.core.callbacks.registered_reducers": "reducer registry lookup, walked by check 4",
    "repro.core.callbacks.get_reducer": "reducer registry lookup, walked by check 13",
    "repro.runtime.serialization.register_record": "the wire format's hook for user metadata records",
    "repro.runtime.serialization.registered_records": "test isolation of the record registry",
    "repro.runtime.serialization.clear_registry": "test isolation of the record registry",
    "repro.*Error": "raised through the public API; callers catch it by type",
    "repro.__version__": "the package version, which users read; no code of ours does",
}


def _module_name(src: Path, path: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _exported(tree: ast.Module) -> List[str]:
    """The string entries of a module's top-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [
                element.value
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            ]
    return []


def _binds(tree: ast.Module, name: str) -> bool:
    """Whether a module's top level defines ``name`` (not by import)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(leaf, ast.Name) and leaf.id == name
                for target in targets
                for leaf in ast.walk(target)
            ):
                return True
    return False


def _package(path: Path, module: str) -> str:
    """The package a module's relative imports start from."""
    return module if path.name == "__init__.py" else module.rpartition(".")[0]


def _import_source(package: str, node: ast.ImportFrom) -> Optional[str]:
    """The absolute module a ``from ... import`` in ``package`` reads."""
    if not node.level:
        return node.module
    base = package
    for _ in range(node.level - 1):
        base = base.rpartition(".")[0]
    return ".".join(filter(None, (base, node.module)))


def _defining_module(modules: dict, module: str, name: str) -> str:
    """The module that defines ``name``, following ``from ... import`` re-exports."""
    for _ in range(len(modules)):
        path, tree = modules[module]
        if _binds(tree, name):
            return module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                (alias.asname or alias.name) == name for alias in node.names
            ):
                source = _import_source(_package(path, module), node)
                if source in modules:
                    module = source
                    break
        else:
            return module
    return module


def _module_bindings(tree: ast.Module, package: str, modules: dict) -> dict:
    """Names a file binds by import to a ``repro`` module, with that module:
    ``import a.b`` binds ``a``, ``import a.b as x`` and ``from a import b``
    (``a.b`` a module) bind the alias."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            source = _import_source(package, node)
            for alias in node.names:
                if f"{source}.{alias.name}" in modules:
                    bound[alias.asname or alias.name] = f"{source}.{alias.name}"
    return bound


def _dotted(node: ast.AST, bound: dict) -> Optional[str]:
    """The module an attribute chain's base names, through ``bound``."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, bound)
        return base and f"{base}.{node.attr}"
    return None


def _uses(path: Path, modules: dict, src: Path) -> Tuple[set, set]:
    """What a file uses: ``(names, attributes)``.  ``names`` are the
    identifiers read in Python code (an assignment target is not a use) or
    the words of markdown; ``attributes`` are the ``(module, name)`` reads
    ``obj.name`` whose ``obj`` the file binds by import to a module."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return set(re.findall(r"\w+", text)), set()
    tree = ast.parse(text, str(path))
    package = ""
    if src in path.parents:
        package = _package(path, _module_name(src, path))
    bound = _module_bindings(tree, package, modules)
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            module = _dotted(node.value, bound)
            if module in modules:
                attributes.add((module, node.attr))
    return names, attributes


def _modules(root: Path) -> dict:
    """Every module under ``root``'s ``src/repro``: name -> (path, tree)."""
    src = root / "src"
    return {
        _module_name(src, path): (path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for path in sorted((src / "repro").rglob("*.py"))
    }


def public_names(root: Path, modules: Optional[dict] = None) -> dict:
    """``<defining module>.<name>`` of every name in a ``repro.*`` ``__all__``
    under ``root`` (a repository checkout), mapped to its defining file."""
    modules = _modules(root) if modules is None else modules
    names: dict = {}
    for module, (_path, tree) in modules.items():
        for name in _exported(tree):
            home = _defining_module(modules, module, name)
            names.setdefault(f"{home}.{name}", modules[home][0])
    return names


def stray_public_names(root: Path) -> List[str]:
    """Every :func:`public_names` entry under ``root`` that no file outside
    ``tests/``, its defining module and this file uses, and that
    :data:`PUBLIC_SURFACE_ALLOWLIST` does not excuse.  A package
    ``__init__``'s re-export is an import and a string, so it is no use.
    A plain name or a markdown word counts for any export of that name; an
    attribute read ``obj.name`` counts only when the file binds ``obj`` by
    import to the defining module or to a package that re-exports it."""
    modules = _modules(root)
    src = root / "src"
    paths = [
        path
        for directory in CALLER_DIRS
        for path in sorted((root / directory).rglob("*"))
        if path.suffix in (".py", ".md") and path.is_file() and path != root / THIS_FILE
    ]
    if (root / "README.md").is_file():
        paths.append(root / "README.md")
    callers = {path: _uses(path, modules, src) for path in paths}

    def used(qualified: str, home: Path) -> bool:
        module, _, name = qualified.rpartition(".")
        return any(
            name in names
            or any(
                attr == name and _defining_module(modules, base, name) == module
                for base, attr in attributes
            )
            for path, (names, attributes) in callers.items()
            if path != home
        )

    return [
        qualified
        for qualified, home in public_names(root, modules).items()
        if not any(fnmatch.fnmatchcase(qualified, pattern) for pattern in PUBLIC_SURFACE_ALLOWLIST)
        and not used(qualified, home)
    ]


def check_public_surface() -> List[str]:
    """Every exported name has a caller or a stated reason (check 12)."""
    errors = [
        f"{qualified} is exported but nothing outside tests/ and its module uses it: "
        "delete it, drop it from __all__, or give PUBLIC_SURFACE_ALLOWLIST a reason"
        for qualified in stray_public_names(REPO_ROOT)
    ]
    names = public_names(REPO_ROOT)
    errors.extend(
        f"PUBLIC_SURFACE_ALLOWLIST entry {pattern!r} matches no exported name"
        for pattern in PUBLIC_SURFACE_ALLOWLIST
        if not fnmatch.filter(names, pattern)
    )
    return errors


#: Stock reducers with an array path (``edge_values`` / ``vertex_values`` /
#: ``vertex_ids`` into ``increment_grouped_run``), by registry name.
ARRAY_PATH_REDUCERS = (
    "closure-time",
    "max-edge-label",
    "degree-triple",
    "local-triangle",
    "edge-support",
)

ARRAY_PATH_GRAPH = dict(scale=8, edge_factor=8, seed=3)


def array_path_misses(name: str, make_reducer) -> List[str]:
    """How a columnar survey with ``make_reducer(world)`` left the array path.

    Runs a push-pull survey plus ``finalize()`` on a numeric rmat-8 graph
    and returns one message per batch of at least ``ARRAY_VALUES_MIN_BATCH``
    triangles that did not reach ``increment_grouped_run`` or decoded an
    object column, and one if no batch was that large.
    """
    from repro.containers.counting_set import DistributedCountingSet
    from repro.graph.generators import rmat
    from repro.graph.metadata import ARRAY_VALUES_MIN_BATCH, TriangleBatch

    edges = [(u, v, float(i + 1)) for i, (u, v, _) in enumerate(rmat(**ARRAY_PATH_GRAPH).edges)]
    graph = GeneratedGraph(
        name="numeric-rmat-8",
        edges=edges,
        vertex_meta={v: v for edge in edges for v in edge[:2]},
    )
    world = World(SMOKE_RANKS)
    dodgr = DODGraph.build(graph.to_distributed(world), mode="bulk")
    reducer = make_reducer(world)
    seen = {"grouped": 0, "columns": []}
    grouped_run, column = DistributedCountingSet.increment_grouped_run, TriangleBatch.column

    def counted_grouped_run(self, *args):
        seen["grouped"] += 1
        return grouped_run(self, *args)

    def recorded_column(self, column_name):
        seen["columns"].append(column_name)
        return column(self, column_name)

    misses: List[str] = []
    large = [0]
    batch_callback = reducer.callback_batch

    def watched(ctx, batch):
        grouped, decoded = seen["grouped"], len(seen["columns"])
        batch_callback(ctx, batch)
        if len(batch) < ARRAY_VALUES_MIN_BATCH:
            return
        large[0] += 1
        if seen["grouped"] == grouped:
            misses.append(
                f"reducer {name!r}: a {len(batch)}-triangle batch never reached "
                "increment_grouped_run"
            )
        columns = sorted(set(seen["columns"][decoded:]))
        if columns:
            misses.append(
                f"reducer {name!r}: a {len(batch)}-triangle batch decoded "
                f"object columns {columns}"
            )

    reducer.callback_batch = watched
    DistributedCountingSet.increment_grouped_run = counted_grouped_run
    TriangleBatch.column = recorded_column
    try:
        triangle_survey(dodgr, reducer.callback, "push_pull", engine="columnar")
        reducer.finalize()
    finally:
        DistributedCountingSet.increment_grouped_run = grouped_run
        TriangleBatch.column = column
        dodgr.release()
    if not large[0]:
        misses.append(
            f"reducer {name!r}: no batch reached {ARRAY_VALUES_MIN_BATCH} triangles"
        )
    return misses


def check_array_paths() -> List[str]:
    """Every array-path reducer takes it on a numeric graph (check 13)."""
    from repro.core.callbacks import get_reducer

    errors: List[str] = []
    for name in ARRAY_PATH_REDUCERS:
        errors.extend(array_path_misses(name, get_reducer(name)))
    return errors


COUNT_ONLY_GRAPH = dict(scale=8, edge_factor=8, seed=3)


def kernel_match_modes(callback_factory, algorithm: str) -> List[bool]:
    """The ``matches`` argument of every row-kernel call one survey makes.

    Runs a columnar survey on rmat-8 with ``callback_factory(world)`` (None
    for a plain count) on the default kernel and tier, recording each call
    to that row kernel.
    """
    from repro.core.intersection import ROW_KERNEL_TIERS, resolve_kernel_tier
    from repro.graph.generators import rmat

    kernels = ROW_KERNEL_TIERS[resolve_kernel_tier(None)]
    kernel = kernels["merge_path"]
    modes: List[bool] = []

    def recorded(*args, matches=True):
        modes.append(matches)
        return kernel(*args, matches=matches)

    world = World(SMOKE_RANKS)
    dodgr = DODGraph.build(rmat(**COUNT_ONLY_GRAPH).to_distributed(world), mode="bulk")
    callback = None if callback_factory is None else callback_factory(world)
    kernels["merge_path"] = recorded
    try:
        triangle_survey(dodgr, callback, algorithm, engine="columnar")
    finally:
        kernels["merge_path"] = kernel
        dodgr.release()
    return modes


def check_count_only() -> List[str]:
    """Counts ask the row kernel for no match columns; reducers do (check 14)."""
    errors: List[str] = []
    reducer = lambda world: LocalTriangleCounter(world).callback  # noqa: E731
    for label, factory in (("callback=None", None), ("LocalTriangleCounter", reducer)):
        wanted = factory is not None
        for algorithm in ("push", "push_pull"):
            modes = kernel_match_modes(factory, algorithm)
            wrong = sum(mode is not wanted for mode in modes)
            if not modes:
                errors.append(f"{algorithm} survey with {label}: no row-kernel call")
            elif wrong:
                errors.append(
                    f"{algorithm} survey with {label}: {wrong} of {len(modes)} row-kernel "
                    f"calls had matches={not wanted}"
                )
    return errors


def staged_delivery_counts(algorithm: str) -> dict:
    """Row-kernel calls and ``callback_batch`` deliveries per phase.

    Runs one resident columnar ``ClosureTimeSurvey`` on the smoke graph
    (edge stamps ``temporal_edge_meta``) on the default kernel and tier and
    returns ``{phase: [kernel calls, deliveries]}`` for every phase that
    made either.
    """
    from repro.core.callbacks import ClosureTimeSurvey
    from repro.core.intersection import ROW_KERNEL_TIERS, resolve_kernel_tier
    from repro.graph.metadata import temporal_edge_meta

    generated = erdos_renyi(**SMOKE_GRAPH)
    graph = GeneratedGraph(
        name="smoke-temporal",
        edges=[
            (u, v, temporal_edge_meta(float(i), i % 3))
            for i, (u, v, _) in enumerate(generated.edges)
        ],
    )
    world = World(SMOKE_RANKS)
    dodgr = DODGraph.build(graph.to_distributed(world), mode="bulk")
    counts: dict = {}

    def tally(slot: int) -> None:
        counts.setdefault(world.phase_order[-1], [0, 0])[slot] += 1

    class CountedClosure(ClosureTimeSurvey):
        def callback_batch(self, ctx, batch):
            tally(1)
            super().callback_batch(ctx, batch)

    kernels = ROW_KERNEL_TIERS[resolve_kernel_tier(None)]
    kernel = kernels["merge_path"]

    def recorded(*args, matches=True):
        tally(0)
        return kernel(*args, matches=matches)

    reducer = CountedClosure(world)
    kernels["merge_path"] = recorded
    try:
        triangle_survey(dodgr, reducer.callback, algorithm, engine="columnar")
    finally:
        kernels["merge_path"] = kernel
        dodgr.release()
    return counts


def check_staged_delivery() -> List[str]:
    """A full survey intersects and delivers once per rank per phase (check 15)."""
    errors: List[str] = []
    for algorithm in ("push", "push_pull"):
        counts = staged_delivery_counts(algorithm)
        if not counts:
            errors.append(f"{algorithm} survey: no row-kernel call")
        for phase, (calls, deliveries) in counts.items():
            if calls > SMOKE_RANKS or deliveries > SMOKE_RANKS:
                errors.append(
                    f"{algorithm} survey, phase {phase!r}: {calls} row-kernel calls and "
                    f"{deliveries} callback_batch deliveries, expected at most "
                    f"{SMOKE_RANKS} of each (one per rank)"
                )
    return errors


def _labels_stream():
    """The smoke graph as three stamped, labelled batches: ``(records,
    labels)``, batch ``k`` being ``records[k::3]`` with vertex metadata
    ``labels[k]``.  The first labels the even vertices, the second the odd
    ones (which held None if an edge brought them in), the third none.
    Every label names its vertex, so a run of the extractor on it is a run
    on that ``(vertex, metadata)`` pair."""
    from repro.graph.metadata import temporal_edge_meta

    us, vs = erdos_renyi(**SMOKE_GRAPH).edge_columns()
    records = [
        (u, v, temporal_edge_meta(float(i), i % 3))
        for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist()))
    ]
    vertices = set(us.tolist()) | set(vs.tolist())
    labels = [{v: 100 + v for v in vertices if v % 2 == half} for half in (0, 1)] + [None]
    return records, labels


def _counted_labels_reducer(seen: list):
    """A :class:`~repro.core.callbacks.MaxEdgeLabelDistribution` factory
    whose vertex-label extractor appends every value it runs on to ``seen``."""
    from repro.core.callbacks import MaxEdgeLabelDistribution

    def vertex_label(meta):
        seen.append(meta)
        return -1 if meta is None else meta

    def edge_label(meta):
        return meta[1]

    return lambda world: MaxEdgeLabelDistribution(world, edge_label, vertex_label)


def _triangle_pairs(graph) -> set:
    """``(vertex, metadata)`` of every vertex in a triangle of ``graph``: the
    pairs a survey of it reads."""
    import numpy as np

    from repro.graph.properties import serial_triangle_list

    image = graph.half_edge_columns()
    src = np.repeat(np.arange(len(image.vertices)), image.degree)
    triangles = serial_triangle_list(zip(src.tolist(), image.tgt.tolist()))
    ids, metas = image.vertices.tolist(), image.vertex_meta.tolist()
    return {(ids[v], metas[v]) for v in set().union(*triangles)}


def _extra_runs(seen: list, pairs: set) -> int:
    """Extractor runs beyond one per ``(vertex, metadata)`` pair: a value
    run on more often than the surveyed vertices held it."""
    held = collections.Counter(meta for _vertex, meta in pairs)
    return sum(max(0, runs - held[meta]) for meta, runs in collections.Counter(seen).items())


def vertex_label_extractions() -> Tuple[int, int]:
    """Vertex-label extractor runs over one labels stream, and how many of
    them repeat a ``(vertex, metadata)`` pair its images held.

    Streams :func:`_labels_stream` through a columnar
    :class:`~repro.core.incremental.StreamingSurvey` of a counted
    :func:`_counted_labels_reducer`.  ``ARRAY_VALUES_MIN_BATCH`` is 0 for
    the run, so every batch reads the value memo and the runs are the
    memo's fills.
    """
    import repro.graph.metadata as metadata
    from repro.core.incremental import StreamingSurvey

    records, labels = _labels_stream()
    seen: list = []
    stream = StreamingSurvey(World(SMOKE_RANKS), _counted_labels_reducer(seen), engine="columnar")
    pairs: set = set()
    min_batch, metadata.ARRAY_VALUES_MIN_BATCH = metadata.ARRAY_VALUES_MIN_BATCH, 0
    try:
        for index, batch_labels in enumerate(labels):
            stream.ingest(records[index::3], batch_labels)
            pairs |= _triangle_pairs(stream.graph)
    finally:
        metadata.ARRAY_VALUES_MIN_BATCH = min_batch
        stream.close()
    return len(seen), _extra_runs(seen, pairs)


def pinned_epoch_extractions() -> Tuple[int, int, List[str]]:
    """Vertex-label extractor runs over a service that pins two epochs, how
    many of them repeat a ``(vertex, metadata)`` pair their images held, and
    the queries' outcomes.

    A :class:`~repro.service.SurveyService` whose ``labels`` analysis is the
    counted :func:`_counted_labels_reducer` ingests the first two batches
    of :func:`_labels_stream`, and one query pins each epoch.  Both run
    after the second ingest, the older first: epoch 0 is surveyed from an
    image a batch has already moved past, and epoch 1 after it.
    ``ARRAY_VALUES_MIN_BATCH`` is 0 for the run.
    """
    import repro.graph.metadata as metadata
    import repro.service.service as service_module
    from repro.service import SurveyService

    records, labels = _labels_stream()
    seen: list = []
    spec = service_module.ANALYSES["labels"]
    service_module.ANALYSES["labels"] = dataclasses.replace(
        spec, reducer_factory=_counted_labels_reducer(seen)
    )
    min_batch, metadata.ARRAY_VALUES_MIN_BATCH = metadata.ARRAY_VALUES_MIN_BATCH, 0
    pairs: set = set()
    try:
        service = SurveyService(World(SMOKE_RANKS), analyses=("labels",))
        try:
            tickets = []
            for index in range(2):
                service.ingest(records[index::3], labels[index])
                pairs |= _triangle_pairs(service._ledger.graph)
                tickets.append(service.submit(analysis="labels"))
            service.pump()
        finally:
            service.close()
    finally:
        metadata.ARRAY_VALUES_MIN_BATCH = min_batch
        service_module.ANALYSES["labels"] = spec
    outcomes = [ticket.answer.outcome for ticket in tickets]
    return len(seen), _extra_runs(seen, pairs), outcomes


def check_vertex_label_extractions() -> List[str]:
    """A vertex label is extracted once per (vertex, value) per stream, and
    across the epochs a service pins (check 16)."""
    errors: List[str] = []
    runs, extra = vertex_label_extractions()
    service_runs, service_extra, outcomes = pinned_epoch_extractions()
    if outcomes != ["exact", "exact"]:
        errors.append(f"two-epoch SurveyService: queries answered {outcomes}, expected exact")
    for where, runs, extra in (
        ("3-batch StreamingSurvey of MaxEdgeLabelDistribution", runs, extra),
        ("SurveyService querying two pinned epochs", service_runs, service_extra),
    ):
        if not runs:
            errors.append(f"{where}: the vertex-label extractor never ran")
        elif extra:
            errors.append(
                f"{where}: the vertex-label extractor ran {runs} times, {extra} of them "
                "on a (vertex, metadata) pair it had already run on"
            )
    return errors


def _annotation_names(tree: ast.Module) -> set:
    """Names read inside string annotations (``-> "np.ndarray"``,
    ``Optional["Callback"]``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for constant in ast.walk(annotation):
            if isinstance(constant, ast.Constant) and isinstance(constant.value, str):
                try:
                    parsed = ast.parse(constant.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def unused_imports(root: Path) -> List[str]:
    """``path:line name`` of every import under ``root`` (a ``src/repro``
    tree) whose bound name the module never reads.  Package ``__init__``
    files (their imports are re-exports), names in the module's
    ``__all__`` and ``from __future__`` imports are exempt."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        relative = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), relative)
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        read |= _annotation_names(tree) | set(_exported(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found.extend(
                f"{relative}:{node.lineno} {name}" for name in bound if name not in read
            )
    return found


def check_no_unused_imports() -> List[str]:
    """Every import in ``src/repro`` is read (check 17)."""
    return [
        f"unused import: {where}"
        for where in unused_imports(REPO_ROOT / "src" / "repro")
    ]


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
        oracle = run_cell(smoke_world(), "triangle", "legacy", algorithm)
        for engine in registered[1:]:
            errors += smoke_problems(EngineConfig(engine=engine), algorithm, oracle)
        # The backend axis keeps the same contract: one process-backend
        # smoke per algorithm against the simulated oracle.
        errors += smoke_problems(
            EngineConfig(engine="columnar", backend="process", workers=2), algorithm, oracle
        )

    errors.extend(check_sweep_coverage(registered))
    errors.extend(check_reducer_contract())
    errors.extend(check_execution_axes())
    errors.extend(check_selector_surface())
    errors.extend(check_write_path())
    errors.extend(check_unsupported_table())
    errors.extend(check_one_survey_loop())
    errors.extend(check_oracle_fence())
    errors.extend(check_one_stable_sort())
    errors.extend(check_public_surface())
    errors.extend(check_array_paths())
    errors.extend(check_count_only())
    errors.extend(check_staged_delivery())
    errors.extend(check_vertex_label_extractions())
    errors.extend(check_no_unused_imports())

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
        "snapshot/merge/callback_batch contract with zero per-message sends; "
        f"{len(KERNEL_TIERS)} kernel tiers and {len(STORAGES)} storage modes "
        "documented and parity-clean; engine= is the only execution selector; "
        "a stream step delivers once per rank; one table says what may run; "
        "one loop runs every survey phase; the oracle stays out of production; "
        "one primitive owns every stable sort; "
        "every export has a caller or a stated reason; "
        f"{len(ARRAY_PATH_REDUCERS)} array-path reducers stay on the arrays; "
        "a count counts in place; a survey delivers once per rank per phase; "
        "a vertex label is extracted once per stream; "
        "every import in src/ is read"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
