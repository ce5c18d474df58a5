"""The compiled kernel tier's build/load step, and every way it can fail.

:mod:`repro.core.intersection_compiled` compiles its C row kernels at import
and must never raise: whatever goes wrong, the tier is simply absent and the
``compiled -> columnar`` downgrade takes over.  These tests re-run the load
function (``_load``) under a monkeypatched compiler lookup and cache root —
the process-wide tier tables are never touched — and drive whole surveys
under the tier the way the process backend and ``storage="mmap"`` reach it.
"""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.closure_times import run_closure_time_survey
from repro.core import intersection_compiled as compiled
from repro.core.engine import EngineConfig
from repro.core.intersection import (
    ROW_KERNEL_TIERS,
    RowAdjacency,
    available_kernel_tiers,
    compiled_tier_status,
    resolve_kernel_tier,
)
from repro.core.push_pull import triangle_survey_push_pull
from repro.graph import DODGraph
from repro.graph.generators import reddit_like_temporal_graph, rmat
from repro.graph.ooc import active_segment_paths
from repro.runtime import World, active_segment_names

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

needs_compiler = pytest.mark.skipif(
    compiled._find_compiler() is None, reason="no C compiler on PATH"
)


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    """An empty private cache root for ``_load`` (``$XDG_CACHE_HOME``)."""
    root = tmp_path / "xdg"
    root.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root


def merge_smoke(lib):
    """The loaded library really intersects: [1, 2] x row [2, 3]."""
    kernel = compiled._row_kernel(lib, "merge_path")
    adjacency = RowAdjacency(np.array([2, 3]), np.array([0, 2]), 8)
    result = kernel([1, 2], [0], [2], [0], adjacency)
    return result.cand_pos.tolist(), result.adj_pos.tolist(), result.comparisons


# ---------------------------------------------------------------------------
# The load function under every failure
# ---------------------------------------------------------------------------


def test_no_compiler_leaves_the_tier_absent(monkeypatch, cache_root):
    monkeypatch.setattr(compiled, "_find_compiler", lambda: None)
    lib, status = compiled._load()
    assert lib is None
    assert status == compiled.CompiledTierStatus(
        False, None, None, "no C compiler on PATH"
    )
    assert list(cache_root.iterdir()) == []  # nothing was even attempted


def test_compiler_lookup_order(monkeypatch, tmp_path):
    """``cc`` first, then ``gcc``, then ``clang`` — whichever PATH has."""
    for name in ("clang", "gcc"):
        tool = tmp_path / name
        tool.write_text("#!/bin/sh\nexit 0\n")
        tool.chmod(0o755)
        monkeypatch.setenv("PATH", str(tmp_path))
        assert compiled._find_compiler() == str(tool)
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert compiled._find_compiler() is None


def test_failing_compiler_reports_its_first_stderr_line(monkeypatch, tmp_path, cache_root):
    fake = tmp_path / "cc"
    fake.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo "fake cc 1.0"; exit 0; fi\n'
        'echo "fatal: no can do" >&2; echo "second line" >&2; exit 3\n'
    )
    fake.chmod(0o755)
    monkeypatch.setattr(compiled, "_find_compiler", lambda: str(fake))
    lib, status = compiled._load()
    assert lib is None and not status.available
    assert status.compiler == str(fake) and status.library is None
    assert status.reason == "cc exited 3: fatal: no can do"
    # No half-built file is left behind in the cache.
    assert list((cache_root / "repro-kernels").iterdir()) == []


@needs_compiler
def test_cold_build_then_cached_load_in_a_private_directory(cache_root):
    lib, status = compiled._load()
    assert status.available and status.reason == "built"
    directory = cache_root / "repro-kernels"
    assert os.path.dirname(status.library) == str(directory)
    info = directory.stat()
    assert stat.S_IMODE(info.st_mode) == 0o700 and info.st_uid == os.getuid()
    assert [p.name for p in directory.iterdir()] == [os.path.basename(status.library)]
    assert merge_smoke(lib) == ([1], [0], 2)

    lib, again = compiled._load()
    assert again.available and again.reason == "loaded from cache"
    assert again.library == status.library
    assert merge_smoke(lib) == ([1], [0], 2)


@needs_compiler
def test_truncated_cached_library_is_rebuilt(cache_root, tmp_path, monkeypatch):
    _lib, status = compiled._load()
    # Plant a truncated copy under the cached name in a second, empty cache
    # (dlopen would hand back the handle already open for the first path).
    other = tmp_path / "xdg2"
    planted = other / "repro-kernels" / os.path.basename(status.library)
    planted.parent.mkdir(parents=True, mode=0o700)
    with open(status.library, "rb") as handle:
        planted.write_bytes(handle.read(200))
    monkeypatch.setenv("XDG_CACHE_HOME", str(other))
    lib, again = compiled._load()
    assert again.available and again.reason == "built"
    assert again.library == str(planted) and planted.stat().st_size > 200
    assert merge_smoke(lib) == ([1], [0], 2)


@needs_compiler
@pytest.mark.parametrize("broken", ["not-a-directory", "shared-mode", "relative"])
def test_unusable_cache_root_falls_back_to_a_private_temp_dir(
    broken, monkeypatch, tmp_path
):
    if broken == "not-a-directory":
        root = tmp_path / "file"
        root.write_text("")  # makedirs below a regular file fails, even as root
    elif broken == "shared-mode":
        root = tmp_path / "xdg"
        (root / "repro-kernels").mkdir(parents=True)
        (root / "repro-kernels").chmod(0o755)  # someone else could have made it
    else:
        root = "relative/cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    removed_at_exit = []
    monkeypatch.setattr(
        compiled.atexit, "register", lambda fn, *a, **kw: removed_at_exit.append((fn, a, kw))
    )
    lib, status = compiled._load()
    try:
        assert status.available and status.reason == "built"
        directory = os.path.dirname(status.library)
        assert not directory.startswith(str(root)) and os.path.isabs(directory)
        info = os.stat(directory)
        assert stat.S_IMODE(info.st_mode) == 0o700 and info.st_uid == os.getuid()
        assert merge_smoke(lib) == ([1], [0], 2)
        assert not os.path.exists("relative")
    finally:
        (cleanup, args, kwargs), = removed_at_exit
        assert args == (os.path.dirname(status.library),)
        cleanup(*args, **kwargs)
    assert not os.path.exists(os.path.dirname(status.library))


def in_subprocess(code, **env):
    """Run ``code`` in a fresh interpreter (a fresh import of the loader)."""
    environ = {**os.environ, "PYTHONPATH": SRC, **env}
    return subprocess.Popen(
        [sys.executable, "-c", code], env=environ, stdout=subprocess.PIPE, text=True
    )


@needs_compiler
def test_concurrent_first_imports_share_one_empty_cache(cache_root):
    code = (
        "from repro.core.intersection import compiled_tier_status as status, row_kernel\n"
        "import numpy as np\n"
        "from repro.core.intersection import RowAdjacency\n"
        "adjacency = RowAdjacency(np.array([2, 3]), np.array([0, 2]), 8)\n"
        "result = row_kernel('merge_path')([1, 2], [0], [2], [0], adjacency)\n"
        "print(status().available, status().reason, result.adj_pos.tolist())\n"
    )
    racers = [in_subprocess(code) for _ in range(2)]
    outputs = [racer.communicate(timeout=120)[0].split() for racer in racers]
    assert [racer.returncode for racer in racers] == [0, 0]
    for available, *reason, matches in outputs:
        assert available == "True" and " ".join(reason) in ("built", "loaded from cache")
        assert matches == "[0]"
    # One library, no temp file left by either build.
    (library,) = (cache_root / "repro-kernels").iterdir()
    assert library.name.startswith("rows-") and library.suffix == ".so"


# ---------------------------------------------------------------------------
# Whole surveys under the tier, and without it
# ---------------------------------------------------------------------------


def count_push_pull(engine):
    world = World(4)
    dodgr = DODGraph.build(
        rmat(7, edge_factor=8, seed=3).to_distributed(world), mode="bulk"
    )
    report = triangle_survey_push_pull(dodgr, None, engine=engine)
    dodgr.release()
    return [
        report.triangles,
        report.wedge_checks,
        report.communication_bytes,
        report.wire_messages,
        report.simulated_seconds,
    ]


def closure_panel(engine):
    world = World(4)
    graph = reddit_like_temporal_graph(num_authors=120, num_comments=1500, seed=4)
    result = run_closure_time_survey(
        graph.to_distributed(world), algorithm="push", engine=engine
    )
    return sorted([list(key), count] for key, count in result.joint.items())


SURVEY_SCRIPT = """
import json
from tests.core.test_kernel_loader import closure_panel, count_push_pull
from repro.core.intersection import available_kernel_tiers, resolve_kernel_tier
print(json.dumps({
    "tiers": available_kernel_tiers(),
    "default": resolve_kernel_tier(None),
    "count": count_push_pull(None),
    "panel": closure_panel(None),
}))
"""


def test_without_a_compiler_the_default_is_columnar_and_bit_identical(tmp_path):
    """A fresh interpreter whose PATH holds no compiler: ``import repro``
    succeeds, the tier is absent, ``None`` resolves to ``columnar`` and both a
    Push-Pull count and a closure-time panel equal this process's compiled
    (or, compiler-less, columnar) run bit for bit."""
    repo = os.path.join(SRC, os.pardir)
    child = in_subprocess(
        SURVEY_SCRIPT,
        PATH=str(tmp_path),
        PYTHONPATH=os.pathsep.join([SRC, repo]),
        XDG_CACHE_HOME=str(tmp_path),
    )
    out = json.loads(child.communicate(timeout=300)[0])
    assert child.returncode == 0
    assert out["tiers"] == ["columnar"] and out["default"] == "columnar"
    assert list(tmp_path.iterdir()) == []  # no compiler: the cache is never touched
    assert out["count"] == count_push_pull(None)
    assert out["panel"] == closure_panel(None) and out["panel"]
    forced = EngineConfig(kernel_tier="columnar")
    assert out["count"] == count_push_pull(forced)
    assert out["panel"] == closure_panel(forced)


def test_mmap_and_process_surveys_under_the_compiled_tier(monkeypatch):
    """``storage="mmap"`` hands the C kernels memmapped columns, the process
    backend runs them in forked workers (which inherit the loaded library and
    never build): same report as the simulated/resident oracle, nothing leaked."""
    tier = resolve_kernel_tier("compiled")
    assert tier == ("compiled" if compiled_tier_status().available else "columnar")
    assert tier == available_kernel_tiers()[0]
    builds = []
    monkeypatch.setattr(compiled, "_build", lambda *a: builds.append(a))
    segments, shm = active_segment_paths(), active_segment_names()
    oracle = count_push_pull(EngineConfig(engine="legacy"))
    assert count_push_pull(EngineConfig(kernel_tier="compiled", storage="mmap")) == oracle
    assert active_segment_paths() == segments  # leaked_segments == 0
    process = EngineConfig(kernel_tier="compiled", backend="process", workers=2)
    assert count_push_pull(process) == oracle
    assert active_segment_names() == shm  # leaked_shm == 0
    assert builds == [] and set(ROW_KERNEL_TIERS) == set(available_kernel_tiers())
