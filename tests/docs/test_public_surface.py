"""Check 12 of ``tools/check_engines.py`` in its parts: what it counts as an
export, where an export is defined, which files count as its callers, and
which attribute reads count as uses.

``tests/docs/test_docs.py`` runs the whole check on the repository and on
one planted tree; the tests here pin each rule on a tree of their own.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_engines  # noqa: E402  (repo tool, imported from tools/)


def plant(root: Path, files: dict) -> Path:
    """Write ``files`` (relative path -> text) under ``root``."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def shapes_tree(root: Path) -> Path:
    """A package ``repro.graph`` re-exporting ``stray_shape`` from ``shapes``."""
    return plant(
        root,
        {
            "src/repro/__init__.py": "",
            "src/repro/graph/__init__.py": (
                "from .shapes import stray_shape\n__all__ = [\"stray_shape\"]\n"
            ),
            "src/repro/graph/shapes.py": (
                '__all__ = ["stray_shape"]\n\n\ndef stray_shape():\n    return stray_shape\n'
            ),
        },
    )


def test_exported_reads_only_the_top_level_string_entries():
    tree = ast.parse(
        '__all__ = ["a", "b", 3]\n'
        "def f():\n    __all__ = ['hidden']\n"
    )
    assert check_engines._exported(tree) == ["a", "b"]
    assert check_engines._exported(ast.parse("x = 1\n")) == []


@pytest.mark.parametrize(
    "source, bound",
    [
        ("def name():\n    pass\n", True),
        ("class name:\n    pass\n", True),
        ("name = 1\n", True),
        ("name: int = 1\n", True),
        ("first, name = 1, 2\n", True),
        ("from elsewhere import name\n", False),
        ("def other():\n    name = 1\n", False),
    ],
)
def test_binds_means_defined_at_top_level(source, bound):
    assert check_engines._binds(ast.parse(source), "name") is bound


def test_an_export_is_traced_to_its_defining_module(tmp_path):
    root = shapes_tree(tmp_path)
    names = check_engines.public_names(root)
    assert names == {"repro.graph.shapes.stray_shape": root / "src/repro/graph/shapes.py"}


def test_an_absolute_re_export_is_traced_too(tmp_path):
    root = shapes_tree(tmp_path)
    plant(
        root,
        {
            "src/repro/facade.py": (
                "from repro.graph.shapes import stray_shape\n__all__ = [\"stray_shape\"]\n"
            )
        },
    )
    assert list(check_engines.public_names(root)) == ["repro.graph.shapes.stray_shape"]


def test_a_use_in_its_own_module_or_a_re_export_is_no_use(tmp_path):
    root = shapes_tree(tmp_path)
    assert check_engines.stray_public_names(root) == ["repro.graph.shapes.stray_shape"]


def test_an_assignment_target_is_no_use(tmp_path):
    root = shapes_tree(tmp_path)
    plant(root, {"examples/demo.py": "stray_shape = None\n"})
    assert check_engines.stray_public_names(root) == ["repro.graph.shapes.stray_shape"]


@pytest.mark.parametrize(
    "caller",
    [
        "src/repro/graph/other.py",
        "perf/run.py",
        "benchmarks/bench_shapes.py",
        "examples/demo.py",
        "tools/tool.py",
        "docs/shapes.md",
        "README.md",
    ],
)
def test_a_use_outside_tests_clears_the_export(tmp_path, caller):
    root = shapes_tree(tmp_path)
    text = (
        "`stray_shape()`\n"
        if caller.endswith(".md")
        else "from repro import graph\nprint(graph.stray_shape)\n"
    )
    plant(root, {caller: text})
    assert check_engines.stray_public_names(root) == []


@pytest.mark.parametrize(
    "caller",
    ["tests/test_shapes.py", "scripts/run.py", "docs/shapes.txt", "tools/check_engines.py"],
)
def test_a_use_only_where_callers_are_not_read_leaves_it_stray(tmp_path, caller):
    root = shapes_tree(tmp_path)
    plant(root, {caller: "from repro.graph import stray_shape\nstray_shape()\n"})
    assert check_engines.stray_public_names(root) == ["repro.graph.shapes.stray_shape"]


def test_an_attribute_counts_only_through_a_module_binding(tmp_path):
    """Two exports: one reached only as the same-named attribute of some
    other object is flagged, one reached through a module alias is not."""
    root = plant(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/graph/__init__.py": "",
            "src/repro/graph/shapes.py": (
                '__all__ = ["shadowed_shape", "aliased_shape"]\n\n\n'
                "def shadowed_shape():\n    return 1\n\n\n"
                "def aliased_shape():\n    return 2\n"
            ),
            "examples/demo.py": (
                "import repro.graph.shapes as shapes\n\n\n"
                "class Summary:\n    shadowed_shape = 0\n\n\n"
                "print(Summary().shadowed_shape, shapes.aliased_shape())\n"
            ),
        },
    )
    assert check_engines.stray_public_names(root) == ["repro.graph.shapes.shadowed_shape"]


@pytest.mark.parametrize(
    "caller, text",
    [
        ("examples/demo.py", "import repro.graph.shapes as shapes\nshapes.stray_shape()\n"),
        ("examples/demo.py", "from repro.graph import shapes as s\ns.stray_shape()\n"),
        ("examples/demo.py", "import repro.graph\nrepro.graph.stray_shape()\n"),
        ("examples/demo.py", "import repro\nrepro.graph.shapes.stray_shape()\n"),
        ("src/repro/graph/other.py", "from . import shapes\nshapes.stray_shape()\n"),
        ("src/repro/graph/other.py", "from .. import graph\ngraph.stray_shape()\n"),
    ],
)
def test_an_attribute_of_a_bound_module_is_a_use(tmp_path, caller, text):
    root = shapes_tree(tmp_path)
    plant(root, {caller: text})
    assert check_engines.stray_public_names(root) == []


@pytest.mark.parametrize(
    "text",
    [
        "class Other:\n    stray_shape = 1\n\n\nprint(Other().stray_shape)\n",
        "import repro\nprint(repro.stray_shape)\n",  # repro re-exports nothing
        "import numpy\nprint(numpy.stray_shape)\n",
        "from repro.graph.shapes import stray_shape as shape\nprint(shape.stray_shape)\n",
    ],
)
def test_an_attribute_of_anything_else_is_no_use(tmp_path, text):
    root = shapes_tree(tmp_path)
    plant(root, {"examples/demo.py": text})
    assert check_engines.stray_public_names(root) == ["repro.graph.shapes.stray_shape"]


def test_an_allowlist_pattern_that_matches_nothing_is_reported(monkeypatch):
    allowlist = dict(check_engines.PUBLIC_SURFACE_ALLOWLIST)
    allowlist["repro.graph.gone.*"] = "a module that no longer exists"
    monkeypatch.setattr(check_engines, "PUBLIC_SURFACE_ALLOWLIST", allowlist)
    assert check_engines.check_public_surface() == [
        "PUBLIC_SURFACE_ALLOWLIST entry 'repro.graph.gone.*' matches no exported name"
    ]


def test_every_allowlist_entry_states_a_reason():
    assert all(reason.strip() for reason in check_engines.PUBLIC_SURFACE_ALLOWLIST.values())


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.runtime.message_buffer", "MessageBuffer"),
        ("repro.core.approximate", "sparsify_graph"),
        ("repro.oracle.kernels", "IntersectionResult"),
    ],
)
def test_live_internals_are_importable_but_not_exported(module, name):
    """Names taken out of ``__all__`` whose code is live stay importable
    from their module, and no ``repro.*`` ``__all__`` lists them."""
    assert getattr(importlib.import_module(module), name) is not None
    exported = {
        qualified.rpartition(".")[2] for qualified in check_engines.public_names(REPO_ROOT)
    }
    assert name not in exported
