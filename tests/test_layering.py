"""Only one module reads how a generator map, or a graph, is stored.

A map keeps the images it moves in ``.vertex_patch`` and ``.family_patch``
and builds its full tables ``.vertex_images`` and ``.edge_images`` on
access, and the table-level helpers that look up, compose and push maps
work on that layout.  Every other module goes through the
functions ``algebra`` provides for it, and only :mod:`ampgraph.words`
multiplies words, so the layout can change in one module.

Likewise a graph is its shared tables under a mask of the vertices it
keeps, and only :mod:`ampgraph.graphs` reads them: every other module asks
``v in g``, ``len(g)``, ``index``, ``multiplicity``, ``has_family`` or
``lacks``.

And no module a command loads imports :mod:`dataclasses` or the
:mod:`inspect` it pulls in: a cold command would pay about 11 ms for them.
Only :mod:`ampgraph.words`, which no command loads, may.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ampgraph"
LAYOUT = {
    "vertex_images", "edge_images", "vertex_patch", "family_patch", "_vertex_image",
    "_family_image", "_push", "_push_table", "_compose_template", "_check_composable",
    "word_mul",
}
STORAGE = {
    "_t", "_keep", "_Tables", "_on", "_at", "_mask", "_labels", "_kept", "_flags", "_shape",
    "_index", "_mult",
}
SLOW_IMPORTS = {"dataclasses", "inspect"}


def _uses(tree: ast.AST, names: set[str]) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f"line {node.lineno}: reads .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names if alias.name in names
            ]
    return found


def _imports(tree: ast.AST, modules: set[str]) -> list[str]:
    """Every import of one of ``modules`` in ``tree``, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names if alias.name.split(".")[0] in modules
            ]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] in modules:
            found.append(f"line {node.lineno}: imports from {node.module}")
    return found


def _modules_but(name: str):
    return pytest.mark.parametrize(
        "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != name], ids=lambda p: p.name
    )


@_modules_but("algebra.py")
def test_only_algebra_reads_a_maps_layout(path):
    assert _uses(ast.parse(path.read_text(), str(path)), LAYOUT) == []


@_modules_but("graphs.py")
def test_only_graphs_reads_a_graphs_storage(path):
    assert _uses(ast.parse(path.read_text(), str(path)), STORAGE) == []


@_modules_but("words.py")
def test_no_module_a_command_loads_imports_dataclasses_or_inspect(path):
    assert _imports(ast.parse(path.read_text(), str(path)), SLOW_IMPORTS) == []


def test_the_layout_scan_sees_reads_and_imports():
    source = (
        "from .algebra import _push_table, verify_ck_family\n"
        "x = m.vertex_images[v]\n"
        "t = m.edge_images[f]\n"
    )
    assert _uses(ast.parse(source), LAYOUT) == [
        "line 1: imports _push_table",
        "line 2: reads .vertex_images",
        "line 3: reads .edge_images",
    ]


def test_the_storage_scan_sees_reads_and_imports():
    source = (
        "from .graphs import _Tables, AmpGraph\n"
        "i = g._index[v]\n"
        "keep = g._keep & ~h._keep\n"
        "ok = v in g and g.has_family(v, w)\n"
    )
    assert _uses(ast.parse(source), STORAGE) == [
        "line 1: imports _Tables",
        "line 2: reads ._index",
        "line 3: reads ._keep",
        "line 3: reads ._keep",
    ]


def test_the_import_scan_sees_both_forms_at_any_depth():
    source = (
        "import inspect\n"
        "from dataclasses import dataclass, field\n"
        "from .words import CKElement\n"
        "def f():\n"
        "    import json, dataclasses as dc\n"
    )
    assert _imports(ast.parse(source), SLOW_IMPORTS) == [
        "line 1: imports inspect",
        "line 2: imports from dataclasses",
        "line 5: imports dataclasses",
    ]
