"""Only :mod:`ampgraph.algebra` reads how a generator map stores its images.

A map holds its vertex tables in ``.vertex_images`` and its family
templates in ``.edge_images``, and the table-level helpers that compose and
push maps work on that layout.  Every other module goes through the
functions ``algebra`` provides for it, and none multiplies words itself, so
the layout can change in one module.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ampgraph"
LAYOUT = {
    "vertex_images", "edge_images", "_push", "_push_table", "_compose_template",
    "_check_composable", "word_mul",
}


def _layout_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT:
            found.append(f"line {node.lineno}: reads .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names if alias.name in LAYOUT
            ]
    return found


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "algebra.py"],
    ids=lambda p: p.name,
)
def test_only_algebra_reads_a_maps_layout(path):
    assert _layout_uses(ast.parse(path.read_text(), str(path))) == []


def test_the_layout_scan_sees_reads_and_imports():
    source = (
        "from .algebra import _push_table, verify_ck_family\n"
        "x = m.vertex_images[v]\n"
        "t = m.edge_images[f]\n"
    )
    assert _layout_uses(ast.parse(source)) == [
        "line 1: imports _push_table",
        "line 2: reads .vertex_images",
        "line 3: reads .edge_images",
    ]
