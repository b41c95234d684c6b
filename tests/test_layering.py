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
``lacks``, and the flag graph hands its rows of positions to
``AmpGraph._from_rows``.  Every guarded name is defined in the module that
owns it, so no guard is left over from a rename.

And no module a command loads imports :mod:`dataclasses` or the
:mod:`inspect` it pulls in: a cold command would pay about 11 ms for them.
Only :mod:`ampgraph.words`, which no command loads, may.

A one-vertex cut's record, its ``_parent`` and ``_removed``, is written
only by ``AmpGraph.quotient``, once that vertex's row has admitted the cut:
``hereditary_cut`` reads a recorded cut without testing it again.

The command line reads graph files in one place: :mod:`ampgraph.cli` calls
``load_graph`` at one site, and no subcommand handler (``_cmd_*``) imports
it; each handler is given the graph.

A chosen ``(sink, star)`` reaches a verified step along one path: the
validator ``_check_step``, the augmenter ``_stabilize`` and the builder
``_split`` are each named at one site of the package, so a second path to
a split cannot come back unnoticed.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ampgraph"
LAYOUT = {
    "vertex_images", "edge_images", "vertex_patch", "family_patch", "_push",
    "_check_composable", "word_mul", "_image",
}
STORAGE = {"_t", "_keep", "_Tables", "_on", "_at", "_mask", "_labels", "_kept", "_shape"}
#: The module that defines each guarded name: a map's layout is algebra's,
#: but words are multiplied in words.
OWNERS = {name: "algebra.py" for name in LAYOUT} | {"word_mul": "words.py"} | {
    name: "graphs.py" for name in STORAGE}
SLOW_IMPORTS = {"dataclasses", "inspect"}
RECORD = {"_parent", "_removed"}
STEP_STAGES = ("_check_step", "_stabilize", "_split")


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


def _defined(tree: ast.AST) -> set[str]:
    """The names ``tree`` defines: functions, classes, assigned names and
    attributes, keyword-set attributes and ``__slots__`` entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


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


@pytest.mark.parametrize("module", sorted(set(OWNERS.values())))
def test_every_guarded_name_is_defined_in_the_module_that_owns_it(module):
    # a name no module defines guards nothing: it is left over from a rename
    owned = {name for name, owner in OWNERS.items() if owner == module}
    assert owned - _defined(ast.parse((PACKAGE / module).read_text())) == set()


def test_the_definition_scan_sees_each_form():
    source = (
        "class _Tables:\n"
        "    __slots__ = ('labels', 'succ')\n"
        "def _pull(patch, table): pass\n"
        "_push = _pull\n"
        "g.__dict__.update(_t=t, _keep=keep)\n"
        "self._shape = None\n"
        "print(_flags, g._index)\n"
    )
    assert _defined(ast.parse(source)) == {
        "_Tables", "__slots__", "labels", "succ", "_pull", "_push", "_t", "_keep", "_shape"}


def test_the_layout_scan_sees_reads_and_imports():
    source = (
        "from .algebra import _image, verify_ck_family\n"
        "x = m.vertex_images[v]\n"
        "t = m.edge_images[f]\n"
    )
    assert _uses(ast.parse(source), LAYOUT) == [
        "line 1: imports _image",
        "line 2: reads .vertex_images",
        "line 3: reads .edge_images",
    ]


def test_the_storage_scan_sees_reads_and_imports():
    source = (
        "from .graphs import _Tables, AmpGraph\n"
        "i = g._at(v)\n"
        "keep = g._keep & ~h._keep\n"
        "ok = v in g and g.has_family(v, w)\n"
    )
    assert _uses(ast.parse(source), STORAGE) == [
        "line 1: imports _Tables",
        "line 2: reads ._at",
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


def _names_record(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in RECORD


def _record_write(node: ast.AST) -> str | None:
    """What ``node`` does to a cut's record, when it writes one: a keyword, an
    attribute or subscript set, a dict key or a ``setattr`` naming it."""
    if isinstance(node, ast.keyword) and node.arg in RECORD:
        return f"passes {node.arg}="
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr in RECORD:
        return f"sets .{node.attr}"
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and _names_record(node.slice):
        return f"sets [{node.slice.value!r}]"
    if isinstance(node, ast.Dict) and any(map(_names_record, node.keys)):
        return "keys a dict by it"
    if isinstance(node, ast.Call) and any(map(_names_record, node.args)) and (
            getattr(node.func, "id", None) == "setattr" or getattr(node.func, "attr", None) == "__setattr__"):
        return "calls setattr on it"
    return None


def _record_writes(tree: ast.AST) -> list[tuple[str, str]]:
    """Each write of a cut's record in ``tree``, with the dotted name of the class and function it is in."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = f"{where}.{child.name}" if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else where
            what = _record_write(child)
            if what:
                found.append((inner.lstrip("."), f"line {child.lineno}: {what}"))
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_a_one_vertex_quotient_writes_a_cuts_record():
    writes = {p.name: _record_writes(ast.parse(p.read_text(), str(p))) for p in sorted(PACKAGE.glob("*.py"))}
    assert [(name, *w) for name, found in writes.items() for w in found if w[0] != "AmpGraph.quotient"] == []
    # the scan sees the one write there is
    assert [w[1].split(": ")[1] for w in writes["graphs.py"]] == ["passes _parent=", "passes _removed="]


def test_the_record_scan_sees_each_form_of_write():
    source = (
        "class AmpGraph:\n"
        "    def quotient(self):\n"
        "        return AmpGraph._on(t, k, _parent=self, _removed=i)\n"
        "    def other(self):\n"
        "        return AmpGraph._on(t, k, _parent=self)\n"
        "g._removed = 3\n"
        "g.__dict__['_parent'] = h\n"
        "g.__dict__.update({'_removed': 1})\n"
        "setattr(g, '_parent', h)\n"
        "object.__setattr__(g, '_removed', 1)\n"
        "ok = g.__dict__.get('_parent') is h and g._removed\n"
    )
    assert _record_writes(ast.parse(source)) == [
        ("AmpGraph.quotient", "line 3: passes _parent="),
        ("AmpGraph.quotient", "line 3: passes _removed="),
        ("AmpGraph.other", "line 5: passes _parent="),
        ("", "line 6: sets ._removed"),
        ("", "line 7: sets ['_parent']"),
        ("", "line 8: keys a dict by it"),
        ("", "line 9: calls setattr on it"),
        ("", "line 10: calls setattr on it"),
    ]


def _graph_reads(tree: ast.AST) -> list[str]:
    """Calls of ``load_graph`` anywhere, and imports of it inside a handler."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "load_graph":
                found.append(f"line {node.lineno}: calls load_graph")
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"):
            found += [
                f"line {inner.lineno}: {node.name} imports load_graph"
                for inner in ast.walk(node) if isinstance(inner, ast.ImportFrom)
                and any(alias.name == "load_graph" for alias in inner.names)
            ]
    return found


def test_the_cli_reads_graph_files_at_one_site():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert sum(name.startswith("_cmd_") for name in names) == 9  # the scan sees every handler
    reads = _graph_reads(tree)
    assert len(reads) == 1 and reads[0].endswith("calls load_graph"), reads


def test_the_graph_read_scan_sees_calls_and_handler_imports():
    source = (
        "def _cmd_a(ns):\n"
        "    from .graphio import graph_to_dict, load_graph\n"
        "    return load_graph(ns.file)\n"
        "def _read(ns):\n"
        "    from .graphio import load_graph\n"
        "    return graphio.load_graph(ns.file)\n"
    )
    assert sorted(_graph_reads(ast.parse(source))) == [
        "line 2: _cmd_a imports load_graph",
        "line 3: calls load_graph",
        "line 6: calls load_graph",
    ]


def _sites(paths, names) -> dict[str, list[str]]:
    """Each read of one of ``names``, called or not, in the modules at ``paths``, as ``file:line``."""
    found: dict[str, list[str]] = {name: [] for name in names}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in found and isinstance(getattr(node, "ctx", None), ast.Load):
                found[name].append(f"{path.name}:{node.lineno}")
    return found


def test_each_stage_of_a_split_is_named_at_one_site():
    sites = _sites(sorted(PACKAGE.glob("*.py")), STEP_STAGES)
    assert {name: len(at) for name, at in sites.items()} == dict.fromkeys(STEP_STAGES, 1), sites


def test_the_stage_scan_sees_a_second_path(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(g):\n    _check_step(g, s, t)\n    return splitting._split(w, q, s, t, ())\n")
    (tmp_path / "b.py").write_text(
        "def _stabilize(g, plan):\n    _check_step(g, s, t)\n    later = _split\n    _stabilize = None\n")
    assert _sites(sorted(tmp_path.glob("*.py")), STEP_STAGES) == {
        "_check_step": ["a.py:2", "b.py:2"], "_stabilize": [], "_split": ["a.py:3", "b.py:3"]}
