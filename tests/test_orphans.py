"""No private helper outlives its callers, and records share one model.

A private (``_name``, not dunder) function, method or class that the
package defines must be referred to by some other code of the package: a
name, an attribute or an imported name anywhere outside its own body.  A
deletion that leaves a helper with no caller fails here, not in review.
A public module-level function must be exported in ``ampgraph.__all__`` or
be referred to the same way, unless :data:`KEPT_PUBLIC` gives the reason it
stays.

Every record keeps its state in its instance dict: ``_Frozen`` alone
refuses assignment and deletion and restores a copy, and ``_built`` alone
builds an attribute on first read.  A class that defines one of those hooks
itself, by ``def`` or by assignment, fails here.
"""

import ast
import pathlib

import ampgraph

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ampgraph"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree: ast.AST) -> list[str]:
    """Every name ``tree`` refers to: loaded or stored names, attributes and imported names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name)
    return out


def _parsed(root: pathlib.Path) -> tuple[dict, dict[str, int]]:
    """The tree of each module under ``root``, and how often each name is referred to across them."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(root.glob("*.py"))}
    refs: dict[str, int] = {}
    for tree in trees.values():
        for name in _names(tree):
            refs[name] = refs.get(name, 0) + 1
    return trees, refs


def orphans(root: pathlib.Path) -> list[str]:
    """``file:line name`` of each private definition under ``root`` that no other code refers to."""
    trees, refs = _parsed(root)
    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if not isinstance(node, _DEFS) or not name.startswith("_") or name.endswith("__"):
                continue
            if refs.get(name, 0) == _names(node).count(name):
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def public_orphans(root: pathlib.Path, exported) -> list[str]:
    """``file:line name`` of each public module-level function under ``root`` that is not in
    ``exported`` and that no other code refers to."""
    trees, refs = _parsed(root)
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
                continue
            if node.name not in exported and refs.get(node.name, 0) == _names(node).count(node.name):
                out.append(f"{path.name}:{node.lineno} {node.name}")
    return out


def test_every_private_helper_has_a_caller():
    assert orphans(SRC) == []


def test_the_guard_sees_a_helper_left_behind(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n"
        "def _left():\n    return _used()\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
        "class _Box:\n    def _unread(self):\n        return self\n\n    def __repr__(self):\n        return ''\n"
    )
    (tmp_path / "b.py").write_text("from .a import _Box\n")
    assert orphans(tmp_path) == ["a.py:4 _left", "a.py:7 _recursive", "a.py:11 _unread"]


#: each public function kept with no caller and no export -> why it stays
KEPT_PUBLIC = {
    "weyl_group": "perfbench/spans.py wraps it; it leaves src/ with the brute-force references (ROADMAP item 3)",
    "smith_normal_form": "perfbench/spans.py wraps it; it leaves src/ with the brute-force references (ROADMAP item 3)",
}


def test_every_public_function_is_exported_or_called():
    """The allowlist names exactly the public orphans, so an entry that gains a caller leaves it too."""
    found = public_orphans(SRC, set(ampgraph.__all__))
    assert sorted(entry.split()[1] for entry in found) == sorted(KEPT_PUBLIC), found


def test_the_guard_sees_a_public_function_left_behind(tmp_path):
    (tmp_path / "a.py").write_text(
        "def exported():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def left(n):\n    return left(n - 1) if n else 0\n\n"
        "def _private():\n    return 0\n\n"
        "class Box:\n    def unread(self):\n        return self\n"
    )
    (tmp_path / "b.py").write_text("from .a import Box, _private\n\ndef stray():\n    return Box()\n")
    assert public_orphans(tmp_path, {"exported"}) == ["a.py:7 left", "b.py:3 stray"]


#: each hook of a record -> the one class that may define it
_HOOKS = {
    **dict.fromkeys(("__setattr__", "__delattr__", "__getattr__", "__getstate__", "__setstate__"), "_Frozen"),
    "__get__": "_built",
}


def _defined(item: ast.stmt) -> list[str]:
    """The names a statement of a class body defines, by ``def``, ``class`` or assignment."""
    if isinstance(item, _DEFS):
        return [item.name]
    if isinstance(item, ast.Assign):
        return [target.id for target in item.targets if isinstance(target, ast.Name)]
    return []


def stray_hooks(root: pathlib.Path) -> list[str]:
    """``file:line Class.hook`` of each record hook a class under ``root`` defines but does not own."""
    out = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    out += [f"{path.name}:{item.lineno} {node.name}.{name}" for name in _defined(item)
                            if _HOOKS.get(name, node.name) != node.name]
    return out


def test_only_the_frozen_base_and_the_built_attribute_define_record_hooks():
    assert stray_hooks(SRC) == []


def test_the_guard_sees_a_record_hook_defined_elsewhere(tmp_path):
    (tmp_path / "a.py").write_text(
        "def __getattr__(name):\n    raise AttributeError(name)\n\n"
        "class _Frozen:\n    def __setattr__(self, name, value):\n        raise AttributeError(name)\n\n"
        "class _built:\n    def __get__(self, obj, owner):\n        return self\n\n"
        "class Graph(_Frozen):\n    def __setattr__(self, name, value):\n        raise AttributeError(name)\n\n"
        "    def __getstate__(self):\n        return {}\n\n"
        "    __delattr__ = _Frozen.__setattr__\n"
    )
    (tmp_path / "b.py").write_text("class Lazy:\n    def __get__(self, obj, owner):\n        return 1\n")
    assert stray_hooks(tmp_path) == [
        "a.py:13 Graph.__setattr__",
        "a.py:16 Graph.__getstate__",
        "a.py:19 Graph.__delattr__",
        "b.py:2 Lazy.__get__",
    ]
