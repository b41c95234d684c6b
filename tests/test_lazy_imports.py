"""The package loads a layer only when something runs it.

``import ampgraph`` loads no submodule, each CLI subcommand loads only the
layers its handler runs, and the package's lazy exports always resolve to
the defining module's current binding.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ampgraph

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLE = str(ROOT / "fixtures" / "example.json")
GR24 = str(ROOT / "fixtures" / "gr24.json")

GRAPH_IO = {"cli", "graphs", "graphio"}
CHECKED_SPLIT = GRAPH_IO | {"algebra", "splitting", "ktheory"}

# command line (``--json`` is added) -> exit status, ampgraph submodules loaded
SUBCOMMANDS = [
    (["classify", EXAMPLE], 0, GRAPH_IO),
    (["hereditary", GR24], 0, GRAPH_IO),
    (["hereditary", EXAMPLE, "--closure", "v2"], 0, GRAPH_IO),
    (["quotient", EXAMPLE, "--remove", "v4,v5"], 0, GRAPH_IO),
    (["stars", EXAMPLE, "--sink", "v4"], 0, GRAPH_IO),
    (["ktheory", EXAMPLE], 0, GRAPH_IO),
    (["split", EXAMPLE, "--sink", "v4"], 0, GRAPH_IO | {"algebra", "splitting"}),
    (["split", EXAMPLE, "--sink", "v4", "--star", "v2", "--verify"], 0, CHECKED_SPLIT),
    (["chain", EXAMPLE, "--policy", "source"], 0, CHECKED_SPLIT),
    (["flag", "--rank", "3", "--tag", "2"], 0, GRAPH_IO | {"coxeter"}),
    (["cw", "--rank", "3", "--tag", "2"], 0,
     {"cli", "graphs", "algebra", "splitting", "ktheory", "coxeter", "cw"}),
    # a malformed command line is answered by the parser alone
    (["flag", "--tag", "2"], 1, {"cli"}),
]

RUN_MAIN = """\
import contextlib, io, json, sys
from ampgraph.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("ampgraph."))]))
loaded = {"numpy", "dataclasses", "inspect", "ampgraph.words"} & set(sys.modules)
assert not loaded, loaded
"""


def _fresh(code: str, *args: str) -> str:
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout


def _ids(case):
    return " ".join(a.rsplit("/", 1)[-1] for a in case[0])


@pytest.mark.parametrize("argv, status, layers", SUBCOMMANDS, ids=map(_ids, SUBCOMMANDS))
def test_subcommand_loads_only_its_layers(argv, status, layers):
    got = json.loads(_fresh(RUN_MAIN, *argv, "--json"))
    assert got == [status, sorted(f"ampgraph.{name}" for name in layers)]


def test_bare_import_loads_no_submodule():
    code = ("import ampgraph, sys; print(sorted(m for m in sys.modules if m.startswith('ampgraph')));"
            "print(ampgraph.cw.__name__, sorted(m for m in sys.modules if m.startswith('ampgraph.')));"
            "print('ampgraph.words' in sys.modules, 'dataclasses' in sys.modules)")
    assert _fresh(code).splitlines() == [
        "['ampgraph']",
        # a submodule is still an attribute of the package, loaded on first use
        "ampgraph.cw ['ampgraph.algebra', 'ampgraph.coxeter', 'ampgraph.cw', 'ampgraph.graphs', "
        "'ampgraph.ktheory', 'ampgraph.splitting']",
        "False False",
    ]


def test_word_names_resolve_from_algebra_on_first_access():
    code = ("import sys, ampgraph.algebra as a; print('ampgraph.words' in sys.modules);"
            "from ampgraph.algebra import CKElement; import ampgraph.words as w;"
            "print(CKElement is w.CKElement, a.word_mul is w.word_mul, a.EdgeRef is w.EdgeRef);"
            "print(hasattr(a, 'no_such_name'))")
    assert _fresh(code).splitlines() == ["False", "True True True", "False"]


@pytest.mark.parametrize("name", ampgraph.__all__)
def test_export_is_the_defining_module_binding(name):
    module = importlib.import_module(f"ampgraph.{ampgraph._MODULE_OF[name]}")
    value = getattr(ampgraph, name)
    assert value is getattr(module, name)
    if getattr(value, "__module__", "").startswith("ampgraph."):
        assert value.__module__ == module.__name__


def test_dir_and_star_import_cover_all():
    assert set(ampgraph.__all__) <= set(dir(ampgraph))
    namespace: dict = {}
    exec("from ampgraph import *", namespace)
    for name in ampgraph.__all__:
        assert namespace[name] is getattr(ampgraph, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ampgraph.no_such_name
    assert not hasattr(ampgraph, "no_such_name")
    assert not hasattr(ampgraph, "smith_normal_form")


def test_valid_stars_is_one_function():
    # ``stars`` runs it from graphs; the chain policies call it from splitting
    assert ampgraph.valid_stars is ampgraph.graphs.valid_stars is ampgraph.splitting.valid_stars


def test_package_never_keeps_a_span_wrapper():
    spans_path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    before = {name: getattr(ampgraph, name) for name in ampgraph.__all__}
    with spans.Recorder().installed():
        during = {name: getattr(ampgraph, name) for name in ampgraph.__all__}
    # while installed, the package resolves to the wrapper like every caller
    assert during["kk_chain"] is not before["kk_chain"]
    assert during["kk_chain"].__wrapped__ is before["kk_chain"]
    assert all(getattr(ampgraph, name) is value for name, value in before.items())
    assert not set(ampgraph.__all__) & set(vars(ampgraph))
