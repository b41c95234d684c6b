"""Property tests of the command-line contract on generated inputs.

Every command line, whatever graph file it reads, must end in exit status
0, 1 or 2 without an exception escaping, and under ``--json`` must print
exactly one line holding a JSON report whose ``ok`` flag agrees with the
status.  Graphs are drawn small: acyclic, cyclic, with finite or zero
multiplicities, and documents that are not graphs at all.
"""

import contextlib
import io
import json
import pathlib

import jsonschema
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ampgraph.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
REPORT_SCHEMA = json.loads((ROOT / "schemas" / "report.schema.json").read_text())

LABELS = [f"v{i}" for i in range(5)]
MULTS = st.sampled_from(["inf", "inf", "inf", 0, 1, 2])


@st.composite
def graph_docs(draw, acyclic: bool):
    n = draw(st.integers(1, len(LABELS)))
    vertices = LABELS[:n]
    pairs = [(a, b) for i, a in enumerate(vertices) for j, b in enumerate(vertices)
             if i < j or not acyclic]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    # at least half of the graphs are amplified: every family infinite
    mults = draw(st.sampled_from([st.just("inf"), MULTS]))
    edges = [{"src": a, "dst": b, "mult": draw(mults)} for a, b in chosen]
    return {"vertices": vertices, "edges": edges}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["inf", "v0", "v1", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["vertices", "edges", "src", "dst", "mult"]), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def malformed_docs(draw):
    """A graph document with one part replaced by arbitrary JSON."""
    doc = draw(graph_docs(acyclic=True))
    junk = draw(JSON_VALUES)
    where = draw(st.sampled_from(["doc", "vertices", "edges", "edge", "src", "dst", "mult"]))
    if where == "doc":
        return junk
    if where in ("vertices", "edges"):
        doc[where] = junk
    elif where == "edge":
        doc["edges"].append(junk)
    elif doc["edges"]:
        doc["edges"][0][where] = junk
    return doc


def _with_vertices(doc) -> tuple[str, list[str]]:
    """The document's text and the labels command lines should name."""
    vertices = doc.get("vertices") if isinstance(doc, dict) else None
    if not isinstance(vertices, list) or not vertices:
        vertices = LABELS
    return json.dumps(doc), [v for v in vertices if isinstance(v, str)] + ["nope"]


#: Texts that are not graph documents; the last nests arrays deeper than
#: the JSON parser follows.  Each also runs through every command below.
FIXED_TEXTS = ["", "{", "[]", "null", '{"vertices": ["v0"]', "[" * 1000 + "]" * 1000]

DOCUMENTS = st.one_of(
    graph_docs(acyclic=True).map(_with_vertices),
    graph_docs(acyclic=False).map(_with_vertices),
    malformed_docs().map(_with_vertices),
    st.sampled_from(FIXED_TEXTS).map(lambda t: (t, LABELS)),
)


@st.composite
def command_lines(draw, labels: list[str]):
    vertex = st.sampled_from(labels)
    cmd = draw(st.sampled_from(
        ["classify", "hereditary", "quotient", "stars", "split", "chain", "ktheory"]))
    args = [cmd]
    if cmd == "hereditary" and draw(st.booleans()):
        args += ["--closure", draw(vertex)]
    elif cmd == "quotient":
        args += ["--remove", draw(vertex)]
    elif cmd in ("stars", "split"):
        args += ["--sink", draw(vertex)]
    if cmd == "split":
        args += draw(st.sampled_from([[], ["--embed"], ["--star", draw(vertex)]]))
        args += draw(st.sampled_from([[], ["--verify"]]))
    elif cmd == "chain":
        args += draw(st.sampled_from([[], ["--policy", "source"], ["--policy", "nope"]]))
    return args


def _run_with_json(path: pathlib.Path, args: list[str]) -> int:
    """Run ``args`` on the graph file ``path`` under ``--json`` and check the report."""
    argv = [args[0], str(path), *args[1:], "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    assert out.getvalue().count("\n") == 1
    report = json.loads(out.getvalue())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["ok"] is (code == 0)
    assert report["command"] == argv
    return code


@settings(derandomize=True, deadline=None, max_examples=200)
@given(doc=DOCUMENTS, data=st.data())
def test_every_command_keeps_the_exit_contract(tmp_path_factory, doc, data):
    text, labels = doc
    args = data.draw(command_lines(labels))
    path = tmp_path_factory.getbasetemp() / "fuzz-graph.json"
    path.write_text(text)
    event(f"{args[0]} exit {_run_with_json(path, args)}")


@pytest.mark.parametrize("args", [
    ["classify"], ["hereditary"], ["quotient", "--remove", "v0"], ["stars", "--sink", "v0"],
    ["split", "--sink", "v0"], ["chain"], ["ktheory"],
], ids=lambda args: args[0])
@pytest.mark.parametrize("text", FIXED_TEXTS, ids=range(len(FIXED_TEXTS)))
def test_every_fixed_text_is_refused_by_every_command(tmp_path, text, args):
    path = tmp_path / "fixed.json"
    path.write_text(text)
    assert _run_with_json(path, args) == 1
