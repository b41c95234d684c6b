import json
import os
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest

import ampgraph.cli as cli
from ampgraph import VerificationFailure, dumps_graph, load_graph
from ampgraph.graphio import graph_from_dict
from ampgraph.cli import main, run_command

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
SCHEMAS = ROOT / "schemas"

EXAMPLE = str(FIXTURES / "example.json")
GR24 = str(FIXTURES / "gr24.json")

GRAPH_SCHEMA = json.loads((SCHEMAS / "graph.schema.json").read_text())
REPORT_SCHEMA = json.loads((SCHEMAS / "report.schema.json").read_text())

# one representative invocation per subcommand, all expected to succeed
OK_COMMANDS = [
    ["classify", EXAMPLE],
    ["hereditary", EXAMPLE],
    ["hereditary", EXAMPLE, "--closure", "v2"],
    ["quotient", EXAMPLE, "--remove", "v4"],
    ["stars", EXAMPLE, "--sink", "v4"],
    ["split", EXAMPLE, "--sink", "v4"],
    ["split", EXAMPLE, "--sink", "v4", "--star", "v2", "--verify"],
    ["split", EXAMPLE, "--sink", "v4", "--embed", "--verify"],
    ["chain", EXAMPLE],
    ["chain", EXAMPLE, "--policy", "source"],
    ["ktheory", EXAMPLE],
    ["flag", "--rank", "3", "--tag", "2"],
    ["cw", "--rank", "3", "--tag", "2"],
]


def _ids(argv):
    return " ".join(a.rsplit("/", 1)[-1] for a in argv)


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_fixture_matches_graph_schema(fixture):
    jsonschema.validate(json.loads(fixture.read_text()), GRAPH_SCHEMA)


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_fixture_round_trip_is_byte_identical(fixture):
    assert dumps_graph(load_graph(str(fixture))) + "\n" == fixture.read_text()


@pytest.mark.parametrize("argv", OK_COMMANDS, ids=_ids)
def test_reports_succeed_and_match_schema(argv):
    report = run_command(argv)
    assert report.ok
    assert report.exit_code == 0
    assert report.error is None
    assert report.command == tuple(argv)
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)


@pytest.mark.parametrize("argv", OK_COMMANDS, ids=_ids)
def test_json_output_is_deterministic(argv):
    assert run_command(argv).dumps() == run_command(argv).dumps()


def test_error_report_matches_schema():
    report = run_command(["classify", str(FIXTURES / "missing.json")])
    assert not report.ok
    assert report.exit_code == 1
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)


def test_stars_human_output(capsys):
    assert main(["stars", EXAMPLE, "--sink", "v4"]) == 0
    out = capsys.readouterr()
    assert out.out == "v1 v2 v3\n"
    assert out.err == ""


def test_stars_without_candidates(tmp_path, capsys):
    assert main(["stars", EXAMPLE, "--sink", "v5"]) == 0
    # v5 has valid stars; a cycle feeding nothing into the isolated sink s leaves none
    report = run_command(["stars", EXAMPLE, "--sink", "v5"])
    assert report.result["stars"] == ["v1", "v2", "v3"]
    capsys.readouterr()
    cycle = tmp_path / "cycle.json"
    edges = [{"src": "a", "dst": "b"}, {"src": "b", "dst": "a"}]
    cycle.write_text(json.dumps({"vertices": ["a", "b", "s"], "edges": edges}))
    assert main(["stars", str(cycle), "--sink", "s"]) == 0
    assert capsys.readouterr().out == "(no valid star; only the non-unital embedding applies)\n"


def test_classify_human_output(capsys):
    assert main(["classify", EXAMPLE]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "amplified: yes",
        "acyclic: yes",
        "sinks: v4 v5",
        "sources: v1",
    ]


def test_json_flag_prints_single_line(capsys):
    assert main(["stars", EXAMPLE, "--sink", "v4", "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert doc == {
        "command": ["stars", EXAMPLE, "--sink", "v4", "--json"],
        "ok": True,
        "result": {"sink": "v4", "stars": ["v1", "v2", "v3"]},
    }


def test_invalid_star_is_an_input_error(capsys):
    assert main(["split", EXAMPLE, "--sink", "v4", "--star", "v5"]) == 1
    err = capsys.readouterr().err
    assert "not a valid choice" in err
    assert "v5" in err


def test_unknown_vertex_names_the_offender():
    report = run_command(["stars", EXAMPLE, "--sink", "nope"])
    assert report.exit_code == 1
    assert "nope" in report.error


def test_missing_file_is_exit_1(capsys):
    assert main(["classify", str(FIXTURES / "missing.json")]) == 1
    assert "missing.json" in capsys.readouterr().err


def test_malformed_json_is_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    report = run_command(["classify", str(bad)])
    assert report.exit_code == 1
    assert "bad.json" in report.error


def test_too_deeply_nested_json_is_exit_1_with_a_report(tmp_path, capsys):
    # the parser gives up on 1,000 nested arrays; under --json that is still
    # one JSON report and exit 1, as for any malformed document
    deep = tmp_path / "deep.json"
    deep.write_text('{"vertices": ' + "[" * 1000 + "]" * 1000 + ', "edges": []}')
    assert main(["classify", str(deep), "--json"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert not report["ok"] and report["error"].startswith(f"{deep}: not valid JSON (")


@pytest.mark.parametrize("doc, message", [
    ({"vertices": ["a", "b", "a"], "edges": []}, "duplicate vertices: ['a']"),
    ({"vertices": ["a"], "edges": [{"src": "a", "dst": "x"}]}, "edge #0 refers to unknown vertex 'x'"),
    ({"vertices": ["a", "b"], "edges": [{"src": "a", "dst": "b"}, {"src": "a", "dst": "b", "mult": 2}]},
     "edge #1 repeats the pair 'a' -> 'b'"),
    ({"vertices": ["a", "b"], "edges": [{"src": "a", "dst": "b", "mult": -1}]},
     "multiplicity of edge #0 ('a' -> 'b') must be nonnegative, got -1"),
], ids=["duplicate-vertex", "unknown-vertex", "repeated-pair", "negative-multiplicity"])
def test_graph_documents_are_refused_with_the_offender_named(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        graph_from_dict(doc)


@pytest.mark.parametrize("doc", [
    '{"vertices":["a"],"edges":[{"src":["a"],"dst":"a"}]}',
    '{"vertices":["a"],"edges":[{"src":"a","dst":{"v":"a"}}]}',
])
def test_non_string_edge_endpoint_is_exit_1(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    assert main(["classify", str(bad), "--json"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert not report["ok"] and "must be strings" in report["error"]


def test_split_at_a_sink_without_a_star_takes_the_embedding(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"vertices": ["v"], "edges": []}))
    assert main(["split", str(point), "--sink", "v", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["result"]["star"] is None
    assert report["result"]["quotient_vertices"] == []
    refused = run_command(["split", EXAMPLE, "--sink", "v2"])
    assert refused.exit_code == 1 and refused.error == "'v2' is not a sink"


def test_non_hereditary_quotient_is_exit_1():
    report = run_command(["quotient", EXAMPLE, "--remove", "v2"])
    assert report.exit_code == 1
    assert "hereditary" in report.error
    empty = run_command(["quotient", EXAMPLE, "--remove", ","])
    assert empty.exit_code == 1 and empty.error == "expected a comma-separated vertex list, got ','"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_quotient_names_a_repeated_vertex_once(capsys, as_json):
    outputs = []
    for remove in ("v4,v5,v4", "v4,v5"):
        argv = ["quotient", EXAMPLE, "--remove", remove] + (["--json"] if as_json else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        outputs.append(json.loads(out)["result"] if as_json else out)
    # the --json reports differ only in the echoed command
    assert outputs[0] == outputs[1]


def test_unknown_subcommand_maps_to_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_no_arguments_maps_to_1(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out
    assert main(["split", "--help", "--json"]) == 0
    assert "--sink" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", EXAMPLE, "--json"], 0),
        (["classify", EXAMPLE], 0),
        (["split", EXAMPLE, "--sink", "v2", "--json"], 1),
        (["classify", "--help"], 0),
    ],
)
def test_a_closed_stdout_keeps_the_exit_code(argv, code):
    read, write = os.pipe()
    os.close(read)
    # stdout block-buffered, as in a shell, so what is left in its buffer is
    # flushed again at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ampgraph", *argv], stdout=write, stderr=subprocess.PIPE,
            cwd=ROOT, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, b"")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["split", EXAMPLE, "--sink", "v2"], 1),
        (["classify", EXAMPLE], 0),
        (["classify", "--help"], 0),
    ],
    ids=["plain-refusal", "plain-report", "help"],
)
def test_a_closed_stderr_keeps_the_exit_code(argv, code):
    read, write = os.pipe()
    os.close(read)
    # stderr buffered as in a shell, so a refusal left in its buffer is
    # flushed again at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ampgraph", *argv], stdout=subprocess.PIPE, stderr=write,
            cwd=ROOT, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == code
    assert done.stdout == subprocess.run(
        [sys.executable, "-m", "ampgraph", *argv], capture_output=True, cwd=ROOT, env=env, timeout=60,
    ).stdout


def test_json_mode_comes_from_the_parsed_flag(capsys):
    # argparse accepts the unambiguous prefix --js for --json
    assert main(["stars", EXAMPLE, "--sink", "v4", "--js"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == {"sink": "v4", "stars": ["v1", "v2", "v3"]}


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["split", EXAMPLE, "--json"], "--sink"),
        (["frobnicate", "--json"], "frobnicate"),
        (["flag", "--rank", "three", "--tag", "1", "--json"], "--rank"),
        (["split", EXAMPLE, "--sink", "v4", "--star", "v2", "--embed", "--json"], "--embed"),
        (["classify", EXAMPLE, "--json", "extra"], "extra"),
    ],
    ids=["missing-option", "unknown-command", "bad-int", "exclusive", "extra-argument"],
)
def test_usage_error_under_json_is_a_json_report(capsys, argv, needle):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.count("\n") == 1
    doc = json.loads(out.out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["command"] == argv and doc["ok"] is False
    assert needle in doc["error"]


def test_usage_error_without_json_goes_to_stderr(capsys):
    assert main(["split", EXAMPLE]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--sink" in out.err


def test_star_and_embed_are_mutually_exclusive(capsys):
    assert main(["split", EXAMPLE, "--sink", "v4", "--star", "v2", "--embed"]) == 1
    capsys.readouterr()


# command line -> the module attribute its handler resolves when it runs
VERIFYING_COMMANDS = [
    pytest.param(["chain", EXAMPLE], "ampgraph.splitting.kk_chain", id="chain"),
    pytest.param(["split", EXAMPLE, "--sink", "v4", "--star", "v2", "--verify"],
                 "ampgraph.splitting.verify_split_exact", id="split-verify"),
    pytest.param(["cw", "--rank", "3", "--tag", "2"], "ampgraph.cw.cw_kk_summary", id="cw"),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv, target", VERIFYING_COMMANDS)
def test_verification_failure_maps_to_2(monkeypatch, capsys, argv, target, as_json):
    def boom(*args, **kwargs):
        raise VerificationFailure("section-identity: forced failure")

    monkeypatch.setattr(target, boom)
    argv = argv + ["--json"] if as_json else argv
    assert main(argv) == 2
    out = capsys.readouterr()
    if as_json:
        assert out.err == ""
        doc = json.loads(out.out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc == {"command": argv, "ok": False, "error": "section-identity: forced failure"}
    else:
        assert out.out == ""
        assert out.err == "error: section-identity: forced failure\n"


@pytest.mark.parametrize("argv, target", VERIFYING_COMMANDS)
def test_a_runtime_error_that_is_no_verification_failure_propagates(monkeypatch, argv, target):
    # a fault in the program is raised out of ``run_command``, not reported as a failed check
    def boom(*args, **kwargs):
        raise RuntimeError("forced fault")

    monkeypatch.setattr(target, boom)
    with pytest.raises(RuntimeError, match="forced fault") as caught:
        run_command(argv + ["--json"])
    assert type(caught.value) is RuntimeError


def test_split_default_star_is_first_valid():
    report = run_command(["split", EXAMPLE, "--sink", "v4"])
    assert report.result["star"] == "v1"


def test_split_embed_has_no_star():
    report = run_command(["split", EXAMPLE, "--sink", "v4", "--embed", "--verify"])
    assert report.result["star"] is None
    names = {c["name"]: c["passed"] for c in report.result["checks"]}
    assert names["section-identity"]
    assert not names["unital"]  # informational for the embedding
    assert report.exit_code == 0


def test_split_verify_reports_k0(capsys):
    report = run_command(["split", EXAMPLE, "--sink", "v4", "--star", "v2", "--verify"])
    k0 = report.result["k0"]
    assert len(k0["q"]) == 4 and len(k0["s"]) == 5
    assert all(c["passed"] for c in k0["checks"] if c["required"])
    assert main(["split", EXAMPLE, "--sink", "v4", "--star", "v2", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "K_0 checks:" in out


def test_chain_reports_all_steps():
    report = run_command(["chain", EXAMPLE])
    # after v4 goes, v2 becomes a sink and precedes v5 lexicographically
    assert [s["sink"] for s in report.result["steps"]] == ["v4", "v2", "v5", "v3"]
    assert report.result["terminal"] == ["v1"]
    assert all(c["passed"] for c in report.result["k0"]["checks"])


@pytest.mark.parametrize(
    "edges, needle",
    [
        ([{"src": "a", "dst": "b", "mult": "inf"}, {"src": "b", "dst": "a", "mult": "inf"}],
         "acyclic"),
        ([{"src": "a", "dst": "b", "mult": 1}], "amplified"),
    ],
    ids=["cyclic", "finite"],
)
def test_ktheory_rejects_out_of_scope_graphs(tmp_path, edges, needle):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": edges}))
    report = run_command(["ktheory", str(path)])
    assert report.exit_code == 1
    assert report.error == f"ktheory requires an {needle} graph"


def test_ktheory_human_output(capsys):
    assert main(["ktheory", EXAMPLE]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("K_0 = Z^5")
    assert lines[1] == "K_1 = 0"


def test_flag_result_matches_fixture():
    report = run_command(["flag", "--rank", "3", "--tag", "2"])
    assert report.result == json.loads(pathlib.Path(GR24).read_text())


def test_flag_rejects_bad_rank():
    report = run_command(["flag", "--rank", "9", "--tag", "1"])
    assert report.exit_code == 1
    assert "rank" in report.error


def test_flag_rejects_bad_tag():
    report = run_command(["flag", "--rank", "3", "--tag", "x"])
    assert report.exit_code == 1


def test_cw_summary_matches_library():
    from ampgraph import DynkinSpec, cw_kk_summary

    report = run_command(["cw", "--rank", "3", "--tag", "2"])
    assert report.result["summary"] == str(cw_kk_summary(DynkinSpec(3, frozenset({2}))))
    assert report.exit_code == 0


def test_plain_cw_builds_no_summand(monkeypatch, capsys):
    # the plain rendering prints no summand, so only --json builds the lists
    from ampgraph import DynkinSpec, KKChain, cw_kk_summary

    def boom(chain):
        raise AssertionError("a summand list was built")

    argv = ["cw", "--rank", "4", "--tag", "1,2,3,4"]
    monkeypatch.setattr(KKChain, "iota_terms", property(boom))
    monkeypatch.setattr(KKChain, "pi_terms", property(boom))
    assert main(argv) == 0
    assert "sinks removed:" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="a summand list was built"):
        run_command(argv + ["--json"])
    monkeypatch.undo()
    report = run_command(argv + ["--json"])
    chain = cw_kk_summary(DynkinSpec(4, frozenset({1, 2, 3, 4}))).chain
    assert report.exit_code == 0
    assert (report.result["iota"], report.result["pi"]) == (list(chain.iota_terms), list(chain.pi_terms))


def test_hereditary_bound_env(monkeypatch):
    monkeypatch.setenv(cli.BOUND_ENV, "3")
    report = run_command(["hereditary", EXAMPLE])
    assert report.exit_code == 1
    assert "exceeds enumeration bound 3" in report.error

    monkeypatch.setenv(cli.BOUND_ENV, "30")
    report = run_command(["hereditary", EXAMPLE])
    assert report.exit_code == 0
    assert report.result["max_vertices"] == 30

    monkeypatch.setenv(cli.BOUND_ENV, "plenty")
    report = run_command(["hereditary", EXAMPLE])
    assert report.exit_code == 1
    assert cli.BOUND_ENV in report.error


def test_hereditary_enumerates_a_long_path_at_a_raised_bound(tmp_path, monkeypatch):
    # one decision per vertex, deeper than Python's recursion limit
    n = 1500
    doc = {"vertices": [f"v{i}" for i in range(n)],
           "edges": [{"src": f"v{i}", "dst": f"v{i + 1}", "mult": "inf"} for i in range(n - 1)]}
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv(cli.BOUND_ENV, "2000")
    report = run_command(["hereditary", str(path), "--json"])
    assert report.exit_code == 0
    assert report.result["count"] == n + 1
    assert report.result["sets"][:2] == [[], [f"v{n - 1}"]]


def test_hereditary_closure_does_not_consult_bound(monkeypatch):
    monkeypatch.setenv(cli.BOUND_ENV, "1")
    report = run_command(["hereditary", EXAMPLE, "--closure", "v2"])
    assert report.exit_code == 0
    assert report.result["closure"] == ["v2", "v4"]
