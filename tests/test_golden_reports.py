"""Byte identity of ``--json`` reports against committed digests.

A fixed mix of command lines runs in process through ``run_command``; the
sha256 of each canonical report and its exit code must match
``golden_reports.json``, keyed by command line.  The mix covers every
fixture with every subcommand, every sink with every other vertex as a
star, ``--embed``, each with and without ``--verify``, ``flag`` on every
spec of rank at most 5 and on the large specs the benchmark times, and
``cw`` on the small ladder specs and the full A4 flag graph.  Fixture paths
are relative to the repository root, which the test makes the working
directory, so the echoed command is the same on every machine.

``golden_text.json`` does the same for what ``main`` prints, stdout and
stderr together, with the exit code: the human rendering of every command
line of that mix run without ``--json``, ``ampgraph --help`` and each
subcommand's ``--help``, and usage errors with and without ``--json``.
Help and usage texts are argparse's, printed at a fixed width of 80
columns, so those digests hold for the Python minor version they were
written with.

To regenerate the digests after a deliberate change of report contents::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import io
import json
import os
import pathlib
from contextlib import redirect_stderr, redirect_stdout

from ampgraph.cli import main, run_command

from helpers import forbid_smith_normal_form

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_reports.json"
GOLDEN_TEXT = GOLDEN.with_name("golden_text.json")

CW_SPECS = [("3", "2"), ("4", "2"), ("5", "3"), ("3", "1,2,3"), ("4", "1,3"),
            ("4", "1,2,3,4")]
LARGE_FLAG_SPECS = [("7", "4"), ("7", "1,7"), ("7", "2,5"), ("8", "4")]

SUBCOMMANDS = ["classify", "hereditary", "quotient", "stars", "split", "chain", "ktheory",
               "flag", "cw"]
EXAMPLE = "fixtures/example.json"
# each is run as it stands and with --json appended
USAGE_ERRORS = [
    [],
    ["frobnicate"],
    *([name] for name in SUBCOMMANDS),
    ["quotient", EXAMPLE],
    ["stars", EXAMPLE],
    ["split", EXAMPLE],
    ["flag", "--rank", "3"],
    ["cw", "--tag", "2"],
    ["flag", "--rank", "three", "--tag", "2"],
    ["split", EXAMPLE, "--sink", "v4", "--star", "v2", "--embed"],
    ["classify", EXAMPLE, "extra"],
]


def _fixture_commands(path: str) -> list[list[str]]:
    doc = json.loads((ROOT / path).read_text())
    vertices = doc["vertices"]
    has_out = {e["src"] for e in doc["edges"]}
    sinks = [v for v in vertices if v not in has_out]
    cmds = [
        ["classify", path],
        ["hereditary", path],
        ["chain", path],
        ["chain", path, "--policy", "source"],
        ["ktheory", path],
    ]
    for v in vertices:
        cmds.append(["hereditary", path, "--closure", v])
    for sink in sinks:
        cmds.append(["quotient", path, "--remove", sink])
        cmds.append(["stars", path, "--sink", sink])
        modes = [[], ["--embed"]] + [["--star", v] for v in vertices if v != sink]
        for mode in modes:
            for verify in ([], ["--verify"]):
                cmds.append(["split", path, "--sink", sink, *mode, *verify])
    return cmds


def commands() -> list[list[str]]:
    cmds = []
    for fixture in sorted((ROOT / "fixtures").glob("*.json")):
        cmds.extend(_fixture_commands(f"fixtures/{fixture.name}"))
    for rank in range(1, 6):
        for bits in range(1, 1 << rank):
            tags = ",".join(str(i) for i in range(1, rank + 1) if bits >> (i - 1) & 1)
            cmds.append(["flag", "--rank", str(rank), "--tag", tags])
    for rank, tags in LARGE_FLAG_SPECS:
        cmds.append(["flag", "--rank", rank, "--tag", tags])
    for rank, tags in CW_SPECS:
        cmds.append(["cw", "--rank", rank, "--tag", tags])
    return [cmd + ["--json"] for cmd in cmds]


def digests() -> dict:
    """Command line -> [sha256 of the JSON report line, exit code]."""
    out = {}
    for argv in commands():
        report = run_command(argv)
        line = report.dumps().encode()
        out[" ".join(argv)] = [hashlib.sha256(line).hexdigest(), report.exit_code]
    return out


def text_commands() -> list[list[str]]:
    cmds = [cmd[:-1] for cmd in commands()]
    cmds += [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    for argv in USAGE_ERRORS:
        cmds += [argv, argv + ["--json"]]
    return cmds


def text_digests() -> dict:
    """Command line -> [sha256 of what ``main`` prints to stdout and stderr, exit code]."""
    out = {}
    for argv in text_commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = main(argv)
        printed = json.dumps([stdout.getvalue(), stderr.getvalue()]).encode()
        out[" ".join(argv)] = [hashlib.sha256(printed).hexdigest(), status]
    return out


def test_reports_match_golden_digests(monkeypatch):
    monkeypatch.chdir(ROOT)
    # every K_0 check in the mix is certified without a Smith normal form
    forbid_smith_normal_form(monkeypatch)
    golden = json.loads(GOLDEN.read_text())
    actual = digests()
    assert actual.keys() == golden.keys()
    changed = [cmd for cmd in golden if actual[cmd] != golden[cmd]]
    assert not changed, f"{len(changed)} reports differ, first: {changed[:5]}"


def test_printed_text_matches_golden_digests(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN_TEXT.read_text())
    actual = text_digests()
    assert actual.keys() == golden.keys()
    changed = [cmd for cmd in golden if actual[cmd] != golden[cmd]]
    assert not changed, f"{len(changed)} printed texts differ, first: {changed[:5]}"


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    GOLDEN_TEXT.write_text(json.dumps(text_digests(), indent=1, sort_keys=True) + "\n")
