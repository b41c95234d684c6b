"""Command-line front end.

Every subcommand produces a single report object: the echoed command, an
``ok`` flag, and either a structured result or an error message.  With
``--json`` the report is printed as canonical JSON (sorted keys, no spaces),
so identical invocations are byte identical; the human-readable rendering is
derived from the same structure and never carries extra information.

Exit status: 0 when every check passed, 1 for input errors (bad files, bad
flags, precondition violations) and for a command that ran out of memory,
2 when a mathematical verification failed.

Each subcommand is declared once, as its row of the ``_COMMANDS`` table:
help text, input (a graph file, or the flag spec built from ``--rank/--tag``),
handler, renderer and options.  ``build_parser``, ``run_command`` and
``Report.render`` read that table; ``run_command`` reads the graph file or
builds the flag spec once and hands it to the handler.

The input readers and the handlers import the layers they run inside their
own bodies, and nothing at the top of this module loads one: a fresh
process pays only for the modules its subcommand uses.

* ``classify``, ``hereditary``, ``quotient``, ``stars`` and ``ktheory``
  load :mod:`~ampgraph.graphs` and :mod:`~ampgraph.graphio`;
* ``flag`` adds :mod:`~ampgraph.coxeter`;
* ``split`` adds :mod:`~ampgraph.algebra` and :mod:`~ampgraph.splitting`,
  and with ``--verify`` :mod:`~ampgraph.ktheory`;
* ``chain`` adds those three;
* ``cw`` loads every layer except :mod:`~ampgraph.graphio`.

No subcommand loads :mod:`~ampgraph.words`, nor :mod:`dataclasses` and the
:mod:`inspect` it imports: the package's records are named tuples or small
classes.  The imports bind at call time, so a wrapper installed on a module
attribute is what the reader or handler calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import MAX_RANK

if TYPE_CHECKING:
    from .algebra import VerificationReport
    from .coxeter import DynkinSpec
    from .graphs import AmpGraph

#: ``--policy`` value -> the star policy's name in :mod:`ampgraph.splitting`.
_POLICIES = {
    "first": "first_sink_first_star",
    "source": "prefer_source_star",
}


def _split_labels(raw: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not labels:
        raise ValueError(f"expected a comma-separated vertex list, got {raw!r}")
    return labels


def _parse_tags(raw: str) -> frozenset[int]:
    try:
        return frozenset(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--tag expects comma-separated integers, got {raw!r}") from None


def _checks_json(report: VerificationReport) -> list[dict]:
    return [c._asdict() for c in report.checks]


# ---------------------------------------------------------------------------
# subcommand handlers: each takes its input and the parsed options and
# returns (ok, result dict)


def _cmd_classify(g: AmpGraph, ns) -> tuple[bool, dict]:
    cls = g.classify()
    return True, dict(cls._asdict(), sinks=list(cls.sinks), sources=list(cls.sources))


def _cmd_hereditary(g: AmpGraph, ns) -> tuple[bool, dict]:
    if ns.closure is not None:
        given = _split_labels(ns.closure)
        return True, {
            "given": list(given),
            "closure": list(g.hereditary_closure(given)),
        }
    from .graphs import _HEREDITARY_BOUND

    sets = g.enumerate_hereditary(max_vertices=_HEREDITARY_BOUND)
    return True, {
        "max_vertices": _HEREDITARY_BOUND,
        "count": len(sets),
        "sets": [list(s) for s in sets],
    }


def _cmd_quotient(g: AmpGraph, ns) -> tuple[bool, dict]:
    from .graphio import graph_to_dict

    removed = _split_labels(ns.remove)
    q = g.quotient(removed)
    return True, {
        "removed": sorted(set(removed)),
        "graph": graph_to_dict(q),
    }


def _cmd_stars(g: AmpGraph, ns) -> tuple[bool, dict]:
    from .graphs import valid_stars

    return True, {"sink": ns.sink, "stars": list(valid_stars(g, ns.sink))}


def _cmd_split(g: AmpGraph, ns) -> tuple[bool, dict]:
    from .graphs import first_star
    from .splitting import build_splitting, verify_split_exact

    if ns.embed:
        star = None
    elif ns.star is not None:
        star = ns.star
    else:
        star = first_star(g, ns.sink)
    sd = build_splitting(g, ns.sink, star)
    result = {
        "sink": sd.sink,
        "star": sd.star,
        "ideal": sd.ideal_kind,
        "iota": sd.iota_class,
        "augmented": [list(pair) for pair in sd.augmented],
        "quotient_vertices": list(sd.quotient_graph.vertices),
        "section": sd.sigma.render_table(),
    }
    if ns.verify:
        from .ktheory import check_split_exact_k0

        report = verify_split_exact(sd)
        k0 = check_split_exact_k0(sd)
        result["checks"] = _checks_json(report)
        result["k0"] = {
            "q": k0.q,
            "s": k0.s,
            "checks": _checks_json(k0.report),
        }
        return bool(report.ok and k0.report.ok), result
    return True, result


def _cmd_chain(g: AmpGraph, ns) -> tuple[bool, dict]:
    from . import splitting
    from .ktheory import check_chain_k0

    chain = splitting.kk_chain(g, policy=getattr(splitting, _POLICIES[ns.policy]))
    k0 = check_chain_k0(chain)
    result = {
        "policy": ns.policy,
        "steps": [
            {
                "sink": sd.sink,
                "star": sd.star,
                "ideal": sd.ideal_kind,
                "augmented": [list(pair) for pair in sd.augmented],
            }
            for sd in chain.steps
        ],
        "iota": list(chain.iota_terms),
        "pi": list(chain.pi_terms),
        "terminal": list(chain.terminal.vertices),
        "k0": {
            "forward": k0.forward,
            "backward": k0.backward,
            "checks": _checks_json(k0.report),
        },
    }
    return bool(k0.report.ok), result


def _cmd_ktheory(g: AmpGraph, ns) -> tuple[bool, dict]:
    cls = g.classify()
    if not cls.amplified:
        raise ValueError("ktheory requires an amplified graph")
    if not cls.acyclic:
        raise ValueError("ktheory requires an acyclic graph")
    return True, {
        "k0_rank": len(g.vertices),
        "k0_generators": list(g.vertices),
        "k1_rank": 0,
    }


def _read_graph(ns) -> AmpGraph:
    from .graphio import load_graph

    return load_graph(ns.file)


def _flag_spec(ns) -> DynkinSpec:
    from .coxeter import DynkinSpec

    return DynkinSpec(rank=ns.rank, tagged=_parse_tags(ns.tag))


def _cmd_flag(spec: DynkinSpec, ns) -> tuple[bool, dict]:
    from .coxeter import flag_graph
    from .graphio import graph_to_dict

    return True, graph_to_dict(flag_graph(spec))


def _cmd_cw(spec: DynkinSpec, ns) -> tuple[bool, dict]:
    from .cw import cw_kk_summary

    summary = cw_kk_summary(spec)
    result = {
        "summary": str(summary),
        "records": [dict(r._asdict(), vertices=list(r.vertices)) for r in summary.records],
        "sinks": list(summary.chain.sinks),
        "checks": _checks_json(summary.report),
    }
    if ns.json:
        result.update(iota=list(summary.chain.iota_terms), pi=list(summary.chain.pi_terms))
    return bool(summary.report.ok), result


# ---------------------------------------------------------------------------
# human renderings, derived from the JSON result and nothing else


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _render_graph_dict(data: dict) -> list[str]:
    lines = ["vertices: " + " ".join(data["vertices"])]
    if data["edges"]:
        lines.append("families:")
        for e in data["edges"]:
            lines.append(f"  {e['src']} -> {e['dst']}  ({e['mult']})")
    else:
        lines.append("families: (none)")
    return lines


def _render_checks(checks: list[dict]) -> list[str]:
    lines = []
    for c in checks:
        mark = "ok" if c["passed"] else "FAIL"
        note = "" if c["required"] else " (informational)"
        detail = f": {c['detail']}" if c["detail"] else ""
        lines.append(f"  [{mark}] {c['name']}{note}{detail}")
    return lines


def _render_classify(result: dict) -> list[str]:
    return [
        f"amplified: {_yesno(result['amplified'])}",
        f"acyclic: {_yesno(result['acyclic'])}",
        "sinks: " + (" ".join(result["sinks"]) or "(none)"),
        "sources: " + (" ".join(result["sources"]) or "(none)"),
    ]


def _render_hereditary(result: dict) -> list[str]:
    if "closure" in result:
        return ["closure: " + (" ".join(result["closure"]) or "{}")]
    lines = [f"hereditary subsets: {result['count']}"]
    for s in result["sets"]:
        lines.append("  {" + ", ".join(s) + "}")
    return lines


def _render_quotient(result: dict) -> list[str]:
    return ["removed: " + " ".join(result["removed"])] + _render_graph_dict(result["graph"])


def _render_stars(result: dict) -> list[str]:
    if result["stars"]:
        return [" ".join(result["stars"])]
    return ["(no valid star; only the non-unital embedding applies)"]


def _render_split(result: dict) -> list[str]:
    star = result["star"] if result["star"] is not None else "(embedding, no star)"
    lines = [
        f"sink: {result['sink']}",
        f"star: {star}",
        f"ideal: {result['ideal']}",
    ]
    if result["augmented"]:
        lines.append(
            "added families: " + " ".join(f"{a}->{b}" for a, b in result["augmented"])
        )
    lines.append("section on generators:")
    for gen, image in result["section"].items():
        lines.append(f"  {gen} |-> {image}")
    if "checks" in result:
        lines.append("checks:")
        lines.extend(_render_checks(result["checks"]))
        lines.append("K_0 checks:")
        lines.extend(_render_checks(result["k0"]["checks"]))
    return lines


def _render_chain(result: dict) -> list[str]:
    lines = [f"steps: {len(result['steps'])}  (policy: {result['policy']})"]
    for i, step in enumerate(result["steps"], start=1):
        star = step["star"] if step["star"] is not None else "(embedding)"
        lines.append(f"  {i}. remove {step['sink']}  star {star}  ideal {step['ideal']}")
    lines.append("iota: " + ", ".join(result["iota"]))
    lines.append("pi: " + ", ".join(result["pi"]))
    lines.append("terminal vertices: " + " ".join(result["terminal"]))
    lines.append("K_0 checks:")
    lines.extend(_render_checks(result["k0"]["checks"]))
    return lines


def _render_ktheory(result: dict) -> list[str]:
    gens = " ".join(f"[p[{v}]]" for v in result["k0_generators"])
    return [
        f"K_0 = Z^{result['k0_rank']}  generators: {gens}",
        f"K_1 = Z^{result['k1_rank']}" if result["k1_rank"] else "K_1 = 0",
    ]


def _render_cw(result: dict) -> list[str]:
    lines = [result["summary"], "sinks removed: " + " ".join(result["sinks"])]
    lines.append("checks:")
    lines.extend(_render_checks(result["checks"]))
    return lines


# ---------------------------------------------------------------------------
# the command table: the one place each subcommand is declared


def _opt(*flags: str, **kw: Any) -> tuple:
    """A group of one argument, ``add_argument(*flags, **kw)``.

    Groups add up: ``_opt(a) + _opt(b)`` is one group of two arguments that
    exclude each other.
    """
    return ((flags, kw),)


class _Input(NamedTuple):
    """A command's input: the arguments naming it, ``--json`` in its place, and its reader."""

    arguments: tuple
    read: Callable[[argparse.Namespace], Any]


_JSON = _opt("--json", action="store_true", help="emit the report as canonical JSON")
_FILE = _Input((_opt("file", help="graph JSON file"), _JSON), _read_graph)
_SPEC = _Input((_JSON, _opt("--rank", type=int, required=True, metavar="N",
                            help=f"rank of the A-series diagram (1..{MAX_RANK})"),
                _opt("--tag", required=True, metavar="I,J,...", help="tagged node indices")),
               _flag_spec)


class _Command(NamedTuple):
    """A subcommand: help line, input, handler, renderer and its own argument groups."""

    help: str
    input: _Input
    run: Callable[[Any, argparse.Namespace], tuple[bool, dict]]
    render: Callable[[dict], list[str]]
    options: tuple = ()


#: Every subcommand, in ``--help`` order.
_COMMANDS = {
    "classify": _Command("report amplified/acyclic flags, sinks and sources", _FILE,
                         _cmd_classify, _render_classify),
    "hereditary": _Command("list hereditary vertex sets, or close a given set", _FILE,
                           _cmd_hereditary, _render_hereditary, (
        _opt("--closure", metavar="V1,V2,...", help="hereditary closure of these vertices"),)),
    "quotient": _Command("quotient by a hereditary vertex set", _FILE, _cmd_quotient,
                         _render_quotient, (
        _opt("--remove", required=True, metavar="V1,V2,...", help="vertices to remove"),)),
    "stars": _Command("valid star vertices for a splitting at the given sink", _FILE, _cmd_stars,
                      _render_stars, (_opt("--sink", required=True, help="sink vertex"),)),
    "split": _Command("build one split sink-removal extension", _FILE, _cmd_split,
                      _render_split, (
        _opt("--sink", required=True, help="sink vertex to remove"),
        _opt("--star", help="star vertex receiving the sink's class") + _opt(
            "--embed", action="store_true", help="use the non-unital embedding instead of a star"),
        _opt("--verify", action="store_true", help="include the full checklist"))),
    "chain": _Command("iterate split removals down to a single vertex", _FILE, _cmd_chain,
                      _render_chain, (_opt("--policy", choices=sorted(_POLICIES), default="first",
                                           help="sink/star choice per step (default: first)"),)),
    "ktheory": _Command("K-groups of an acyclic amplified graph algebra", _FILE,
                        _cmd_ktheory, _render_ktheory),
    "flag": _Command("flag graph of a tagged A-series diagram", _SPEC, _cmd_flag,
                     _render_graph_dict),
    "cw": _Command("skeleton filtration chain summary of a flag graph", _SPEC, _cmd_cw,
                   _render_cw),
}


class Report(NamedTuple):
    """Outcome of one command: echoed argv, payload or error, exit status.

    ``as_json`` records whether the command asked for ``--json`` output.
    """

    command: tuple[str, ...]
    ok: bool
    result: dict | None
    error: str | None
    exit_code: int
    as_json: bool

    def to_json(self) -> dict:
        doc: dict[str, Any] = {"command": list(self.command), "ok": self.ok}
        if self.error is None:
            doc["result"] = self.result
        else:
            doc["error"] = self.error
        return doc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"), ensure_ascii=True)

    def render(self) -> str:
        if self.error is not None:
            return f"error: {self.error}"
        return "\n".join(_COMMANDS[self.command[0]].render(self.result))


class _UsageError(ValueError):
    """A malformed command line, raised where argparse would print and exit."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _json_requested(argv: list[str]) -> bool:
    """Whether a command line that failed to parse still asked for ``--json``.

    Reads only the ``--json`` flag, with argparse's own prefix matching, so
    ``--js`` counts as it does for a command line that parses.
    """
    pre = _Parser(add_help=False)
    pre.add_argument("--json", action="store_true")
    try:
        return pre.parse_known_args(argv)[0].json
    except _UsageError:
        return False


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ampgraph",
        description="Construct and verify splittings of amplified graph algebras.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for group in cmd.input.arguments + cmd.options:
            into = p.add_mutually_exclusive_group() if len(group) > 1 else p
            for flags, kw in group:
                into.add_argument(*flags, **kw)
    return parser


def _is_verification_failure(exc: BaseException) -> bool:
    """Whether ``exc`` is a :class:`~ampgraph.splitting.VerificationFailure`.

    Only :mod:`ampgraph.splitting` defines and raises it, so when that module
    was never loaded no verification can have failed.
    """
    splitting = sys.modules.get("ampgraph.splitting")
    return splitting is not None and isinstance(exc, splitting.VerificationFailure)


def run_command(argv: list[str]) -> Report:
    """Execute one command line and return its report without printing.

    A malformed command line gives an error report with exit status 1, as
    does a handler that raises ``MemoryError``; only ``--help`` prints (the
    help text) and raises ``SystemExit(0)``.
    """
    command = tuple(argv)
    try:
        ns = build_parser().parse_args(argv)
    except _UsageError as exc:
        return Report(command, False, None, str(exc), 1, _json_requested(argv))
    cmd = _COMMANDS[ns.cmd]
    try:
        ok, result = cmd.run(cmd.input.read(ns), ns)
    except (ValueError, OSError) as exc:
        return Report(command, False, None, str(exc), 1, ns.json)
    except RuntimeError as exc:
        if not _is_verification_failure(exc):
            raise
        return Report(command, False, None, str(exc), 2, ns.json)
    except MemoryError:
        # reported past the clause, which then lets go of the frames that ran out
        pass
    else:
        return Report(command, ok, result, None, 0 if ok else 2, ns.json)
    return Report(command, False, None, _out_of_memory(ns), 1, ns.json)


def _out_of_memory(ns) -> str:
    """The error of a command that ran out of memory: its name and, for a flag spec, its cell count."""
    if _COMMANDS[ns.cmd].input is not _SPEC:
        return f"{ns.cmd} ran out of memory"
    from .coxeter import _cell_count

    return f"{ns.cmd} ran out of memory on {_cell_count(_flag_spec(ns))} cells"


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            report = run_command(args)
        except SystemExit as exc:  # --help printed its text
            code = 1 if exc.code else 0
        else:
            code = report.exit_code
            if report.as_json:
                print(report.dumps())
            elif report.error is not None:
                print(report.render(), file=sys.stderr)
            else:
                print(report.render())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: the exit code still says how the run went, and
        # stdout and stderr go to devnull so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
