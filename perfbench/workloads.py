"""The four benchmark workloads: their inputs, how one item runs, its checks.

An item is one input taken through the program to a verdict.  ``run`` is
the timed call; ``check`` compares the output against answers from
:mod:`oracle` and returns a list of faults, empty when the item is correct.
Calls go through module attributes looked up at call time, so the traced
run sees the wrappers that :mod:`spans` installs.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
PAPER_GR24 = "K^1 (+) C*(X3)  ->  K^2 (+) C*(X2)  ->  K^4 (+) C*(X1)  ->  K^5 (+) C  ->  C^6"


class Program:
    """The ampgraph modules, imported from the checkout's ``src``."""

    def __init__(self) -> None:
        for name in ("algebra", "cli", "coxeter", "cw", "graphio", "graphs", "ktheory", "splitting"):
            setattr(self, name, importlib.import_module(f"ampgraph.{name}"))
        if not Path(self.cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"ampgraph was imported from {self.cli.__file__}, not from {ROOT / 'src'}")


@dataclass
class Item:
    name: str
    payload: object
    #: Added to the main expected count; nonzero only in the negative control.
    skew: int = 0
    facts: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CK_SPLIT_MAX_VERTICES", None)
    return env


def spawn(args: list[str]) -> tuple[bytes, int, int]:
    """Run a child to completion: (stdout and stderr, exit code, peak RSS in KiB)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=child_env(), cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss


def _families(graph) -> int:
    return sum(1 for _ in graph.families())


# -- cw-ladder ---------------------------------------------------------------


class CwLadder:
    """``cw_kk_summary`` on the flag-graph ladder."""

    name = "cw-ladder"
    pass_seconds = 4.8
    SPECS = [(3, (2,)), (4, (2,)), (5, (3,)), (6, (3,)), (3, (1, 2, 3)), (4, (1, 3))]

    def __init__(self, prog: Program, seed: int) -> None:
        self.prog = prog

    def items(self) -> list[Item]:
        spec = self.prog.coxeter.DynkinSpec
        return [Item(f"A{r}{{{','.join(map(str, t))}}}", (r, t, spec(r, frozenset(t))))
                for r, t in self.SPECS]

    def run(self, item: Item):
        return self.prog.cw.cw_kk_summary(item.payload[2])

    def check(self, item: Item, out) -> list[str]:
        rank, tags, _ = item.payload
        sizes = oracle.block_sizes(rank, tags)
        n = oracle.multinomial(sizes) + item.skew
        want = oracle.cw_summary_text(sizes)
        faults = []
        if len(out.chain.graph.vertices) != n:
            faults.append(f"{len(out.chain.graph.vertices)} vertices, expected {n}")
        if len(out.records) != len(oracle.cell_counts(sizes)):
            faults.append(f"{len(out.records)} records, expected dimension + 1")
        if str(out) != want:
            faults.append(f"summary {str(out)!r}, expected {want!r}")
        if (rank, tags) == (3, (2,)) and str(out) != PAPER_GR24:
            faults.append("Gr(2,4) summary differs from the paper's chain")
        if not out.report.ok:
            faults.append("verification report is not ok")
        if len(out.chain.steps) != n - 1 or len(out.chain.terminal.vertices) != 1:
            faults.append("chain does not peel down to one vertex in n-1 steps")
        item.facts = {"vertices": len(out.chain.graph.vertices),
                      "families": _families(out.chain.graph)}
        return faults


# -- flag-filtration -----------------------------------------------------------


class FlagFiltration:
    """``skeleton_filtration`` alone: Weyl enumeration and quotients, no algebra."""

    name = "flag-filtration"
    pass_seconds = 5.4
    SPECS = [(7, (4,)), (7, (1, 7)), (7, (2, 5))]

    def __init__(self, prog: Program, seed: int) -> None:
        self.prog = prog

    items = CwLadder.items

    def run(self, item: Item):
        return self.prog.cw.skeleton_filtration(item.payload[2])

    def check(self, item: Item, out) -> list[str]:
        rank, tags, _ = item.payload
        sizes = oracle.block_sizes(rank, tags)
        counts = oracle.cell_counts(sizes)
        n = oracle.multinomial(sizes) + item.skew
        faults = []
        if len(out.full.vertices) != n:
            faults.append(f"{len(out.full.vertices)} vertices, expected {n}")
        if len(out.levels) != len(counts):
            faults.append(f"{len(out.levels)} levels, expected dimension + 1 = {len(counts)}")
        got = [len(level.vertices) for level in out.levels]
        want = [sum(counts[: k + 1]) for k in range(len(counts))]
        if got != want:
            faults.append(f"skeleton sizes {got}, expected {want}")
        item.facts = {"vertices": len(out.full.vertices), "families": _families(out.full)}
        return faults


# -- random-chains ---------------------------------------------------------------


def random_dag(rng: random.Random, n: int, p: float) -> tuple[tuple[str, ...], list]:
    """A random DAG on labels ``w1..wn`` with ``round(p * n(n-1)/2)`` edges.

    The labels get a random topological order, and the edges are a uniform
    sample of the forward pairs: edge probability p, conditioned on the
    expected edge count.  Seeds then change the structure but not the size,
    and size is what sets the time.
    """
    labels = tuple(f"w{i}" for i in range(1, n + 1))
    order = list(labels)
    rng.shuffle(order)
    pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
    edges = rng.sample(pairs, round(p * len(pairs)))
    rank = {v: i for i, v in enumerate(labels)}
    return labels, sorted(edges, key=lambda e: (rank[e[0]], rank[e[1]]))


class RandomChains:
    """Seeded random DAGs through ``kk_chain`` and both K_0 checks.

    Dense graphs force augmented families and stabilisation rounds; sparse
    ones have many vertices and few families.  Sizes are chosen so that one
    pass holds enough graphs for its total time to vary little with the seed.
    """

    name = "random-chains"
    pass_seconds = 20.0
    DENSE = (32, 14, (0.3, 0.4, 0.5, 0.6))
    SPARSE = (12, 30, (0.06,))
    POLICIES = ("first", "source")

    def __init__(self, prog: Program, seed: int) -> None:
        self.prog = prog
        self.seed = seed

    def items(self) -> list[Item]:
        rng = random.Random(self.seed)
        out = []
        for shape, (count, n, ps) in (("dense", self.DENSE), ("sparse", self.SPARSE)):
            for i in range(count):
                p = ps[(i // 2) % len(ps)]
                policy = self.POLICIES[i % 2]
                labels, edges = random_dag(rng, n, p)
                g = self.prog.graphs.AmpGraph.from_edges(labels, edges)
                out.append(Item(f"{shape}{i}-n{n}-p{p}-{policy}", (labels, edges, policy, g)))
        return out

    def run(self, item: Item):
        labels, edges, policy, g = item.payload
        pick = {"first": self.prog.splitting.first_sink_first_star,
                "source": self.prog.splitting.prefer_source_star}[policy]
        chain = self.prog.splitting.kk_chain(g, pick)
        k0 = self.prog.ktheory.check_chain_k0(chain)
        steps = [self.prog.ktheory.check_split_exact_k0(sd) for sd in chain.steps]
        return chain, k0, steps

    def check(self, item: Item, out) -> list[str]:
        labels, edges, policy, _ = item.payload
        chain, k0, steps = out
        if "digraph" not in item.facts:
            item.facts = {"digraph": oracle.Digraph(labels, edges),
                          "vertices": len(labels), "families": len(edges)}
        faults = []
        if len(chain.steps) != len(labels) - 1 + item.skew:
            faults.append(f"{len(chain.steps)} steps for {len(labels)} vertices")
        faults += oracle.chain_faults(
            item.facts["digraph"], policy, [(sd.sink, sd.star) for sd in chain.steps],
            chain.terminal.vertices, k0.forward, k0.backward)
        if not k0.report.ok or not all(s.report.ok for s in steps):
            faults.append("a K_0 report is not ok")
        return faults


# -- cli-cold ----------------------------------------------------------------------

#: (argv, expected exit code).  Every subcommand on the fixtures, plus one
#: deliberate input error, which must still answer in JSON.
CLI_MIX = [
    (["classify", "fixtures/example.json"], 0),
    (["hereditary", "fixtures/gr24.json"], 0),
    (["hereditary", "fixtures/example.json", "--closure", "v2"], 0),
    (["quotient", "fixtures/example.json", "--remove", "v4,v5"], 0),
    (["stars", "fixtures/gr24.json", "--sink", "s2s1s3s2"], 0),
    (["split", "fixtures/example.json", "--sink", "v4", "--star", "v2", "--verify"], 0),
    (["chain", "fixtures/gr24.json"], 0),
    (["chain", "fixtures/cp3.json", "--policy", "source"], 0),
    (["ktheory", "fixtures/gr24_skel3.json"], 0),
    (["flag", "--rank", "3", "--tag", "2"], 0),
    (["cw", "--rank", "3", "--tag", "2"], 0),
    (["split", "fixtures/example.json", "--sink", "v2"], 1),
]


def _fixture(path: str) -> tuple[dict, oracle.Digraph]:
    doc = json.loads((ROOT / path).read_text())
    return doc, oracle.Digraph(doc["vertices"], [(e["src"], e["dst"]) for e in doc["edges"]])


def cli_result_faults(args: list[str], doc: dict) -> list[str]:
    """Check the ``result`` of one ``--json`` report against the oracle."""
    cmd, res = args[0], doc.get("result")
    if cmd == "split" and "--star" not in args:
        return [] if "error" in doc and not doc["ok"] else ["input error not reported as JSON"]
    if cmd == "flag":
        want, _ = _fixture("fixtures/gr24.json")
        return [] if res == want else ["flag --rank 3 --tag 2 differs from fixtures/gr24.json"]
    if cmd == "cw":
        ok = res["summary"] == PAPER_GR24 and all(c["passed"] for c in res["checks"])
        return [] if ok else [f"cw summary {res['summary']!r}"]
    graph, dg = _fixture(args[1])
    alive = set(dg.labels)
    if cmd == "classify":
        want = {"acyclic": True, "amplified": True,
                "sinks": dg.sinks(alive), "sources": dg.sources(alive)}
    elif cmd == "hereditary" and "--closure" in args:
        given = args[3].split(",")
        want = {"given": given, "closure": dg.closure(given)}
    elif cmd == "hereditary":
        sets = dg.hereditary_sets()
        want = {"count": len(sets), "max_vertices": 20, "sets": sets}
    elif cmd == "quotient":
        gone = set(args[3].split(","))
        want = {"removed": sorted(gone), "graph": {
            "vertices": [v for v in graph["vertices"] if v not in gone],
            "edges": [e for e in graph["edges"] if e["src"] not in gone and e["dst"] not in gone]}}
    elif cmd == "stars":
        want = {"sink": args[3], "stars": dg.stars(args[3], alive)}
    elif cmd == "ktheory":
        want = {"k0_rank": len(dg.labels), "k0_generators": list(dg.labels), "k1_rank": 0}
    elif cmd == "split":
        sink, star = args[3], args[5]
        aug = [[v, sink] for v in dg.labels if star in dg.succ[v] and sink not in dg.succ[v]]
        ok = res["augmented"] == aug and all(c["passed"] for c in res["checks"])
        return [] if ok else ["split --verify: wrong augmentation or a failed check"]
    else:
        policy = args[args.index("--policy") + 1] if "--policy" in args else "first"
        faults = oracle.chain_faults(dg, policy, [(s["sink"], s["star"]) for s in res["steps"]],
                                     res["terminal"], res["k0"]["forward"], res["k0"]["backward"])
        if not all(c["passed"] for c in res["k0"]["checks"]):
            faults.append("chain K_0 checks failed")
        return faults
    return [] if res == want else [f"{cmd}: result differs from the expected {want}"]


class CliCold:
    """One ``python -m ampgraph ... --json`` process after another over a fixed mix."""

    name = "cli-cold"
    pass_seconds = 2.1

    def __init__(self, prog: Program, seed: int) -> None:
        self.prog = prog
        #: stdout every invocation must reproduce byte for byte.
        self.expected: dict[str, bytes] = {}
        self.peak_kib = 0

    def items(self) -> list[Item]:
        return [Item(" ".join(args), (args + ["--json"], code)) for args, code in CLI_MIX]

    def run(self, item: Item):
        """Cold start: a fresh interpreter per invocation."""
        out = spawn([sys.executable, "-m", "ampgraph", *item.payload[0]])
        self.peak_kib = max(self.peak_kib, out[2])
        return out

    def run_inprocess(self, item: Item):
        report = self.prog.cli.run_command(item.payload[0])
        return (report.dumps() + "\n").encode(), report.exit_code, 0

    def check(self, item: Item, out) -> list[str]:
        stdout, code, _ = out
        args, want_code = item.payload
        faults = []
        if code != want_code + item.skew:
            faults.append(f"exit code {code}, expected {want_code + item.skew}")
        first = self.expected.setdefault(item.name, stdout)
        if stdout != first:
            faults.append("stdout differs from an earlier run of the same command")
        try:
            doc = json.loads(stdout)
        except ValueError:
            return faults + [f"stdout is not one JSON document: {stdout[:200]!r}"]
        if doc.get("ok") != (code == 0) or doc.get("command") != args:
            faults.append("report's ok/command fields disagree with the invocation")
        return faults + cli_result_faults(args[:-1], doc)


WORKLOADS = {w.name: w for w in (CwLadder, FlagFiltration, RandomChains, CliCold)}


def warm_up(prog: Program) -> dict[str, bytes]:
    """Run the CLI mix in process once, touching every layer before timing.

    Returns each command's ``--json`` stdout, keyed like the cli-cold items.
    """
    out = {}
    for args, code in CLI_MIX:
        report = prog.cli.run_command(args + ["--json"])
        if report.exit_code != code:
            raise RuntimeError(f"warm-up: {' '.join(args)} exited {report.exit_code}")
        out[" ".join(args)] = (report.dumps() + "\n").encode()
    return out
