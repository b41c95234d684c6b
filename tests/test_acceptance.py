"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(straight to the terminal, bypassing capture) so the tee'd pytest log reads
as a checklist.  All comparisons are exact; nothing here tolerates drift.
"""

import json
import pathlib
import random
import subprocess
import sys

import numpy as np

from ampgraph import (
    CKElement,
    DynkinSpec,
    GeneratorMap,
    build_splitting,
    check_split_exact_k0,
    cw_kk_summary,
    flag_graph,
    kk_chain,
    minimal_coset_reps,
    skeleton_filtration,
    valid_stars,
    verify_ck_family,
    verify_split_exact,
)
from ampgraph.coxeter import (
    canonical_reduced_word,
    weyl_group,
    word_to_perm,
)
from ampgraph.ktheory import check_chain_k0, smith_normal_form

from helpers import (
    all_words,
    as_array,
    determinant,
    example_graph,
    flag_vertices_alt,
    hereditary_subsets_oracle,
    invariant_factors_by_minors,
    is_identity,
    random_amplified_dag,
    random_int_matrix,
    snf_diag_oracle,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
SEED = 20260815

GR = DynkinSpec(3, frozenset({2}))


def _criterion(capsys, number: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {number}: {label}")
    assert not failures, "; ".join(failures)


def _expect(failures: list[str], cond: bool, msg: str) -> None:
    if not cond:
        failures.append(msg)


def test_criterion_1_star_enumeration(capsys):
    fail: list[str] = []
    g = example_graph()
    _expect(fail, valid_stars(g, "v4") == ["v1", "v2", "v3"],
            f"stars for v4: {valid_stars(g, 'v4')}")
    try:
        build_splitting(g, "v4", "v5")
        fail.append("v5 accepted as a star for v4")
    except ValueError as exc:
        _expect(fail, "v5" in str(exc), "rejection does not name v5")
    _criterion(capsys, 1, "star enumeration and rejection on the running example", fail)


def test_criterion_2_splittings_verify(capsys):
    fail: list[str] = []
    g = example_graph()
    for star in [*valid_stars(g, "v4"), None]:
        sd = build_splitting(g, "v4", star)
        report = verify_split_exact(sd)
        _expect(fail, report.ok, f"star {star}: {report.render()}")
    # negative control: drop the sink summand from the star's image
    sd = build_splitting(g, "v4", "v2")
    broken_vimgs = dict(sd.sigma.vertex_images)
    broken_vimgs["v2"] = {"v2": 1}
    broken = GeneratorMap(sd.sigma.source, sd.sigma.target,
                          broken_vimgs, sd.sigma.edge_images)
    _expect(fail, not verify_ck_family(broken).ok,
            "corrupted section still verifies as a homomorphism")
    _criterion(capsys, 2, "explicit sections verify, corrupted section fails", fail)


def test_criterion_3_flag_graphs(capsys):
    fail: list[str] = []
    cp3 = flag_graph(DynkinSpec(3, frozenset({1})))
    _expect(fail, cp3.vertices == ("e", "s1", "s2s1", "s3s2s1"),
            f"cp3 vertices: {cp3.vertices}")
    _expect(fail, [(a, b) for a, b, _ in cp3.families()]
            == [("e", "s1"), ("s1", "s2s1"), ("s2s1", "s3s2s1")],
            "cp3 is not the length-3 path")
    gr = flag_graph(GR)
    _expect(fail, len(gr.vertices) == 6, f"gr has {len(gr.vertices)} vertices")
    _expect(fail, sum(1 for _ in gr.families()) == 6,
            f"gr has {sum(1 for _ in gr.families())} families")
    for rank in (2, 3):
        nodes = range(1, rank + 1)
        for bits in range(1, 2 ** rank):
            tagged = frozenset(i for i in nodes if bits & (1 << (i - 1)))
            spec = DynkinSpec(rank, tagged)
            alt = set(flag_vertices_alt(spec))
            reps = {r.element for r in minimal_coset_reps(spec)}
            _expect(fail, alt == reps,
                    f"vertex characterisations disagree for rank {rank}, tag {sorted(tagged)}")
    _criterion(capsys, 3, "flag graphs and both vertex characterisations", fail)


def test_criterion_4_skeletons(capsys):
    fail: list[str] = []
    filt = skeleton_filtration(GR)
    x3, x2 = filt.level(3), filt.level(2)
    _expect(fail, len(x3.vertices) == 5 and sum(1 for _ in x3.families()) == 5,
            "level 3 is not the 5-vertex 5-family graph")
    _expect(fail, len(x2.vertices) == 4 and sum(1 for _ in x2.families()) == 3,
            "level 2 is not the 4-vertex 3-family graph")
    _expect(fail, filt.full.quotient(("s2s1s3s2",)) == x3,
            "removing the top cell does not reproduce level 3")
    _criterion(capsys, 4, "skeleton levels of the 6-vertex flag graph", fail)


def test_criterion_5_cw_sequence(capsys):
    fail: list[str] = []
    summary = cw_kk_summary(GR)
    _expect(fail, [r.text for r in summary.records] == [
        "K^1 (+) C*(X3)",
        "K^2 (+) C*(X2)",
        "K^4 (+) C*(X1)",
        "K^5 (+) C",
        "C^6",
    ], f"records: {[r.text for r in summary.records]}")
    _expect(fail, summary.report.ok, summary.report.render())
    res = check_chain_k0(summary.chain)
    forward, backward = as_array(res.forward, 6), as_array(res.backward, 6)
    _expect(fail, is_identity(forward @ backward),
            "K_0 forward/backward composite is not the identity")
    _expect(fail, is_identity(backward @ forward),
            "K_0 backward/forward composite is not the identity")
    cls = flag_graph(GR).classify()
    _expect(fail, cls.acyclic and cls.amplified, "K_1 is not zero")
    _criterion(capsys, 5, "equivalence chain for the 6-vertex flag graph", fail)


def test_criterion_6_random_chains(capsys):
    fail: list[str] = []
    rng = random.Random(SEED)
    for trial in range(100):
        n = rng.randint(1, 7)
        g = random_amplified_dag(rng, n)
        chain = kk_chain(g)
        _expect(fail, len(chain.steps) == n - 1,
                f"trial {trial}: {len(chain.steps)} steps for {n} vertices")
        cls = g.classify()
        _expect(fail, len(g.vertices) == n and cls.acyclic and cls.amplified,
                f"trial {trial}: K-groups are not (Z^{n}, 0)")
        for sd in chain.steps:
            _expect(fail, verify_split_exact(sd).ok,
                    f"trial {trial}: step at {sd.sink} fails verification")
            _expect(fail, check_split_exact_k0(sd).report.ok,
                    f"trial {trial}: step at {sd.sink} fails the K_0 checks")
        if fail:
            break
    _criterion(capsys, 6, "100 random chains verify step by step", fail)


def test_criterion_7_property_suites(capsys):
    fail: list[str] = []
    rng = random.Random(SEED)

    g = example_graph()
    pool = all_words(g, 2)
    for _ in range(1000):
        a, b, c = (CKElement.word(g, rng.choice(pool)) for _ in range(3))
        if (a * b) * c != a * (b * c):
            fail.append(f"associativity fails on {a}, {b}, {c}")
            break
        if (a * b).adjoint() != b.adjoint() * a.adjoint():
            fail.append(f"involution fails on {a}, {b}")
            break

    for n in (3, 5, 8, 10, 12):
        h = random_amplified_dag(rng, n)
        got = set(h.enumerate_hereditary())
        _expect(fail, got == hereditary_subsets_oracle(h),
                f"hereditary enumeration disagrees with the subset scan at n={n}")

    for trial in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_int_matrix(rng, rows, cols)
        u, d, v = smith_normal_form(a, cols)
        diag = tuple(d[i][i] for i in range(min(rows, cols)))
        nonzero = tuple(x for x in diag if x)
        arr = as_array(a, cols)
        checks = (
            np.array_equal(as_array(u, rows) @ arr @ as_array(v, cols),
                           as_array(d, cols)),
            abs(determinant(u)) == 1 and abs(determinant(v)) == 1,
            all(x >= 0 for x in diag),
            diag == nonzero + (0,) * (len(diag) - len(nonzero)),
            all(b % a_ == 0 for a_, b in zip(nonzero, nonzero[1:])),
            nonzero == snf_diag_oracle(a),
            nonzero == invariant_factors_by_minors(arr),
        )
        if not all(checks):
            fail.append(f"Smith form certificate fails on trial {trial}: {a}")
            break

    for _ in range(20):
        h = random_amplified_dag(rng, rng.randint(2, 7))
        before = {(u, w) for u in h.vertices for w in h.reachable_set(u)}
        for u, w in sorted(before):
            if h.multiplicity(u, w) != 0:
                continue  # only indirect pairs admit the move
            g2 = h.amplify_transitive_edges(u, w)
            after = {(x, y) for x in g2.vertices for y in g2.reachable_set(x)}
            _expect(fail, before == after,
                    f"adding {u}->{w} changes the path relation")

    _expect(fail, word_to_perm((1, 2, 1), 2) == word_to_perm((2, 1, 2), 2),
            "braid relation fails in rank 2")
    _expect(fail, word_to_perm((1, 1), 2) == word_to_perm((), 2),
            "involutivity fails in rank 2")
    longest = max(weyl_group(2), key=lambda pair: pair[1])[0]
    _expect(fail, canonical_reduced_word(longest) == (1, 2, 1),
            "canonical word of the longest rank-2 element")

    _criterion(capsys, 7, "algebra, enumeration, Smith form and Coxeter properties", fail)


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ampgraph", *args],
        capture_output=True, text=True, cwd=ROOT,
    )


def test_criterion_8_cli_contract(capsys):
    fail: list[str] = []
    example = str(FIXTURES / "example.json")
    commands = [
        ["classify", example, "--json"],
        ["hereditary", example, "--json"],
        ["quotient", example, "--remove", "v4,v5", "--json"],
        ["stars", example, "--sink", "v4", "--json"],
        ["split", example, "--sink", "v4", "--verify", "--json"],
        ["chain", example, "--json"],
        ["ktheory", example, "--json"],
        ["flag", "--rank", "3", "--tag", "2", "--json"],
        ["cw", "--rank", "2", "--tag", "1", "--json"],
    ]
    commands += [
        ["classify", str(path), "--json"] for path in sorted(FIXTURES.glob("*.json"))
    ]
    for args in commands:
        first, second = _run_cli(args), _run_cli(args)
        _expect(fail, first.returncode == 0,
                f"{' '.join(args)} exited {first.returncode}: {first.stderr.strip()}")
        _expect(fail, first.stdout == second.stdout,
                f"{' '.join(args)} is not byte deterministic")

    run = _run_cli(["stars", example, "--sink", "v4"])
    _expect(fail, run.returncode == 0 and run.stdout == "v1 v2 v3\n",
            f"stars output {run.stdout!r}, exit {run.returncode}")

    run = _run_cli(["flag", "--rank", "3", "--tag", "2", "--json"])
    want = json.loads((FIXTURES / "gr24.json").read_text())
    _expect(fail, run.returncode == 0 and json.loads(run.stdout)["result"] == want,
            "flag --rank 3 --tag 2 does not reproduce the stored graph")

    run = _run_cli(["split", example, "--sink", "v4", "--star", "v5"])
    _expect(fail, run.returncode == 1,
            f"invalid star exited {run.returncode}, expected 1")
    _expect(fail, run.stdout == "" and "not a valid choice" in run.stderr,
            "invalid star diagnostic missing or misplaced")

    _criterion(capsys, 8, "command-line determinism and exit codes", fail)
