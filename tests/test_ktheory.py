import os
import pathlib
import random
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from ampgraph import (
    AmpGraph,
    GeneratorMap,
    build_splitting,
    check_chain_k0,
    check_split_exact_k0,
    cw_kk_summary,
    induced_k0,
    kk_chain,
    load_graph,
    multi_sink_splitting,
    prefer_source_star,
    valid_stars,
    verify_split_exact,
)
from ampgraph import ktheory
from ampgraph.ktheory import smith_normal_form

from helpers import (
    CW_LADDER,
    as_array,
    check_chain_k0_oracle,
    check_split_exact_k0_oracle,
    corrupted_chains,
    det_oracle,
    determinant,
    dense,
    diagonal_of,
    example_graph,
    invariant_factors_by_minors,
    is_identity,
    forbid_smith_normal_form,
    golden_chains,
    kernel_basis,
    matmul,
    random_chain,
    random_int_matrix,
    snf_diag_oracle,
    unimodular_inverse,
)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_determinant_known_values():
    assert determinant(()) == 1
    assert determinant(((7,),)) == 7
    assert determinant(((2, 4), (6, 8))) == -8
    assert determinant(((0, 1), (1, 0))) == -1
    assert determinant(((2, 5, 1), (0, 3, 9), (0, 0, 4))) == 24


@pytest.mark.parametrize("seed", range(30))
def test_determinant_matches_laplace(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(1, 5)
    m = random_int_matrix(rng, n, n)
    assert determinant(m) == det_oracle(as_array(m, n))


def test_snf_known_values():
    u, d, v = smith_normal_form(((2, 4), (6, 8)), 2)
    assert diagonal_of(d) == (2, 4)
    assert np.array_equal(
        as_array(u, 2) @ as_array(((2, 4), (6, 8)), 2) @ as_array(v, 2), as_array(d, 2)
    )
    _, d, _ = smith_normal_form(((4, 0), (0, 6)), 2)
    assert diagonal_of(d) == (2, 12)
    _, d, _ = smith_normal_form(((0, 0), (0, 0)), 2)
    assert diagonal_of(d) == (0, 0)
    _, d, _ = smith_normal_form(eye(3), 3)
    assert diagonal_of(d) == (1, 1, 1)
    assert smith_normal_form((), 2) == ((), (), eye(2))
    assert smith_normal_form(((), ()), 0) == (eye(2), ((), ()), ())
    with pytest.raises(ValueError, match="3 columns"):
        smith_normal_form(((1, 2),), 3)


def test_snf_is_deterministic():
    rng = random.Random(99)
    for _ in range(20):
        cols = rng.randint(1, 5)
        m = random_int_matrix(rng, rng.randint(1, 5), cols)
        assert smith_normal_form(m, cols) == smith_normal_form(m, cols)


@pytest.mark.parametrize("seed", range(40))
def test_snf_certificate_and_minors(seed):
    # shapes include 0 rows and 0 columns; numpy object arrays recompute U A V
    rng = random.Random(300 + seed)
    rows, cols = rng.randint(0, 4), rng.randint(0, 4)
    a = random_int_matrix(rng, rows, cols)
    u, d, v = smith_normal_form(a, cols)
    assert len(u) == rows and all(len(row) == rows for row in u)
    assert len(d) == rows and all(len(row) == cols for row in d)
    assert len(v) == cols and all(len(row) == cols for row in v)
    arr = as_array(a, cols)
    d_arr = as_array(d, cols)
    assert np.array_equal(as_array(u, rows) @ arr @ as_array(v, cols), d_arr)
    assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
    diag = diagonal_of(d)
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag == tuple(nonzero) + (0,) * (len(diag) - len(nonzero))
    assert all(b % a_ == 0 for a_, b in zip(nonzero, nonzero[1:]))
    assert nonzero == list(invariant_factors_by_minors(arr))
    assert tuple(nonzero) == snf_diag_oracle(a)


@pytest.mark.parametrize("seed", range(40))
def test_rank_matches_smith_normal_form(seed):
    # the rank decides k0-kernel when a step has no left-inverse certificate
    rng = random.Random(500 + seed)
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    a = random_int_matrix(rng, rows, cols, bound=rng.choice((1, 3, 9)))
    columns = tuple({i: a[i][j] for i in range(rows) if a[i][j]} for j in range(cols))
    _, d, _ = smith_normal_form(a, cols)
    assert ktheory._rank(columns) == sum(1 for x in diagonal_of(d) if x)


def test_kernel_basis():
    a = ((1, 1), (1, 1))
    k = kernel_basis(a, 2)
    assert len(k) == 2 and len(k[0]) == 1
    assert not (as_array(a, 2) @ as_array(k, 1)).any()
    assert kernel_basis(eye(3), 3) == ((), (), ())
    wide = ((1, 2, 3),)
    kw = kernel_basis(wide, 3)
    assert len(kw) == 3 and len(kw[0]) == 2
    assert not (as_array(wide, 3) @ as_array(kw, 2)).any()
    # a 0 x n matrix kills everything: the kernel is all of Z^n
    assert kernel_basis((), 1) == ((1,),)
    assert kernel_basis((), 3) == eye(3)


def test_unimodular_inverse():
    m = ((1, 2), (3, 7))
    inv = unimodular_inverse(m)
    assert is_identity(as_array(m, 2) @ as_array(inv, 2))
    assert is_identity(as_array(inv, 2) @ as_array(m, 2))
    assert unimodular_inverse(()) == ()
    with pytest.raises(ValueError, match="unimodular"):
        unimodular_inverse(((2, 0), (0, 1)))
    with pytest.raises(ValueError, match="square"):
        unimodular_inverse(((1, 0),))


def test_induced_k0_identity_and_quotient():
    g = example_graph()
    assert induced_k0(GeneratorMap.identity(g)) == tuple({i: 1} for i in range(5))
    q = GeneratorMap.quotient(g, ("v4",))
    # rows v1,v2,v3,v5 and columns v1..v5; the v4 column is killed
    assert induced_k0(q) == ({0: 1}, {1: 1}, {2: 1}, {}, {3: 1})


def test_induced_k0_section_star_v2():
    sd = build_splitting(example_graph(), "v4", "v2")
    s = induced_k0(sd.sigma)
    # columns v1,v2,v3,v5; the v2 column carries the extra sink class
    assert dense(s, 5) == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    )


@pytest.mark.parametrize("image, term", [
    ({"v1": 2}, "2*p[v1]"),
    ({"v1": -1}, "-p[v1]"),
    ({"v1": 1, "v2": 2}, "2*p[v2]"),
])
def test_induced_k0_refuses_a_diagonal_coefficient_other_than_one(image, term):
    g = example_graph()
    ident = GeneratorMap.identity(g)
    images = dict(ident.vertex_images, v1=image)
    msg = f"image of p[v1] is not an orthogonal sum of path projections: term {term}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        induced_k0(GeneratorMap(g, g, images, ident.edge_images))


def test_cw_kk_summary_reads_each_step_patch_once_and_extracts_no_column(monkeypatch):
    original = ktheory._range_counts
    seen, columns = [], []

    def counted(m):
        seen.append(m)
        return original(m)

    monkeypatch.setattr(ktheory, "_range_counts", counted)
    monkeypatch.setattr(ktheory, "induced_k0", lambda m: columns.append(m))
    for spec in CW_LADDER[:3]:
        seen.clear()
        summary = cw_kk_summary(spec)
        assert summary.report.ok
        # a step keeps no K_0 state: the chain check decides each step's
        # certificate once, reading its two patches, and the summary's step
        # rows read that verdict; no full column is built
        assert len(seen) == 2 * len(summary.chain.steps)
        assert columns == []


def test_k0_checks_leave_the_step_certificate_unchanged():
    for chain in (kk_chain(example_graph(), prefer_source_star), cw_kk_summary(CW_LADDER[0]).chain):
        before = [check_split_exact_k0(sd) for sd in chain.steps]
        chain_k0 = check_chain_k0(chain)
        assert [check_split_exact_k0(sd) for sd in chain.steps] == before
        assert check_chain_k0(chain) == chain_k0
        # the certificate's classes are those of the star and the sink, the
        # only vertices the step's maps move, and both of its halves hold
        for sd in chain.steps:
            star = {sd.star: {sd.star: 1, sd.sink: 1}}
            assert ktheory._step_certificate(sd) == ({sd.sink: {}}, star, True, True)


def test_a_split_check_read_for_its_report_builds_no_dense_matrix(monkeypatch):
    chains = [kk_chain(example_graph()), kk_chain(example_graph(), prefer_source_star),
              cw_kk_summary(CW_LADDER[0]).chain]

    def forbidden(*args):
        raise AssertionError("a K_0 matrix was built for a report")

    monkeypatch.setattr(ktheory, "_dense", forbidden)
    monkeypatch.setattr(ktheory, "_columns", forbidden)
    results = [check_split_exact_k0(sd) for chain in chains for sd in chain.steps]
    assert all(res.report.ok for res in results)
    monkeypatch.undo()
    # read afterwards, the matrices are built, and they are the oracle's
    for res in results:
        old = check_split_exact_k0_oracle(res.step)
        assert (res.sink, res.q, res.s, res.inclusion) == (old.sink, old.q, old.s, old.inclusion)


def test_a_chain_check_read_for_its_report_builds_no_dense_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a K_0 matrix was built for a report")

    monkeypatch.setattr(ktheory, "_dense", forbidden)
    summary = cw_kk_summary(CW_LADDER[4])  # full A3
    res = check_chain_k0(summary.chain)
    assert summary.report.ok and res.report.ok
    monkeypatch.undo()
    # read afterwards, the matrices are built, and they are the oracle's
    old = check_chain_k0_oracle(summary.chain)
    assert (res.forward, res.backward) == (old.forward, old.backward)


@pytest.mark.parametrize("star", ["v1", "v2", "v3", None])
def test_check_split_exact_k0(star):
    sd = build_splitting(example_graph(), "v4", star)
    res = check_split_exact_k0(sd)
    assert res.report.ok
    assert res.report.check("k0-section").passed
    assert res.report.check("k0-ideal-killed").passed
    assert res.report.check("k0-kernel").passed
    n = len(sd.working.vertices)
    q = as_array(res.q, n)
    assert is_identity(q @ as_array(res.s, n - 1))
    assert not (q @ as_array(res.inclusion, 1)).any()
    sink_index = sd.working.index(sd.sink)
    assert res.inclusion == tuple((int(i == sink_index),) for i in range(n))


def test_check_split_exact_k0_one_vertex():
    # Q is 0 x 1 and S is 1 x 0; the kernel of Q is still the sink line
    g = AmpGraph.from_edges(("v",))
    res = check_split_exact_k0(build_splitting(g, "v", None))
    assert res.q == () and res.s == ((),)
    assert res.report.ok
    assert res.report.check("k0-kernel").detail == "ker Q is the copy of Z at the sink"


def test_check_chain_k0_products_are_identities():
    for g in (example_graph(),):
        chain = kk_chain(g)
        res = check_chain_k0(chain)
        n = len(g.vertices)
        assert res.report.ok
        forward, backward = as_array(res.forward, n), as_array(res.backward, n)
        assert is_identity(forward @ backward)
        assert is_identity(backward @ forward)


def test_check_chain_k0_trivial_chain():
    g = AmpGraph.from_edges(("v",))
    res = check_chain_k0(kk_chain(g))
    assert res.report.ok
    assert res.forward == eye(1)


# ---------------------------------------------------------------------------
# negative controls: one corrupted input per K_0 check name


def _remap(m: GeneratorMap, **images) -> GeneratorMap:
    """``m`` with some vertex images replaced by projections (or zero)."""
    vimgs = dict(m.vertex_images)
    for v, w in images.items():
        vimgs[v] = {} if w is None else {w: 1}
    return GeneratorMap(m.source, m.target, vimgs, m.edge_images)


def _corrupted_split(star="v2", **replace):
    sd = build_splitting(example_graph(), "v4", star)
    changes = {field: _remap(getattr(sd, field), **imgs) for field, imgs in replace.items()}
    return sd._replace(**changes)


def _split_report(star="v2", **replace):
    return check_split_exact_k0(_corrupted_split(star, **replace)).report


def _chain_report(**replace):
    chain = kk_chain(example_graph())
    first = chain.steps[0]
    changes = {field: _remap(getattr(first, field), **imgs) for field, imgs in replace.items()}
    steps = (first._replace(**changes),) + chain.steps[1:]
    return check_chain_k0(chain._replace(steps=steps)).report


def _cyclic_chain_report():
    g = AmpGraph.from_edges(("a", "b", "s"), [("a", "b"), ("b", "a"), ("a", "s")])
    return check_chain_k0(multi_sink_splitting(g, ["s"], [None])).report


K0_NEGATIVE_CONTROLS = {
    "k0-section": lambda: _split_report(sigma={"v3": "v5"}),
    # Q S = I still holds, but Q moves the sink class onto p[v5]
    "k0-ideal-killed": lambda: _split_report(None, quotient_map={"v4": "v5"}),
    "k0-kernel": lambda: _split_report(None, quotient_map={"v4": "v5"}),
    "k0-decomposition": lambda: _split_report(sigma={"v3": "v5"}),
    "k0-step-unimodular": lambda: _chain_report(sigma={"v3": "v2"}),
    "k0-chain-inverse": lambda: _chain_report(quotient_map={"v5": None}),
    "k0-rank": _cyclic_chain_report,
}


def test_negative_controls_cover_every_k0_check():
    healthy = _split_report().checks + _chain_report().checks
    assert {c.name for c in healthy} | {"k0-step-unimodular"} == set(K0_NEGATIVE_CONTROLS)


@pytest.mark.parametrize("star, replace", [
    ("v2", {}),
    (None, {}),
    ("v2", {"sigma": {"v3": "v5"}}),
    (None, {"quotient_map": {"v4": "v5"}}),
    ("v2", {"quotient_map": {"v5": None}}),
    ("v2", {"sigma": {"v3": "v5"}, "quotient_map": {"v4": "v5"}}),
])
def test_the_kept_certificate_decides_the_step_check(star, replace):
    # what the cw summary reads for its k0-step rows
    sd = _corrupted_split(star, **replace)
    _, _, section_ok, killed = ktheory._step_certificate(sd)
    report = check_split_exact_k0(sd).report
    assert section_ok == report.check("k0-section").passed
    assert killed == report.check("k0-ideal-killed").passed
    assert report.ok == (section_ok and killed) == (replace == {})


def test_a_quotient_onto_the_labels_in_another_order_is_no_section():
    # Q sends every label where the real quotient map does, but its target
    # lists the quotient graph's vertices in reverse: Q S = I is stated in
    # the vertex bases of the two graphs, so it fails, as the section
    # identity does
    sd = build_splitting(example_graph(), "v4", "v2")
    src, q = sd.quotient_graph, sd.quotient_map
    reordered = AmpGraph.from_edges(tuple(reversed(src.vertices)), [(a, b) for a, b, _ in src.families()])
    bad = sd._replace(quotient_map=GeneratorMap(q.source, reordered, q.vertex_images, q.edge_images))
    assert verify_split_exact(sd).ok and check_split_exact_k0(sd).report.ok
    assert not verify_split_exact(bad).check("section-identity").passed
    assert not check_split_exact_k0(bad).report.check("k0-section").passed
    assert not ktheory._step_certificate(bad)[2]


@pytest.mark.parametrize("name", sorted(K0_NEGATIVE_CONTROLS))
def test_k0_check_fails_on_corrupted_input(name):
    report = K0_NEGATIVE_CONTROLS[name]()
    assert not report.check(name).passed
    assert not report.ok


def test_failing_k0_checks_say_what_failed():
    healthy = {c.name: c.detail for c in _split_report().checks + _chain_report().checks}
    for name, control in K0_NEGATIVE_CONTROLS.items():
        failed = control().check(name)
        assert failed.detail and failed.detail != healthy.get(name), name


def test_k0_kernel_detail_counts_the_kernel():
    # Q moves the sink class onto p[v5]: the kernel is a line, not the sink's
    moved = _split_report(None, quotient_map={"v4": "v5"}).check("k0-kernel")
    assert moved.detail == "kernel rank 1, expected the sink line"
    # Q also kills p[v5]: the kernel is a plane
    plane = _split_report(quotient_map={"v5": None}).check("k0-kernel")
    assert plane.detail == "kernel rank 2, expected the sink line"


def test_failed_step_names_the_half_that_failed():
    detail = _chain_report(sigma={"v3": "v2"}).check("k0-step-unimodular").detail
    assert detail == (
        "step at 'v4': no left inverse certifies [e_sink | S]: Q S is not the identity"
    )
    moved = _chain_report(quotient_map={"v4": "v5"}).check("k0-step-unimodular")
    assert moved.detail.endswith(
        ": Q S is not the identity and Q does not kill the sink class"
    )


def test_failed_step_still_assembles_the_chain():
    report = _chain_report(sigma={"v3": "v2"})
    assert [c.name for c in report.checks] == [
        "k0-step-unimodular", "k0-chain-inverse", "k0-rank",
    ]
    assert report.check("k0-rank").passed


# ---------------------------------------------------------------------------
# the certificate against the Smith-normal-form path it replaced


def _outcome(check, arg):
    """The check's result, or the message of the ValueError it raised."""
    try:
        return check(arg)
    except ValueError as exc:
        return str(exc)


def _verdicts(report):
    return [(c.name, c.passed) for c in report.checks]


def _assert_split_matches_oracle(sd):
    new = _outcome(check_split_exact_k0, sd)
    old = _outcome(check_split_exact_k0_oracle, sd)
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
        return
    assert _verdicts(new.report) == _verdicts(old.report)
    assert new.report.check("k0-kernel").detail == old.report.check("k0-kernel").detail
    assert (new.q, new.s, new.inclusion) == (old.q, old.s, old.inclusion)


def _certified(sd) -> bool:
    """Q S = I and Q e_sink = 0, recomputed on dense matrices."""
    q = dense(induced_k0(sd.quotient_map), len(sd.quotient_graph.vertices))
    s = dense(induced_k0(sd.sigma), len(sd.working.vertices))
    k = sd.working.index(sd.sink)
    return matmul(q, s) == eye(len(q)) and all(row[k] == 0 for row in q)


def _compare_chain_with_oracle(chain) -> str:
    """Assert the new chain check agrees with the Smith oracle; name the case.

    The two agree exactly when every step has a left-inverse certificate.
    They may differ only through the stricter step check: the first step
    whose Q S is not the identity, or whose Q does not kill the sink class,
    fails ``k0-step-unimodular`` even when ``[e_sink | S]`` is unimodular,
    which the Smith path accepts.
    """
    new = _outcome(check_chain_k0, chain)
    old = _outcome(check_chain_k0_oracle, chain)
    if isinstance(old, str):
        assert new == old
        return "refused"
    if isinstance(new, str):
        # Smith stopped at a failed step before reaching the refused maps
        refusals = [_outcome(_step_columns, sd) for sd in chain.steps]
        refused = next(i for i, r in enumerate(refusals) if isinstance(r, str))
        assert refusals[refused] == new
        assert _oracle_failed_step(chain, old) < refused
        return "refused"
    for sd in chain.steps:
        _assert_split_matches_oracle(sd)
    names = [c.name for c in new.report.checks]
    if "k0-step-unimodular" not in names:
        assert all(_certified(sd) for sd in chain.steps)
        assert _verdicts(new.report) == _verdicts(old.report)
        assert (new.forward, new.backward) == (old.forward, old.backward)
        return "agree"
    n = len(chain.ambient.vertices)
    assert names == ["k0-step-unimodular", "k0-chain-inverse", "k0-rank"]
    assert len(new.forward) == len(new.backward) == n
    first = next(i for i, sd in enumerate(chain.steps) if not _certified(sd))
    detail = new.report.check("k0-step-unimodular").detail
    assert detail.startswith(f"step at {chain.steps[first].sink!r}: ")
    cls = chain.ambient.classify()
    assert new.report.check("k0-rank").passed == (cls.amplified and cls.acyclic)
    if any(c.name == "k0-step-unimodular" for c in old.report.checks):
        # a step that is not unimodular has no certificate: Smith stops at or
        # after the first uncertified step
        assert _oracle_failed_step(chain, old) >= first
        return "both-fail-step"
    return "stricter-step"


def _step_columns(sd):
    return induced_k0(sd.sigma), induced_k0(sd.quotient_map)


def _oracle_failed_step(chain, old) -> int:
    """The index of the step at which the Smith oracle stopped."""
    (check,) = old.report.checks
    assert check.name == "k0-step-unimodular"
    return next(i for i, sd in enumerate(chain.steps) if check.detail == f"step at {sd.sink!r}")


def test_k0_checks_match_smith_oracle_on_golden_mix():
    for chain in golden_chains():
        assert _compare_chain_with_oracle(chain) == "agree"
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        g = load_graph(path)
        for sink in g.classify().sinks:
            for star in (None, *valid_stars(g, sink)):
                _assert_split_matches_oracle(build_splitting(g, sink, star))


def test_k0_checks_match_smith_oracle_on_random_chains():
    rng = random.Random(20261018)
    for _ in range(120):
        assert _compare_chain_with_oracle(random_chain(rng)) == "agree"


def test_k0_checks_match_smith_oracle_on_corrupted_chains():
    seen = Counter()
    for bad in corrupted_chains():
        seen[_compare_chain_with_oracle(bad)] += 1
    assert sum(seen.values()) == 306
    # every kind of agreement and disagreement is reached
    assert set(seen) == {"agree", "refused", "both-fail-step", "stricter-step"}, seen


# ---------------------------------------------------------------------------
# Smith normal forms stay off the runtime path


def test_k0_checks_run_without_smith_normal_form(monkeypatch):
    forbid_smith_normal_form(monkeypatch)
    for spec in CW_LADDER:
        assert cw_kk_summary(spec).report.ok
    one = check_split_exact_k0(build_splitting(AmpGraph.from_edges(("v",)), "v", None))
    assert one.report.ok
    for name, control in K0_NEGATIVE_CONTROLS.items():
        assert not control().check(name).passed


def test_forbidding_smith_reaches_every_binding(monkeypatch):
    forbid_smith_normal_form(monkeypatch)
    with pytest.raises(AssertionError, match="runtime path"):
        ktheory.smith_normal_form(((1,),), 1)
    assert smith_normal_form(((2,),), 1)[1] == ((2,),)


def test_import_does_not_load_numpy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = "import ampgraph, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
