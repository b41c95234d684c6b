import dataclasses
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from ampgraph import (
    AmpGraph,
    CKElement,
    GeneratorMap,
    build_splitting,
    check_chain_k0,
    check_split_exact_k0,
    induced_k0,
    kernel_basis,
    kk_chain,
    multi_sink_splitting,
    smith_normal_form,
    unimodular_inverse,
)
from ampgraph.ktheory import diagonal_of

from helpers import (
    as_array,
    det_oracle,
    determinant,
    example_graph,
    invariant_factors_by_minors,
    is_identity,
    random_int_matrix,
    snf_diag_oracle,
)


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
    assert induced_k0(GeneratorMap.identity(g)) == eye(5)
    q = GeneratorMap.quotient(g, ("v4",))
    # rows v1,v2,v3,v5 and columns v1..v5; the v4 column is killed
    assert list(map(list, induced_k0(q))) == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
    ]


def test_induced_k0_section_star_v2():
    sd = build_splitting(example_graph(), "v4", "v2")
    s = induced_k0(sd.sigma)
    # columns v1,v2,v3,v5; the v2 column carries the extra sink class
    assert list(map(list, s)) == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]


def test_induced_k0_rejects_non_projection_images():
    g = example_graph()
    ident = GeneratorMap.identity(g)
    images = dict(ident.vertex_images)
    images["v1"] = 2 * images["v1"]
    doubled = GeneratorMap(g, g, images, ident.edge_images)
    with pytest.raises(ValueError, match="orthogonal sum"):
        induced_k0(doubled)
    images = dict(ident.vertex_images)
    e = CKElement.edge(g, "v1", "v2")
    images["v1"] = images["v1"] + e * e.adjoint()
    overlapping = GeneratorMap(g, g, images, ident.edge_images)
    with pytest.raises(ValueError, match="non-orthogonal"):
        induced_k0(overlapping)


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
        vimgs[v] = (
            CKElement.zero(m.target) if w is None else CKElement.projection(m.target, w)
        )
    return GeneratorMap(m.source, m.target, vimgs, m.edge_images)


def _split_report(star="v2", **replace):
    sd = build_splitting(example_graph(), "v4", star)
    changes = {field: _remap(getattr(sd, field), **imgs) for field, imgs in replace.items()}
    return check_split_exact_k0(dataclasses.replace(sd, **changes)).report


def _chain_report(**replace):
    chain = kk_chain(example_graph())
    first = chain.steps[0]
    changes = {field: _remap(getattr(first, field), **imgs) for field, imgs in replace.items()}
    steps = (dataclasses.replace(first, **changes),) + chain.steps[1:]
    return check_chain_k0(dataclasses.replace(chain, steps=steps)).report


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
    "k0-chain-left-inverse": lambda: _chain_report(quotient_map={"v5": None}),
    "k0-chain-right-inverse": lambda: _chain_report(quotient_map={"v5": None}),
    "k0-rank": _cyclic_chain_report,
}


def test_negative_controls_cover_every_k0_check():
    healthy = _split_report().checks + _chain_report().checks
    assert {c.name for c in healthy} | {"k0-step-unimodular"} == set(K0_NEGATIVE_CONTROLS)


@pytest.mark.parametrize("name", sorted(K0_NEGATIVE_CONTROLS))
def test_k0_check_fails_on_corrupted_input(name):
    report = K0_NEGATIVE_CONTROLS[name]()
    assert not report.check(name).passed
    assert not report.ok


def test_import_does_not_load_numpy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = "import ampgraph, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
