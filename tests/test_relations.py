"""Template-level Cuntz-Krieger checks against the word-level oracle, and a
negative control for every relation-level check name."""

import dataclasses
import random

import pytest

from ampgraph import (
    AmpGraph,
    CKElement,
    DynkinSpec,
    GeneratorMap,
    build_splitting,
    cw_kk_summary,
    first_sink_first_star,
    kk_chain,
    prefer_source_star,
    verify_ck_family,
    verify_split_exact,
)

from helpers import example_graph, random_amplified_dag, verify_ck_family_oracle


# ---------------------------------------------------------------------------
# the corpus: every map a chain builds, healthy and corrupted


def _chain_maps(chain) -> list[GeneratorMap]:
    maps = [m for sd in chain.steps for m in (sd.sigma, sd.quotient_map)]
    if chain.steps:
        maps += [chain.composite_section(), chain.composite_quotient()]
    return maps


def _corpus() -> list[tuple[str, GeneratorMap]]:
    out = []
    specs = {"Gr(2,4)": (3, {2}), "Gr(2,5)": (4, {2}), "A3": (3, {1, 2, 3})}
    for name, (rank, tags) in specs.items():
        chain = cw_kk_summary(DynkinSpec(rank, frozenset(tags))).chain
        out += [(f"{name}#{k}", m) for k, m in enumerate(_chain_maps(chain))]
    for seed in range(20):
        rng = random.Random(7100 + seed)
        g = random_amplified_dag(rng, rng.randint(2, 6))
        policy = (first_sink_first_star, prefer_source_star)[seed % 2]
        chain = kk_chain(g, policy)
        out += [(f"dag{seed}#{k}", m) for k, m in enumerate(_chain_maps(chain))]
    return out


def _with(m: GeneratorMap, vimgs=None, eimgs=None) -> GeneratorMap:
    return GeneratorMap(
        m.source,
        m.target,
        dict(m.vertex_images, **(vimgs or {})),
        {**m.edge_images, **(eimgs or {})},
    )


def _corruptions(m: GeneratorMap, rng: random.Random) -> list[GeneratorMap]:
    """One variant per kind of damage the map admits."""
    out = []
    live = [f for f in sorted(m.edge_images) if m.edge_images[f]]
    if live:
        f = rng.choice(live)
        tpl = list(m.edge_images[f])
        k = rng.randrange(len(tpl))
        c, t = tpl[k]
        scaled = tpl[:k] + [(c * rng.choice((-1, 2, 3)), t)] + tpl[k + 1 :]
        out.append(_with(m, eimgs={f: tuple(scaled)}))
        out.append(_with(m, eimgs={f: tuple(tpl[:k] + tpl[k + 1 :])}))
        shared = [
            (g, t) for g in live if g != f for _, t in m.edge_images[g]
        ]
        if shared:
            _, t = rng.choice(shared)
            out.append(_with(m, eimgs={f: tuple(tpl) + ((1, t),)}))
        # vertex images with edge words exercise the multiplied-out paths
        s_t = CKElement.edge(m.target, *t)
        v = rng.choice(m.source.vertices)
        out.append(_with(m, vimgs={v: m.vertex_images[v] + s_t * s_t.adjoint()}))
        out.append(_with(m, vimgs={v: s_t}))
    verts = m.source.vertices
    img = m.vertex_images
    if len(verts) > 1:
        v, w = rng.sample(verts, 2)
        out.append(_with(m, vimgs={v: img[w], w: img[v]}))
    if len(verts) > 2:
        v, *rest = rng.sample(verts, 3)
        out.append(_with(m, vimgs={w: img[v] for w in rest}))
    return out


def test_template_checker_matches_word_level_oracle():
    rng = random.Random(20261018)
    corpus = _corpus()
    assert len(corpus) > 200
    failing = 0
    for name, m in corpus:
        assert verify_ck_family(m) == verify_ck_family_oracle(m), name
        # the oracle's cost grows with the square of the family count
        if len(m.edge_images) > 24:
            continue
        for k, bad in enumerate(_corruptions(m, rng)):
            want = verify_ck_family_oracle(bad)
            assert verify_ck_family(bad) == want, (name, k, want.render())
            failing += not want.ok
    # the corrupted variants really do reach the failure paths
    assert failing > 300


# ---------------------------------------------------------------------------
# negative controls: one corrupted input per relation-level check name


def line_graph() -> AmpGraph:
    return AmpGraph.from_edges(("a", "b", "c"), [("a", "b"), ("b", "c")])


def _ck_report(g: AmpGraph, vimgs=None, eimgs=None):
    """The checks of the identity map of ``g`` with some images replaced."""
    ident = GeneratorMap.identity(g)
    vimgs = {v: CKElement.projection(g, w) if isinstance(w, str) else w
             for v, w in (vimgs or {}).items()}
    return verify_ck_family(_with(ident, vimgs, eimgs))


def _split(change):
    sd = build_splitting(example_graph(), "v4", "v2")
    return verify_split_exact(dataclasses.replace(sd, **change(sd)))


def _swap_sigma(sd):
    m = sd.sigma
    img = m.vertex_images
    return {"sigma": _with(m, vimgs={"v3": img["v5"], "v5": img["v3"]})}


def _collapse_quotient(sd):
    m = sd.quotient_map
    return {"quotient_map": _with(m, vimgs={"v5": m.vertex_images["v3"]})}


RELATION_NEGATIVE_CONTROLS = {
    "vertex-projections": lambda: _ck_report(
        line_graph(), {"a": 2 * CKElement.projection(line_graph(), "a")}),
    "vertex-orthogonality": lambda: _ck_report(example_graph(), {"v5": "v4"}),
    "adjoint-compatibility": lambda: _ck_report(
        line_graph(), eimgs={("a", "b"): ((2, ("a", "b")),)}),
    # both families land on s[a>c]: each alone is fine, together not orthogonal
    "ck1/distinct-families": lambda: _ck_report(
        AmpGraph.from_edges("abc", [("a", "c"), ("b", "c")]),
        eimgs={("b", "c"): ((1, ("a", "c")),)}),
    "ck1/same-family": lambda: _ck_report(line_graph(), eimgs={("a", "b"): ()}),
    "ck2": lambda: _ck_report(line_graph(), {"a": CKElement.zero(line_graph())}),
    "unital": lambda: _ck_report(line_graph(), {"c": CKElement.zero(line_graph())}),
    "gauge-homogeneity": lambda: _ck_report(
        line_graph(), {"c": CKElement.edge(line_graph(), "a", "b")}),
    "quotient-map": lambda: _split(_collapse_quotient),
    "section-identity": lambda: _split(_swap_sigma),
    "ideal": lambda: _split(lambda sd: {"sink": "v1"}),
}


def test_negative_controls_cover_every_relation_check():
    healthy = verify_split_exact(build_splitting(example_graph(), "v4", "v2"))
    names = {key.split("/")[0] for key in RELATION_NEGATIVE_CONTROLS}
    assert {c.name for c in healthy.checks} == names
    assert healthy.ok


@pytest.mark.parametrize("key", sorted(RELATION_NEGATIVE_CONTROLS))
def test_relation_check_fails_on_corrupted_input(key):
    name = key.split("/")[0]
    report = RELATION_NEGATIVE_CONTROLS[key]()
    assert not report.check(name).passed
    assert not report.ok


def test_ck1_reports_the_least_failing_pair():
    distinct = RELATION_NEGATIVE_CONTROLS["ck1/distinct-families"]().check("ck1")
    assert distinct.detail == (
        "m(s)* m(s') defect for families ('a', 'c') , ('b', 'c') (same index)"
    )
    same = RELATION_NEGATIVE_CONTROLS["ck1/same-family"]().check("ck1")
    assert same.detail == (
        "m(s)* m(s') defect for families ('a', 'b') , ('a', 'b') (same index)"
    )


def test_ideal_names_what_failed():
    assert _split(lambda sd: {"sink": "v1"}).check("ideal").detail == (
        "v1 is not a sink of the working graph"
    )
    kept = _split(lambda sd: {"sigma": GeneratorMap.identity(sd.working)}).check("ideal")
    assert kept.detail == "the quotient graph is not the working graph without v4"


def test_section_identity_names_the_moved_generator():
    assert _split(_swap_sigma).check("section-identity").detail == (
        "q(sigma(p[v3])) != p[v3]"
    )

    def moved_edge(sd):
        m = sd.sigma
        return {"sigma": _with(m, eimgs={("v1", "v3"): ((1, ("v1", "v2")),)})}

    assert _split(moved_edge).check("section-identity").detail == (
        "q(sigma(s[v1>v3#0])) != s[v1>v3#0]"
    )
