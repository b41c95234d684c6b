"""Template-level Cuntz-Krieger checks against the word-level oracle, and a
negative control for every relation-level check name."""

import dataclasses
import random

import pytest

from ampgraph import (
    AmpGraph,
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
from ampgraph.algebra import VerificationReport

from helpers import (
    example_graph,
    map_corruptions,
    random_amplified_dag,
    verify_ck_family_oracle,
    with_images,
)


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


@pytest.fixture(scope="module")
def oracle_corpus() -> tuple[tuple[object, GeneratorMap, VerificationReport], ...]:
    """Every corpus map and its corrupted variants, each with its oracle report."""
    rng = random.Random(20261018)
    corpus = _corpus()
    assert len(corpus) > 200
    out = []
    for name, m in corpus:
        out.append((name, m, verify_ck_family_oracle(m)))
        # the oracle's cost grows with the square of the family count
        if len(m.edge_images) > 24:
            continue
        for k, bad in enumerate(map_corruptions(m, rng)):
            out.append(((name, k), bad, verify_ck_family_oracle(bad)))
    return tuple(out)


def _without_gauge(report: VerificationReport) -> VerificationReport:
    return VerificationReport(tuple(c for c in report.checks if c.name != "gauge-homogeneity"))


def test_template_checker_matches_word_level_oracle(oracle_corpus):
    failing = 0
    for key, m, want in oracle_corpus:
        want = _without_gauge(want)
        assert verify_ck_family(m) == want, (key, want.render())
        failing += not want.ok
    # the corrupted variants really do reach the failure paths
    assert failing > 300


def test_no_representable_map_fails_the_gauge_check(oracle_corpus):
    # a vertex table has gauge degree 0 and a template degree 1, so the
    # word-level gauge check passes on every map and every corruption
    for key, _, report in oracle_corpus:
        assert report.check("gauge-homogeneity").passed, key


# ---------------------------------------------------------------------------
# negative controls: one corrupted input per relation-level check name


def line_graph() -> AmpGraph:
    return AmpGraph.from_edges(("a", "b", "c"), [("a", "b"), ("b", "c")])


def _ck_report(g: AmpGraph, vimgs=None, eimgs=None):
    """The checks of the identity map of ``g`` with some images replaced."""
    ident = GeneratorMap.identity(g)
    vimgs = {v: {w: 1} if isinstance(w, str) else w for v, w in (vimgs or {}).items()}
    return verify_ck_family(with_images(ident, vimgs, eimgs))


def _split(change):
    sd = build_splitting(example_graph(), "v4", "v2")
    return verify_split_exact(dataclasses.replace(sd, **change(sd)))


def _swap_sigma(sd):
    m = sd.sigma
    img = m.vertex_images
    return {"sigma": with_images(m, vimgs={"v3": img["v5"], "v5": img["v3"]})}


def _collapse_quotient(sd):
    m = sd.quotient_map
    return {"quotient_map": with_images(m, vimgs={"v5": m.vertex_images["v3"]})}


def _drop_quotient_family(sd):
    # the section's source keeps every vertex but lacks the family v1 -> v2
    q = sd.quotient_graph
    lacking = AmpGraph(q.vertices, tuple(e for e in q.edges if e[:2] != ("v1", "v2")))
    return {"sigma": GeneratorMap.inclusion(lacking, sd.working)}


RELATION_NEGATIVE_CONTROLS = {
    "vertex-projections": lambda: _ck_report(line_graph(), {"a": {"a": 2}}),
    "vertex-orthogonality": lambda: _ck_report(example_graph(), {"v5": "v4"}),
    "adjoint-compatibility": lambda: _ck_report(
        line_graph(), eimgs={("a", "b"): ((2, ("a", "b")),)}),
    # both families land on s[a>c]: each alone is fine, together not orthogonal
    "ck1/distinct-families": lambda: _ck_report(
        AmpGraph.from_edges("abc", [("a", "c"), ("b", "c")]),
        eimgs={("b", "c"): ((1, ("a", "c")),)}),
    "ck1/same-family": lambda: _ck_report(line_graph(), eimgs={("a", "b"): ()}),
    "ck2": lambda: _ck_report(line_graph(), {"a": {}}),
    "unital": lambda: _ck_report(line_graph(), {"c": {}}),
    "quotient-map": lambda: _split(_collapse_quotient),
    "section-identity": lambda: _split(_swap_sigma),
    "ideal": lambda: _split(lambda sd: {"sink": "v1"}),
    "ideal/families": lambda: _split(_drop_quotient_family),
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
    lacking = RELATION_NEGATIVE_CONTROLS["ideal/families"]().check("ideal")
    assert lacking.detail == kept.detail


def test_section_identity_names_the_moved_generator():
    assert _split(_swap_sigma).check("section-identity").detail == (
        "q(sigma(p[v3])) != p[v3]"
    )

    def moved_edge(sd):
        m = sd.sigma
        return {"sigma": with_images(m, eimgs={("v1", "v3"): ((1, ("v1", "v2")),)})}

    assert _split(moved_edge).check("section-identity").detail == (
        "q(sigma(s[v1>v3#0])) != s[v1>v3#0]"
    )
