import dataclasses

import pytest

from ampgraph import coxeter, cw
from ampgraph import (
    OMEGA,
    AmpGraph,
    DynkinSpec,
    GeneratorMap,
    check_chain_k0,
    cw_kk_summary,
    flag_graph,
    multi_sink_splitting,
    skeleton_filtration,
    summarize_filtration,
    word_label,
)

from helpers import as_array, is_identity
from test_coxeter import all_specs


GR = DynkinSpec(3, frozenset({2}))


def test_skeleton_filtration_grassmannian():
    filt = skeleton_filtration(GR)
    assert filt.top == 4
    assert [len(lv.vertices) for lv in filt.levels] == [1, 2, 4, 5, 6]
    assert filt.level(4) == filt.full == flag_graph(GR)
    x3 = filt.level(3)
    assert x3.vertices == ("e", "s2", "s1s2", "s3s2", "s1s3s2")
    assert sum(1 for _ in x3.families()) == 5
    x2 = filt.level(2)
    assert x2.vertices == ("e", "s2", "s1s2", "s3s2")
    assert [(a, b) for a, b, _ in x2.families()] == [
        ("e", "s2"),
        ("s2", "s1s2"),
        ("s2", "s3s2"),
    ]
    assert filt.level(0).vertices == ("e",)


def test_top_cell_quotient_is_next_skeleton():
    filt = skeleton_filtration(GR)
    assert filt.full.quotient(("s2s1s3s2",)) == filt.level(3)


@pytest.mark.parametrize("spec", all_specs(), ids=str)
def test_filtration_consistency(spec):
    filt = skeleton_filtration(spec)
    for k in range(filt.top):
        upper = filt.level(k + 1)
        removed = tuple(
            v for v in upper.vertices if filt.lengths[v] == k + 1
        )
        assert upper.quotient(removed) == filt.level(k)


def test_filtration_builds_representatives_once(monkeypatch):
    original = coxeter.minimal_coset_reps
    calls = []

    def counted(spec):
        calls.append(spec)
        return original(spec)

    # every module binding the filtration could call it through
    for module in (coxeter, cw):
        monkeypatch.setattr(module, "minimal_coset_reps", counted, raising=False)
    for spec in all_specs(4):
        calls.clear()
        filt = skeleton_filtration(spec)
        assert calls == [spec]
        want = {word_label(r.word): r.length for r in original(spec)}
        assert filt.lengths == want
        assert list(filt.lengths) == list(want)


@pytest.mark.parametrize(
    "rank, texts",
    [
        (1, ["K^1 (+) C", "C^2"]),
        (2, ["K^1 (+) C*(X1)", "K^2 (+) C", "C^3"]),
        (3, ["K^1 (+) C*(X2)", "K^2 (+) C*(X1)", "K^3 (+) C", "C^4"]),
    ],
)
def test_projective_space_summaries(rank, texts):
    summary = cw_kk_summary(DynkinSpec(rank, frozenset({1})))
    assert [r.text for r in summary.records] == texts
    assert summary.report.ok
    assert str(summary) == "  ->  ".join(texts)


def test_grassmannian_summary():
    summary = cw_kk_summary(GR)
    assert [r.text for r in summary.records] == [
        "K^1 (+) C*(X3)",
        "K^2 (+) C*(X2)",
        "K^4 (+) C*(X1)",
        "K^5 (+) C",
        "C^6",
    ]
    assert [r.compacts for r in summary.records] == [1, 2, 4, 5, 5]
    assert [r.level for r in summary.records] == [3, 2, 1, 0, None]
    assert summary.report.ok
    assert summary.chain.sinks == ("s2s1s3s2", "s1s3s2", "s1s2", "s3s2", "s2")
    filt = skeleton_filtration(GR)
    for record in summary.records[:-1]:
        assert record.vertices == filt.level(record.level).vertices


def test_summary_chain_k0_is_invertible():
    summary = cw_kk_summary(GR)
    res = check_chain_k0(summary.chain)
    forward, backward = as_array(res.forward, 6), as_array(res.backward, 6)
    assert is_identity(forward @ backward)
    assert is_identity(backward @ forward)


@pytest.mark.parametrize("corrupt", ["missing", "extra", "finite"])
def test_skeleton_match_negative_control(corrupt):
    filt = skeleton_filtration(GR)
    x2 = filt.level(2)
    fams = list(x2.families())
    if corrupt == "missing":
        fams.pop(0)
    elif corrupt == "extra":
        fams.append(("e", "s1s2", OMEGA))
    else:
        fams[0] = (*fams[0][:2], 1)
    levels = list(filt.levels)
    levels[2] = AmpGraph.from_edges(x2.vertices, fams)
    summary = summarize_filtration(filt.full, tuple(levels))
    assert [c.name for c in summary.report.checks if not c.passed] == ["skeleton-match-2"]
    assert summary.report.check("skeleton-match-2").detail == (
        "chain quotient differs from the level-2 skeleton"
    )


def test_k0_chain_negative_control(monkeypatch):
    # the chain's first quotient map forgets one vertex class
    def corrupted(*args):
        chain = multi_sink_splitting(*args)
        first = chain.steps[0]
        m = first.quotient_map
        images = dict(m.vertex_images, e={})
        bad = dataclasses.replace(
            first, quotient_map=GeneratorMap(m.source, m.target, images, m.edge_images)
        )
        return dataclasses.replace(chain, steps=(bad,) + chain.steps[1:])

    monkeypatch.setattr(cw, "multi_sink_splitting", corrupted)
    report = cw_kk_summary(GR).report
    assert [c.name for c in report.checks if not c.passed] == ["k0-step", "k0-chain"]
    assert report.check("k0-chain").detail == (
        "chain K_0 checks failed: k0-step-unimodular, k0-chain-inverse"
    )


def test_k0_step_negative_control_with_the_section_intact(monkeypatch):
    # Q S = I still holds, but Q sends the first sink's class to its star's:
    # only the other half of the step's certificate fails
    first_sink = cw_kk_summary(GR).chain.steps[0].sink

    def corrupted(*args):
        chain = multi_sink_splitting(*args)
        first = chain.steps[0]
        q, s = first.quotient_map, first.sigma
        q_images = dict(q.vertex_images, **{first.sink: {first.star: 1}})
        s_images = dict(s.vertex_images, **{first.star: {first.star: 1}})
        bad = dataclasses.replace(
            first,
            quotient_map=GeneratorMap(q.source, q.target, q_images, q.edge_images),
            sigma=GeneratorMap(s.source, s.target, s_images, s.edge_images),
        )
        return dataclasses.replace(chain, steps=(bad,) + chain.steps[1:])

    monkeypatch.setattr(cw, "multi_sink_splitting", corrupted)
    report = cw_kk_summary(GR).report
    assert [c.name for c in report.checks if not c.passed][0] == "k0-step"
    assert report.check("k0-step").detail == f"K_0 split check failed at sink {first_sink!r}"


def test_single_point_tower():
    point = AmpGraph.from_edges(("pt",))
    summary = summarize_filtration(point, (point,))
    assert [r.text for r in summary.records] == ["C^1"]
    assert summary.report.ok
    assert summary.chain.steps == ()


def test_cp1_chain_terms():
    summary = cw_kk_summary(DynkinSpec(1, frozenset({1})))
    assert summary.chain.iota_terms == ("[iota_1]", "[s_1]")
    assert summary.chain.pi_terms == ("[pi_1]", "[q_1]")
