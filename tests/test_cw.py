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

from ampgraph.graphs import _Tables

from helpers import DenseGraph, as_array, is_identity
from test_coxeter import all_specs
from test_graphs import _assert_matches_model, _assert_tables_fresh
from test_splitting import _listed


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


def test_a_filtration_searches_no_reach_mask(monkeypatch):
    """Each level is a quotient of the flag graph, which needs no path search.

    ``quotient`` checks a cut on successor masks and copies no table, so
    neither the levels nor the flag graph search for a reach mask.
    """
    reach = _Tables.reach
    searched = []

    def counted_reach(self):
        if self._reach is None:
            searched.append(self)
        return reach(self)

    monkeypatch.setattr(_Tables, "reach", counted_reach)
    filt = skeleton_filtration(DynkinSpec(7, frozenset({2, 5})))
    assert searched == []
    monkeypatch.undo()
    # the level below the top drops one vertex
    assert len(filt.levels[-2].vertices) == len(filt.full.vertices) - 1


def test_filtration_levels_share_the_flag_graphs_tables():
    """A level is the flag graph's tables and a mask: no level builds its
    family tuple until it is read, and then it is the skeleton's."""
    filt = skeleton_filtration(DynkinSpec(7, frozenset({2, 5})))
    assert all(level._t is filt.full._t for level in filt.levels)
    assert not any("edges" in vars(level) for level in filt.levels)
    for k, level in enumerate(filt.levels):
        assert level.edges == tuple(
            e for e in filt.full.edges if filt.lengths[e[1]] <= k
        )


def test_a_filtration_cuts_each_label_once(monkeypatch):
    """Level k is level k + 1 cut by the length-(k + 1) class, so the cuts
    look up each removed label once: at most one lookup per vertex."""
    at = AmpGraph._at
    looked_up = []

    def counted_at(self, v):
        looked_up.append(v)
        return at(self, v)

    monkeypatch.setattr(AmpGraph, "_at", counted_at)
    filt = skeleton_filtration(DynkinSpec(7, frozenset({2, 5})))
    monkeypatch.undo()
    assert len(filt.full) == 560
    assert sorted(looked_up) == sorted(v for v, n in filt.lengths.items() if n > 0)
    for k in range(filt.top):
        cls = tuple(v for v, n in filt.lengths.items() if n == k + 1)
        assert filt.levels[k + 1].lacks(filt.levels[k])[0] == cls


def test_a_summary_lists_only_the_step_graphs_it_reads():
    """Of the 120 step graphs of full A4, the summary lists 11: the ambient
    graph, and the graph left after each of the ten levels it compares with
    a skeleton, the last of them the terminal graph."""
    summary = cw_kk_summary(DynkinSpec(4, frozenset({1, 2, 3, 4})))
    chain = summary.chain
    graphs = {id(g): g for sd in chain.steps for g in (sd.working, sd.quotient_graph)}
    listed = {i for i, g in graphs.items() if _listed(g)}
    read = {id(chain.steps[r.compacts - 1].quotient_graph) for r in summary.records if r.level is not None}
    assert len(graphs) == 120 and len(read) == 10
    assert listed == read | {id(chain.ambient)}
    assert id(chain.terminal) in read


#: The specs of the flag-filtration benchmark workload, up to 560 vertices.
FILTRATION_SPECS = [DynkinSpec(7, frozenset(t)) for t in ({4}, {1, 7}, {2, 5})]


@pytest.mark.parametrize("spec", all_specs(5) + FILTRATION_SPECS, ids=str)
def test_every_level_equals_the_fresh_graph_and_the_dense_model(spec):
    """Level k keeps the vertices of length at most k, in vertex order."""
    filt = skeleton_filtration(spec)
    assert list(filt.lengths) == list(filt.full.vertices)
    assert filt.top == max(filt.lengths.values())
    full = DenseGraph(filt.full.vertices, filt.full.edges) if spec.rank <= 4 else None
    for k, level in enumerate(filt.levels):
        assert level.vertices == tuple(v for v, n in filt.lengths.items() if n <= k)
        _assert_tables_fresh(level)
        if full is not None:
            removed = [v for v in full.vertices if filt.lengths[v] > k]
            _assert_matches_model(level, full.quotient(removed))


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
        bad = first._replace(
            quotient_map=GeneratorMap(m.source, m.target, images, m.edge_images)
        )
        return chain._replace(steps=(bad,) + chain.steps[1:])

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
        bad = first._replace(
            quotient_map=GeneratorMap(q.source, q.target, q_images, q.edge_images),
            sigma=GeneratorMap(s.source, s.target, s_images, s.edge_images),
        )
        return chain._replace(steps=(bad,) + chain.steps[1:])

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
