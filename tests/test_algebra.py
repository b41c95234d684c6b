import operator
import random
from functools import reduce

import pytest

from ampgraph import AmpGraph, CKElement, GeneratorMap, build_splitting, compose, verify_ck_family
from ampgraph.algebra import (
    CKWord,
    EdgeRef,
    Path,
    projection_word,
    word_mul,
)

from helpers import all_words, example_graph, oracle_word_mul, table_element


def line_graph() -> AmpGraph:
    return AmpGraph.from_edges(("a", "b", "c"), [("a", "b"), ("b", "c")])


def test_path_validation():
    e = EdgeRef("a", "b", 0)
    f = EdgeRef("b", "c", 0)
    p = Path("a", (e, f))
    assert p.source == "a" and p.range == "c" and len(p) == 2
    with pytest.raises(ValueError, match="path breaks"):
        Path("a", (f,))
    with pytest.raises(ValueError, match="cannot compose"):
        Path("a", (e,)).concat(Path("a", (e,)))


def test_word_validation_and_render():
    g = line_graph()
    ab = CKElement.edge(g, "a", "b")
    assert ab.render() == "s[a>b#0]"
    assert CKElement.projection(g, "a").render() == "p[a]"
    w = CKWord(Path("a", (EdgeRef("a", "b", 0),)), Path("c", (EdgeRef("c", "b", 0),)))
    assert w.render() == "s[a>b#0] s[c>b#0]*"
    assert w.adjoint().render() == "s[c>b#0] s[a>b#0]*"
    assert w.degree == 0
    with pytest.raises(ValueError, match="ranges differ"):
        CKWord(Path("a"), Path("b"))


def test_edge_requires_infinite_family():
    g = AmpGraph.from_edges(("a", "b"), [("a", "b", 2)])
    with pytest.raises(ValueError):
        CKElement.edge(g, "a", "b")
    with pytest.raises(ValueError):
        CKElement.edge(line_graph(), "a", "c")
    with pytest.raises(ValueError):
        CKElement.edge(line_graph(), "a", "b", -1)
    m = GeneratorMap.identity(line_graph())
    with pytest.raises(ValueError, match="no source family 'a' -> 'c'"):
        m.edge_image(EdgeRef("a", "c", 0))
    with pytest.raises(ValueError, match="negative edge index"):
        m.edge_image(EdgeRef("a", "b", -1))


def test_word_mul_matches_rewriting_oracle_exhaustively():
    g = example_graph()
    words = all_words(g, 2, indices=(0, 1))
    for x in words:
        for y in words:
            assert word_mul(x, y) == oracle_word_mul(x, y), (x.render(), y.render())


def test_projection_word_is_one_bounded_value_per_label():
    assert projection_word("b") is projection_word("b")
    assert projection_word("b") == CKWord(Path("b"), Path("b"))
    assert projection_word.cache_info().maxsize is not None


def test_word_mul_known_cases():
    g = line_graph()
    e = EdgeRef("a", "b", 0)
    f = EdgeRef("b", "c", 0)
    s_e = CKWord(Path("a", (e,)), Path("b"))
    s_f = CKWord(Path("b", (f,)), Path("c"))
    # s_e* s_e = p_b, s_e s_e* stays a range projection word
    assert word_mul(s_e.adjoint(), s_e) == projection_word("b")
    assert word_mul(s_e, s_e.adjoint()) == CKWord(Path("a", (e,)), Path("a", (e,)))
    # composition along the path and the zero products
    assert word_mul(s_e, s_f) == CKWord(Path("a", (e, f)), Path("c"))
    assert word_mul(s_f, s_e) is None
    assert word_mul(projection_word("b"), s_e) is None
    assert word_mul(s_e, projection_word("b")) == s_e
    e1 = CKWord(Path("a", (EdgeRef("a", "b", 1),)), Path("b"))
    assert word_mul(s_e.adjoint(), e1) is None


def test_element_ring_axioms_on_random_triples():
    g = example_graph()
    words = all_words(g, 2, indices=(0, 1))
    rng = random.Random(20260815)
    for _ in range(300):
        x, y, z = (
            CKElement.from_terms(
                g, [(rng.choice(words), rng.randint(-2, 2)) for _ in range(2)]
            )
            for _ in range(3)
        )
        assert (x * y) * z == x * (y * z)
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert x.adjoint().adjoint() == x
        assert 2 * x - x == x
        assert x - x == CKElement.zero(g)


def test_unit_is_canonical_regardless_of_vertex_order():
    # vertex order differs from the lexicographic order of the labels
    g = AmpGraph.from_edges(("e", "s2", "s1s2"), [("e", "s2"), ("s2", "s1s2")])
    total = CKElement.zero(g)
    for v in g.vertices:
        total = total + CKElement.projection(g, v)
    assert total == CKElement.unit(g)
    unit = CKElement.unit(g)
    assert unit * unit == unit
    for v in g.vertices:
        p = CKElement.projection(g, v)
        assert unit * p == p and p * unit == p


def test_projections_and_subprojections():
    g = line_graph()
    pa = CKElement.projection(g, "a")
    pb = CKElement.projection(g, "b")
    s = CKElement.edge(g, "a", "b")
    assert pa.is_projection() and not s.is_projection()
    assert CKElement.zero(g).is_projection()
    rng_proj = s * s.adjoint()
    assert rng_proj.is_projection()
    # sub <= sup as projections exactly when sup * sub == sub
    assert pa * rng_proj == rng_proj
    assert rng_proj * pa != pa
    assert pb * pa != pa


def test_gauge_degree():
    g = line_graph()
    assert CKElement.projection(g, "a").gauge_degree() == 0
    assert CKElement.edge(g, "a", "b").gauge_degree() == 1
    assert CKElement.edge(g, "a", "b").adjoint().gauge_degree() == -1
    mixed = CKElement.projection(g, "a") + CKElement.edge(g, "a", "b")
    assert mixed.gauge_degree() is None
    with pytest.raises(ValueError):
        CKElement.zero(g).gauge_degree()


def test_elements_from_different_graphs_do_not_mix():
    x = CKElement.projection(line_graph(), "a")
    y = CKElement.projection(example_graph(), "v1")
    with pytest.raises(ValueError):
        x + y


def test_identity_and_quotient_maps_verify():
    g = example_graph()
    ident = GeneratorMap.identity(g)
    assert verify_ck_family(ident).ok
    q = GeneratorMap.quotient(g, ("v4",))
    assert verify_ck_family(q).ok
    # removed generators are annihilated, kept ones fixed
    assert q.apply(CKElement.projection(g, "v4")).is_zero
    assert q.apply(CKElement.edge(g, "v2", "v4")).is_zero
    kept = q.apply(CKElement.edge(g, "v1", "v2"))
    assert kept == CKElement.edge(q.target, "v1", "v2")


def test_inclusion_is_injective_on_generators_but_not_unital():
    g = example_graph()
    sub = g.quotient(("v4",))
    inc = GeneratorMap.inclusion(sub, g)
    report = verify_ck_family(inc, require_unital=False)
    assert report.ok
    unital = report.check("unital")
    assert not unital.passed and not unital.required


def test_inclusion_refuses_a_subgraph_the_graph_lacks():
    g = example_graph()
    with pytest.raises(ValueError, match="unknown vertex 'x'"):
        GeneratorMap.inclusion(AmpGraph.from_edges(("v1", "x"), [("v1", "x")]), g)
    # every vertex is in g, but g has no family v2 -> v1
    backward = AmpGraph.from_edges(("v1", "v2"), [("v2", "v1")])
    with pytest.raises(ValueError, match=r"template for \('v2', 'v1'\) uses missing target family"):
        GeneratorMap.inclusion(backward, g)


def test_inclusion_refuses_a_quotient_that_lacks_a_vertex():
    # on shared tables the missing vertex is read off the masks, and named
    # before the families at it
    g = example_graph()
    with pytest.raises(ValueError, match=r"^image of p\[v5\] names unknown vertex 'v5'$"):
        GeneratorMap.inclusion(g, g.quotient(("v5",)))
    with pytest.raises(ValueError, match=r"^image of p\[v4\] names unknown vertex 'v4'$"):
        GeneratorMap.inclusion(g, g.quotient(("v4", "v5")))


@pytest.mark.parametrize("build", [
    lambda g, w: CKElement.projection(g, "zzz"),
    lambda g, w: CKElement.word(g, w),
    lambda g, w: CKElement.word(g, w, 3),
    lambda g, w: CKElement.from_terms(g, [(w, 1)]),
    lambda g, w: CKElement.from_terms(g, [(projection_word("v1"), 1), (w, -1)]),
])
def test_a_vertex_word_over_a_vertex_the_graph_lacks_is_refused(build):
    with pytest.raises(ValueError, match="unknown vertex 'zzz'"):
        build(example_graph(), projection_word("zzz"))


def negated_vertex_map(g: AmpGraph, v: str) -> GeneratorMap:
    """The identity of ``g`` except m(p_v) = -p_v, which is not a projection."""
    ident = GeneratorMap.identity(g)
    images = dict(ident.vertex_images, **{v: {v: -1}})
    return GeneratorMap(g, g, images, ident.edge_images)


def test_compose_matches_pointwise_application():
    g = example_graph()
    q1 = GeneratorMap.quotient(g, ("v4",))
    q2 = GeneratorMap.quotient(q1.target, ("v5",))
    assert verify_ck_family(compose(q2, q1)).ok
    h = AmpGraph.from_edges(("a", "b"), [("a", "b")])
    pairs = [(q2, q1)]
    for v in h.vertices:
        pairs.append((GeneratorMap.identity(h), negated_vertex_map(h, v)))
        pairs.append((negated_vertex_map(h, v), GeneratorMap.identity(h)))
    for outer, inner in pairs:
        both = compose(outer, inner)
        src = inner.source
        for v in src.vertices:
            p = CKElement.projection(src, v)
            assert (both.apply(p) == outer.apply(inner.apply(p))
                    == table_element(both.target, both.vertex_images[v]))
        for a, b, _ in src.families():
            for i in (0, 1):
                x = CKElement.edge(src, a, b, i)
                assert (both.apply(x) == outer.apply(inner.apply(x))
                        == both.edge_image(EdgeRef(a, b, i)))
    neg_a, neg_b = (negated_vertex_map(h, v) for v in h.vertices)
    assert neg_a.apply(CKElement.projection(h, "a")) == -CKElement.projection(h, "a")
    assert neg_b.apply(CKElement.edge(h, "a", "b")) == CKElement.edge(h, "a", "b")
    assert compose(GeneratorMap.identity(q1.target), q1) == q1
    assert compose(q1, GeneratorMap.identity(g)) == q1


def test_apply_multiplies_the_letter_images_of_a_word():
    # every word of two or more letters over the quotient graph, under the
    # sections of each star (which move a family) and under the quotient map
    g = example_graph()
    maps = [build_splitting(g, "v4", star).sigma for star in ("v1", "v2", "v3")]
    maps.append(GeneratorMap.quotient(g, ("v4",)))
    words = 0
    for m in maps:
        for w in all_words(m.source, 2):
            if len(w.alpha) + len(w.beta) < 2:
                continue
            letters = [m.edge_image(e) for e in w.alpha.edges]
            letters += [m.edge_image(e).adjoint() for e in reversed(w.beta.edges)]
            assert m.apply(CKElement.word(m.source, w, 3)) == 3 * reduce(operator.mul, letters)
            words += 1
    assert words > 100
    with pytest.raises(ValueError, match="element does not live over the map's source graph"):
        maps[0].apply(CKElement.projection(g, "v1"))


def test_maps_refuse_graphs_that_are_not_amplified():
    finite = AmpGraph.from_edges(("a", "b"), [("a", "b", 2)])
    with pytest.raises(ValueError, match="generator maps require amplified graphs"):
        GeneratorMap.identity(finite)


def test_maps_that_do_not_meet_are_not_composed():
    with pytest.raises(ValueError, match="maps do not compose: inner target differs from outer source"):
        compose(GeneratorMap.identity(line_graph()), GeneratorMap.identity(example_graph()))


def test_a_report_names_an_unknown_check():
    report = verify_ck_family(GeneratorMap.identity(line_graph()))
    assert report.check("ck1").passed
    with pytest.raises(KeyError, match="nope"):
        report.check("nope")


def test_generator_map_validates_coverage():
    g = line_graph()
    ident = GeneratorMap.identity(g)
    images = dict(ident.vertex_images)
    del images[g.vertices[0]]
    with pytest.raises(ValueError, match="^vertex images must cover exactly the source vertices$"):
        GeneratorMap(g, g, images, ident.edge_images)
    templates = dict(ident.edge_images)
    del templates[g.edges[0][:2]]
    with pytest.raises(ValueError, match="^edge templates must cover exactly the source families$"):
        GeneratorMap(g, g, ident.vertex_images, templates)


@pytest.mark.parametrize("image, message", [
    (lambda g: CKElement.projection(g, "a"),
     r"image of p\[a\] must be a table \{target vertex: int\}, not CKElement"),
    (lambda g: {"x": 1}, r"image of p\[a\] names unknown vertex 'x'"),
    (lambda g: {"a": True}, r"image of p\[a\] has coefficient True at 'a', not an int"),
    (lambda g: {"a": 1.0}, r"image of p\[a\] has coefficient 1.0 at 'a', not an int"),
], ids=["element", "unknown-vertex", "bool", "float"])
def test_generator_map_refuses_an_image_that_is_not_a_vertex_table(image, message):
    g = line_graph()
    ident = GeneratorMap.identity(g)
    images = dict(ident.vertex_images, a=image(g))
    with pytest.raises(ValueError, match=message):
        GeneratorMap(g, g, images, ident.edge_images)


def test_generator_map_drops_zero_coefficients():
    g = line_graph()
    ident = GeneratorMap.identity(g)
    m = GeneratorMap(g, g, dict(ident.vertex_images, a={"a": 1, "b": 0}), ident.edge_images)
    assert m.vertex_images["a"] == {"a": 1}
    assert m == ident


def test_render_table_rows_match_element_rendering():
    """Each row is what ``CKElement.render`` writes for the same image.

    Labels ``v1 .. v12`` sort differently as strings (``v10`` before
    ``v2``) than in vertex order; the vertex coefficients include 1, -1, 2,
    -3 and 0, which the map drops, and some tables are empty.  The family
    templates carry coefficients 1, -1, 2 and -3, and some are empty.
    """
    rng = random.Random(1357)
    labels = tuple(f"v{i}" for i in range(1, 13))
    g = AmpGraph.from_edges(labels)
    coeffs, empty = set(), set()
    for _ in range(200):
        images = {
            v: {x: rng.choice((1, -1, 2, -3, 0)) for x in rng.sample(labels, rng.randrange(5))}
            for v in labels
        }
        m = GeneratorMap(g, g, images, {})
        rows = m.render_table()
        for v in labels:
            want = table_element(g, images[v]).render()
            assert rows[f"p[{v}]"] == want
            empty.add(want == "0")
            coeffs.update(images[v].values())
    assert coeffs == {1, -1, 2, -3, 0}
    assert empty == {True, False}
    two = GeneratorMap(g, g, dict(images, v1={"v2": 1, "v10": -3}), {})
    assert two.render_table()["p[v1]"] == "-3*p[v10] + p[v2]"
    # a template row is what ``CKElement.render`` writes for the family's
    # image at index 0, with the index made symbolic
    h = AmpGraph.from_edges(labels[:6], [(a, b) for i, a in enumerate(labels[:6]) for b in labels[i + 1:6]])
    fams = [(a, b) for a, b, _ in h.families()]
    fixed = {v: {v: 1} for v in h.vertices}
    coeffs.clear()
    empty.clear()
    for _ in range(100):
        templates = {
            fam: tuple((rng.choice((1, -1, 2, -3)), t) for t in rng.sample(fams, rng.randrange(4)))
            for fam in fams
        }
        m = GeneratorMap(h, h, fixed, templates)
        rows = m.render_table()
        for a, b in fams:
            want = m.edge_image(EdgeRef(a, b, 0)).render().replace("#0]", "#i]")
            assert rows[f"s[{a}>{b}#i]"] == want
            empty.add(want == "0")
            coeffs.update(c for c, _ in templates[(a, b)])
    assert coeffs == {1, -1, 2, -3}
    assert empty == {True, False}
    signs = dict(templates)
    signs[("v1", "v2")] = ((-1, ("v1", "v2")), (2, ("v1", "v3")), (-3, ("v2", "v3")))
    assert GeneratorMap(h, h, fixed, signs).render_table()["s[v1>v2#i]"] == (
        "-s[v1>v2#i] + 2*s[v1>v3#i] - 3*s[v2>v3#i]"
    )


def test_verify_catches_collapsed_vertices():
    g = example_graph()
    ident = GeneratorMap.identity(g)
    images = dict(ident.vertex_images)
    images["v5"] = images["v4"]
    broken = GeneratorMap(g, g, images, ident.edge_images)
    report = verify_ck_family(broken)
    assert not report.ok
    assert not report.check("vertex-orthogonality").passed


def test_verify_catches_scaled_edge():
    g = line_graph()
    ident = GeneratorMap.identity(g)
    edges = dict(ident.edge_images)
    edges[("a", "b")] = ((2, ("a", "b")),)
    broken = GeneratorMap(g, g, ident.vertex_images, edges)
    report = verify_ck_family(broken)
    assert not report.ok


def test_verify_catches_dropped_edge():
    g = line_graph()
    ident = GeneratorMap.identity(g)
    edges = dict(ident.edge_images)
    edges[("a", "b")] = ()
    broken = GeneratorMap(g, g, ident.vertex_images, edges)
    report = verify_ck_family(broken)
    assert not report.check("ck1").passed


def test_render_table_symbolic_in_index():
    g = line_graph()
    table = GeneratorMap.quotient(g, ("c",)).render_table()
    assert table == {
        "p[a]": "p[a]",
        "p[b]": "p[b]",
        "p[c]": "0",
        "s[a>b#i]": "s[a>b#i]",
        "s[b>c#i]": "0",
    }
