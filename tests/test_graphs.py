import random
import re

import pytest

from ampgraph import (
    OMEGA, AmpGraph, GeneratorMap, GraphClass, first_sink_first_star, load_graph, prefer_source_star, valid_stars,
)
from ampgraph.graphs import _Tables, _bits, first_star, is_star

from helpers import (
    ROOT,
    DenseGraph,
    example_graph,
    hereditary_subsets_oracle,
    prefer_source_star_oracle,
    random_amplified_dag,
    random_edge_list,
    valid_stars_oracle,
    walked_graphs,
)


def test_classify_example():
    cls = example_graph().classify()
    assert cls.amplified
    assert cls.acyclic
    assert cls.sinks == ("v4", "v5")
    assert cls.sources == ("v1",)


def test_classify_is_computed_once():
    g = example_graph()
    first = g.classify()
    assert g.classify() is first
    assert g.is_amplified is first.amplified
    # the kept class is not part of the value
    assert AmpGraph(g.vertices, g.edges) == g


def test_classify_single_vertex():
    g = AmpGraph.from_edges(("v",))
    cls = g.classify()
    assert cls.acyclic and cls.amplified
    assert cls.sinks == ("v",) and cls.sources == ("v",)


def test_classify_single_loop():
    g = AmpGraph.from_edges(("v",), [("v", "v", 1)])
    cls = g.classify()
    assert not cls.acyclic
    assert not cls.amplified
    assert cls.sinks == () and cls.sources == ()


def test_classify_omega_loop_is_amplified():
    g = AmpGraph.from_edges(("v",), [("v", "v")])
    cls = g.classify()
    assert cls.amplified and not cls.acyclic


@pytest.mark.parametrize("bad", [-1, 1.5, True, "inf", None])
def test_invalid_multiplicities_rejected(bad):
    with pytest.raises(ValueError, match="invalid multiplicity"):
        AmpGraph(("a", "b"), (("a", "b", bad),))


def test_vertex_label_validation():
    with pytest.raises(ValueError, match="duplicate vertex label"):
        AmpGraph(("a", "a"), ())
    with pytest.raises(ValueError, match="nonempty strings"):
        AmpGraph(("a", ""), ())


def test_constructor_rejects_unknown_endpoints_and_repeated_pairs():
    with pytest.raises(ValueError, match="unknown edge source 'z'"):
        AmpGraph(("a", "b"), (("z", "a", OMEGA),))
    with pytest.raises(ValueError, match="unknown edge range 'z'"):
        AmpGraph(("a", "b"), (("a", "z", OMEGA),))
    with pytest.raises(ValueError, match="repeated edge family 'a' -> 'b'"):
        AmpGraph(("a", "b"), (("a", "b", OMEGA), ("a", "b", OMEGA)))
    with pytest.raises(ValueError, match="repeated edge family 'a' -> 'b'"):
        AmpGraph(("a", "b"), (("a", "b", 0), ("a", "b", 2)))


def test_constructor_builds_one_graph_from_any_order_of_its_families():
    rng = random.Random(22)
    vertices = tuple(f"v{k}" for k in range(9))
    for _ in range(40):
        # one multiplicity per pair: a repeated pair is refused, tested below
        last = {e[:2]: e[2] if len(e) == 3 else OMEGA for e in random_edge_list(rng, vertices, 30)}
        fams = [(a, b, m) for (a, b), m in last.items()]
        g = AmpGraph(vertices, fams)
        row_major = sorted((e for e in fams if e[2] != 0),
                           key=lambda e: (vertices.index(e[0]), vertices.index(e[1])))
        assert g.edges == tuple(row_major)
        shuffled = fams[:]
        rng.shuffle(shuffled)
        for order in (shuffled, fams[::-1], row_major, [list(e) for e in shuffled]):
            h = AmpGraph(vertices, order)
            assert h == g and hash(h) == hash(g)
            assert h.edges == g.edges
            assert all(type(e) is tuple for e in h.edges)
            assert h.successors("v0") == g.successors("v0")
            assert h.is_amplified == g.is_amplified
        # a bad family is named, in whatever order the others come
        for bad, text in ((("v1", "z", OMEGA), "unknown edge range 'z'"),
                          (("z", "v1", OMEGA), "unknown edge source 'z'")):
            for order in (shuffled, fams[::-1], row_major):
                with pytest.raises(ValueError, match=text):
                    AmpGraph(vertices, [*order[:3], bad, *order[3:]])
        if row_major:
            a, b, _ = row_major[-1]
            for order in (shuffled, fams[::-1], row_major):
                with pytest.raises(ValueError, match=f"repeated edge family '{a}' -> '{b}'"):
                    AmpGraph(vertices, [*order, (a, b, 0)])


def test_the_tables_refuse_a_repeated_or_out_of_range_position():
    # the rows a flag graph hands over go to the tables as they are, unsorted
    labels = ("a", "b", "c")
    g = AmpGraph._from_rows(labels, [[1, 2], [2], []])
    assert g == AmpGraph.from_edges(labels, [("a", "b"), ("a", "c"), ("b", "c")])
    with pytest.raises(ValueError, match="repeated edge family 'a' -> 'b'"):
        AmpGraph._from_rows(labels, [[1, 1], [], []])
    with pytest.raises(ValueError, match="repeated edge family 'b' -> 'c'"):
        AmpGraph._from_rows(labels, [[0, 1, 2], [0, 2, 2], []])
    for rows in ([[2, 1], [], []], [[], [3], []], [[], [], [-1]]):
        with pytest.raises(ValueError, match="out of order or out of range"):
            AmpGraph._from_rows(labels, rows)
    for rows in ([[], []], [[], [], [], []]):
        with pytest.raises(ValueError, match=f"{len(rows)} rows of families for 3 vertices"):
            AmpGraph._from_rows(labels, rows)
    with pytest.raises(ValueError, match="duplicate vertex label"):
        AmpGraph._from_rows(("a", "a"), [[], []])


@pytest.mark.parametrize("seed", range(20))
def test_edges_built_on_read_equal_the_triples_handed_over(seed):
    # the tables of a graph built anew from its rows and finite
    # multiplicities read the families of the input list: each pair's last
    # multiplicity, zeros dropped, in row-major order
    rng = random.Random(9900 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(1, 8)))
    edges = random_edge_list(rng, labels, rng.randint(0, 24))
    last = {(src, dst): rest[0] if rest else OMEGA for src, dst, *rest in edges}
    at = {v: i for i, v in enumerate(labels)}
    want = tuple((a, b, m) for (a, b), m in sorted(last.items(), key=lambda kv: (at[kv[0][0]], at[kv[0][1]]))
                 if m != 0)
    g = AmpGraph.from_edges(labels, edges)
    t = g._t
    rows = [list(t.heads[a:b]) for a, b in zip(t.starts, t.starts[1:])]
    lazy = _Tables(t.labels, t.pos, rows, t.counts)
    assert lazy._edges is None
    assert lazy.edges == want == g.edges and lazy.pred() == t.pred() and lazy.succ == t.succ
    h = AmpGraph._on(lazy, g._keep, vertices=g.vertices)
    assert h == g and hash(h) == hash(g)
    _assert_matches_model(h, DenseGraph(labels, edges))


def test_constructor_sorts_families_and_drops_zeros():
    g = AmpGraph(("a", "b"), (("b", "a", 2), ("a", "b", 0), ("a", "a", OMEGA)))
    assert g.edges == (("a", "a", OMEGA), ("b", "a", 2))
    assert g == AmpGraph.from_edges(("a", "b"), [("a", "a"), ("b", "a", 2)])


def test_from_edges_unknown_vertex():
    with pytest.raises(ValueError, match="unknown edge range 'b'"):
        AmpGraph.from_edges(("a",), [("a", "b")])
    with pytest.raises(ValueError, match="unknown edge source 'z'"):
        AmpGraph.from_edges(("a",), [("z", "a")])


def test_from_edges_multiplicity_forms():
    g = AmpGraph.from_edges(("a", "b", "c"), [("a", "b"), ("b", "c", 3)])
    assert g.multiplicity("a", "b") is OMEGA
    assert g.multiplicity("b", "c") == 3
    assert g.multiplicity("a", "c") == 0
    assert not g.is_amplified


def test_from_edges_reads_a_mapping_as_multiplicities():
    labels = ("a", "b", "c")
    g = AmpGraph.from_edges(labels, {("a", "b"): 0, ("b", "c"): 3, ("a", "c"): OMEGA})
    assert g.multiplicity("a", "b") == 0
    assert g.multiplicity("b", "c") == 3
    assert g.multiplicity("a", "c") is OMEGA
    assert g.edges == (("a", "c", OMEGA), ("b", "c", 3))
    assert not g.is_amplified
    assert g == AmpGraph.from_edges(labels, [("b", "c", 3), ("a", "c")])
    assert AmpGraph.from_edges(labels, {("a", "b"): 0}).edges == ()


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library in five lines", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["g"].edges == tuple(
        (a, b, OMEGA) for a, b in (("v1", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v5"))
    )
    assert namespace["sd"].sink == "v4"


def test_adjacency_queries():
    g = example_graph()
    assert g.successors("v1") == ("v2", "v3")
    assert g.successors("v4") == ()
    assert g.predecessors("v4") == ("v2",)
    assert g.predecessors("v1") == ()
    assert list(g.families()) == [
        ("v1", "v2", OMEGA),
        ("v1", "v3", OMEGA),
        ("v2", "v4", OMEGA),
        ("v3", "v5", OMEGA),
    ]
    assert "v3" in g and "w" not in g


def test_reachability_and_closure():
    g = example_graph()
    # paths of length >= 1, so the start vertex is not its own descendant here
    assert g.reachable_set("v1") == ("v2", "v3", "v4", "v5")
    assert g.reachable_set("v2") == ("v4",)
    assert g.hereditary_closure(("v2",)) == ("v2", "v4")
    assert g.hereditary_closure(()) == ()
    assert g.is_hereditary(("v4", "v5"))
    assert g.is_hereditary(())
    assert not g.is_hereditary(("v2",))


@pytest.mark.parametrize("seed", range(40))
def test_reach_matches_a_path_search_with_backward_families_and_cycles(seed):
    """Every vertex reaches what a path search in the dense model reaches:
    on random graphs with loops, backward families and a cycle through a
    random vertex sample, whose first sweep need not be the fixpoint, and on
    their forward families alone, whose first sweep is."""
    rng = random.Random(9800 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(2, 10)))
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(0, 2 * len(labels)))]
    cycle = rng.sample(labels, rng.randint(2, len(labels)))
    pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    forward = [(a, b) for a, b in pairs if labels.index(a) < labels.index(b)]
    for edges in (pairs, forward):
        g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
        assert [g.reachable_set(v) for v in labels] == [model.reachable_set(v) for v in labels]


def test_the_forward_test_decides_acyclicity_as_the_dense_model_does():
    """Random graphs with self-loops, backward families and a cycle, their
    forward families alone, and every hereditary quotient of each: the
    acyclic flag is the model's.  A graph reads no reach mask for it exactly
    when every kept vertex's families in the tables go to later positions,
    so a self-loop, and a quotient whose mask drops the range of a backward
    family, are decided by the reach masks."""
    rng = random.Random(9900)
    seen = set()
    for _ in range(60):
        labels = tuple(f"u{i}" for i in range(rng.randint(2, 8)))
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(0, 2 * len(labels)))]
        cycle = rng.sample(labels, rng.randint(1, len(labels)))
        pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
        at = labels.index
        for edges in (pairs, [(a, b) for a, b in pairs if at(a) < at(b)]):
            model = DenseGraph(labels, edges)
            for subset in sorted(hereditary_subsets_oracle(AmpGraph.from_edges(labels, edges))):
                q, mq = AmpGraph.from_edges(labels, edges).quotient(subset), model.quotient(subset)
                acyclic = q.classify().acyclic
                assert acyclic == mq.classify()[1], (edges, subset)
                goes_forward = all(at(a) < at(b) for a, b in edges if a in q)
                assert (q._t._reach is None) == goes_forward, (edges, subset)
                dropped = any(b not in q for a, b in edges if a in q and at(b) <= at(a))
                loop = any(a == b for a, b in edges if a in q)
                seen.add((goes_forward, acyclic, dropped, loop))
    # forward; a kept loop; a cycle; a dropped backward range, alone or with another backward family
    assert {(True, True, False, False), (False, False, False, True), (False, False, False, False),
            (False, True, True, False), (False, True, False, False)} <= seen


def test_enumerate_hereditary_example():
    g = example_graph()
    sets = g.enumerate_hereditary()
    assert set(sets) == hereditary_subsets_oracle(g)
    # sorted by size, then by position of the member vertices
    sizes = [len(s) for s in sets]
    assert sizes == sorted(sizes)
    assert sets[0] == ()
    assert sets[-1] == g.vertices


@pytest.mark.parametrize("seed", range(20))
def test_enumerate_hereditary_matches_brute_force(seed):
    rng = random.Random(1000 + seed)
    g = random_amplified_dag(rng, rng.randint(1, 12))
    assert set(g.enumerate_hereditary(max_vertices=12)) == hereditary_subsets_oracle(g)


def test_is_hereditary_matches_brute_force_on_every_subset():
    # loops, cycles and finite multiplicities included; no path leaves a
    # subset exactly when no family does
    rng = random.Random(1100)
    cyclic = 0
    for _ in range(40):
        labels = tuple(f"u{i}" for i in range(rng.randint(0, 7)))
        edges = random_edge_list(rng, labels, rng.randint(0, 20)) if labels else []
        g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
        hereditary = hereditary_subsets_oracle(g)
        for bits in range(1 << len(labels)):
            subset = tuple(v for i, v in enumerate(labels) if bits >> i & 1)
            closed = all(set(model.reachable_set(v)) <= set(subset) for v in subset)
            assert g.is_hereditary(subset) is (subset in hereditary) is closed
        cyclic += not g.classify().acyclic
    assert cyclic > 10


def test_enumerate_hereditary_bound():
    g = random_amplified_dag(random.Random(0), 6)
    with pytest.raises(ValueError, match="enumeration bound"):
        g.enumerate_hereditary(max_vertices=5)


def test_hereditary_enumerates_a_long_path_at_a_raised_bound():
    # one decision per vertex, deeper than Python's recursion limit
    n = 1500
    path = AmpGraph.from_edges([f"v{i}" for i in range(n)], [(f"v{i}", f"v{i + 1}") for i in range(n - 1)])
    sets = path.enumerate_hereditary(max_vertices=2000)
    assert len(sets) == n + 1
    assert sets[:2] == [(), (f"v{n - 1}",)]


def test_quotient_example():
    g = example_graph()
    q = g.quotient(("v4", "v5"))
    assert q.vertices == ("v1", "v2", "v3")
    assert list(q.families()) == [("v1", "v2", OMEGA), ("v1", "v3", OMEGA)]


def test_quotient_requires_hereditary():
    g = example_graph()
    with pytest.raises(ValueError, match="not a valid ideal"):
        g.quotient(("v2",))


def test_quotient_everything_and_nothing():
    g = example_graph()
    assert g.quotient(()) == g
    assert g.quotient(g.vertices).vertices == ()


@pytest.mark.parametrize("method", ["quotient", "hereditary_closure", "is_hereditary", "families_at", "map"])
def test_a_string_is_refused_as_a_vertex_set_by_name(method):
    """A string is a sequence of its characters: on ``a -> b -> c`` the set
    ``"bc"`` would be read as ``b`` and ``c``, and ``"v2"`` on the example
    graph as the unknown labels ``v`` and ``2``."""
    path = AmpGraph.from_edges(("a", "b", "c"), [("a", "b"), ("b", "c")])
    call = {"map": lambda g, subset: GeneratorMap.quotient(g, subset)}.get(
        method, lambda g, subset: getattr(g, method)(subset))
    assert call(path, ("b", "c")) == call(path, ["b", "c"])
    for g, subset in ((path, "bc"), (path, "c"), (example_graph(), "v2")):
        with pytest.raises(ValueError, match=re.escape(
                f"a vertex set must be a collection of vertex labels, not the string {subset!r}")):
            call(g, subset)


def test_amplify_transitive_edges_example():
    g = example_graph()
    h = g.amplify_transitive_edges("v1", "v4")
    assert h.multiplicity("v1", "v4") is OMEGA
    # only that one family was added
    assert sum(1 for _ in h.families()) == sum(1 for _ in g.families()) + 1


@pytest.mark.parametrize(
    "src, dst, why",
    [
        ("v1", "v2", "existing"),
        ("v4", "v1", "no path"),
        ("v2", "v3", "no path"),
        ("v2", "v5", "no path"),
    ],
)
def test_amplify_transitive_edges_rejections(src, dst, why):
    g = example_graph()
    with pytest.raises(ValueError):
        g.amplify_transitive_edges(src, dst)


def test_amplify_requires_amplified():
    g = AmpGraph.from_edges(("a", "b", "c"), [("a", "b", 2), ("b", "c", 2)])
    with pytest.raises(ValueError):
        g.amplify_transitive_edges("a", "c")


@pytest.mark.parametrize("seed", range(15))
def test_amplify_preserves_path_relation(seed):
    rng = random.Random(4000 + seed)
    g = random_amplified_dag(rng, rng.randint(3, 8))
    candidates = [
        (a, b)
        for a in g.vertices
        for b in g.vertices
        if g.multiplicity(a, b) == 0
        and a != b
        and any(
            g.multiplicity(a, m) != 0 and b in g.reachable_set(m)
            for m in g.vertices
        )
    ]
    before = {v: g.reachable_set(v) for v in g.vertices}
    for a, b in candidates:
        g = g.amplify_transitive_edges(a, b)
    after = {v: g.reachable_set(v) for v in g.vertices}
    assert before == after


def _assert_matches_model(g: AmpGraph, model: DenseGraph) -> None:
    assert g.vertices == model.vertices
    for a in g.vertices:
        for b in g.vertices:
            assert g.multiplicity(a, b) == model.multiplicity(a, b)
    assert list(g.families()) == model.families()
    assert g.edges == tuple(model.families())
    for v in g.vertices:
        assert g.successors(v) == model.successors(v)
        assert g.predecessors(v) == model.predecessors(v)
        assert g.reachable_set(v) == model.reachable_set(v)
    assert g.is_amplified == model.is_amplified()
    cls = g.classify()
    assert (cls.amplified, cls.acyclic, cls.sinks, cls.sources) == model.classify()


@pytest.mark.parametrize("seed", range(40))
def test_graph_matches_dense_model(seed):
    rng = random.Random(7000 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(1, 8)))
    edges = random_edge_list(rng, labels, rng.randint(0, 24))
    g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
    _assert_matches_model(g, model)
    # the same families in another order build an equal, equally hashed graph
    fams = model.families()
    rng.shuffle(fams)
    h = AmpGraph.from_edges(labels, fams)
    assert h == g and hash(h) == hash(g)
    assert AmpGraph(labels, fams) == g
    hereditary = sorted(hereditary_subsets_oracle(g))
    for subset in rng.sample(hereditary, min(3, len(hereditary))):
        _assert_matches_model(g.quotient(subset), model.quotient(subset))


@pytest.mark.parametrize("seed", range(20))
def test_amplify_matches_dense_model(seed):
    rng = random.Random(8000 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(2, 7)))
    edges = [e[:2] for e in random_edge_list(rng, labels, rng.randint(1, 14))]
    g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
    for a in labels:
        for b in labels:
            legal = model.multiplicity(a, b) == 0 and any(
                b in model.reachable_set(m) for m in model.successors(a)
            )
            if legal:
                _assert_matches_model(
                    g.amplify_transitive_edges(a, b), model.amplify(a, b)
                )
            else:
                with pytest.raises(ValueError):
                    g.amplify_transitive_edges(a, b)


# ---------------------------------------------------------------------------
# quotients share their parent's tables; amplifications keep the caller's mask


def _error(query, *args) -> str | None:
    """The message of the ValueError ``query(*args)`` raises, or None."""
    try:
        query(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _assert_tables_fresh(g: AmpGraph) -> None:
    """``g`` answers every query as the graph built anew from its lists does."""
    fresh = AmpGraph(g.vertices, g.edges)
    assert g == fresh and hash(g) == hash(fresh)
    assert g.edges == fresh.edges
    assert g.classify() == fresh.classify()
    for v in g.vertices:
        assert g.index(v) == fresh.index(v)
        assert g.successors(v) == fresh.successors(v)
        assert g.predecessors(v) == fresh.predecessors(v)
        assert g.reachable_set(v) == fresh.reachable_set(v)
        assert g.families_at((v,)) == fresh.families_at((v,))
    for sink in fresh.classify().sinks:
        assert valid_stars(g, sink) == valid_stars(fresh, sink)
    # lookups read the parent's tables under the mask
    labels = g._t.labels
    assert len(g) == len(fresh) == len(g.vertices)
    assert [v in g for v in labels] == [v in fresh for v in labels]
    for v in labels:
        if v not in fresh:
            w = g.vertices[0] if g.vertices else v
            for graph in (g, fresh):
                errors = {_error(graph.index, v), _error(graph.multiplicity, v, v),
                          _error(graph.multiplicity, v, w), _error(graph.multiplicity, w, v)}
                assert errors == {f"unknown vertex {v!r}"}
    # every label pair, or on a large graph every family of the tables both ways round
    pairs = [(a, b) for a in labels for b in labels] if len(labels) <= 40 else [
        pair for a, b, _ in g._t.edges for pair in ((a, b), (b, a))]
    assert [g.has_family(*pair) for pair in pairs] == [fresh.has_family(*pair) for pair in pairs]
    # a label the tables lack has no family
    assert not any(graph.has_family(*pair) for graph in (g, fresh)
                   for v in labels[:1] for pair in (("nowhere", v), (v, "nowhere")))
    kept = [(a, b) for a, b in pairs if a in fresh and b in fresh]
    assert [g.multiplicity(*pair) for pair in kept] == [fresh.multiplicity(*pair) for pair in kept]


def _peel(g: AmpGraph, model: DenseGraph, rng: random.Random) -> int:
    """Remove one vertex at a time while one is hereditary; return how many.

    Each cut carries its vertex count, which is its mask's popcount."""
    peeled = 0
    while True:
        alone = [v for v in g.vertices if g.is_hereditary((v,))]
        if not alone:
            return peeled
        v = rng.choice(alone)
        g, model = g.quotient((v,)), model.quotient((v,))
        assert "_len" in g.__dict__ and len(g) == g._keep.bit_count() == len(model.vertices)
        _assert_tables_fresh(g)
        _assert_matches_model(g, model)
        peeled += 1


@pytest.mark.parametrize("seed", range(40))
def test_quotients_equal_fresh_graphs(seed):
    # loops and cycles, finite multiplicities and empty graphs all occur
    rng = random.Random(9000 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(0, 8)))
    edges = random_edge_list(rng, labels, rng.randint(0, 24)) if labels else []
    g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
    # every hereditary set: none, one vertex or many
    for subset in sorted(hereditary_subsets_oracle(g)):
        q = g.quotient(subset)
        _assert_tables_fresh(q)
        _assert_matches_model(q, model.quotient(subset))
    # a chain of one-vertex quotients, each cut from the last
    _peel(g, model, rng)


def test_quotient_derivation_covers_every_kind_of_parent():
    cyclic = AmpGraph.from_edges(("a", "b", "c"), [("a", "b"), ("b", "a"), ("b", "c")])
    finite = AmpGraph.from_edges(("a", "b", "c"), [("a", "b", 2), ("a", "c", 1)])
    empty = AmpGraph((), ())
    assert not cyclic.classify().acyclic and not finite.is_amplified
    for g in (cyclic, finite, empty, example_graph()):
        for subset in hereditary_subsets_oracle(g):
            _assert_tables_fresh(g.quotient(subset))
    rng = random.Random(1)
    assert _peel(cyclic, DenseGraph(cyclic.vertices, cyclic.edges), rng) == 1
    assert _peel(finite, DenseGraph(finite.vertices, finite.edges), rng) == 3
    assert _peel(empty, DenseGraph((), ()), rng) == 0


def _derives(g: AmpGraph, walked: list[AmpGraph]) -> bool:
    """Read ``g``'s shape facts: whether it derived them, walking nothing."""
    walked.clear()
    g.classify()
    assert walked in ([], [g])
    return not walked


def _assert_one_sink_cuts_carry(g: AmpGraph, model: DenseGraph, walked: list[AmpGraph]) -> int:
    """Every one-vertex cut of ``g``, and every one-vertex cut of such a cut,
    classify as the dense model does.  A cut derives its facts exactly when
    its parent's have been read and it removes the parent's sink, as the
    model says; else it walks.  Each cut's own cuts are read once before
    its facts, and cut and read again after.  Returns how many derived."""
    derived = 0
    g.classify()
    _, _, sinks, _ = model.classify()
    for v in [v for v in g.vertices if g.is_hereditary((v,))]:
        q, mq = g.quotient((v,)), model.quotient((v,))
        alone = [w for w in q.vertices if q.is_hereditary((w,))]
        for w in alone:
            # its parent unread: a walk, whatever it removes
            early = q.quotient((w,))
            assert not _derives(early, walked)
            _assert_matches_model(early, mq.quotient((w,)))
        assert _derives(q, walked) == (v in sinks)
        derived += v in sinks
        for w in alone:
            twice = q.quotient((w,))
            assert _derives(twice, walked) == (w in mq.classify()[2])
            derived += w in mq.classify()[2]
            _assert_matches_model(twice, mq.quotient((w,)))
        _assert_matches_model(q, mq)
    return derived


@pytest.mark.parametrize("seed", range(30))
def test_one_sink_cuts_carry_the_dense_models_shape_facts(seed, monkeypatch):
    # random DAGs, and graphs with loops, cycles and finite families
    walked = walked_graphs(monkeypatch)
    rng = random.Random(9600 + seed)
    dag = random_amplified_dag(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
    derived = _assert_one_sink_cuts_carry(dag, DenseGraph(dag.vertices, dag.edges), walked)
    assert derived >= 1
    labels = tuple(f"u{i}" for i in range(rng.randint(1, 8)))
    edges = random_edge_list(rng, labels, rng.randint(0, 24))
    _assert_one_sink_cuts_carry(AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges), walked)


def test_a_self_loop_singleton_is_cut_by_a_walk(monkeypatch):
    # {b} is hereditary but b is no sink: its cut leaves an acyclic graph,
    # which a derived acyclic flag would miss
    walked = walked_graphs(monkeypatch)
    g = AmpGraph.from_edges(("a", "b", "c"), [("a", "b"), ("b", "b"), ("c", "a")])
    assert g.classify() == (True, False, (), ("c",))
    q = g.quotient(("b",))
    assert g.hereditary_cut(q) == g.hereditary_cut(AmpGraph(q.vertices, q.edges)) == ("b",)
    assert not _derives(q, walked) and q.classify() == (True, True, ("a",), ("c",))
    # no cut of g derives; the one that does is the cut of q by its sink a
    assert _assert_one_sink_cuts_carry(g, DenseGraph(g.vertices, g.edges), walked) == 1
    # a sink that is also a source, and the new sinks it leaves
    iso = AmpGraph.from_edges(("x", "y", "z", "s"), [("x", "z"), ("y", "z")])
    iso.classify()
    q = iso.quotient(("s",))
    assert _derives(q, walked) and q.classify() == (True, True, ("z",), ("x", "y"))
    q2 = q.quotient(("z",))
    assert _derives(q2, walked) and q2.classify() == (True, True, ("x", "y"), ("x", "y"))


@pytest.mark.parametrize("seed", range(20))
def test_cuts_read_in_any_order_find_the_facts_a_walk_finds(seed, monkeypatch):
    """Graphs with cycles, self-loops and finite families, cut one vertex at
    a time along random branching sequences, then every graph read in a
    random order, some twice.  Each read equals the dense model's facts,
    and derives exactly when the parent's facts have been read and the cut
    vertex was the parent's sink."""
    walked = walked_graphs(monkeypatch)
    rng = random.Random(20261100 + seed)
    reads = derived = 0
    for _ in range(30):
        labels = tuple(f"u{i}" for i in range(rng.randint(1, 8)))
        edges = random_edge_list(rng, labels, rng.randint(0, 24))
        g = AmpGraph.from_edges(labels, edges)
        models = {id(g): DenseGraph(labels, edges)}
        up: dict[int, tuple[AmpGraph, str]] = {}
        graphs = [g]
        for _ in range(rng.randint(1, 3)):
            h = rng.choice(graphs)
            while rng.random() < 0.85:
                alone = [v for v in h.vertices if h.is_hereditary((v,))]
                if not alone:
                    break
                v = rng.choice(alone)
                cut = h.quotient((v,))
                models[id(cut)] = models[id(h)].quotient((v,))
                up[id(cut)] = (h, v)
                graphs.append(cut)
                h = cut
        read: dict[int, GraphClass] = {}
        order = graphs + rng.sample(graphs, len(graphs) // 3)
        rng.shuffle(order)
        for h in order:
            if id(h) in read:
                assert h.classify() is read[id(h)]
                continue
            parent, v = up.get(id(h), (None, None))
            expect = parent is not None and id(parent) in read and v in models[id(parent)].classify()[2]
            assert _derives(h, walked) == expect
            read[id(h)] = h.classify()
            assert tuple(read[id(h)]) == models[id(h)].classify()
            derived += expect
            reads += 1
    # about 2,200 reads over the 600 graphs, 600 of them derived
    assert derived >= 10 and reads - derived >= 40, (reads, derived)


@pytest.mark.parametrize("seed", range(30))
def test_sink_source_and_cut_rows_match_the_dense_model(seed):
    """``is_sink``, ``is_source`` and ``hereditary_cut`` on every hereditary quotient
    of a graph with loops, cycles and finite families: the model's sinks and
    sources, no label the graph does not keep, and a cut by each sink equal
    to the model's quotient, on the shared tables or built anew."""
    rng = random.Random(9700 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(1, 7)))
    edges = random_edge_list(rng, labels, rng.randint(0, 20))
    g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
    for subset in sorted(hereditary_subsets_oracle(g)):
        q, mq = g.quotient(subset), model.quotient(subset)
        _, _, sinks, sources = mq.classify()
        assert tuple(v for v in (*labels, "nowhere") if q.is_sink(v)) == sinks
        assert tuple(v for v in (*labels, "nowhere") if q.is_source(v)) == sources
        for v in sinks:
            cut = q.quotient((v,))
            assert q.hereditary_cut(cut) == q.hereditary_cut(AmpGraph(cut.vertices, cut.edges)) == (v,)
            assert q.hereditary_cut(q) != (v,)
            assert not any(q.hereditary_cut(q.quotient((w,))) == (v,) for w in sinks if w != v)


def test_a_cut_on_other_tables_is_compared_as_a_graph():
    # the same positions kept, but a family fewer: equal masks, another graph
    g = example_graph()
    thinner = AmpGraph(g.vertices, [e for e in g.edges if e[:2] != ("v1", "v3")])
    assert g.hereditary_cut(g.quotient(("v4",))) == ("v4",)
    assert g.hereditary_cut(thinner.quotient(("v4",))) is None
    fresh = AmpGraph.from_edges(("v1", "v2", "v3", "v5"), [("v1", "v2"), ("v3", "v5")])
    assert thinner.hereditary_cut(fresh) == ("v4",)


def test_a_cut_on_other_tables_is_named_when_it_holds():
    # a -> b and an isolated c: {c} is hereditary, and a fresh a -> b is
    # the quotient by it; {a} is not, and asking about it raises nothing
    g = AmpGraph.from_edges(("a", "b", "c"), [("a", "b")])
    assert g.hereditary_cut(AmpGraph.from_edges(("a", "b"), [("a", "b")])) == ("c",)
    assert g.hereditary_cut(AmpGraph.from_edges(("b", "c"))) is None
    assert g.hereditary_cut(g.quotient(("b", "c"))) == ("b", "c")
    assert g.hereditary_cut(AmpGraph.from_edges(("a",))) == ("b", "c")
    assert g.hereditary_cut(AmpGraph.from_edges(("b", "a"), [("a", "b")])) is None


def _model_cut(model: DenseGraph, other: DenseGraph) -> tuple[str, ...] | None:
    """The dense model's cut: the labels ``other`` lacks, in vertex order, when they
    are hereditary and ``other`` is the model's quotient by them; else ``None``."""
    gone = tuple(v for v in model.vertices if v not in other.pos)
    if any(w not in gone for v in gone for w in model.successors(v)):
        return None
    q = model.quotient(gone)
    return gone if (q.vertices, q.families()) == (other.vertices, other.families()) else None


def test_hereditary_cut_matches_the_dense_model_on_random_pairs():
    """Graphs with cycles, self-loops and finite families, and their
    quotients on the shared tables, by one vertex or several and cut again;
    the same graphs built anew; and graphs on other tables that keep a
    random run of the labels, less a family or with one multiplicity
    changed.  Each asked of each: the model's answer, a cut named both on
    shared tables and on other tables, and no question raising."""
    rng = random.Random(20261200)
    named = {True: 0, False: 0}
    for _ in range(30):
        labels = tuple(f"u{i}" for i in range(rng.randint(1, 7)))
        edges = random_edge_list(rng, labels, rng.randint(0, 24))
        g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
        pool = [(g, model)]
        subsets = sorted(hereditary_subsets_oracle(g))
        for subset in rng.sample(subsets, min(len(subsets), 5)):
            pool.append((g.quotient(subset), model.quotient(subset)))
        for _ in range(4):
            h, mh = rng.choice(pool[:6])
            alone = [v for v in h.vertices if h.is_hereditary((v,))]
            if alone:
                v = rng.choice(alone)
                pool.append((h.quotient((v,)), mh.quotient((v,))))
        for h, mh in rng.sample(pool, 3):
            pool.append((AmpGraph(h.vertices, h.edges), mh))
        for _ in range(3):
            keep = [v for v in labels if rng.random() < 0.7]
            fams = [(a, b, m) for a, b, m in model.families() if a in keep and b in keep]
            if fams and rng.random() < 0.5:
                fams.pop(rng.randrange(len(fams)))
            elif fams:
                k = rng.randrange(len(fams))
                fams[k] = (*fams[k][:2], 3 if fams[k][2] is OMEGA else OMEGA)
            pool.append((AmpGraph.from_edges(keep, fams), DenseGraph(keep, fams)))
        for a, ma in pool:
            for b, mb in pool:
                want = _model_cut(ma, mb)
                assert a.hereditary_cut(b) == want, (a, b)
                if want is not None:
                    named[a._t is b._t] += 1
    assert min(named.values()) >= 500, named


def test_one_vertex_cuts_are_decided_by_the_vertexs_row_as_the_dense_model_says(monkeypatch):
    """Each kept vertex of each hereditary quotient of a graph with
    self-loops, cycles and finite families, cut alone.  Where the model
    has no family out of it but a self-loop, the cut is the model's
    quotient, carries one vertex fewer, derives its facts from its read
    parent's exactly when it removes a sink, walking otherwise, and lacks that vertex beside its parent by its row;
    elsewhere the cut is refused with the one text a refusal gives.  The
    same mask built without the parent's record is decided by a mask test,
    and the same graph built anew by a comparison, refused or not."""
    walked = walked_graphs(monkeypatch)
    rng = random.Random(9800)
    outcomes = {"sink": 0, "loop": 0, "refused": 0}
    for _ in range(30):
        labels = tuple(f"u{i}" for i in range(rng.randint(1, 7)))
        edges = random_edge_list(rng, labels, rng.randint(0, 24))
        g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
        for subset in sorted(hereditary_subsets_oracle(g)):
            _cut_each_vertex_alone(g.quotient(subset), model.quotient(subset), outcomes, walked)
    assert min(outcomes.values()) >= 20, outcomes


def _cut_each_vertex_alone(q: AmpGraph, mq: DenseGraph, outcomes: dict, walked: list[AmpGraph]) -> None:
    """Cut each kept vertex of ``q`` alone and check it against the model ``mq``, counting each outcome."""
    q.classify()
    for v in q.vertices:
        i = q._t.pos[v]
        bare = AmpGraph._on(q._t, q._keep & ~(1 << i))
        if [w for w in mq.successors(v) if w != v]:
            assert _error(q.quotient, (v,)) == f"{[v]!r} is not hereditary: not a valid ideal"
            assert q.hereditary_cut(bare) is None
            less = mq.quotient((v,))
            assert q.hereditary_cut(AmpGraph(less.vertices, less.families())) is None
            outcomes["refused"] += 1
            continue
        cut = q.quotient((v,))
        assert _derives(cut, walked) == (not mq.successors(v))
        _assert_matches_model(cut, mq.quotient((v,)))
        assert len(cut) == len(q) - 1 == cut._keep.bit_count()
        assert q.hereditary_cut(cut) == q.hereditary_cut(bare) == (v,)
        assert q.hereditary_cut(AmpGraph(cut.vertices, cut.edges)) == (v,)
        outcomes["loop" if mq.successors(v) else "sink"] += 1


def test_kept_bit_tests_read_the_lowest_and_highest_positions():
    """On a graph five 30-bit digits wide, ``v in g``, ``index`` and
    ``has_family`` at the first and last positions, kept and cut, answer as
    the dense model does: the last vertex has a self-loop, the first none."""
    rng = random.Random(20261040)
    labels = tuple(f"u{i}" for i in range(130))
    ends, middle = (labels[0], labels[-1]), labels[1:-1]
    edges = [(a, b, rng.choice((1, 3, OMEGA))) for k, a in enumerate(middle) for b in middle[k + 1:]
             if rng.random() < 0.03]
    edges += [(v, end) for v in middle for end in ends if rng.random() < 0.2] + [(labels[-1], labels[-1])]
    g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
    pairs = [pair for v in labels for end in ends for pair in ((v, end), (end, v))]
    for removed in ((), ends[:1], ends[1:], ends):
        q, mq = g, model
        for v in removed:
            q, mq = q.quotient((v,)), mq.quotient((v,))
        assert [v in q for v in labels] == [v in mq.vertices for v in labels]
        assert [q.index(v) for v in mq.vertices] == list(range(len(mq.vertices)))
        assert [_error(q.index, v) for v in removed] == [f"unknown vertex {v!r}" for v in removed]
        assert [q.has_family(*pair) for pair in pairs] == [
            a in mq.vertices and b in mq.vertices and mq.multiplicity(a, b) != 0 for a, b in pairs]


def test_bits_lists_the_set_bits_lowest_first():
    rng = random.Random(20261041)
    masks = [0, 1, 1 << 200, (1 << 300) - 1, (1 << 40319) | (1 << 40310) | 5]
    masks += [rng.getrandbits(rng.choice((8, 64, 400))) for _ in range(200)]
    masks += [rng.getrandbits(30) << rng.randrange(2000) for _ in range(50)]
    for mask in masks:
        assert list(_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("seed", range(30))
def test_quotients_compare_by_the_vertices_they_keep(seed):
    # two quotients of one graph are equal exactly when they remove the same
    # set, and each compares and hashes equal to the graph built anew
    rng = random.Random(9200 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(1, 7)))
    g = AmpGraph.from_edges(labels, random_edge_list(rng, labels, rng.randint(0, 20)))
    subsets = sorted(hereditary_subsets_oracle(g))
    quotients = [g.quotient(subset) for subset in subsets]
    for a, qa in zip(subsets, quotients):
        fresh = AmpGraph(qa.vertices, qa.edges)
        assert qa == fresh and fresh == qa and hash(qa) == hash(fresh)
        assert qa == g.quotient(reversed(a))
        for b, qb in zip(subsets, quotients):
            assert (qa == qb) == (a == b)
            assert (qa == AmpGraph(qb.vertices, qb.edges)) == (a == b)


@pytest.mark.parametrize("seed", range(30))
def test_lacks_by_masks_matches_lacks_by_labels(seed):
    # every ordered pair of hereditary quotients: shared tables compare masks,
    # the graphs built anew compare labels, and both name the set differences
    rng = random.Random(9400 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(1, 7)))
    g = AmpGraph.from_edges(labels, random_edge_list(rng, labels, rng.randint(0, 20)))
    quotients = [g.quotient(subset) for subset in sorted(hereditary_subsets_oracle(g))]
    fresh = [AmpGraph(q.vertices, q.edges) for q in quotients]
    for qa, fa in zip(quotients, fresh):
        for qb, fb in zip(quotients, fresh):
            got = qa.lacks(qb)
            assert got == fa.lacks(fb)
            assert got == (
                tuple(v for v in qa.vertices if v not in qb.vertices),
                [(a, b) for a, b, _ in qa.edges if (a, b) not in {e[:2] for e in qb.edges}],
            )


@pytest.mark.parametrize("seed", range(30))
def test_a_quotient_of_a_quotient_is_one_quotient_by_the_union(seed):
    rng = random.Random(9300 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(1, 7)))
    edges = random_edge_list(rng, labels, rng.randint(0, 20))
    g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
    for first in sorted(hereditary_subsets_oracle(g)):
        q = g.quotient(first)
        for second in sorted(hereditary_subsets_oracle(q)):
            twice = q.quotient(second)
            assert twice == g.quotient(first + second)
            _assert_tables_fresh(twice)
            _assert_matches_model(twice, model.quotient(first + second))
        if first:
            # a removed vertex is no longer there to remove
            with pytest.raises(ValueError, match="unknown vertex"):
                q.quotient(first[:1])


@pytest.mark.parametrize("seed", range(30))
def test_amplifications_equal_fresh_graphs(seed):
    # amplified graphs, cycles and loops included; every legal move in turn
    rng = random.Random(9500 + seed)
    labels = tuple(f"u{i}" for i in range(rng.randint(2, 7)))
    edges = [e[:2] for e in random_edge_list(rng, labels, rng.randint(1, 14))]
    g, model = AmpGraph.from_edges(labels, edges), DenseGraph(labels, edges)
    g.classify()
    for a in labels:
        for b in labels:
            legal = model.multiplicity(a, b) == 0 and any(
                b in model.reachable_set(m) for m in model.successors(a)
            )
            if legal:
                g, model = g.amplify_transitive_edges(a, b), model.amplify(a, b)
                _assert_tables_fresh(g)
                _assert_matches_model(g, model)
    # quotients of the amplified graph read its new tables in turn
    _peel(g, model, rng)


def test_valid_stars_on_masks_matches_the_family_scan():
    rng = random.Random(424)
    checked = 0
    for _ in range(300):
        g = random_amplified_dag(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6, 0.8)))
        for sink in g.classify().sinks:
            assert valid_stars(g, sink) == valid_stars_oracle(g, sink)
            checked += 1
    assert checked > 400
    with pytest.raises(ValueError, match="'v1' is not a sink"):
        valid_stars(example_graph(), "v1")


def test_is_star_decides_each_vertex_as_the_oracle_lists_it():
    """Every sink and every label (and one unknown label) of every fixture,
    every quotient of one, and 30 random graphs.  The first star agrees with
    the listed stars on every sink, and each shipped policy's pick with its
    oracle on every graph with a sink."""
    graphs = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        g = load_graph(path)
        graphs += [(g.vertices, g.quotient(removed)) for removed in g.enumerate_hereditary()]
    rng = random.Random(426)
    for _ in range(30):
        g = random_amplified_dag(rng, rng.randint(1, 9), rng.choice((0.2, 0.5, 0.8)))
        graphs.append((g.vertices, g))
    pairs = picks = 0
    for labels, g in graphs:
        for sink in g.classify().sinks:
            stars = valid_stars_oracle(g, sink)
            for v in (*labels, "nowhere"):
                assert is_star(g, sink, v) == (v in stars), (g, sink, v)
                pairs += 1
            assert first_star(g, sink) == (stars or [None])[0], (g, sink)
        if g.classify().sinks:
            sink = g.classify().sinks[0]
            stars = valid_stars_oracle(g, sink)
            first = (sink, stars[0]) if stars else f"no valid star exists for sink {sink!r}"
            assert (_error(first_sink_first_star, g) or first_sink_first_star(g)) == first, g
            want = _error(prefer_source_star_oracle, g) or prefer_source_star_oracle(g)
            assert (_error(prefer_source_star, g) or prefer_source_star(g)) == want, g
            picks += 1
    assert len(graphs) > 70 and pairs > 700 and picks > 60


def test_is_star_answers_false_for_a_sink_the_graph_does_not_keep():
    g = example_graph()
    q = g.quotient(["v4"])
    assert is_star(g, "v4", "v1")
    for v in g.vertices:
        assert not is_star(q, "v4", v)
        assert not is_star(g, "nowhere", v)


def test_families_at_reads_the_families_touching_a_subset():
    rng = random.Random(425)
    for _ in range(200):
        g = random_amplified_dag(rng, rng.randint(1, 9), rng.choice((0.3, 0.6)))
        subset = [v for v in g.vertices if rng.random() < 0.3]
        want = [(a, b) for a, b, _ in g.families() if a in subset or b in subset]
        assert g.families_at(subset) == want
    with pytest.raises(ValueError, match="unknown vertex 'x'"):
        example_graph().families_at(["x"])
