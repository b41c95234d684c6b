import random

import pytest

from ampgraph import OMEGA, AmpGraph

from helpers import (
    DenseGraph,
    example_graph,
    hereditary_subsets_oracle,
    random_amplified_dag,
    random_edge_list,
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


def test_enumerate_hereditary_bound():
    g = random_amplified_dag(random.Random(0), 6)
    with pytest.raises(ValueError, match="enumeration bound"):
        g.enumerate_hereditary(max_vertices=5)


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
