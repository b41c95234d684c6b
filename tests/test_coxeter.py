from itertools import permutations

import pytest

from ampgraph import (
    DynkinSpec,
    canonical_reduced_word,
    flag_graph,
    minimal_coset_reps,
    word_label,
)
from ampgraph import coxeter
from ampgraph.coxeter import (
    CosetRep,
    coset_minimize,
    identity_perm,
    inversions,
    left_descents,
    left_mult,
    right_descents,
    right_mult,
    weyl_group,
    word_to_perm,
)

from helpers import (
    _inv_count,
    bruhat_leq,
    bruhat_leq_oracle,
    coset_reps_oracle,
    flag_vertices_alt,
    lex_least_reduced_word_oracle,
    subgroup_oracle,
)


def all_specs(max_rank: int = 3):
    out = []
    for rank in range(1, max_rank + 1):
        nodes = list(range(1, rank + 1))
        for bits in range(1, 1 << rank):
            tagged = frozenset(n for n in nodes if bits >> (n - 1) & 1)
            out.append(DynkinSpec(rank, tagged))
    return out


def test_dynkin_spec_validation():
    DynkinSpec(3, frozenset({1, 3}))
    with pytest.raises(ValueError):
        DynkinSpec(0, frozenset({1}))
    with pytest.raises(ValueError):
        DynkinSpec(9, frozenset({1}))
    with pytest.raises(ValueError):
        DynkinSpec(2, frozenset())
    with pytest.raises(ValueError):
        DynkinSpec(2, frozenset({3}))


def test_generator_algebra():
    e = identity_perm(3)
    s1 = right_mult(e, 1)
    assert s1 == (2, 1, 3, 4)
    assert right_mult(s1, 1) == e
    # braid and commutation relations acting on the identity
    assert word_to_perm((1, 2, 1), 3) == word_to_perm((2, 1, 2), 3)
    assert word_to_perm((1, 3), 3) == word_to_perm((3, 1), 3)
    assert word_to_perm((1, 2, 1), 3) != word_to_perm((1, 2), 3)
    assert left_mult(1, e) == s1
    with pytest.raises(ValueError):
        word_to_perm((4,), 3)


def test_inversions_and_descents_against_enumeration():
    for p in permutations(range(1, 5)):
        assert inversions(p) == _inv_count(p)
        assert right_descents(p) == frozenset(
            i for i in range(1, 4) if inversions(right_mult(p, i)) < inversions(p)
        )
        assert left_descents(p) == frozenset(
            i for i in range(1, 4) if inversions(left_mult(i, p)) < inversions(p)
        )


@pytest.mark.parametrize("rank, order", [(1, 2), (2, 6), (3, 24), (4, 120)])
def test_weyl_group_order(rank, order):
    group = weyl_group(rank)
    assert len(group) == order
    lengths = [length for _, length in group]
    assert lengths == sorted(lengths)
    assert group[0] == (identity_perm(rank), 0)
    for p, length in group:
        assert inversions(p) == length


def test_weyl_group_guard():
    with pytest.raises(ValueError):
        weyl_group(9)


@pytest.mark.parametrize("rank", [2, 3])
def test_canonical_reduced_word_is_lex_least(rank):
    for p, length in weyl_group(rank):
        word = canonical_reduced_word(p)
        assert len(word) == length
        assert word_to_perm(word, rank) == p
        assert word == lex_least_reduced_word_oracle(p)


def test_coset_minimize_strips_untagged_descents():
    # A2 with node 1 tagged: s2 and s1s2 collapse onto their coset floor
    untagged = frozenset({2})
    assert coset_minimize(word_to_perm((2,), 2), untagged) == identity_perm(2)
    assert coset_minimize(word_to_perm((1, 2), 2), untagged) == word_to_perm((1,), 2)
    assert coset_minimize(word_to_perm((1,), 2), untagged) == word_to_perm((1,), 2)


@pytest.mark.parametrize("spec", all_specs(5), ids=str)
def test_minimal_coset_reps_match_brute_force(spec):
    reps = minimal_coset_reps(spec)
    assert {r.element for r in reps} == coset_reps_oracle(spec.rank, spec.tagged)
    keys = [(r.length, r.word) for r in reps]
    assert keys == sorted(keys)
    for r in reps:
        assert inversions(r.element) == r.length
        assert word_to_perm(r.word, spec.rank) == r.element
    order = len(list(permutations(range(1, spec.rank + 2))))
    assert len(reps) == order // len(subgroup_oracle(spec.rank, set(spec.untagged)))


@pytest.mark.parametrize("spec", all_specs(5), ids=str)
def test_flag_vertex_characterisations_agree(spec):
    reps = {r.element for r in minimal_coset_reps(spec)}
    assert set(flag_vertices_alt(spec)) == reps


@pytest.mark.parametrize("rank", [2, 3])
def test_bruhat_leq_matches_subword_oracle(rank):
    group = [p for p, _ in weyl_group(rank)]
    for u in group:
        for w in group:
            expected = bruhat_leq_oracle(u, canonical_reduced_word(w), rank)
            assert bruhat_leq(u, w) is expected, (u, w)


def test_word_label():
    assert word_label(()) == "e"
    assert word_label((2, 1, 3, 2)) == "s2s1s3s2"


def test_flag_graph_grassmannian_frozen():
    g = flag_graph(DynkinSpec(3, frozenset({2})))
    assert g.vertices == ("e", "s2", "s1s2", "s3s2", "s1s3s2", "s2s1s3s2")
    assert [(a, b) for a, b, _ in g.families()] == [
        ("e", "s2"),
        ("s2", "s1s2"),
        ("s2", "s3s2"),
        ("s1s2", "s1s3s2"),
        ("s3s2", "s1s3s2"),
        ("s1s3s2", "s2s1s3s2"),
    ]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_flag_graph_projective_spaces_are_paths(rank):
    g = flag_graph(DynkinSpec(rank, frozenset({1})))
    expected = ["e"] + [word_label(tuple(range(k, 0, -1))) for k in range(1, rank + 1)]
    assert list(g.vertices) == expected
    assert [(a, b) for a, b, _ in g.families()] == [
        (expected[i], expected[i + 1]) for i in range(rank)
    ]


@pytest.mark.parametrize("spec", all_specs() + [DynkinSpec(8, frozenset({4}))], ids=str)
def test_flag_graph_edges_are_graded(spec):
    g = flag_graph(spec)
    reps = minimal_coset_reps(spec)
    lengths = {word_label(r.word): r.length for r in reps}
    assert set(g.vertices) == set(lengths)
    for a, b, _ in g.families():
        assert lengths[b] == lengths[a] + 1
    # the families are exactly the Bruhat covers among the representatives
    assert {(a, b) for a, b, _ in g.families()} == {
        (word_label(u.word), word_label(w.word))
        for u in reps
        for w in reps
        if w.length == u.length + 1 and bruhat_leq(u.element, w.element)
    }
    cls = g.classify()
    assert cls.amplified and cls.acyclic
    assert cls.sources == ("e",)


def test_flag_graph_gr_4_9():
    # grading, covers and the source e: test_flag_graph_edges_are_graded
    spec = DynkinSpec(8, frozenset({4}))
    assert len(flag_graph(spec).vertices) == 126
    assert max(r.length for r in minimal_coset_reps(spec)) == 20


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda reps: reps[:-1], id="drop"),
    pytest.param(lambda reps: reps + reps[-1:], id="duplicate"),
    # s1 is an untagged right descent of (2, 1, 3, 4)
    pytest.param(lambda reps: reps[:-1] + [CosetRep((2, 1, 3, 4), 1, (1,))], id="replace"),
])
def test_flag_graph_rejects_a_wrong_vertex_set(monkeypatch, corrupt):
    spec = DynkinSpec(3, frozenset({2}))
    reps = minimal_coset_reps(spec)
    monkeypatch.setattr(coxeter, "minimal_coset_reps", lambda s: corrupt(reps))
    with pytest.raises(RuntimeError, match="characterisations disagree"):
        flag_graph(spec)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_grassmannian_level_sizes_are_symmetric(rank):
    for k in range(1, rank + 1):
        reps = minimal_coset_reps(DynkinSpec(rank, frozenset({k})))
        counts: dict[int, int] = {}
        for r in reps:
            counts[r.length] = counts.get(r.length, 0) + 1
        top = max(counts)
        assert all(counts[l] == counts[top - l] for l in counts)
