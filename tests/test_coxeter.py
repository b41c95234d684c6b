from functools import reduce
from itertools import permutations

import pytest

from ampgraph import (
    DynkinSpec,
    canonical_reduced_word,
    flag_graph,
    minimal_coset_reps,
    word_label,
)
from ampgraph import AmpGraph, coxeter
from ampgraph.coxeter import (
    CosetRep,
    identity_perm,
    right_mult,
    weyl_group,
)

from helpers import (
    _inv_count,
    bruhat_leq,
    bruhat_leq_oracle,
    coset_reps_by_combinations_oracle,
    coset_reps_oracle,
    flag_graph_oracle,
    flag_vertices_alt,
    left_descents_oracle,
    left_mult_oracle,
    lex_least_reduced_word_oracle,
    peeled_reduced_word_oracle,
    subgroup_oracle,
    word_to_perm_oracle,
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
    # a rank or tag that is not an int is refused, a bool or a float equal to one included
    for rank, tagged in ((True, {1}), (2.0, {1}), ("2", {1}), (2, {1.0}), (2, {True}), (2, {1, "2"})):
        with pytest.raises(ValueError, match="rank and tagged nodes must be ints"):
            DynkinSpec(rank, tagged)


def test_generator_algebra():
    e = identity_perm(3)
    s1 = right_mult(e, 1)
    assert s1 == (2, 1, 3, 4)
    assert right_mult(s1, 1) == e

    def word(*letters):
        return reduce(right_mult, letters, e)

    # braid and commutation relations acting on the identity
    assert word(1, 2, 1) == word(2, 1, 2)
    assert word(1, 3) == word(3, 1)
    assert word(1, 2, 1) != word(1, 2)


def test_inversions_and_descents_against_enumeration():
    for p in permutations(range(1, 5)):
        # the right descents flag_graph's self-check reads off the one-line form
        assert frozenset(i for i in range(1, 4) if p[i - 1] > p[i]) == frozenset(
            i for i in range(1, 4) if _inv_count(right_mult(p, i)) < _inv_count(p)
        )
        assert left_descents_oracle(p) == frozenset(
            i for i in range(1, 4) if _inv_count(left_mult_oracle(i, p)) < _inv_count(p)
        )


@pytest.mark.parametrize("rank, order", [(1, 2), (2, 6), (3, 24), (4, 120)])
def test_weyl_group_order(rank, order):
    group = weyl_group(rank)
    assert len(group) == order
    lengths = [length for _, length in group]
    assert lengths == sorted(lengths)
    assert group[0] == (identity_perm(rank), 0)
    for p, length in group:
        assert _inv_count(p) == length


def test_weyl_group_guard():
    with pytest.raises(ValueError):
        weyl_group(9)


@pytest.mark.parametrize("rank", [2, 3])
def test_canonical_reduced_word_is_lex_least(rank):
    for p, length in weyl_group(rank):
        word = canonical_reduced_word(p)
        assert len(word) == length
        assert word_to_perm_oracle(word, rank) == p
        assert word == lex_least_reduced_word_oracle(p)


@pytest.mark.parametrize("rank", range(1, 7))
def test_canonical_reduced_word_is_the_descent_peeling_word(rank):
    for p, _ in weyl_group(rank):
        assert canonical_reduced_word(p) == peeled_reduced_word_oracle(p)


@pytest.mark.parametrize("spec", all_specs(5), ids=str)
def test_minimal_coset_reps_match_brute_force(spec):
    reps = minimal_coset_reps(spec)
    assert {r.element for r in reps} == coset_reps_oracle(spec.rank, spec.tagged)
    keys = [(r.length, r.word) for r in reps]
    assert keys == sorted(keys)
    for r in reps:
        assert _inv_count(r.element) == r.length
        assert word_to_perm_oracle(r.word, spec.rank) == r.element
    order = len(list(permutations(range(1, spec.rank + 2))))
    assert len(reps) == order // len(subgroup_oracle(spec.rank, set(spec.untagged)))


#: the flag-filtration benchmark's specs
FILTRATION_SPECS = [DynkinSpec(7, frozenset(tags)) for tags in ({4}, {1, 7}, {2, 5})]


@pytest.mark.parametrize("spec", all_specs(6) + FILTRATION_SPECS, ids=str)
def test_minimal_coset_reps_match_the_combinations_oracle(spec):
    # the same records in the same order as the combinations oracle, and
    # each word the reference one, which the pass does not compute
    reps = minimal_coset_reps(spec)
    assert reps == coset_reps_by_combinations_oracle(spec)
    for r in reps:
        assert type(r) is CosetRep and type(r.element) is tuple
        assert r.word == canonical_reduced_word(r.element)


def test_canonical_reduced_word_refuses_what_is_not_a_permutation():
    for p in [(1, 1, 3), (0, 1, 2), (1, 2, 4), (2, 1, "3"), (1.0, 2.0), (True, 2),
              [2, 1], None, 123, tuple(range(1, 11))]:
        with pytest.raises(ValueError, match="not a permutation") as err:
            canonical_reduced_word(p)
        assert repr(p) in str(err.value)
    assert canonical_reduced_word(tuple(range(9, 0, -1)))[:3] == (1, 2, 1)
    assert canonical_reduced_word(()) == canonical_reduced_word((1,)) == ()


def test_word_label_refuses_a_letter_outside_the_diagram():
    for word in [(0,), (-1,), (9,), (1, 9), (1.5,), ("1",), ([1],), None, 3]:
        with pytest.raises(ValueError, match="not a word in the letters 1..8") as err:
            word_label(word)
        assert repr(word) in str(err.value)
    assert word_label(tuple(range(1, 9))) == "s1s2s3s4s5s6s7s8"


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


@pytest.mark.parametrize("spec", all_specs(5) + [DynkinSpec(8, frozenset({4}))], ids=str)
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


ORACLE_SPECS = all_specs(6) + [
    DynkinSpec(7, frozenset(tags)) for tags in ({4}, {1, 7}, {2, 5}, {2, 4, 6})
] + [DynkinSpec(8, frozenset({4}))]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_flag_graph_matches_the_candidate_scan_oracle(spec):
    # the block scan builds no candidate it drops: a non-representative
    # would raise KeyError here rather than lose a cover
    g, want = flag_graph(spec), flag_graph_oracle(spec)
    assert g.vertices == want.vertices
    assert g.edges == want.edges


@pytest.mark.parametrize("tags, families", [({2, 5}, 1932), ({2, 4, 6}, 12180)])
def test_flag_graph_family_counts_at_rank_7(tags, families):
    assert len(flag_graph(DynkinSpec(7, frozenset(tags))).edges) == families


@pytest.mark.parametrize("spec", all_specs(4) + [DynkinSpec(7, frozenset({2, 5}))], ids=str)
def test_flag_graph_hands_the_constructor_its_families_row_major(monkeypatch, spec):
    """The flag graph hands the tables one row of range positions per vertex,
    each strictly increasing, and no family triple: ``edges`` is built when
    read, in the rows' order."""
    given = []
    from_rows = AmpGraph._from_rows

    def record(vertices, rows):
        given.append([list(row) for row in rows])
        return from_rows(vertices, rows)

    monkeypatch.setattr(AmpGraph, "_from_rows", staticmethod(record))
    g = flag_graph(spec)
    monkeypatch.undo()
    [rows] = given
    assert "edges" not in vars(g) and g._t._edges is None
    assert len(rows) == len(g)
    assert all(a < b for row in rows for a, b in zip(row, row[1:]))
    assert [(i, j) for i, row in enumerate(rows) for j in row] == [
        (g.index(a), g.index(b)) for a, b, _ in g.edges]


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
    # no untagged right descent, but 4 twice and no 3
    pytest.param(lambda reps: reps[:-1] + [CosetRep((1, 2, 4, 4), 4, (2, 1, 3, 2))], id="not-a-permutation"),
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
