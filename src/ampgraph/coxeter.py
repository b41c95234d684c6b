"""Type-A Weyl combinatorics and graphs of quantum flag manifolds.

The Weyl group of the rank-n series-A diagram is the symmetric group on
n + 1 letters, generated by the adjacent transpositions ``s_1 .. s_n``.
Elements are stored in one-line notation as tuples ``w = (w(1), .., w(n+1))``
and words multiply left to right, the rightmost letter acting first:

>>> word_to_perm((1, 2, 1), 2)
(3, 2, 1)
>>> word_to_perm((2, 1, 2), 2) == word_to_perm((1, 2, 1), 2)
True

Tagging a nonempty subset of diagram nodes singles out the parabolic
subgroup generated by the *untagged* nodes.  The vertices of the flag graph
are the minimal-length coset representatives, i.e. the elements with no
untagged right descent; a representative of length k plays the role of a
2k-cell.  Edges connect representatives one letter apart in the subword
(Bruhat) order, so the graph is graded by word length.

The tagged nodes cut the positions ``1 .. n+1`` into blocks, position i
ending a block when node i is tagged.  Having no untagged right descent
means increasing inside every block, so a representative is a choice of
value set for each block, and there are ``(n+1)! / prod(size!)`` of them:

>>> [r.element for r in minimal_coset_reps(DynkinSpec(2, frozenset({1})))]
[(1, 2, 3), (2, 1, 3), (3, 1, 2)]
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, prod
from typing import Iterable

from . import MAX_RANK
from .graphs import AmpGraph

Perm = tuple[int, ...]


@dataclass(frozen=True)
class DynkinSpec:
    """A series-A diagram of the given rank with a nonempty tagged node set."""

    rank: int
    tagged: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tagged", frozenset(self.tagged))
        if not 1 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {self.rank}")
        if not self.tagged:
            raise ValueError("at least one node must be tagged")
        if not self.tagged <= set(range(1, self.rank + 1)):
            raise ValueError(
                f"tagged nodes {sorted(self.tagged)} outside 1..{self.rank}"
            )

    @property
    def untagged(self) -> frozenset[int]:
        return frozenset(range(1, self.rank + 1)) - self.tagged


# -- permutation primitives ---------------------------------------------------


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 2))


def right_mult(p: Perm, i: int) -> Perm:
    """``p * s_i``: swap the entries in positions i, i+1 (1-based).

    >>> right_mult((1, 2, 3), 1)
    (2, 1, 3)
    """
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def left_mult(i: int, p: Perm) -> Perm:
    """``s_i * p``: swap the values i, i+1 wherever they sit."""
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(x, x) for x in p)


def inversions(p: Perm) -> int:
    """Coxeter length of ``p``: the number of inversions of its one-line form.

    >>> inversions((3, 2, 1))
    3
    """
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def right_descents(p: Perm) -> frozenset[int]:
    """Generators ``s_i`` with ``len(p * s_i) < len(p)``: descents of one-line form."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def left_descents(p: Perm) -> frozenset[int]:
    pos = {x: k for k, x in enumerate(p)}
    return frozenset(i for i in range(1, len(p)) if pos[i] > pos[i + 1])


def word_to_perm(word: Iterable[int], rank: int) -> Perm:
    """Evaluate a word in the generators; the rightmost letter acts first."""
    p = identity_perm(rank)
    for i in word:
        if not 1 <= i <= rank:
            raise ValueError(f"letter {i} outside 1..{rank}")
        p = right_mult(p, i)
    return p


def canonical_reduced_word(p: Perm) -> tuple[int, ...]:
    """The lexicographically smallest reduced word for ``p``.

    Peels the smallest left descent at each step:

    >>> canonical_reduced_word((3, 2, 1))
    (1, 2, 1)
    >>> canonical_reduced_word((1, 2, 3))
    ()
    """
    word: list[int] = []
    while True:
        desc = left_descents(p)
        if not desc:
            return tuple(word)
        i = min(desc)
        word.append(i)
        p = left_mult(i, p)


def weyl_group(rank: int) -> list[tuple[Perm, int]]:
    """All elements of the rank-``rank`` Weyl group with their lengths.

    Breadth-first from the identity, so the length is both the BFS depth and
    the inversion count.  Sorted by (length, one-line form).  A brute-force
    reference: the flag-graph construction never enumerates the group.
    """
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {rank}")
    e = identity_perm(rank)
    seen: dict[Perm, int] = {e: 0}
    frontier = [e]
    depth = 0
    while frontier:
        depth += 1
        step: list[Perm] = []
        for p in frontier:
            for i in range(1, rank + 1):
                q = right_mult(p, i)
                if q not in seen:
                    seen[q] = depth
                    step.append(q)
        frontier = step
    return sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))


# -- coset representatives ----------------------------------------------------


@dataclass(frozen=True)
class CosetRep:
    """A minimal-length coset representative with its canonical word."""

    element: Perm
    length: int
    word: tuple[int, ...]


def coset_minimize(p: Perm, untagged: frozenset[int]) -> Perm:
    """Strip untagged right descents until none remain.

    Each strip multiplies on the right by a parabolic generator, so the
    result is the unique minimal-length element of ``p W_S``.
    """
    while True:
        desc = sorted(right_descents(p) & untagged)
        if not desc:
            return p
        p = right_mult(p, desc[0])


def _block_sizes(spec: DynkinSpec) -> list[int]:
    """Lengths of the runs of positions between consecutive tagged nodes."""
    cuts = [0, *sorted(spec.tagged), spec.rank + 1]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def minimal_coset_reps(spec: DynkinSpec) -> list[CosetRep]:
    """Minimal-length representatives of the parabolic cosets, block by block.

    An element represents its coset minimally exactly when it has no
    untagged right descent, i.e. its one-line form increases inside each
    block of positions between tagged nodes.  Choosing the value set of
    every block yields each representative once, so the work is
    proportional to the output.  Sorted by length then lexicographic
    canonical word.
    """
    # (one-line prefix, values not yet placed), one block at a time
    forms: list[tuple[Perm, Perm]] = [((), identity_perm(spec.rank))]
    for size in _block_sizes(spec):
        forms = [(head + block, tuple(v for v in rest if v not in block))
                 for head, rest in forms for block in combinations(rest, size)]
    reps = [CosetRep(p, inversions(p), canonical_reduced_word(p)) for p, _ in forms]
    return sorted(reps, key=lambda r: (r.length, r.word))


def word_label(word: tuple[int, ...]) -> str:
    """Vertex label of a reduced word; the identity is ``e``.

    >>> word_label((2, 1, 3, 2))
    's2s1s3s2'
    """
    return "".join(f"s{i}" for i in word) or "e"


def flag_graph(spec: DynkinSpec) -> AmpGraph:
    """The amplified graph of the flag manifold cut out by ``spec``.

    Vertices are the minimal coset representatives labelled by canonical
    words; a family points from a representative to each one-letter-longer
    representative covering it in the subword order.  Covers are found by
    single-letter deletion from the canonical word of the longer element
    followed by coset minimisation, which the strong exchange property makes
    exhaustive.  Before the graph is assembled, the vertices are checked to
    be the descent-characterised set: distinct permutations, each with right
    descents among the tagged nodes, as many as the multinomial count.
    """
    reps = minimal_coset_reps(spec)
    by_element = {r.element: r for r in reps}
    ident = identity_perm(spec.rank)
    count = factorial(spec.rank + 1) // prod(factorial(k) for k in _block_sizes(spec))
    if len(by_element) != len(reps) or len(reps) != count or any(
        tuple(sorted(p)) != ident or not right_descents(p) <= spec.tagged
        for p in by_element
    ):
        raise RuntimeError(
            "flag vertex characterisations disagree; this is a bug"
        )
    labels = {r.element: word_label(r.word) for r in reps}
    untagged = spec.untagged
    edges = []
    for r in reps:
        targets = set()
        for cut in range(len(r.word)):
            sub = r.word[:cut] + r.word[cut + 1 :]
            p = coset_minimize(word_to_perm(sub, spec.rank), untagged)
            if inversions(p) == r.length - 1:
                lower = by_element.get(p)
                if lower is not None:
                    targets.add(lower.element)
        for p in targets:
            edges.append((labels[p], labels[r.element]))
    return AmpGraph.from_edges([labels[r.element] for r in reps], edges)
