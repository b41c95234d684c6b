"""Type-A Weyl combinatorics and graphs of quantum flag manifolds.

The Weyl group of the rank-n series-A diagram is the symmetric group on
n + 1 letters, generated by the adjacent transpositions ``s_1 .. s_n``.
Elements are stored in one-line notation as tuples ``w = (w(1), .., w(n+1))``
and words multiply left to right, the rightmost letter acting first, so a
word is evaluated by swapping the positions its letters name, left to right:

>>> right_mult(right_mult(identity_perm(2), 1), 2)
(2, 3, 1)
>>> canonical_reduced_word((2, 3, 1))
(1, 2)

Tagging a nonempty subset of diagram nodes singles out the parabolic
subgroup generated by the *untagged* nodes.  The vertices of the flag graph
are the minimal-length coset representatives, i.e. the elements with no
untagged right descent; a representative of length k plays the role of a
2k-cell.  Edges connect representatives one letter apart in the subword
(Bruhat) order, so the graph is graded by word length.  Everything is read
off one-line forms; no word is evaluated.  The flag graph keys each
representative by one int, its one-line form read as base-256 digits, so
swapping two entries changes the key by one product (see :func:`flag_graph`).

The tagged nodes cut the positions ``1 .. n+1`` into blocks, position i
ending a block when node i is tagged.  Having no untagged right descent
means increasing inside every block, so a representative is a choice of
value set for each block but the last, which takes the values left, and
there are ``(n+1)! / prod(size!)`` of them:

>>> [r.element for r in minimal_coset_reps(DynkinSpec(2, frozenset({1})))]
[(1, 2, 3), (2, 1, 3), (3, 1, 2)]

Equally, a representative is a block word, the block of each value, and
:func:`minimal_coset_reps` lists them in one depth-first pass that places
the values 1 .. n+1 in order.  A value placed in block b lies, in ``p^-1``,
after exactly the earlier values of the later blocks, so the canonical word
grows by one run of letters fixed by their count.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from math import factorial, prod
from operator import itemgetter
from typing import NamedTuple

from . import MAX_RANK, _Frozen
from .graphs import AmpGraph

Perm = tuple[int, ...]

#: ``_RUN[k][d]`` is the run of letters ``k, k-1, .., k-d+1``.
_RUN = tuple(tuple(tuple(range(k, k - d, -1)) for d in range(k + 1)) for k in range(MAX_RANK + 1))
#: ``_NAME[i]`` is the label of the letter ``s_i``, for i in 1 .. ``MAX_RANK``.
_NAME = {i: f"s{i}" for i in range(1, MAX_RANK + 1)}


class DynkinSpec(_Frozen):
    """A series-A diagram of the given rank with a nonempty tagged node set."""

    _fields = ("rank", "tagged")

    def __init__(self, rank: int, tagged: frozenset[int]) -> None:
        tagged = frozenset(tagged)
        if any(type(value) is not int for value in (rank, *tagged)):  # a bool or a float too
            raise ValueError(f"rank and tagged nodes must be ints, got {rank!r} and {set(tagged)!r}")
        if not 1 <= rank <= MAX_RANK:
            raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {rank}")
        if not tagged:
            raise ValueError("at least one node must be tagged")
        if not tagged <= set(range(1, rank + 1)):
            raise ValueError(
                f"tagged nodes {sorted(tagged)} outside 1..{rank}"
            )
        super().__init__(rank=rank, tagged=tagged)

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


def canonical_reduced_word(p: Perm) -> tuple[int, ...]:
    """The lexicographically smallest reduced word for ``p``.

    Peeling the smallest left descent of ``p`` at each step swaps two
    adjacent positions of ``p^-1`` at its first descent, which is an
    insertion sort of ``p^-1``.  Inserting its entry at position k + 1 past
    the ``d`` earlier entries larger than it takes the run of letters ``k,
    k-1, .., k-d+1``, so the word's length is the inversion count of ``p``.
    No entry is moved: ``d`` is one bit count, of the bits above entry k + 1
    in a mask of the earlier entries, and the word concatenates the
    precomputed runs ``_RUN[k][d]``, so ``p`` has at most ``MAX_RANK + 1``
    entries:

    >>> canonical_reduced_word((3, 2, 1))
    (1, 2, 1)
    >>> canonical_reduced_word((1, 2, 3))
    ()

    Anything but a tuple of ints permuting 1 .. m, m at most ``MAX_RANK + 1``,
    is refused with a ``ValueError`` that names it.  The flag graph does not
    call this (see :func:`minimal_coset_reps`).
    """
    if not (isinstance(p, tuple) and len(p) <= MAX_RANK + 1 and all(type(x) is int for x in p)
            and sorted(p) == list(range(1, len(p) + 1))):
        raise ValueError(f"not a permutation of 1..m with m at most {MAX_RANK + 1}: {p!r}")
    inv = [0] * len(p)
    for pos, x in enumerate(p):
        inv[x - 1] = pos
    word: tuple[int, ...] = ()
    seen = 0
    for k, x in enumerate(inv):
        word += _RUN[k][(seen >> x).bit_count()]
        seen |= 1 << x
    return word


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


class CosetRep(NamedTuple):
    """A minimal-length coset representative with its canonical word."""

    element: Perm
    length: int
    word: tuple[int, ...]


def _block_sizes(spec: DynkinSpec) -> list[int]:
    """Lengths of the runs of positions between consecutive tagged nodes."""
    cuts = [0, *sorted(spec.tagged), spec.rank + 1]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def _cell_count(spec: DynkinSpec) -> int:
    """The number of minimal coset representatives, the multinomial of the block sizes: known before any is listed."""
    return factorial(spec.rank + 1) // prod(factorial(k) for k in _block_sizes(spec))


def minimal_coset_reps(spec: DynkinSpec) -> list[CosetRep]:
    """Minimal-length representatives of the parabolic cosets, in one pass over block words.

    An element represents its coset minimally exactly when it has no
    untagged right descent, i.e. its one-line form increases inside each
    block of positions between tagged nodes.  So a depth-first pass places
    the values 1 .. n+1 in order, each into every block still with room, at
    its next free position, and lists each representative once, when its
    last value is placed.  The recursion is as deep as the values placed,
    at most ``MAX_RANK + 1``.

    The canonical word (see :func:`canonical_reduced_word`) grows with the
    pass.  Value k + 1 goes to position x of block b; the earlier values of
    b and of the blocks before it sit before x, those of the later blocks
    after it.  So the ``d`` earlier entries of ``p^-1`` larger than x are
    the values already in the later blocks, summed as the blocks are walked
    from the last to the first, and the word grows by ``_RUN[k][d]``.
    Sorted in place by length then lexicographic canonical word.
    """
    sizes = _block_sizes(spec)
    n = spec.rank + 1
    starts = [0, *accumulate(sizes)]
    fill = [0] * len(sizes)
    p = [0] * n
    reps: list[CosetRep] = []
    last_to_first = range(len(sizes) - 1, -1, -1)

    def place(k: int, word: tuple[int, ...]) -> None:
        run = _RUN[k]
        d = 0
        for b in last_to_first:
            f = fill[b]
            if f < sizes[b]:
                p[starts[b] + f] = k + 1
                grown = word + run[d]
                if k + 1 == n:
                    reps.append(CosetRep(tuple(p), len(grown), grown))
                else:
                    fill[b] = f + 1
                    place(k + 1, grown)
                    fill[b] = f
            d += f

    place(0, ())
    reps.sort(key=itemgetter(1, 2))
    return reps


def word_label(word: tuple[int, ...]) -> str:
    """Vertex label of a reduced word, its letters' precomputed names joined; the identity is ``e``.

    Letters run from 1 to ``MAX_RANK``; any other letter, or a word that is
    not a sequence of letters, is refused with a ``ValueError`` that names
    the word.

    >>> word_label((2, 1, 3, 2))
    's2s1s3s2'
    """
    try:
        return "".join([_NAME[i] for i in word]) or "e"
    except (KeyError, TypeError):
        raise ValueError(f"not a word in the letters 1..{MAX_RANK}: {word!r}") from None


def _word_length(label: str) -> int:
    """The length of the reduced word a vertex label spells: its letter count (see :func:`word_label`).

    >>> _word_length("s2s1s3s2"), _word_length("e")
    (4, 0)
    """
    return label.count("s")


def flag_graph(spec: DynkinSpec) -> AmpGraph:
    """The amplified graph of the flag manifold cut out by ``spec``.

    Vertices are the minimal coset representatives labelled by canonical
    words; a family points from a representative to each one-letter-longer
    representative covering it in the Bruhat order.  By Björner–Brenti,
    *Combinatorics of Coxeter Groups*, Lemma 2.1.4, ``w`` covers exactly the
    permutations it turns into by swapping its entries in positions i < j,
    where ``w(i) > w(j)`` and no position between holds a value between
    them; by their Theorem 2.5.5 the representatives are graded, so their
    covers are the covers of the group that join two of them.

    The scan is by block (see the module docstring).  A representative
    increases inside each block, so swapping ``a = w(i)`` into a later
    block leaves a representative only for that block's largest value
    ``b < a``, one bisection away, and only when ``b`` exceeds the floor:
    ``w(i - 1)`` inside i's block, else 0, raised to each kept ``b``, since
    a kept value lies between ``a`` and any smaller candidate further on.
    The scan from i stops at ``b = a - 1``.  So only covers are found.

    Each representative is keyed by one int, its one-line form read as
    big-endian base-256 digits (``int.from_bytes``; entries are at most
    ``MAX_RANK + 1``), so the key is injective and each position weighs a
    power of 256, the last one 1.  Swapping ``a`` at i with ``b`` at j adds
    ``(b - a) * (weight(i) - weight(j))`` to the key, so each cover is one
    addition and one lookup, made unconditionally: a non-representative
    would raise ``KeyError``.  Walking the representatives in vertex order
    appends each cover's position to its source's row, so every row comes
    out strictly increasing, each cover found once, and the rows go to the
    graph's tables as they are (``AmpGraph._from_rows``): no family triple
    is built until ``edges`` is read, and the tables still refuse a
    position given twice.  Before the scan, the vertices are checked to be
    the descent-characterised set, with no tuple or set built per vertex:
    distinct (as many keys as vertices), as many as the multinomial count,
    permutations (each sorted equals the identity's list), and with no
    right descent at an untagged node.
    """
    reps = minimal_coset_reps(spec)
    labels = [word_label(r.word) for r in reps]
    elements = [r.element for r in reps]
    n = spec.rank + 1
    ident = list(range(1, n + 1))
    sizes = _block_sizes(spec)
    pos = {int.from_bytes(bytes(p), "big"): k for k, p in enumerate(elements)}
    if len(pos) != len(reps) or len(reps) != _cell_count(spec) or any(sorted(p) != ident for p in elements) or any(
        p[i - 1] > p[i] for i in sorted(spec.untagged) for p in elements
    ):
        raise RuntimeError(
            "flag vertex characterisations disagree; this is a bug"
        )
    weight = [256 ** (n - 1 - i) for i in range(n)]
    # (position, whether it starts a block, the later blocks' (start, end),
    # the key's change per unit of value swapped to each position), for the
    # positions before the last block: from there no swap moves a value on
    ends = list(accumulate(sizes))
    blocks = list(zip([0, *ends], ends))
    scan = [(i, i == s, blocks[k + 1:], [weight[i] - x for x in weight])
            for k, (s, e) in enumerate(blocks[:-1]) for i in range(s, e)]
    rows: list[list[int]] = [[] for _ in reps]
    # pos holds the keys in vertex order, one per vertex
    for p, (w, c) in enumerate(zip(elements, pos)):
        for i, first, later, step in scan:
            a = w[i]
            floor = 0 if first else w[i - 1]
            for s, e in later:
                j = bisect_left(w, a, s, e) - 1
                if j < s or w[j] <= floor:
                    continue
                b = floor = w[j]
                rows[pos[c + (b - a) * step[j]]].append(p)
                if b == a - 1:
                    break
    return AmpGraph._from_rows(labels, rows)
