"""Exact normal-form arithmetic in the *-algebra of an amplified graph.

The dense *-subalgebra of a graph algebra is spanned by words
``s_alpha s_beta*`` over paths ``alpha``, ``beta`` sharing a range vertex;
vertex projections are the words with two empty paths.  The product of two
such words is again zero or a single word, so integer combinations form a
ring we can compute in exactly:

* ``(s_a s_b*)(s_c s_d*) = s_{a c''} s_d*``  when ``c = b . c''``,
* ``(s_a s_b*)(s_c s_d*) = s_a s_{d b''}*``  when ``b = c . b''``,
* zero otherwise.

Empty paths carry their base vertex, so the same two clauses silently
implement projection insertion: ``p_v . s_c = s_c`` exactly when ``v`` is the
source of ``c``, and ``s_e s_f*`` collapses to zero whenever the ranges of
``e`` and ``f`` differ, because such a word cannot be formed at all.

No command runs this arithmetic: the relation checks of
:mod:`ampgraph.algebra` are decided on tables and templates.  It serves
:meth:`~ampgraph.algebra.GeneratorMap.apply`, which pushes an element
through a map, and any caller that computes in the algebra itself, for
instance on a graph with cycles.  The module is loaded on first use, and
its names also resolve from :mod:`ampgraph.algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .algebra import _render_sum
from .graphs import OMEGA, AmpGraph


class EdgeRef(NamedTuple):
    """One concrete edge: the ``index``-th arrow of the family ``src -> dst``."""

    src: str
    dst: str
    index: int


@dataclass(frozen=True, slots=True)
class Path:
    """A finite directed path; ``base`` is its source even when empty."""

    base: str
    edges: tuple[EdgeRef, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        at = self.base
        for e in self.edges:
            if e.src != at:
                raise ValueError(f"path breaks at {e!r}: expected source {at!r}")
            at = e.dst

    @property
    def source(self) -> str:
        return self.base

    @property
    def range(self) -> str:
        return self.edges[-1].dst if self.edges else self.base

    def __len__(self) -> int:
        return len(self.edges)

    def concat(self, other: "Path") -> "Path":
        if self.range != other.base:
            raise ValueError(
                f"cannot compose path ending at {self.range!r} with one "
                f"starting at {other.base!r}"
            )
        return Path(self.base, self.edges + other.edges)


def _strip_prefix(p: Path, q: Path) -> Path | None:
    """The remainder of ``q`` after its prefix ``p``, or None if not a prefix."""
    if p.base != q.base:
        return None
    k = len(p.edges)
    if k > len(q.edges) or q.edges[:k] != p.edges:
        return None
    return Path(p.range, q.edges[k:])


@dataclass(frozen=True, slots=True)
class CKWord:
    """A normal-form word ``s_alpha s_beta*`` with matching range vertices."""

    alpha: Path
    beta: Path

    def __post_init__(self) -> None:
        if self.alpha.range != self.beta.range:
            raise ValueError(
                f"word ranges differ: {self.alpha.range!r} vs {self.beta.range!r}"
            )

    @property
    def is_vertex(self) -> bool:
        return not self.alpha.edges and not self.beta.edges

    @property
    def degree(self) -> int:
        """Gauge degree |alpha| - |beta|."""
        return len(self.alpha.edges) - len(self.beta.edges)

    def adjoint(self) -> "CKWord":
        return CKWord(self.beta, self.alpha)

    def render(self) -> str:
        if self.is_vertex:
            return f"p[{self.alpha.base}]"
        out = [f"s[{e.src}>{e.dst}#{e.index}]" for e in self.alpha.edges]
        out += [f"s[{e.src}>{e.dst}#{e.index}]*" for e in reversed(self.beta.edges)]
        return " ".join(out)


@lru_cache(maxsize=1 << 14)
def projection_word(v: str) -> CKWord:
    """The vertex word ``p_v``, one shared value per label.

    Words are immutable and do not depend on a graph, so every caller may
    hold the same one.  The cache keeps at most 16,384 labels, more than
    any graph whose chain can be verified in practice; past that bound the
    least recently used words are simply built again.
    """
    p = Path(v)
    return CKWord(p, p)


def word_mul(x: CKWord, y: CKWord) -> CKWord | None:
    """Multiply two normal-form words; ``None`` encodes the zero product."""
    rem = _strip_prefix(x.beta, y.alpha)
    if rem is not None:
        return CKWord(x.alpha.concat(rem), y.beta)
    rem = _strip_prefix(y.alpha, x.beta)
    if rem is not None:
        return CKWord(x.alpha, y.beta.concat(rem))
    return None


def _path_key(p: Path) -> tuple:
    return (p.base, p.edges)


def _word_key(w: CKWord) -> tuple:
    return (_path_key(w.alpha), _path_key(w.beta))


@dataclass(frozen=True)
class CKElement:
    """An integer combination of normal-form words over a fixed graph.

    Terms are stored sorted with zero coefficients dropped, so structural
    equality is exactly equality in the *-algebra.
    """

    graph: AmpGraph
    terms: tuple[tuple[CKWord, int], ...]

    # -- construction ------------------------------------------------------

    @classmethod
    def _make(cls, graph: AmpGraph, acc: dict[CKWord, int]) -> "CKElement":
        items = tuple(
            sorted(
                ((w, c) for w, c in acc.items() if c != 0),
                key=lambda wc: _word_key(wc[0]),
            )
        )
        return cls(graph, items)

    @classmethod
    def zero(cls, graph: AmpGraph) -> "CKElement":
        return cls(graph, ())

    @classmethod
    def projection(cls, graph: AmpGraph, v: str) -> "CKElement":
        graph.index(v)
        return cls(graph, ((projection_word(v), 1),))

    @classmethod
    def edge(cls, graph: AmpGraph, src: str, dst: str, index: int = 0) -> "CKElement":
        """The generator ``s^index_{src,dst}`` as an element."""
        e = EdgeRef(src, dst, index)
        _check_edge(graph, e)
        w = CKWord(Path(src, (e,)), Path(dst))
        return cls(graph, ((w, 1),))

    @classmethod
    def unit(cls, graph: AmpGraph) -> "CKElement":
        return cls._make(graph, {projection_word(v): 1 for v in graph.vertices})

    @classmethod
    def word(cls, graph: AmpGraph, w: CKWord, coeff: int = 1) -> "CKElement":
        _check_word(graph, w)
        return cls._make(graph, {w: coeff})

    @classmethod
    def from_terms(
        cls, graph: AmpGraph, items: Iterable[tuple[CKWord, int]]
    ) -> "CKElement":
        acc: dict[CKWord, int] = {}
        for w, c in items:
            _check_word(graph, w)
            acc[w] = acc.get(w, 0) + c
        return cls._make(graph, acc)

    # -- ring structure ----------------------------------------------------

    def _check_peer(self, other: "CKElement") -> None:
        if self.graph != other.graph:
            raise ValueError("elements live over different ambient graphs")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CKElement") -> "CKElement":
        self._check_peer(other)
        acc = dict(self.terms)
        for w, c in other.terms:
            acc[w] = acc.get(w, 0) + c
        return CKElement._make(self.graph, acc)

    def __neg__(self) -> "CKElement":
        return CKElement(self.graph, tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "CKElement") -> "CKElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return CKElement.zero(self.graph)
            return CKElement(
                self.graph, tuple((w, c * other) for w, c in self.terms)
            )
        self._check_peer(other)
        acc: dict[CKWord, int] = {}
        for wx, cx in self.terms:
            for wy, cy in other.terms:
                wz = word_mul(wx, wy)
                if wz is not None:
                    acc[wz] = acc.get(wz, 0) + cx * cy
        return CKElement._make(self.graph, acc)

    def __rmul__(self, scalar: int) -> "CKElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return self * scalar

    def adjoint(self) -> "CKElement":
        acc = {w.adjoint(): c for w, c in self.terms}
        return CKElement._make(self.graph, acc)

    # -- predicates ---------------------------------------------------------

    def is_projection(self) -> bool:
        """Idempotent and self-adjoint; the zero element counts."""
        return self.adjoint() == self and self * self == self

    def gauge_degree(self) -> int | None:
        """Common gauge degree of all terms, or None for a mixed element."""
        if self.is_zero:
            raise ValueError("gauge degree of the zero element is undefined")
        degrees = {w.degree for w, _ in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def render(self) -> str:
        return _render_sum((c, w.render()) for w, c in self.terms)

    def __str__(self) -> str:
        return self.render()


def _check_word(graph: AmpGraph, w: CKWord) -> None:
    """Refuse a word whose base vertices or edges ``graph`` lacks."""
    graph.index(w.alpha.base)
    graph.index(w.beta.base)
    for e in w.alpha.edges + w.beta.edges:
        _check_edge(graph, e)


def _check_edge(graph: AmpGraph, e: EdgeRef) -> None:
    if e.index < 0:
        raise ValueError(f"negative edge index in {e!r}")
    if graph.multiplicity(e.src, e.dst) is not OMEGA:
        raise ValueError(
            f"family {e.src!r} -> {e.dst!r} is not an OMEGA family of the graph"
        )
