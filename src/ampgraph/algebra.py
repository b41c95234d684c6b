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

*-homomorphisms between graph algebras are modelled by their images on
generators.  Images of an edge family are *uniform in the parallel-edge
index*: a family template maps the i-th edge of one family to a sum of i-th
edges of target families, for the same symbolic i,
``m(s_f^i) = sum_t c_{f,t} s_t^i``.  Since ``s_t^i* s_u^j`` is ``p_{r(t)}``
when ``t = u`` and ``i = j`` and zero otherwise,

    m(s_f^i)* m(s_g^j) = delta_ij sum_{t in supp f & supp g} c_{f,t} c_{g,t} p_{r(t)}.

A pair of distinct indices therefore never meets, and the Cuntz-Krieger
relations for such a map are identities between template coefficients:
they are checked on the templates, without multiplying words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

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
        for e in w.alpha.edges + w.beta.edges:
            _check_edge(graph, e)
        return cls._make(graph, {w: coeff})

    @classmethod
    def from_terms(
        cls, graph: AmpGraph, items: Iterable[tuple[CKWord, int]]
    ) -> "CKElement":
        acc: dict[CKWord, int] = {}
        for w, c in items:
            for e in w.alpha.edges + w.beta.edges:
                _check_edge(graph, e)
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
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for w, c in self.terms:
            body = w.render()
            if c == 1:
                text = body
            elif c == -1:
                text = f"-{body}"
            else:
                text = f"{c}*{body}"
            parts.append(text)
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self) -> str:
        return self.render()


def _check_edge(graph: AmpGraph, e: EdgeRef) -> None:
    if e.index < 0:
        raise ValueError(f"negative edge index in {e!r}")
    if graph.multiplicity(e.src, e.dst) is not OMEGA:
        raise ValueError(
            f"family {e.src!r} -> {e.dst!r} is not an OMEGA family of the graph"
        )


def _diagonal(x: CKElement) -> dict[str, int] | None:
    """The coefficients of ``x`` on vertex projections, or None if any other word occurs."""
    out: dict[str, int] = {}
    for w, c in x.terms:
        if not w.is_vertex:
            return None
        out[w.alpha.base] = c
    return out


# ---------------------------------------------------------------------------
# generator maps


#: A family template: formal sum of target family symbols, all carrying the
#: same symbolic parallel-edge index as the input edge.
EdgeTemplate = tuple[tuple[int, tuple[str, str]], ...]


def _normalize_template(entries: Iterable[tuple[int, tuple[str, str]]]) -> EdgeTemplate:
    """Sum repeated families, drop zero coefficients and sort by family.

    A template already in that form, a tuple of ``(nonzero int, (src, dst))``
    pairs with strictly increasing families, is returned as it is.
    """
    if type(entries) is tuple:
        prev = None
        for entry in entries:
            if type(entry) is not tuple or len(entry) != 2:
                break
            c, fam = entry
            if (
                type(c) is not int or not c
                or type(fam) is not tuple or len(fam) != 2
                or (prev is not None and not prev < fam)
            ):
                break
            prev = fam
        else:
            return entries
    acc: dict[tuple[str, str], int] = {}
    for coeff, fam in entries:
        fam = (fam[0], fam[1])
        acc[fam] = acc.get(fam, 0) + coeff
    return tuple(
        (c, fam) for fam, c in sorted(acc.items()) if c != 0
    )


@dataclass(frozen=True)
class GeneratorMap:
    """A candidate *-homomorphism given by generator images.

    ``vertex_images`` sends each source vertex projection to an element of
    the target algebra; ``edge_images`` sends each source edge family to a
    template, instantiated index-uniformly.  Nothing here promises the data
    is an actual homomorphism; :func:`verify_ck_family` checks that.
    """

    source: AmpGraph
    target: AmpGraph
    vertex_images: dict
    edge_images: dict
    #: ``v -> {target vertex: coefficient}`` for each vertex image that is
    #: an integer sum of vertex projections, ``None`` for one with any
    #: other word; the checks decide tabled images on these coefficients.
    _diag: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.source.is_amplified or not self.target.is_amplified:
            raise ValueError("generator maps require amplified graphs")
        vimgs = dict(self.vertex_images)
        if set(vimgs) != set(self.source.vertices):
            raise ValueError("vertex images must cover exactly the source vertices")
        diag = {}
        for v, img in vimgs.items():
            if img.graph != self.target:
                raise ValueError(f"image of p[{v}] lives over the wrong graph")
            diag[v] = _diagonal(img)
        eimgs = {
            fam: _normalize_template(tpl)
            for fam, tpl in dict(self.edge_images).items()
        }
        fams = {(src, dst) for src, dst, _ in self.source.families()}
        if set(eimgs) != fams:
            raise ValueError("edge templates must cover exactly the source families")
        for fam, tpl in eimgs.items():
            for _, (src, dst) in tpl:
                if self.target.multiplicity(src, dst) is not OMEGA:
                    raise ValueError(
                        f"template for {fam} uses missing target family "
                        f"{src!r} -> {dst!r}"
                    )
        object.__setattr__(self, "vertex_images", vimgs)
        object.__setattr__(self, "edge_images", eimgs)
        object.__setattr__(self, "_diag", diag)

    # -- canned maps ---------------------------------------------------------

    @classmethod
    def identity(cls, graph: AmpGraph) -> "GeneratorMap":
        return cls(
            graph,
            graph,
            {v: CKElement.projection(graph, v) for v in graph.vertices},
            {
                (src, dst): ((1, (src, dst)),)
                for src, dst, _ in graph.families()
            },
        )

    @classmethod
    def inclusion(cls, sub: AmpGraph, graph: AmpGraph) -> "GeneratorMap":
        """The natural embedding of a subgraph algebra, generator by generator."""
        for v in sub.vertices:
            graph.index(v)
        return cls(
            sub,
            graph,
            {v: CKElement.projection(graph, v) for v in sub.vertices},
            {
                (src, dst): ((1, (src, dst)),)
                for src, dst, _ in sub.families()
            },
        )

    @classmethod
    def quotient(cls, graph: AmpGraph, removed: Iterable[str]) -> "GeneratorMap":
        """The quotient map killing every generator that touches ``removed``."""
        removed = tuple(removed)
        target = graph.quotient(removed)
        drop = set(removed)
        vimgs = {
            v: (
                CKElement.zero(target)
                if v in drop
                else CKElement.projection(target, v)
            )
            for v in graph.vertices
        }
        eimgs: dict[tuple[str, str], EdgeTemplate] = {}
        for src, dst, _ in graph.families():
            if src in drop or dst in drop:
                eimgs[(src, dst)] = ()
            else:
                eimgs[(src, dst)] = ((1, (src, dst)),)
        return cls(graph, target, vimgs, eimgs)

    # -- evaluation ------------------------------------------------------------

    def vertex_image(self, v: str) -> CKElement:
        self.source.index(v)
        return self.vertex_images[v]

    def family_template(self, src: str, dst: str) -> EdgeTemplate:
        return _family_template(self, src, dst)

    def edge_image(self, e: EdgeRef) -> CKElement:
        """Instantiate the family template of ``e`` at its concrete index."""
        return _edge_image(self, e)

    def apply(self, x: CKElement) -> CKElement:
        """Push an element through the map, multiplying out letter images."""
        if x.graph != self.source:
            raise ValueError("element does not live over the map's source graph")
        return _push(self, x.terms)

    def render_table(self) -> dict[str, str]:
        """Generator-by-generator rendering, symbolic in the family index."""
        rows: dict[str, str] = {}
        for v in self.source.vertices:
            rows[f"p[{v}]"] = self.vertex_images[v].render()
        for src, dst, _ in self.source.families():
            tpl = self.edge_images[(src, dst)]
            if not tpl:
                rows[f"s[{src}>{dst}#i]"] = "0"
                continue
            parts = []
            for coeff, (a, b) in tpl:
                body = f"s[{a}>{b}#i]"
                parts.append(body if coeff == 1 else f"{coeff}*{body}")
            rows[f"s[{src}>{dst}#i]"] = " + ".join(parts)
        return rows


class _Tables(NamedTuple):
    """The generator tables of a map, in :class:`GeneratorMap`'s field order.

    What :func:`compose_tables` returns; ``GeneratorMap(*tables)`` validates
    them into a map.
    """

    source: AmpGraph
    target: AmpGraph
    vertex_images: dict
    edge_images: dict


def _family_template(m, src: str, dst: str) -> EdgeTemplate:
    try:
        return m.edge_images[(src, dst)]
    except KeyError:
        raise ValueError(f"no source family {src!r} -> {dst!r}") from None


def _edge_image(m, e: EdgeRef) -> CKElement:
    """``m(s_e)``: the family template of ``e`` at its index, over ``m.target``."""
    tpl = _family_template(m, e.src, e.dst)
    if e.index < 0:
        raise ValueError(f"negative edge index in {e!r}")
    acc: dict[CKWord, int] = {}
    for coeff, (src, dst) in tpl:
        acc[CKWord(Path(src, (EdgeRef(src, dst, e.index),)), Path(dst))] = coeff
    return CKElement._make(m.target, acc)


def _push(m, terms: Iterable[tuple[CKWord, int]]) -> CKElement:
    """``sum c m(w)`` over ``terms``, for the generator tables ``m``.

    A vertex word goes to ``m(p_v)`` itself; any other word to the product
    of its letter images.
    """
    acc: dict[CKWord, int] = {}
    for w, c in terms:
        if w.is_vertex:
            img = m.vertex_images[w.alpha.base]
        else:
            letters = [_edge_image(m, e) for e in w.alpha.edges]
            letters += [_edge_image(m, e).adjoint() for e in reversed(w.beta.edges)]
            img = letters[0]
            for y in letters[1:]:
                img = img * y
        for wz, cz in img.terms:
            acc[wz] = acc.get(wz, 0) + cz * c
    return CKElement._make(m.target, acc)


def _push_diagonal(m: GeneratorMap, diag: dict[str, int]) -> dict[str, int] | None:
    """``sum_x d_x m(p_x)`` as a table for the table ``diag``, zeros dropped.

    ``None`` when some ``m(p_x)`` has a word other than a vertex projection.
    """
    acc: dict[str, int] = {}
    for x, c in diag.items():
        img = m._diag[x]
        if img is None:
            return None
        for y, d in img.items():
            acc[y] = acc.get(y, 0) + c * d
    return {y: c for y, c in acc.items() if c}


def _compose_template(outer, tpl: EdgeTemplate) -> EdgeTemplate:
    """The template ``tpl`` with each target family replaced by its ``outer`` template.

    A single family with coefficient 1 gives its ``outer`` template as it
    is; the templates of maps and tables are normalised already.
    """
    if len(tpl) == 1 and tpl[0][0] == 1:
        return outer.edge_images[tpl[0][1]]
    return _normalize_template(
        (coeff * c2, out_fam)
        for coeff, mid in tpl
        for c2, out_fam in outer.edge_images[mid]
    )


def _check_composable(outer, inner) -> None:
    if inner.target != outer.source:
        raise ValueError("maps do not compose: inner target differs from outer source")


def compose_tables(outer, inner) -> _Tables:
    """The generator tables of ``outer . inner``, built without a map.

    ``outer`` and ``inner`` are generator maps or tables.  Each vertex image
    of ``inner`` is pushed through ``outer`` and each template of ``inner``
    is substituted into ``outer``'s templates, so the result is valid
    whenever both inputs are.
    """
    _check_composable(outer, inner)
    vimgs = {v: _push(outer, img.terms) for v, img in inner.vertex_images.items()}
    eimgs = {
        fam: _compose_template(outer, tpl) for fam, tpl in inner.edge_images.items()
    }
    return _Tables(inner.source, outer.target, vimgs, eimgs)


def compose(outer: GeneratorMap, inner: GeneratorMap) -> GeneratorMap:
    """The composite ``outer . inner`` as a single generator map."""
    return GeneratorMap(*compose_tables(outer, inner))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class Check:
    """One verification item; optional items never veto the report."""

    name: str
    passed: bool
    detail: str = ""
    required: bool = True


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def extended(self, more: Iterable[Check]) -> "VerificationReport":
        return VerificationReport(self.checks + tuple(more))

    def render(self) -> str:
        lines = []
        for c in self.checks:
            flag = "PASS" if c.passed else ("warn" if not c.required else "FAIL")
            lines.append(f"{flag:4} {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def _is_projection(x: CKElement, diag: dict[str, int] | None) -> bool:
    """``x`` is a projection; ``sum_x d_x p_x`` is one when every ``d_x`` is 1."""
    if diag is None:
        return x.is_projection()
    return all(c == 1 for c in diag.values())


def _orthogonality_defect(
    verts: tuple[str, ...], vimg: dict, diag: dict
) -> tuple[str, str] | None:
    """The least pair ``(v, w)``, ``v`` before ``w``, with ``m(p_v) m(p_w) != 0``.

    Two sums of vertex projections multiply to zero exactly when no
    projection occurs in both, so an index from target vertex to the source
    vertices using it finds those pairs; for each target vertex the first two
    users are the least.  An image with any other word is multiplied out
    against every other image.
    """
    users: dict[str, list[int]] = {}
    for i, v in enumerate(verts):
        for x in diag[v] or ():
            users.setdefault(x, []).append(i)
    failing = [(us[0], us[1]) for us in users.values() if len(us) > 1]
    for i, v in enumerate(verts):
        if diag[v] is None:
            for j in range(len(verts)):
                a, b = min(i, j), max(i, j)
                if a != b and not (vimg[verts[a]] * vimg[verts[b]]).is_zero:
                    failing.append((a, b))
    if not failing:
        return None
    a, b = min(failing)
    return verts[a], verts[b]


def _range_sums(tpl: EdgeTemplate) -> dict[str, int]:
    """``m(s_f^i)* m(s_f^i)`` as vertex -> coefficient: ``c_t^2`` summed over ``r(t)``."""
    out: dict[str, int] = {}
    for c, (_, dst) in tpl:
        out[dst] = out.get(dst, 0) + c * c
    return out


def _ck1_defect(
    m: GeneratorMap, diag: dict, sums: dict
) -> tuple[tuple[str, str], tuple[str, str]] | None:
    """The least pair ``(f, g)`` with ``m(s_f^i)* m(s_g^i) != delta_fg m(p_r(f))``.

    ``m(s_f^i)* m(s_f^i)`` is the sum of vertex projections ``sums[f]``, so
    it equals ``m(p_r(f))`` exactly when that image is tabled with the same
    coefficients; an image with any other word never equals it.  A pair of
    distinct families can only fail when both templates use some target
    family, so an inverted index from target to source families finds every
    candidate; its defect is a coefficient per range vertex.
    """
    # ``sums`` is in family order: the first diagonal failure is the least,
    # and every ``users`` list is sorted, so each pair below has f < g.
    failing = []
    for f, got in sums.items():
        if got != diag[f[1]]:
            failing.append((f, f))
            break
    users: dict[tuple[str, str], list[tuple[tuple[str, str], int]]] = {}
    for f in sums:
        for c, t in m.edge_images[f]:
            users.setdefault(t, []).append((f, c))
    cross: dict[tuple, dict[str, int]] = {}
    for t, fs in users.items():
        for (f, cf), (g, cg) in combinations(fs, 2):
            acc = cross.setdefault((f, g), {})
            acc[t[1]] = acc.get(t[1], 0) + cf * cg
    failing += [pair for pair, acc in cross.items() if any(acc.values())]
    return min(failing, default=None)


def _range_under(
    m: GeneratorMap, fam: tuple[str, str], p: CKElement, diag: dict[str, int] | None
) -> bool:
    """``p m(s) m(s)* == m(s) m(s)*`` for the family ``fam``.

    For ``p = sum_x d_x p_x`` each term ``s_t s_u*`` of ``m(s) m(s)*`` is
    multiplied by ``d_{s(t)}``, so the identity holds exactly when
    ``d_{s(t)} = 1`` for every target family ``t`` of the template.  Any
    other ``p`` is multiplied out.
    """
    if diag is not None:
        return all(diag.get(t[0]) == 1 for _, t in m.edge_images[fam])
    a = m.edge_image(EdgeRef(fam[0], fam[1], 0))
    dom = a * a.adjoint()
    return p * dom == dom


def verify_ck_family(m: GeneratorMap, require_unital: bool = True) -> VerificationReport:
    """Check that generator images satisfy the Cuntz-Krieger relations.

    Edge images are index-uniform, ``m(s_f^i) = sum_t c_{f,t} s_t^i``, so
    ``m(s_f^i)* m(s_g^j)`` is ``delta_ij sum_t c_{f,t} c_{g,t} p_{r(t)}``
    over the target families ``t`` both templates use: a pair of distinct
    indices vanishes whatever the templates, and every relation on edges
    is an identity between template coefficients.  The checks are

    * vertex images are projections and mutually orthogonal,
    * family images are partial isometries compatible with the adjoint:
      for each ``t`` in a template, the ``c_u^2`` with ``r(u) = r(t)`` sum to 1,
    * ``m(s)* m(s') = delta . m(p_range)``  (CK1, including distinct-index
      and distinct-family orthogonality); only families that share a
      target family can fail the distinct-family case,
    * ``m(s) m(s)* <= m(p_source)``  (CK2),
    * the map is unital (optional; embeddings legitimately fail it),
    * every image is gauge homogeneous of the degree of its generator; a
      nonzero template is a sum of single edges, always of degree 1, so
      only vertex images can fail.

    A vertex image ``sum_x d_x p_x`` is decided on its coefficients, the
    table the map keeps: it is a projection when every ``d_x`` is 1, two
    such images are orthogonal when no ``p_x`` occurs in both, CK1 compares
    the range sums of a family with the table of its range vertex, the map
    is unital when the tables sum to 1 on every target vertex and 0
    elsewhere, and such an image has gauge degree 0.  Any other vertex
    image is multiplied out.
    """
    checks: list[Check] = []
    verts = m.source.vertices
    vimg = {v: m.vertex_images[v] for v in verts}
    diag = m._diag

    bad = [v for v in verts if not _is_projection(vimg[v], diag[v])]
    checks.append(
        Check(
            "vertex-projections",
            not bad,
            "" if not bad else f"image of p[{bad[0]}] is not a projection",
        )
    )

    bad_pair = _orthogonality_defect(verts, vimg, diag)
    checks.append(
        Check(
            "vertex-orthogonality",
            bad_pair is None,
            "" if bad_pair is None else
            f"images of p[{bad_pair[0]}] and p[{bad_pair[1]}] are not orthogonal",
        )
    )

    fams = sorted(m.edge_images)
    sums = {fam: _range_sums(m.edge_images[fam]) for fam in fams}
    isometry = {fam: all(c == 1 for c in sums[fam].values()) for fam in fams}

    bad_fam = next((fam for fam in fams if not isometry[fam]), None)
    checks.append(
        Check(
            "adjoint-compatibility",
            bad_fam is None,
            "" if bad_fam is None else
            f"image of s[{bad_fam[0]}>{bad_fam[1]}#i] is not a partial isometry",
        )
    )

    ck1_fail = _ck1_defect(m, diag, sums)
    checks.append(
        Check(
            "ck1",
            ck1_fail is None,
            "" if ck1_fail is None else
            f"m(s)* m(s') defect for families {ck1_fail[0]} , {ck1_fail[1]} "
            "(same index)",
        )
    )

    # m(s) m(s)* is a projection exactly when m(s) is a partial isometry.
    ck2_fail = next(
        (
            fam for fam in fams
            if not isometry[fam]
            or not _range_under(m, fam, vimg[fam[0]], diag[fam[0]])
        ),
        None,
    )
    checks.append(
        Check(
            "ck2",
            ck2_fail is None,
            "" if ck2_fail is None else
            f"m(s) m(s)* not under m(p[{ck2_fail[0]}]) for family {ck2_fail}",
        )
    )

    if all(diag[v] is not None for v in verts):
        sums_at: dict[str, int] = {}
        for v in verts:
            for x, c in diag[v].items():
                sums_at[x] = sums_at.get(x, 0) + c
        unital = {x: c for x, c in sums_at.items() if c} == dict.fromkeys(
            m.target.vertices, 1
        )
    else:
        total: dict[CKWord, int] = {}
        for v in verts:
            for w, c in vimg[v].terms:
                total[w] = total.get(w, 0) + c
        unital = CKElement._make(m.target, total) == CKElement.unit(m.target)
    checks.append(
        Check(
            "unital",
            unital,
            "" if unital else "vertex images do not sum to the target unit",
            required=require_unital,
        )
    )

    gauge_bad = next(
        (
            v for v in verts
            if diag[v] is None and vimg[v].gauge_degree() != 0
        ),
        None,
    )
    checks.append(
        Check(
            "gauge-homogeneity",
            gauge_bad is None,
            "" if gauge_bad is None else f"image of p[{gauge_bad}] is not homogeneous",
        )
    )

    return VerificationReport(tuple(checks))
