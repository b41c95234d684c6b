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

A vertex image is a table ``{target vertex: coefficient}``, the integer sum
``sum_x d_x p_x`` of vertex projections: every section and quotient map of
a sink removal sends a vertex projection to such a sum.  Only this module
reads those tables.  The relation checks, the section identity and each
image's K_0 class are decided on them, and :meth:`GeneratorMap.apply`
turns a table back into an element when a word is pushed through the map.
A table has gauge degree 0 and a template gauge degree 1, so every map
that can be written down commutes with the gauge action, and no check for
it could fail.  Every canned map sends each generator to the one of the
same label except the few it lists, and one builder makes them all.
"""

from __future__ import annotations

from dataclasses import dataclass
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


#: A vertex image: the target vertices of ``sum_x d_x p_x`` with their
#: nonzero coefficients ``d_x``.
VertexTable = dict[str, int]


def _vertex_table(target: AmpGraph, v: str, img) -> VertexTable:
    """``img`` as the image of ``p[v]``, zero coefficients dropped; anything else is refused."""
    if not isinstance(img, dict):
        raise ValueError(
            f"image of p[{v}] must be a table {{target vertex: int}}, "
            f"not {type(img).__name__}"
        )
    for x, c in img.items():
        if x not in target:
            raise ValueError(f"image of p[{v}] names unknown vertex {x!r}")
        if type(c) is not int:
            raise ValueError(f"image of p[{v}] has coefficient {c!r} at {x!r}, not an int")
    return {x: c for x, c in img.items() if c}


@dataclass(frozen=True)
class GeneratorMap:
    """A candidate *-homomorphism given by generator images.

    ``vertex_images`` sends each source vertex to its table
    ``{target vertex: coefficient}``, the sum of target vertex projections
    its projection maps to; ``edge_images`` sends each source edge family
    to a template, instantiated index-uniformly.  Nothing here promises the
    data is an actual homomorphism; :func:`verify_ck_family` checks that.
    """

    source: AmpGraph
    target: AmpGraph
    vertex_images: dict
    edge_images: dict

    def __post_init__(self) -> None:
        if not self.source.is_amplified or not self.target.is_amplified:
            raise ValueError("generator maps require amplified graphs")
        vimgs = {
            v: _vertex_table(self.target, v, img)
            for v, img in dict(self.vertex_images).items()
        }
        if set(vimgs) != set(self.source.vertices):
            raise ValueError("vertex images must cover exactly the source vertices")
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

    # -- canned maps ---------------------------------------------------------

    @classmethod
    def identity(cls, graph: AmpGraph) -> "GeneratorMap":
        return _label_map(graph, graph, {}, {})

    @classmethod
    def inclusion(cls, sub: AmpGraph, graph: AmpGraph) -> "GeneratorMap":
        """The natural embedding of a subgraph algebra, generator by generator."""
        return _label_map(sub, graph, {}, {})

    @classmethod
    def quotient(cls, graph: AmpGraph, removed: Iterable[str]) -> "GeneratorMap":
        """The quotient map killing every generator that touches ``removed``."""
        removed = tuple(removed)
        return _quotient_onto(graph, graph.quotient(removed), removed)

    # -- evaluation ------------------------------------------------------------

    def edge_image(self, e: EdgeRef) -> CKElement:
        """Instantiate the family template of ``e`` at its concrete index."""
        return _edge_image(self, e)

    def apply(self, x: CKElement) -> CKElement:
        """Push an element through the map, vertex tables as elements, letter images multiplied."""
        if x.graph != self.source:
            raise ValueError("element does not live over the map's source graph")
        return _push(self, x.terms)

    def render_table(self) -> dict[str, str]:
        """Generator-by-generator rendering, symbolic in the family index."""
        rows: dict[str, str] = {}
        for v in self.source.vertices:
            rows[f"p[{v}]"] = _render_vertex_table(self.vertex_images[v])
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


def _render_vertex_table(table: VertexTable) -> str:
    """``sum_x d_x p_x`` as :meth:`CKElement.render` writes it: terms in label order."""
    if not table:
        return "0"
    parts = []
    for x, c in sorted(table.items()):
        body = f"p[{x}]"
        parts.append(body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def _label_map(source: AmpGraph, target: AmpGraph, vertices: dict, families: dict) -> GeneratorMap:
    """The map sending each generator of ``source`` to the same-label one of ``target``.

    ``vertices`` and ``families`` give the vertex images and family
    templates of the generators it moves instead.  An unmoved label that
    ``target`` lacks is refused by the map.
    """
    return GeneratorMap(
        source,
        target,
        {
            v: vertices[v] if v in vertices else {v: 1}
            for v in source.vertices
        },
        {
            (a, b): families[a, b] if (a, b) in families else ((1, (a, b)),)
            for a, b, _ in source.families()
        },
    )


def _quotient_onto(graph: AmpGraph, target: AmpGraph, removed: Iterable[str]) -> GeneratorMap:
    """:meth:`GeneratorMap.quotient` onto ``target``, the quotient graph already cut."""
    drop = set(removed)
    return _label_map(
        graph,
        target,
        {v: {} for v in drop},
        {(a, b): () for a, b, _ in graph.families() if a in drop or b in drop},
    )


class _Tables(NamedTuple):
    """The generator tables of a map, in :class:`GeneratorMap`'s field order.

    What :func:`compose_tables` returns; ``GeneratorMap(*tables)`` validates
    them into a map.
    """

    source: AmpGraph
    target: AmpGraph
    vertex_images: dict
    edge_images: dict


def _edge_image(m, e: EdgeRef) -> CKElement:
    """``m(s_e)``: the family template of ``e`` at its index, over ``m.target``."""
    try:
        tpl = m.edge_images[(e.src, e.dst)]
    except KeyError:
        raise ValueError(f"no source family {e.src!r} -> {e.dst!r}") from None
    if e.index < 0:
        raise ValueError(f"negative edge index in {e!r}")
    acc: dict[CKWord, int] = {}
    for coeff, (src, dst) in tpl:
        acc[CKWord(Path(src, (EdgeRef(src, dst, e.index),)), Path(dst))] = coeff
    return CKElement._make(m.target, acc)


def _push(m, terms: Iterable[tuple[CKWord, int]]) -> CKElement:
    """``sum c m(w)`` over ``terms``, for the generator tables ``m``.

    A vertex word goes to the element of its table; any other word to the
    product of its letter images.
    """
    acc: dict[CKWord, int] = {}
    for w, c in terms:
        if w.is_vertex:
            for x, d in m.vertex_images[w.alpha.base].items():
                wz = projection_word(x)
                acc[wz] = acc.get(wz, 0) + d * c
            continue
        letters = [_edge_image(m, e) for e in w.alpha.edges]
        letters += [_edge_image(m, e).adjoint() for e in reversed(w.beta.edges)]
        img = letters[0]
        for y in letters[1:]:
            img = img * y
        for wz, cz in img.terms:
            acc[wz] = acc.get(wz, 0) + cz * c
    return CKElement._make(m.target, acc)


def _push_table(m, table: VertexTable) -> VertexTable:
    """``sum_x d_x m(p_x)`` as a table, for the table ``table`` of the ``d_x``; zeros dropped."""
    acc: dict[str, int] = {}
    for x, c in table.items():
        for y, d in m.vertex_images[x].items():
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
    vimgs = {v: _push_table(outer, table) for v, table in inner.vertex_images.items()}
    eimgs = {
        fam: _compose_template(outer, tpl) for fam, tpl in inner.edge_images.items()
    }
    return _Tables(inner.source, outer.target, vimgs, eimgs)


def compose(outer: GeneratorMap, inner: GeneratorMap) -> GeneratorMap:
    """The composite ``outer . inner`` as a single generator map."""
    return GeneratorMap(*compose_tables(outer, inner))


def _section_identity_failure(section: GeneratorMap, quot: GeneratorMap) -> str | None:
    """The first generator of ``section.source`` that ``quot . section`` moves.

    The composite is formed on the generator tables and compared with the
    identity generator by generator.  Each vertex table is pushed through
    ``quot`` and compared with ``{v: 1}``; it can equal ``p_v`` only when
    ``quot.target`` is ``section.source``.  Each edge template is compared
    with the family itself; a template is index-uniform, so one comparison
    covers every index and a moved family is reported at index 0.  ``None``
    when every generator is fixed.
    """
    _check_composable(quot, section)
    src = section.source
    home = quot.target == src
    for v in src.vertices:
        if not home or _push_table(quot, section.vertex_images[v]) != {v: 1}:
            return f"p[{v}]"
    for a, b, _ in src.families():
        if _compose_template(quot, section.edge_images[(a, b)]) != ((1, (a, b)),):
            return f"s[{a}>{b}#0]"
    return None


def _range_counts(m: GeneratorMap) -> list[VertexTable]:
    """For each source vertex, the K_0 class of its image per target vertex.

    An image ``sum_x d_x p_x`` is a sum of distinct, hence orthogonal,
    vertex projections exactly when every ``d_x`` is 1; its class is then
    its table.  Any other coefficient is refused, naming the first such
    term in label order.
    """
    out = []
    for v in m.source.vertices:
        table = m.vertex_images[v]
        bad = [x for x, c in table.items() if c != 1]
        if bad:
            x = min(bad)
            raise ValueError(
                f"image of p[{v}] is not an orthogonal sum of path "
                f"projections: term {table[x]}*p[{x}]"
            )
        out.append(table)
    return out


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


def _orthogonality_defect(verts: tuple[str, ...], vimg: dict) -> tuple[str, str] | None:
    """The least pair ``(v, w)``, ``v`` before ``w``, with ``m(p_v) m(p_w) != 0``.

    Two sums of vertex projections multiply to zero exactly when no
    projection occurs in both, so an index from target vertex to the source
    vertices using it finds those pairs; for each target vertex the first two
    users are the least.
    """
    users: dict[str, list[int]] = {}
    for i, v in enumerate(verts):
        for x in vimg[v]:
            users.setdefault(x, []).append(i)
    failing = [(us[0], us[1]) for us in users.values() if len(us) > 1]
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
    m: GeneratorMap, sums: dict
) -> tuple[tuple[str, str], tuple[str, str]] | None:
    """The least pair ``(f, g)`` with ``m(s_f^i)* m(s_g^i) != delta_fg m(p_r(f))``.

    ``m(s_f^i)* m(s_f^i)`` is the sum of vertex projections ``sums[f]``, so
    it equals ``m(p_r(f))`` exactly when that table has the same
    coefficients.  A pair of distinct families can only fail when both
    templates use some target family, so an inverted index from target to
    source families finds every candidate; its defect is a coefficient per
    range vertex.
    """
    # ``sums`` is in family order: the first diagonal failure is the least,
    # and every ``users`` list is sorted, so each pair below has f < g.
    failing = []
    for f, got in sums.items():
        if got != m.vertex_images[f[1]]:
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


def _range_under(m: GeneratorMap, fam: tuple[str, str]) -> bool:
    """``m(p_src) m(s) m(s)* == m(s) m(s)*`` for the family ``fam = (src, dst)``.

    For ``m(p_src) = sum_x d_x p_x`` each term ``s_t s_u*`` of
    ``m(s) m(s)*`` is multiplied by ``d_{s(t)}``, so the identity holds
    exactly when ``d_{s(t)} = 1`` for every target family ``t`` of the
    template.
    """
    table = m.vertex_images[fam[0]]
    return all(table.get(t[0]) == 1 for _, t in m.edge_images[fam])


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
    * the map is unital (optional; embeddings legitimately fail it).

    A vertex image ``sum_x d_x p_x`` is decided on its table of the
    ``d_x``: it is a projection when every ``d_x`` is 1, two images are
    orthogonal when no ``p_x`` occurs in both, CK1 compares the range sums
    of a family with the table of its range vertex, and the map is unital
    when the tables sum to 1 on every target vertex and 0 elsewhere.  No
    gauge check is made: a table has degree 0 and a template degree 1, so
    every map that can be written down is gauge-equivariant.
    """
    checks: list[Check] = []
    verts = m.source.vertices
    vimg = m.vertex_images

    bad = [v for v in verts if any(c != 1 for c in vimg[v].values())]
    checks.append(
        Check(
            "vertex-projections",
            not bad,
            "" if not bad else f"image of p[{bad[0]}] is not a projection",
        )
    )

    bad_pair = _orthogonality_defect(verts, vimg)
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

    ck1_fail = _ck1_defect(m, sums)
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
        (fam for fam in fams if not isometry[fam] or not _range_under(m, fam)),
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

    sums_at: dict[str, int] = {}
    for v in verts:
        for x, c in vimg[v].items():
            sums_at[x] = sums_at.get(x, 0) + c
    unital = {x: c for x, c in sums_at.items() if c} == dict.fromkeys(m.target.vertices, 1)
    checks.append(
        Check(
            "unital",
            unital,
            "" if unital else "vertex images do not sum to the target unit",
            required=require_unital,
        )
    )

    return VerificationReport(tuple(checks))
