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
it could fail.

A map is stored as the identity on labels plus a *patch*: the vertex
tables and family templates that differ from the same-label generator of
the target.  The section of a sink removal moves only the star and the
families into it, and the quotient map only the sink and the families into
it, so a patch is a few entries where the map has hundreds of generators.
The canned maps are built from their patch alone, and the constructor
diffs full tables into one; either way one validator checks the images
given entry by entry and the unmoved labels with one set difference of the
two graphs' vertices and one of their families.

The relation checks read only the patch and its neighbours.  An amplified
graph has no finite emitter, so no relation sums over a vertex's families:
each names one vertex, one family, or a pair of generators whose images
share a target vertex or target family.  Relations among unmoved
generators hold in the target, because each unmoved label exists there
with the same multiplicity.  So a check can fail only at

* a moved table (projection) or template (partial isometry);
* a pair sharing a target vertex a moved table names: the moved tables
  naming it and the unmoved vertex of that label (orthogonality);
* a family whose range sum may differ from its range vertex's table: a
  moved template, or an unmoved family into a moved vertex (CK1, diagonal);
* a pair sharing a target family a moved template names: the moved
  templates naming it and the unmoved family of that label (CK1, cross);
* a family whose source vertex's table may not hold its own projection
  with coefficient 1: a moved template, or an unmoved family out of a moved
  vertex (CK2).

Unitality is a count: every unmoved label adds 1 at its own target vertex,
the moved tables add their sums, and the total must be 1 on exactly as many
vertices as the target has.  Composition and the section identity work on
patches too: a composite moves only what its inner map moves and what its
outer map moves among the inner map's labels.
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


def _check_template(target: AmpGraph, fam: tuple[str, str], tpl: EdgeTemplate) -> None:
    """Refuse a template of ``fam`` that uses a family ``target`` lacks."""
    for _, (src, dst) in tpl:
        if target.multiplicity(src, dst) is not OMEGA:
            raise ValueError(
                f"template for {fam} uses missing target family "
                f"{src!r} -> {dst!r}"
            )


@dataclass(frozen=True, init=False)
class GeneratorMap:
    """A candidate *-homomorphism given by generator images.

    The constructor takes ``vertex_images``, sending each source vertex to
    its table ``{target vertex: coefficient}``, the sum of target vertex
    projections its projection maps to, and ``edge_images``, sending each
    source edge family to a template, instantiated index-uniformly.  The map
    keeps only its *patch*: ``vertex_patch`` and ``family_patch`` hold the
    images that differ from the same-label generator of the target, in
    vertex and row-major family order, and every other generator goes to
    the generator of its own label.  ``vertex_images`` and ``edge_images``
    build the full tables on each access.  Nothing here promises the data
    is an actual homomorphism; :func:`verify_ck_family` checks that.
    """

    source: AmpGraph
    target: AmpGraph
    vertex_patch: dict
    family_patch: dict

    def __init__(self, source: AmpGraph, target: AmpGraph, vertex_images: dict, edge_images: dict) -> None:
        vimgs, eimgs = dict(vertex_images), dict(edge_images)
        if vimgs.keys() != source._index.keys():
            raise ValueError("vertex images must cover exactly the source vertices")
        if eimgs.keys() != source._mult.keys():
            raise ValueError("edge templates must cover exactly the source families")
        _fill(self, source, target, *_patch(source, target, vimgs, eimgs))

    @property
    def vertex_images(self) -> dict:
        """Every source vertex's table, the patch's or the same-label ``{v: 1}``."""
        return {v: _vertex_image(self, v) for v in self.source.vertices}

    @property
    def edge_images(self) -> dict:
        """Every source family's template, the patch's or the same-label family."""
        return {(a, b): _family_image(self, (a, b)) for a, b, _ in self.source.edges}

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
            table = sorted(_vertex_image(self, v).items())
            rows[f"p[{v}]"] = _render_sum((c, f"p[{x}]") for x, c in table)
        for src, dst, _ in self.source.families():
            tpl = _family_image(self, (src, dst))
            rows[f"s[{src}>{dst}#i]"] = _render_sum((c, f"s[{a}>{b}#i]") for c, (a, b) in tpl)
        return rows


def _fill(m: GeneratorMap, source: AmpGraph, target: AmpGraph, vertex_patch: dict, family_patch: dict) -> None:
    """Store a validated patch on ``m``; every map is made through here."""
    object.__setattr__(m, "source", source)
    object.__setattr__(m, "target", target)
    object.__setattr__(m, "vertex_patch", vertex_patch)
    object.__setattr__(m, "family_patch", family_patch)


def _vertex_image(m, v: str) -> VertexTable:
    """The table of ``m(p_v)``: the patch's, or ``{v: 1}`` when ``m`` does not move ``v``."""
    table = m.vertex_patch.get(v)
    return {v: 1} if table is None else table


def _family_image(m, fam: tuple[str, str]) -> EdgeTemplate:
    """The template of ``fam`` under ``m``: the patch's, or the family itself."""
    tpl = m.family_patch.get(fam)
    return ((1, fam),) if tpl is None else tpl


def _render_sum(terms: Iterable[tuple[int, str]]) -> str:
    """The sum of ``c * body`` over ``terms``, in their order, as every rendering writes it.

    A term reads ``body``, ``-body`` or ``c*body``, a negative term is joined
    with ``-`` and an empty sum is ``0``.  :meth:`CKElement.render` and every
    row of :meth:`GeneratorMap.render_table` are written by it.
    """
    text = " + ".join(body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}" for c, body in terms)
    return text.replace("+ -", "- ") if text else "0"


def _label_map(source: AmpGraph, target: AmpGraph, vertices: dict, families: dict) -> GeneratorMap:
    """The map sending each generator of ``source`` to the same-label one of ``target``.

    ``vertices`` and ``families`` give the vertex images and family
    templates of the generators it moves instead.
    """
    m = object.__new__(GeneratorMap)
    _fill(m, source, target, *_patch(source, target, vertices, families))
    return m


def _patch(source: AmpGraph, target: AmpGraph, vertices: dict, families: dict) -> tuple[dict, dict]:
    """The validated patch of the images ``vertices`` and ``families``, the rest fixed.

    The images given are validated one by one, and the unmoved labels with
    one set difference of the two graphs' vertices and one of their
    families.  A refusal names the first offending vertex in vertex order,
    or else the first offending family in row-major order.  Images that
    equal the same-label generator are left out of the patch.
    """
    if not source.is_amplified or not target.is_amplified:
        raise ValueError("generator maps require amplified graphs")
    index = source._index
    errors: dict = {}
    for v in index.keys() - target._index.keys() - vertices.keys():
        errors[v] = ValueError(f"image of p[{v}] names unknown vertex {v!r}")
    tables = {}
    for v, img in vertices.items():
        try:
            tables[v] = _vertex_table(target, v, img)
        except ValueError as exc:
            errors[v] = exc
    if errors:
        raise errors[min(errors, key=lambda v: index.get(v, len(index)))]
    if not tables.keys() <= index.keys():
        raise ValueError("vertex images must cover exactly the source vertices")
    templates = {fam: _normalize_template(tpl) for fam, tpl in families.items()}
    if not templates.keys() <= source._mult.keys():
        raise ValueError("edge templates must cover exactly the source families")
    unmoved = {fam: ((1, fam),) for fam in source._mult.keys() - target._mult.keys() - templates.keys()}
    for fam, tpl in (*unmoved.items(), *templates.items()):
        try:
            _check_template(target, fam, tpl)
        except ValueError as exc:
            errors[fam] = exc
    row_major = lambda fam: (index[fam[0]], index[fam[1]])  # noqa: E731
    if errors:
        raise errors[min(errors, key=row_major)]
    return (
        {v: tables[v] for v in sorted(tables, key=index.__getitem__) if tables[v] != {v: 1}},
        {
            fam: templates[fam]
            for fam in sorted(templates, key=row_major)
            if templates[fam] != ((1, fam),)
        },
    )


def _quotient_onto(graph: AmpGraph, target: AmpGraph, removed: Iterable[str]) -> GeneratorMap:
    """:meth:`GeneratorMap.quotient` onto ``target``, the quotient graph already cut.

    The families at the removed vertices are read off their neighbours.
    """
    removed = tuple(removed)
    return _label_map(
        graph,
        target,
        {v: {} for v in removed},
        dict.fromkeys(graph.families_at(removed), ()),
    )


class _Patch(NamedTuple):
    """A map's graphs and patch, in :class:`GeneratorMap`'s field order.

    What :func:`compose_tables` returns; ``_label_map(*patch)`` validates
    it into a map.
    """

    source: AmpGraph
    target: AmpGraph
    vertex_patch: dict
    family_patch: dict


def _edge_image(m, e: EdgeRef) -> CKElement:
    """``m(s_e)``: the family template of ``e`` at its index, over ``m.target``."""
    fam = (e.src, e.dst)
    if fam not in m.source._mult:
        raise ValueError(f"no source family {e.src!r} -> {e.dst!r}")
    if e.index < 0:
        raise ValueError(f"negative edge index in {e!r}")
    acc: dict[CKWord, int] = {}
    for coeff, (src, dst) in _family_image(m, fam):
        acc[CKWord(Path(src, (EdgeRef(src, dst, e.index),)), Path(dst))] = coeff
    return CKElement._make(m.target, acc)


def _push(m, terms: Iterable[tuple[CKWord, int]]) -> CKElement:
    """``sum c m(w)`` over ``terms``, for the map or patch ``m``.

    A vertex word goes to the element of its table; any other word to the
    product of its letter images.
    """
    acc: dict[CKWord, int] = {}
    for w, c in terms:
        if w.is_vertex:
            for x, d in _vertex_image(m, w.alpha.base).items():
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
        for y, d in _vertex_image(m, x).items():
            acc[y] = acc.get(y, 0) + c * d
    return {y: c for y, c in acc.items() if c}


def _compose_template(outer, tpl: EdgeTemplate) -> EdgeTemplate:
    """The template ``tpl`` with each target family replaced by its ``outer`` template.

    A single family with coefficient 1 gives its ``outer`` template as it
    is; the templates of maps and patches are normalised already.
    """
    if len(tpl) == 1 and tpl[0][0] == 1:
        return _family_image(outer, tpl[0][1])
    return _normalize_template(
        (coeff * c2, out_fam)
        for coeff, mid in tpl
        for c2, out_fam in _family_image(outer, mid)
    )


def _check_composable(outer, inner) -> None:
    if inner.target != outer.source:
        raise ValueError("maps do not compose: inner target differs from outer source")


def compose_tables(outer, inner) -> _Patch:
    """The patch of ``outer . inner``, built without a map.

    ``outer`` and ``inner`` are generator maps or patches.  A generator
    ``inner`` does not move goes where ``outer`` sends its label, so the
    composite moves at most the generators ``inner`` moves, each pushed
    through ``outer``, and those ``outer`` moves among the labels of
    ``inner.source``.  Entries that come back to the same-label generator
    are dropped.  The result is valid whenever both inputs are.
    """
    _check_composable(outer, inner)
    src = inner.source
    vpatch = {v: _push_table(outer, table) for v, table in inner.vertex_patch.items()}
    for v, table in outer.vertex_patch.items():
        if v not in vpatch and v in src:
            vpatch[v] = table
    fpatch = {fam: _compose_template(outer, tpl) for fam, tpl in inner.family_patch.items()}
    for fam, tpl in outer.family_patch.items():
        if fam not in fpatch and fam in src._mult:
            fpatch[fam] = tpl
    return _Patch(
        src,
        outer.target,
        {v: table for v, table in vpatch.items() if table != {v: 1}},
        {fam: tpl for fam, tpl in fpatch.items() if tpl != ((1, fam),)},
    )


def compose(outer: GeneratorMap, inner: GeneratorMap) -> GeneratorMap:
    """The composite ``outer . inner`` as a single generator map."""
    return _label_map(*compose_tables(outer, inner))


def _section_identity_failure(section: GeneratorMap, quot: GeneratorMap) -> str | None:
    """The first generator of ``section.source`` that ``quot . section`` moves.

    The composite is the identity exactly when ``quot.target`` is
    ``section.source`` and the composed patch is empty.  Otherwise the
    first vertex of the patch in vertex order is reported, else its first
    family in row-major order, at index 0: a template is index-uniform, so
    one comparison covers every index.  When ``quot`` maps onto another
    graph the first source vertex is reported.  ``None`` when every
    generator is fixed.
    """
    _check_composable(quot, section)
    src = section.source
    if quot.target != src:
        return f"p[{src.vertices[0]}]" if src.vertices else None
    moved = compose_tables(quot, section)
    if moved.vertex_patch:
        return f"p[{min(moved.vertex_patch, key=src.index)}]"
    if moved.family_patch:
        a, b = min(moved.family_patch, key=lambda fam: (src.index(fam[0]), src.index(fam[1])))
        return f"s[{a}>{b}#0]"
    return None


def _range_counts(m: GeneratorMap) -> dict[str, VertexTable]:
    """The K_0 classes of the vertex images ``m`` moves, by source vertex.

    Every other source vertex ``v`` goes to ``p_v``, whose class is ``v``.
    An image ``sum_x d_x p_x`` is a sum of distinct, hence orthogonal,
    vertex projections exactly when every ``d_x`` is 1; its class is then
    its table.  Any other coefficient is refused, at the first such vertex
    in vertex order, naming its first such term in label order.
    """
    for v, table in m.vertex_patch.items():
        bad = [x for x, c in table.items() if c != 1]
        if bad:
            x = min(bad)
            raise ValueError(
                f"image of p[{v}] is not an orthogonal sum of path "
                f"projections: term {table[x]}*p[{x}]"
            )
    return dict(m.vertex_patch)


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

    def render(self) -> str:
        lines = []
        for c in self.checks:
            flag = "PASS" if c.passed else ("warn" if not c.required else "FAIL")
            lines.append(f"{flag:4} {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def _orthogonality_defect(m: GeneratorMap) -> tuple[str, str] | None:
    """The least pair ``(v, w)``, ``v`` before ``w``, with ``m(p_v) m(p_w) != 0``.

    Two sums of vertex projections multiply to zero exactly when no
    projection occurs in both.  Unmoved vertices go to distinct
    projections, so a failing pair shares a target vertex ``x`` that some
    moved table names; the users of ``x`` are those moved vertices and the
    unmoved vertex of label ``x``, if there is one.  For each ``x`` the
    first two users are the least.
    """
    src, patch = m.source, m.vertex_patch
    users: dict[str, list[int]] = {}
    for v, table in patch.items():
        for x in table:
            users.setdefault(x, []).append(src.index(v))
    failing = []
    for x, us in users.items():
        if x in src and x not in patch:
            us.append(src.index(x))
        if len(us) > 1:
            failing.append(tuple(sorted(us)[:2]))
    if not failing:
        return None
    a, b = min(failing)
    return src.vertices[a], src.vertices[b]


def _range_sums(tpl: EdgeTemplate) -> dict[str, int]:
    """``m(s_f^i)* m(s_f^i)`` as vertex -> coefficient: ``c_t^2`` summed over ``r(t)``."""
    out: dict[str, int] = {}
    for c, (_, dst) in tpl:
        out[dst] = out.get(dst, 0) + c * c
    return out


def _ck1_defect(
    m: GeneratorMap, sums: dict, into_moved: list
) -> tuple[tuple[str, str], tuple[str, str]] | None:
    """The least pair ``(f, g)`` with ``m(s_f^i)* m(s_g^i) != delta_fg m(p_r(f))``.

    ``sums`` holds the range sums of the moved templates, and
    ``into_moved`` the unmoved families into a moved vertex.
    ``m(s_f^i)* m(s_f^i)`` is the sum of vertex projections ``sums[f]``, so
    it equals ``m(p_r(f))`` exactly when that table has the same
    coefficients; an unmoved family has range sum ``p_r(f)``, so it fails
    exactly when its range vertex is moved.  A pair of distinct families
    can only fail when both templates use some target family, which two
    unmoved families never do.  An inverted index from each target family
    a moved template names to its users, the moved templates and the
    unmoved family of the same label, finds every candidate; its defect is
    a coefficient per range vertex.
    """
    failing = [(f, f) for f, got in sums.items() if got != _vertex_image(m, f[1])]
    failing += [(f, f) for f in into_moved]
    fpatch = m.family_patch
    users: dict[tuple[str, str], list[tuple[tuple[str, str], int]]] = {}
    for f, tpl in fpatch.items():
        for c, t in tpl:
            users.setdefault(t, []).append((f, c))
    cross: dict[tuple, dict[str, int]] = {}
    for t, fs in users.items():
        if t in m.source._mult and t not in fpatch:
            fs.append((t, 1))
        # sorted, so each pair below has f < g
        fs.sort()
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
    table = _vertex_image(m, fam[0])
    return all(table.get(t[0]) == 1 for _, t in _family_image(m, fam))


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

    Only the generators that can fail are examined (see the module
    docstring): the patch, the unmoved families at a moved vertex, and the
    unmoved generators whose labels the patch names.  Each detail names the
    same least pair or first generator in sorted order as a check of every
    generator would.
    """
    checks: list[Check] = []
    src = m.source
    vpatch, fpatch = m.vertex_patch, m.family_patch

    bad = next((v for v, table in vpatch.items() if any(c != 1 for c in table.values())), None)
    checks.append(
        Check(
            "vertex-projections",
            bad is None,
            "" if bad is None else f"image of p[{bad}] is not a projection",
        )
    )

    bad_pair = _orthogonality_defect(m)
    checks.append(
        Check(
            "vertex-orthogonality",
            bad_pair is None,
            "" if bad_pair is None else
            f"images of p[{bad_pair[0]}] and p[{bad_pair[1]}] are not orthogonal",
        )
    )

    sums = {fam: _range_sums(tpl) for fam, tpl in fpatch.items()}
    isometry = {fam: all(c == 1 for c in s.values()) for fam, s in sums.items()}

    bad_fam = min((fam for fam, ok in isometry.items() if not ok), default=None)
    checks.append(
        Check(
            "adjoint-compatibility",
            bad_fam is None,
            "" if bad_fam is None else
            f"image of s[{bad_fam[0]}>{bad_fam[1]}#i] is not a partial isometry",
        )
    )

    # the unmoved families at a moved vertex, each of which CK1 or CK2 may fail
    around = [fam for fam in src.families_at(vpatch) if fam not in fpatch]
    ck1_fail = _ck1_defect(m, sums, [fam for fam in around if fam[1] in vpatch])
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
    ck2_fail = min(
        (
            fam
            for fam in (*fpatch, *around)
            if not isometry.get(fam, True) or not _range_under(m, fam)
        ),
        default=None,
    )
    checks.append(
        Check(
            "ck2",
            ck2_fail is None,
            "" if ck2_fail is None else
            f"m(s) m(s)* not under m(p[{ck2_fail[0]}]) for family {ck2_fail}",
        )
    )

    # each unmoved vertex adds 1 at its own label, which the target has
    sums_at: dict[str, int] = {}
    for table in vpatch.values():
        for x, c in table.items():
            sums_at[x] = sums_at.get(x, 0) + c
    ones = len(src.vertices) - len(vpatch)
    unital = True
    for x, c in sums_at.items():
        if x in src and x not in vpatch:
            ones -= 1
            c += 1
        if c == 1:
            ones += 1
        elif c:
            unital = False
    unital = unital and ones == len(m.target.vertices)
    checks.append(
        Check(
            "unital",
            unital,
            "" if unital else "vertex images do not sum to the target unit",
            required=require_unital,
        )
    )

    return VerificationReport(tuple(checks))
