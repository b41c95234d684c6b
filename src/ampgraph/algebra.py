"""Generator maps between amplified graph algebras and their relation checks.

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
image's K_0 class are decided on them.  Only :meth:`GeneratorMap.apply`
turns a table back into an element, when a word is pushed through the map;
it alone loads the word arithmetic of :mod:`ampgraph.words`.
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
given entry by entry and the unmoved labels by what the target lacks of
the source: on a removal chain, whose graphs share their tables, the bits
of the removed vertices and the families at them.

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
vertices as the target has.  :func:`verify_ck_family` reads each of these
once: one pass over the moved tables, one over the moved templates, one
over the unmoved families at a moved vertex the target keeps (at a vertex
the target lacks every family is moved, or the map is refused), then the
users of each target vertex and family.  Composition and the section
identity work on patches too: a composite moves only what its inner map
moves and what its outer map moves among the inner map's labels.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import _EXPORTS, _Frozen
from .graphs import OMEGA, AmpGraph

if TYPE_CHECKING:
    from .words import CKElement, CKWord, EdgeRef


def __getattr__(name: str):
    """The word layer's public names, from :mod:`ampgraph.words`, loaded on first access."""
    if name in _EXPORTS["words"]:
        from . import words

        return getattr(words, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# generator maps


#: A family template: formal sum of target family symbols, all carrying the
#: same symbolic parallel-edge index as the input edge.
EdgeTemplate = tuple[tuple[int, tuple[str, str]], ...]


def _normalize_template(entries: Iterable[tuple[int, tuple[str, str]]]) -> EdgeTemplate:
    """Sum repeated families, drop zero coefficients and sort by family."""
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
    """Refuse a template of ``fam`` that uses a family ``target`` lacks.

    A family ``target`` keeps is OMEGA, the graph being amplified; a missing
    one is looked up again, so an unknown end is named first.
    """
    for _, (src, dst) in tpl:
        if not target.has_family(src, dst) and target.multiplicity(src, dst) is not OMEGA:
            raise ValueError(
                f"template for {fam} uses missing target family "
                f"{src!r} -> {dst!r}"
            )


class GeneratorMap(_Frozen):
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
    Maps are equal when their graphs and patches are; a map is immutable
    and, holding dicts, unhashable.
    """

    __slots__ = _fields = ("source", "target", "vertex_patch", "family_patch")

    def __init__(self, source: AmpGraph, target: AmpGraph, vertex_images: dict, edge_images: dict) -> None:
        vimgs, eimgs = dict(vertex_images), dict(edge_images)
        if vimgs.keys() != set(source.vertices):
            raise ValueError("vertex images must cover exactly the source vertices")
        if eimgs.keys() != {(a, b) for a, b, _ in source.edges}:
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
    _Frozen.__init__(m, source=source, target=target, vertex_patch=vertex_patch, family_patch=family_patch)


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
    with ``-`` and an empty sum is ``0``.  :meth:`ampgraph.words.CKElement.render`
    and every row of :meth:`GeneratorMap.render_table` are written by it.
    """
    text = " + ".join(body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}" for c, body in terms)
    return text.replace("+ -", "- ") if text else "0"


def _label_map(source: AmpGraph, target: AmpGraph, vertices: dict, families: dict,
               lacked: tuple | None = None) -> GeneratorMap:
    """The map sending each generator of ``source`` to the same-label one of ``target``.

    ``vertices`` and ``families`` give the vertex images and family
    templates of the generators it moves instead; ``lacked``, when given,
    is ``source.lacks(target)``, already in hand.
    """
    m = object.__new__(GeneratorMap)
    _fill(m, source, target, *_patch(source, target, vertices, families, lacked))
    return m


def _patch(source: AmpGraph, target: AmpGraph, vertices: dict, families: dict,
           lacked: tuple | None = None) -> tuple[dict, dict]:
    """The validated patch of the images ``vertices`` and ``families``, the rest fixed.

    The images given are validated one by one, and the unmoved labels by
    the vertices and families of ``source`` that ``target`` lacks, a mask
    difference when the two graphs share their tables (``lacked``, when the
    caller has listed them).  A refusal names the first offending vertex in
    vertex order, or else the first offending family in row-major order.
    Images that equal the same-label generator are left out of the patch.
    """
    if not source.is_amplified or not target.is_amplified:
        raise ValueError("generator maps require amplified graphs")
    gone, lost = source.lacks(target) if lacked is None else lacked
    errors: dict = {v: ValueError(f"image of p[{v}] names unknown vertex {v!r}")
                    for v in gone if v not in vertices}
    tables = {}
    for v, img in vertices.items():
        try:
            tables[v] = _vertex_table(target, v, img)
        except ValueError as exc:
            errors[v] = exc
    if errors:
        raise errors[min(errors, key=lambda v: source.index(v) if v in source else len(source))]
    if not all(map(source.__contains__, tables)):
        raise ValueError("vertex images must cover exactly the source vertices")
    templates = {fam: _normalize_template(tpl) if tpl else () for fam, tpl in families.items()}
    if not all(source.has_family(*fam) for fam in templates):
        raise ValueError("edge templates must cover exactly the source families")
    unmoved = {fam: ((1, fam),) for fam in lost if fam not in templates}
    for fam, tpl in (*unmoved.items(), *templates.items()):
        try:
            _check_template(target, fam, tpl)
        except ValueError as exc:
            errors[fam] = exc
    at = source.vertex_order
    row_major = lambda fam: (at(fam[0]), at(fam[1]))  # noqa: E731
    if errors:
        raise errors[min(errors, key=row_major)]
    return (
        {v: tables[v] for v in sorted(tables, key=at) if tables[v] != {v: 1}},
        {
            fam: templates[fam]
            for fam in sorted(templates, key=row_major)
            if templates[fam] != ((1, fam),)
        },
    )


def _quotient_onto(graph: AmpGraph, target: AmpGraph, removed: Iterable[str]) -> GeneratorMap:
    """:meth:`GeneratorMap.quotient` onto ``target``, the quotient graph already cut.

    The families at the removed vertices are read off their neighbours, by
    the one listing of what ``target`` lacks when that is the removed set,
    and the validation is handed that listing.
    """
    removed = tuple(removed)
    lacked = gone, lost = graph.lacks(target)
    if set(gone) != set(removed):
        lost = graph.families_at(removed)
    return _label_map(graph, target, {v: {} for v in removed}, dict.fromkeys(lost, ()), lacked)


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
    from .words import CKElement, CKWord, EdgeRef, Path

    fam = (e.src, e.dst)
    if not m.source.has_family(*fam):
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
    from .words import CKElement, projection_word

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
    """The template ``tpl`` with each target family replaced by its ``outer`` template."""
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
        if fam not in fpatch and src.has_family(*fam):
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
    at = src.vertex_order
    if moved.vertex_patch:
        return f"p[{min(moved.vertex_patch, key=at)}]"
    if moved.family_patch:
        a, b = min(moved.family_patch, key=lambda fam: (at(fam[0]), at(fam[1])))
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
                f"projections: term {_render_sum([(table[x], f'p[{x}]')])}"
            )
    return dict(m.vertex_patch)


# ---------------------------------------------------------------------------
# verification


class Check(NamedTuple):
    """One verification item; optional items never veto the report."""

    name: str
    passed: bool
    detail: str = ""
    required: bool = True


class VerificationReport(NamedTuple):
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
    ``sum c_t^2 p_r(t)`` of a family with the table of its range vertex,
    CK2 asks the table of its source vertex for coefficient 1 at the source
    of each ``t``, and the map is unital when the tables sum to 1 on every
    target vertex and 0 elsewhere.  No gauge check is made: a table has
    degree 0 and a template degree 1, so every map that can be written
    down is gauge-equivariant.

    Only the generators that can fail are examined (see the module
    docstring), each once.  One pass over the moved tables collects the
    projection defect, the users of each target vertex and the unit sums;
    one pass over the moved templates collects the range sums, the
    isometry, CK1 and CK2 defects and the users of each target family; one
    pass over the unmoved families at a moved vertex the target keeps adds
    their CK1 and CK2 defects (a vertex the target lacks has every family
    moved, or the map would have been refused).  The users then give the
    orthogonality, cross CK1 and unital verdicts.  Each detail names the
    same least pair or first generator in sorted order as a check of every
    generator would: the orthogonality pair in vertex order, the others by
    label.
    """
    src, target = m.source, m.target
    vpatch, fpatch = m.vertex_patch, m.family_patch
    at = src.vertex_order

    not_projection = None
    # target vertex -> the (position, label) of each moved table naming it, and its sum
    users: dict[str, list[tuple[int, str]]] = {}
    sums_at: dict[str, int] = {}
    for v, table in vpatch.items():
        user = (at(v), v)
        for x, c in table.items():
            if c != 1 and not_projection is None:
                not_projection = v
            users.setdefault(x, []).append(user)
            sums_at[x] = sums_at.get(x, 0) + c

    not_isometry, ck1, ck2 = [], [], []
    # target family -> the (family, coefficient) of each moved template naming it
    fam_users: dict[tuple[str, str], list[tuple[tuple[str, str], int]]] = {}
    for f, tpl in fpatch.items():
        # the range sums, and whether the source table holds each source with 1
        ranges: dict[str, int] = {}
        under, held = vpatch.get(f[0], {f[0]: 1}), True
        for c, t in tpl:
            ranges[t[1]] = ranges.get(t[1], 0) + c * c
            held = held and under.get(t[0]) == 1
            fam_users.setdefault(t, []).append((f, c))
        isometry = set(ranges.values()) <= {1}
        if not isometry:
            not_isometry.append(f)
        if ranges != vpatch.get(f[1], {f[1]: 1}):
            ck1.append((f, f))
        # m(s) m(s)* is a projection exactly when m(s) is a partial isometry
        if not (isometry and held):
            ck2.append(f)

    # an unmoved family goes to itself: CK1 fails into a moved vertex, CK2
    # out of one whose table lacks its own projection
    for f in src.families_at([v for v in vpatch if v in target]):
        if f not in fpatch:
            if f[1] in vpatch:
                ck1.append((f, f))
            if f[0] in vpatch and vpatch[f[0]].get(f[0]) != 1:
                ck2.append(f)

    cross: dict[tuple, dict[str, int]] = {}
    for t, fs in fam_users.items():
        if t not in fpatch and src.has_family(*t):
            fs.append((t, 1))
        # sorted, so each pair below has f < g
        for (f, cf), (g, cg) in combinations(sorted(fs), 2):
            acc = cross.setdefault((f, g), {})
            acc[t[1]] = acc.get(t[1], 0) + cf * cg
    ck1 += [pair for pair, acc in cross.items() if any(acc.values())]

    # each unmoved vertex adds 1 at its own label, which the target has
    collided = []
    ones = len(src) - len(vpatch)
    unital = True
    for x, us in users.items():
        c = sums_at[x]
        if x in src and x not in vpatch:
            us.append((at(x), x))
            ones -= 1
            c += 1
        if len(us) > 1:
            collided.append(sorted(us)[:2])
        if c == 1:
            ones += 1
        elif c:
            unital = False
    unital = unital and ones == len(target)

    pair = min(collided, default=None)
    bad_fam = min(not_isometry, default=None)
    ck1_fail = min(ck1, default=None)
    ck2_fail = min(ck2, default=None)
    return VerificationReport((
        Check("vertex-projections", not_projection is None, "" if not_projection is None else
              f"image of p[{not_projection}] is not a projection"),
        Check("vertex-orthogonality", pair is None, "" if pair is None else
              f"images of p[{pair[0][1]}] and p[{pair[1][1]}] are not orthogonal"),
        Check("adjoint-compatibility", bad_fam is None, "" if bad_fam is None else
              f"image of s[{bad_fam[0]}>{bad_fam[1]}#i] is not a partial isometry"),
        Check("ck1", ck1_fail is None, "" if ck1_fail is None else
              f"m(s)* m(s') defect for families {ck1_fail[0]} , {ck1_fail[1]} (same index)"),
        Check("ck2", ck2_fail is None, "" if ck2_fail is None else
              f"m(s) m(s)* not under m(p[{ck2_fail[0]}]) for family {ck2_fail}"),
        Check("unital", unital, "" if unital else "vertex images do not sum to the target unit",
              required=require_unital),
    ))
