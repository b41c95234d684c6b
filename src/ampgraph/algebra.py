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
a sink removal sends a vertex projection to such a sum.  A family template
is the same kind of table, ``{target family: coefficient}``, so one lookup
and one push serve both; only the :class:`GeneratorMap` constructor, which
takes each template as ``(coefficient, family)`` pairs, and
``edge_images``, which returns them sorted by family, use pairs.  Only
this module reads those tables.  The relation checks, the section identity
and each image's K_0 class are decided on them.  Only
:meth:`GeneratorMap.apply` turns a table back into an element, when a word
is pushed through the map; it alone loads the word arithmetic of
:mod:`ampgraph.words`.
A table has gauge degree 0 and a template gauge degree 1, so every map
that can be written down commutes with the gauge action, and no check for
it could fail.

A map is stored as the identity on labels plus a *patch*: the vertex
tables and family templates that differ from the same-label generator of
the target.  The section of a sink removal moves only the star and the
families into it, and the quotient map only the sink and the families into
it, so a patch is a few entries where the map has hundreds of generators.
The constructor diffs full tables into one, and a validator checks the
images a caller gives and the unmoved labels by what the target lacks of
the source.  A map derived from its graphs is built as it stands
(:func:`_from_patch`): a step's section is filled once the families it
names are checked, and a quotient map kills what its target lacks, so it
stores only its two graphs and builds each half of its patch when first
read; it decides once whether its target is a hereditary cut of its source,
and its relation check passes such a cut on that verdict, which its patch
also reads; the section identity asks its target what it keeps.

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
over the rows of the moved vertices the target keeps, which name the
unmoved families there that fail and no other (at a vertex the target
lacks every family is moved, or the map is refused), then the users of
each target vertex and family.  Composition and the section
identity work on patches too: a composite moves only what its inner map
moves and what its outer map moves among the inner map's labels.  Every
composite, :func:`compose`'s included, is folded by :func:`_fold_into`; a
removal chain's prefix composites are one fold over its sections' patches,
updated in place (:func:`_prefix_fold`); at each sink it drops the
templates it holds there, so no step's quotient map lists a family.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from . import _EXPORTS, _Frozen, _built
from .graphs import AmpGraph

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


#: A vertex image: the target vertices of ``sum_x d_x p_x`` with their
#: nonzero coefficients ``d_x``.  A family template is the same kind of table,
#: ``{target family: c_t}`` for ``sum_t c_t s_t^i``.
VertexTable = dict[str, int]


def _template_table(fam: tuple[str, str], entries: Iterable[tuple[int, tuple[str, str]]]) -> dict:
    """The ``(coefficient, family)`` pairs of ``fam``'s template as its table: repeats summed,
    zeros dropped; an entry that is no such pair, with an int coefficient and a pair of labels, is refused."""
    if not isinstance(entries, Iterable):
        raise ValueError(f"template for {fam} must be (coefficient, family) pairs, not {type(entries).__name__}")
    acc: dict[tuple[str, str], int] = {}
    for entry in entries:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            raise ValueError(f"template for {fam} has entry {entry!r}, not a (coefficient, family) pair")
        coeff, t = entry
        if type(coeff) is not int:
            raise ValueError(f"template for {fam} has coefficient {coeff!r} at {t!r}, not an int")
        if not (isinstance(t, tuple) and len(t) == 2 and all(isinstance(x, str) for x in t)):
            raise ValueError(f"template for {fam} names {t!r}, not a pair of vertex labels")
        acc[t] = acc.get(t, 0) + coeff
    return {t: c for t, c in acc.items() if c != 0}


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


def _check_template(target: AmpGraph, fam: tuple[str, str], tpl: dict) -> None:
    """Refuse a template of ``fam`` that uses a family ``target`` lacks.

    The first missing one in label order is looked up again, so an unknown
    end is named first.
    """
    for src, dst in tpl:
        if not target.has_family(src, dst):
            src, dst = min(t for t in tpl if not target.has_family(*t))
            target.multiplicity(src, dst)
            raise ValueError(f"template for {fam} uses missing target family {src!r} -> {dst!r}")


class GeneratorMap(_Frozen):
    """A candidate *-homomorphism given by generator images.

    The constructor takes ``vertex_images``, sending each source vertex to
    its table ``{target vertex: coefficient}``, the sum of target vertex
    projections its projection maps to, and ``edge_images``, sending each
    source edge family to a template, instantiated index-uniformly, given
    as ``(coefficient, target family)`` pairs.  The map keeps only its
    *patch*: ``vertex_patch`` and ``family_patch`` hold the images that
    differ from the same-label generator of the target, in vertex and
    row-major family order, each as a table, ``{target family: coefficient}``
    for a template, and every other generator goes to the generator of its
    own label.  ``vertex_images`` and ``edge_images`` build the full tables
    on each access, each template as its pairs sorted by family.  Nothing
    here promises the data is an actual homomorphism;
    :func:`verify_ck_family` checks that.  A quotient map builds each half
    of its patch when first read.  Maps are equal when their graphs and
    patches are; a map is immutable and, holding dicts, unhashable.
    """

    #: and ``_quotient``: whether the map kills what its target lacks and fixes the rest
    _fields = ("source", "target", "vertex_patch", "family_patch")

    def __init__(self, source: AmpGraph, target: AmpGraph, vertex_images: dict, edge_images: dict) -> None:
        vimgs, eimgs = dict(vertex_images), dict(edge_images)
        if vimgs.keys() != set(source.vertices):
            raise ValueError("vertex images must cover exactly the source vertices")
        if eimgs.keys() != {(a, b) for a, b, _ in source.edges}:
            raise ValueError("edge templates must cover exactly the source families")
        tables = {fam: _template_table(fam, tpl) for fam, tpl in eimgs.items()}
        _fill(self, source, target, *_patch(source, target, vimgs, tables))

    @_built
    def _cut(self) -> tuple[str, ...] | None:
        """A quotient map's killed vertices when its target is a hereditary cut of its source,
        else ``None``: decided once per map, for its relation check and its patch."""
        return self.source.hereditary_cut(self.target)

    @_built
    def vertex_patch(self) -> dict:
        """A quotient map's killed vertices, by its cut where one decides, else by a listing;
        every other map stores both halves of its patch, which shadow these."""
        cut = self._cut
        return {v: {} for v in (self.source.lacks(self.target)[0] if cut is None else cut)}

    @_built
    def family_patch(self) -> dict:
        """A quotient map's killed families, by a listing."""
        return {fam: {} for fam in self.source.lacks(self.target)[1]}

    @property
    def vertex_images(self) -> dict:
        """Every source vertex's table, a copy of the patch's or the same-label ``{v: 1}``."""
        return {v: dict(_image(self.vertex_patch, v)) for v in self.source.vertices}

    @property
    def edge_images(self) -> dict:
        """Every source family's template as ``(coefficient, family)`` pairs, sorted by family."""
        images = {(a, b): ((1, (a, b)),) for a, b, _ in self.source.edges}
        for fam, tpl in self.family_patch.items():
            images[fam] = tuple((c, t) for t, c in sorted(tpl.items()))
        return images

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
        return _quotient_onto(graph, graph.quotient(removed))

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
            table = sorted(_image(self.vertex_patch, v).items())
            rows[f"p[{v}]"] = _render_sum((c, f"p[{x}]") for x, c in table)
        for src, dst, _ in self.source.families():
            tpl = sorted(_image(self.family_patch, (src, dst)).items())
            rows[f"s[{src}>{dst}#i]"] = _render_sum((c, f"s[{a}>{b}#i]") for (a, b), c in tpl)
        return rows


def _fill(m: GeneratorMap, source: AmpGraph, target: AmpGraph, vertex_patch: dict, family_patch: dict) -> None:
    """Store a validated patch on ``m``; every map but a quotient map is made through here."""
    _Frozen.__init__(m, source=source, target=target, vertex_patch=vertex_patch, family_patch=family_patch,
                     _quotient=False)


def _from_patch(source: AmpGraph, target: AmpGraph, vertex_patch: dict, family_patch: dict) -> GeneratorMap:
    """The map with this patch, taken as valid: vertex and row-major family order, no identity entry."""
    m = object.__new__(GeneratorMap)
    _fill(m, source, target, vertex_patch, family_patch)
    return m


def _image(patch: dict, label) -> dict:
    """The table of the generator ``label`` under a map with ``patch``: the patch's, or ``{label: 1}``."""
    table = patch.get(label)
    return {label: 1} if table is None else table


def _render_sum(terms: Iterable[tuple[int, str]]) -> str:
    """The sum of ``c * body`` over ``terms``, in their order, as every rendering writes it.

    A term reads ``body``, ``-body`` or ``c*body``, a negative term is joined
    with ``-`` and an empty sum is ``0``.  :meth:`ampgraph.words.CKElement.render`
    and every row of :meth:`GeneratorMap.render_table` are written by it.
    """
    text = " + ".join(body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}" for c, body in terms)
    return text.replace("+ -", "- ") if text else "0"


def _label_map(source: AmpGraph, target: AmpGraph, vertices: dict, families: dict) -> GeneratorMap:
    """The map sending each generator of ``source`` to the same-label one of ``target``.

    ``vertices`` and ``families`` give the vertex tables and template
    tables of the generators it moves instead; :func:`_patch` validates them.
    """
    return _from_patch(source, target, *_patch(source, target, vertices, families))


def _patch(source: AmpGraph, target: AmpGraph, vertices: dict, families: dict) -> tuple[dict, dict]:
    """The validated patch of the images ``vertices`` and ``families``, the rest fixed.

    The images given are validated one by one, and the unmoved labels by
    the vertices and families of ``source`` that ``target`` lacks, a mask
    difference when the two graphs share their tables.  A refusal names
    the first offending vertex in vertex order, or else the first offending
    family in row-major order.  Images that equal the same-label generator
    are left out of the patch.
    """
    if not source.is_amplified or not target.is_amplified:
        raise ValueError("generator maps require amplified graphs")
    gone, lost = source.lacks(target)
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
    unmoved = {fam: {fam: 1} for fam in lost if fam not in families}
    for fam, tpl in (*unmoved.items(), *families.items()):
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
        {fam: families[fam] for fam in sorted(families, key=row_major) if families[fam] != {fam: 1}},
    )


def _quotient_onto(graph: AmpGraph, target: AmpGraph) -> GeneratorMap:
    """:meth:`GeneratorMap.quotient` onto ``target``, a quotient of ``graph`` already cut.

    The map kills every vertex and family ``target`` lacks and fixes the
    rest, so the two graphs determine it and it is valid as built.  It
    stores only them: its patch, the zero tables of what
    ``graph.lacks(target)`` lists in vertex and row-major order, is built
    half by half when first read, the vertices from the map's cut where it
    is hereditary; neither :func:`verify_ck_family` on a hereditary cut nor
    :func:`_section_identity_failure` reads it.
    """
    if not graph.is_amplified:
        raise ValueError("generator maps require amplified graphs")
    m = object.__new__(GeneratorMap)
    _Frozen.__init__(m, source=graph, target=target, _quotient=True)
    return m


def _edge_image(m, e: EdgeRef) -> CKElement:
    """``m(s_e)``: the family template of ``e`` at its index, over ``m.target``."""
    from .words import CKElement, CKWord, EdgeRef, Path

    fam = (e.src, e.dst)
    if not m.source.has_family(*fam):
        raise ValueError(f"no source family {e.src!r} -> {e.dst!r}")
    if e.index < 0:
        raise ValueError(f"negative edge index in {e!r}")
    acc: dict[CKWord, int] = {}
    for (src, dst), coeff in _image(m.family_patch, fam).items():
        acc[CKWord(Path(src, (EdgeRef(src, dst, e.index),)), Path(dst))] = coeff
    return CKElement._make(m.target, acc)


def _push(m, terms: Iterable[tuple[CKWord, int]]) -> CKElement:
    """``sum c m(w)`` over ``terms``, for the map ``m``.

    A vertex word goes to the element of its table; any other word to the
    product of its letter images.
    """
    from .words import CKElement, projection_word

    acc: dict[CKWord, int] = {}
    for w, c in terms:
        if w.is_vertex:
            for x, d in _image(m.vertex_patch, w.alpha.base).items():
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


def _check_composable(outer, inner) -> None:
    if inner.target != outer.source:
        raise ValueError("maps do not compose: inner target differs from outer source")


def compose_tables(outer: GeneratorMap, inner: GeneratorMap) -> tuple[dict, dict]:
    """The vertex and family patches of ``outer . inner``, built without a map.

    :func:`_fold_into` folds ``outer``'s patch and then ``inner``'s into new
    tables with no sink, vertex tables and templates alike: a generator
    ``inner`` does not move keeps ``outer``'s table of its label, and one it
    moves gets its table pushed through ``outer``.  Labels ``inner.source``
    lacks and entries that equal the same-label generator are dropped.  The
    maps are taken to compose; the result is valid whenever both are.
    """
    tables: dict = {}
    templates: dict = {}
    for m in (outer, inner):
        _fold_into(tables, m.vertex_patch, None)
        _fold_into(templates, m.family_patch, None)
    return (
        {v: table for v, table in tables.items() if v in inner.source and table != {v: 1}},
        {f: tpl for f, tpl in templates.items() if inner.source.has_family(*f) and tpl != {f: 1}},
    )


def compose(outer: GeneratorMap, inner: GeneratorMap) -> GeneratorMap:
    """The composite ``outer . inner`` as a single generator map."""
    _check_composable(outer, inner)
    return _label_map(inner.source, outer.target, *compose_tables(outer, inner))


def _add_into(acc: dict, c: int, table: dict) -> None:
    """Add ``c`` times ``table`` into ``acc`` in place, dropping the entries that cancel."""
    for y, d in table.items():
        z = acc.get(y, 0) + c * d
        if z:
            acc[y] = z
        else:
            del acc[y]


def _fold_into(prefix: dict, moved: dict, sink) -> None:
    """Replace each moved ``prefix[u]`` by ``sum c prefix[x]`` over the terms ``{x: c}`` of ``moved[u]``.

    A label the prefix does not hold stands for ``{x: 1}``.  A held table
    was built here, so it is added into in place when its terms name ``u``
    with coefficient 1, no moved table names another moved label and
    ``sink``, the vertex the map removes or ``None`` if it removes none, is
    not moved.  Any other moved label gets a new table, written only after
    every table has been read.
    """
    closed = sink not in moved and (
        len(moved) < 2 or all(x == u or x not in moved for u, terms in moved.items() for x in terms))
    fresh = {}
    for u, terms in moved.items():
        acc = prefix.get(u)
        in_place = closed and acc is not None and terms.get(u) == 1
        if not in_place:
            fresh[u] = acc = {}
        for x, c in terms.items():
            if x != u or not in_place:
                table = prefix.get(x)
                _add_into(acc, c, {x: 1} if table is None else table)
    if fresh:
        prefix.update(fresh)


def _prefix_fold(steps: Iterable[tuple]) -> Iterator:
    """The prefix composites ``P_i = m_1 . ... . m_i`` of a chain of maps, folded in place.

    Each step is ``(sink, tables, templates)``: the vertex ``m_i`` removes,
    a sink of its source, and the vertex tables and family templates ``m_i``
    moves, keyed by labels of its source, which lacks the sink and every
    family into it.  For each step the fold yields the table of ``P_(i-1)``
    at ``sink``, read before the step; last, the vertex tables and template
    tables of the final prefix, identity entries included, for
    :func:`_label_map`.
    A label the prefix does not hold goes to itself.  A step that moves one
    vertex, naming itself with coefficient 1 as every section's star does,
    adds the tables its other terms name into the star's in place, so it
    moves the entries of the tables it drops and never the star's growing
    one.  Only tables built here are added into: no step's table, and no
    yielded table afterwards.  At each sink it drops the sink's table and the
    templates it holds into the sink, indexed by range vertex as written.
    """
    tables: dict = {}
    templates: dict = {}
    into: dict = {}  # range vertex -> the families of the templates held into it
    for sink, vmoved, fmoved in steps:
        held = tables.get(sink)
        yield {sink: 1} if held is None else held
        _fold_into(tables, vmoved, sink)
        if fmoved:
            for f in fmoved.keys() - templates.keys():
                into.setdefault(f[1], []).append(f)
            _fold_into(templates, fmoved, sink)
        tables.pop(sink, None)
        for f in into.pop(sink, ()):
            del templates[f]
    yield tables, templates


def _fold_sections(source: AmpGraph, target: AmpGraph, steps: Iterable[tuple]) -> GeneratorMap:
    """The composite ``m_1 . m_2 . ...`` of the sections of the steps ``(sink, m_i)``, by :func:`_prefix_fold`."""
    *_, (tables, templates) = _prefix_fold((sink, m.vertex_patch, m.family_patch) for sink, m in steps)
    return _label_map(source, target, tables, templates)


def _section_identity_failure(section: GeneratorMap, quot: GeneratorMap) -> str | None:
    """The first generator of ``section.source`` that ``quot . section`` moves.

    The composite is the identity exactly when ``quot.target`` is
    ``section.source`` and the composed patch is empty.  Otherwise the
    first vertex of the patch in vertex order is reported, else its first
    family in row-major order, at index 0: a template is index-uniform, so
    one comparison covers every index.  When ``quot`` maps onto another
    graph the first source vertex is reported.  ``None`` when every
    generator is fixed.

    A quotient map (:func:`_quotient_onto`) kills the labels its source has
    and ``section.source`` lacks, and fixes the rest, so ``x`` is fixed
    exactly when its table under ``section``, those entries dropped, is
    ``{x: 1}``: ``quot``'s patch is never built, and a label ``quot``'s
    source lacks still fails.  Any other ``quot`` is composed patch by patch.
    """
    _check_composable(quot, section)
    src = section.source
    if quot.target != src:
        return f"p[{src.vertices[0]}]" if src.vertices else None
    if quot._quotient:
        whole = quot.source
        vpatch = [v for v, table in section.vertex_patch.items() if table.get(v) != 1 or any(
            x != v and (x in src or x not in whole) for x in table)]
        fpatch = [f for f, tpl in section.family_patch.items() if tpl.get(f) != 1 or any(
            t != f and (src.has_family(*t) or not whole.has_family(*t)) for t in tpl)]
    else:
        vpatch, fpatch = compose_tables(quot, section)
    at = src.vertex_order
    if vpatch:
        return f"p[{min(vpatch, key=at)}]"
    if fpatch:
        a, b = min(fpatch, key=lambda fam: (at(fam[0]), at(fam[1])))
        return f"s[{a}>{b}#0]"
    return None


def _range_counts(m: GeneratorMap) -> dict[str, VertexTable]:
    """The K_0 classes of the vertex images ``m`` moves, by source vertex.

    Every other source vertex ``v`` goes to ``p_v``, whose class is ``v``.
    An image ``sum_x d_x p_x`` is a sum of distinct, hence orthogonal,
    vertex projections exactly when every ``d_x`` is 1; its class is then
    its table.  Any other coefficient is refused, at the first such vertex
    in vertex order, naming its first such term in label order.  The patch
    itself is returned, not a copy: the K_0 checks only read it.
    """
    for v, table in m.vertex_patch.items():
        bad = [x for x, c in table.items() if c != 1]
        if bad:
            x = min(bad)
            raise ValueError(
                f"image of p[{v}] is not an orthogonal sum of path "
                f"projections: term {_render_sum([(table[x], f'p[{x}]')])}"
            )
    return m.vertex_patch


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
        return not [c for c in self.checks if not c.passed and c.required]

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
      every ``t`` in a template is a family of the target, and for each the
      ``c_u^2`` with ``r(u) = r(t)`` sum to 1,
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
    pass over the rows of the moved vertices the target keeps adds the CK1
    and CK2 defects of the unmoved families there, listing no other
    (:func:`_unmoved_defects`; a vertex the target lacks has every family
    moved, or the map would have been refused).  The users then give the
    orthogonality, cross CK1 and unital verdicts.  Each detail names the
    same least pair or first generator in sorted order as a check of every
    generator would: the orthogonality pair in vertex order, the others by
    label.  A map that passes all six gets the one shared report for its
    ``require_unital``, built once by the function that builds the others.
    A quotient map onto a hereditary cut of its source, which the map
    decides once, gets it without reading its patch: every family it kills
    ends at a killed vertex (CK1), and it fixes all its target has
    (unital).  Any other map is walked.
    """
    src, target = m.source, m.target
    if m._quotient and m._cut is not None:
        return _PASSED[require_unital]
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
        under, held, present = vpatch.get(f[0], {f[0]: 1}), True, True
        for t, c in tpl.items():
            ranges[t[1]] = ranges.get(t[1], 0) + c * c
            held = held and under.get(t[0]) == 1
            present = present and target.has_family(*t)
            fam_users.setdefault(t, []).append((f, c))
        # a family the target lacks is no partial isometry of it
        isometry = present and set(ranges.values()) <= {1}
        if not isometry:
            not_isometry.append(f)
        if ranges != vpatch.get(f[1], {f[1]: 1}):
            ck1.append((f, f))
        # m(s) m(s)* is a projection exactly when m(s) is a partial isometry
        if not (isometry and held):
            ck2.append(f)

    unmoved = _unmoved_defects(src, target, vpatch, fpatch)
    ck1 += unmoved[0]
    ck2 += unmoved[1]

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

    if unital and not_projection is None and not (collided or not_isometry or ck1 or ck2):
        return _PASSED[require_unital]
    return _ck_report(not_projection, min(collided, default=None), min(not_isometry, default=None),
                      min(ck1, default=None), min(ck2, default=None), unital, require_unital)


def _unmoved_defects(src: AmpGraph, target: AmpGraph, vpatch: dict, fpatch: dict) -> tuple[list, list]:
    """The CK1 pairs and CK2 families at which the unmoved families fail, read off rows.

    An unmoved family goes to itself, so CK1 fails into a moved vertex and
    CK2 out of one whose table lacks its own projection.  Each has an end at
    a moved vertex the target keeps: it is that vertex's in-neighbour, or
    its successor, less the other ends of the templates moved there.  The
    rows are read under the mask, and only failing families are listed.
    """
    ck1, ck2 = [], []
    kept = [v for v in vpatch if v in target]
    if not kept:
        return ck1, ck2
    into: dict[str, list[str]] = {}
    for a, b in fpatch:
        into.setdefault(b, []).append(a)
    for v in kept:
        for u in src._neighbours_less(v, into.get(v, ()), True):
            ck1.append(((u, v), (u, v)))
            if u in vpatch and vpatch[u].get(u) != 1:
                ck2.append((u, v))
    short = [v for v in kept if vpatch[v].get(v) != 1]
    if short:
        out_of: dict[str, list[str]] = {}
        for a, b in fpatch:
            out_of.setdefault(a, []).append(b)
        # a successor that is kept and moved was counted at its range
        counted = set(kept)
        for v in short:
            ck2 += [(v, w) for w in src._neighbours_less(v, out_of.get(v, ()), False) if w not in counted]
    return ck1, ck2


def _ck_report(not_projection, pair, bad_fam, ck1_fail, ck2_fail, unital: bool,
               require_unital: bool) -> VerificationReport:
    """The six checks of :func:`verify_ck_family`, from the first offender of each (``None`` for none)."""
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


#: The report of a map with no offender, for each ``require_unital``: a report
#: is immutable, so every passing check returns the same one.
_PASSED = {unital: _ck_report(None, None, None, None, None, True, unital) for unital in (False, True)}
