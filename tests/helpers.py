"""Independent oracles and random corpora shared by the test modules.

Everything here recomputes expected answers by deliberately naive means:
generic rewriting of generator strings, Cuntz-Krieger relations multiplied
out word by word, exhaustive subset or subword search, gcds of minors,
permutations enumerated wholesale.  None of it shares code
with the fast implementations under test, so agreement is meaningful.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import random
import sys
from itertools import combinations, permutations, product
from math import gcd

import numpy as np

from ampgraph import (
    OMEGA,
    AmpGraph,
    DynkinSpec,
    canonical_reduced_word,
    cw_kk_summary,
    first_sink_first_star,
    kk_chain,
    load_graph,
    minimal_coset_reps,
    prefer_source_star,
    word_label,
)
from ampgraph.algebra import (
    Check,
    CKElement,
    CKWord,
    EdgeRef,
    GeneratorMap,
    Path,
    VerificationReport,
    _fold_into,
    _label_map,
    _prefix_fold,
    compose_tables,
    projection_word,
    verify_ck_family,
)
from ampgraph import ktheory
from ampgraph.coxeter import CosetRep
from ampgraph.ktheory import induced_k0, smith_normal_form


ROOT = pathlib.Path(__file__).resolve().parents[1]


def walked_graphs(monkeypatch) -> list[AmpGraph]:
    """The graphs that list their kept positions from here on: a shape walk does, a derivation does not."""
    walked: list[AmpGraph] = []
    kept = AmpGraph._kept
    monkeypatch.setattr(AmpGraph, "_kept", lambda g: walked.append(g) or kept(g))
    return walked


def example_graph() -> AmpGraph:
    """Five vertices, four infinite families, sinks v4 and v5."""
    return AmpGraph.from_edges(
        ("v1", "v2", "v3", "v4", "v5"),
        [("v1", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v5")],
    )


# ---------------------------------------------------------------------------
# generator-string rewriting: an independent product of normal-form words
#
# A monomial is a list of symbols ("p", v), ("e", src, dst, idx) for an edge
# generator, ("E", src, dst, idx) for its adjoint.  The defining relations
# are applied wherever they fire until nothing changes; the zero monomial is
# reported as None.


def word_symbols(w: CKWord) -> list[tuple]:
    syms: list[tuple] = [("e", e.src, e.dst, e.index) for e in w.alpha.edges]
    syms += [("E", e.src, e.dst, e.index) for e in reversed(w.beta.edges)]
    return syms or [("p", w.alpha.base)]


def _source(sym: tuple) -> str:
    return sym[1] if sym[0] in ("p", "e") else sym[2]


def _target(sym: tuple) -> str:
    return sym[1] if sym[0] == "p" else sym[2] if sym[0] == "e" else sym[1]


def _reduce_pair(a: tuple, b: tuple):
    """None = no rule, "zero" = kills the monomial, else the replacement."""
    if _target(a) != _source(b):
        return "zero"
    if a[0] == "p":
        return [b] if b[0] != "p" else [a]
    if b[0] == "p":
        return [a]
    if a[0] == "E" and b[0] == "e":
        return [("p", a[2])] if a[1:] == b[1:] else "zero"
    return None


def rewrite(symbols: list[tuple]):
    syms = list(symbols)
    while True:
        for i in range(len(syms) - 1):
            red = _reduce_pair(syms[i], syms[i + 1])
            if red == "zero":
                return None
            if red is not None:
                syms[i : i + 2] = red
                break
        else:
            return syms


def symbols_to_word(syms: list[tuple]) -> CKWord:
    if len(syms) == 1 and syms[0][0] == "p":
        return projection_word(syms[0][1])
    ups = [EdgeRef(s, d, i) for kind, s, d, i in syms if kind == "e"]
    downs = [EdgeRef(s, d, i) for kind, s, d, i in syms if kind == "E"]
    downs.reverse()
    alpha = Path(ups[0].src, tuple(ups)) if ups else None
    beta = Path(downs[0].src, tuple(downs)) if downs else None
    if alpha is None:
        alpha = Path(beta.range)
    if beta is None:
        beta = Path(alpha.range)
    return CKWord(alpha, beta)


def oracle_word_mul(x: CKWord, y: CKWord) -> CKWord | None:
    syms = rewrite(word_symbols(x) + word_symbols(y))
    return None if syms is None else symbols_to_word(syms)


def all_paths(g: AmpGraph, max_len: int, indices=(0, 1)) -> list[Path]:
    """Every path of length at most max_len using the given family indices."""
    out = [Path(v) for v in g.vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for w in g.successors(p.range):
                for i in indices:
                    nxt.append(Path(p.base, p.edges + (EdgeRef(p.range, w, i),)))
        out.extend(nxt)
        frontier = nxt
    return out


def all_words(g: AmpGraph, max_len: int, indices=(0, 1)) -> list[CKWord]:
    paths = all_paths(g, max_len, indices)
    by_range: dict[str, list[Path]] = {}
    for p in paths:
        by_range.setdefault(p.range, []).append(p)
    return [
        CKWord(a, b) for group in by_range.values() for a in group for b in group
    ]


# ---------------------------------------------------------------------------
# word-level Cuntz-Krieger checking: every relation multiplied out in the
# word algebra, at one shared and one distinct concrete edge index


def table_element(graph: AmpGraph, table: dict[str, int]) -> CKElement:
    """The vertex table ``{x: d_x}`` as the element ``sum_x d_x p_x`` over ``graph``."""
    return CKElement.from_terms(graph, [(projection_word(x), c) for x, c in table.items()])


def _family_images(m: GeneratorMap, index: int) -> dict[tuple[str, str], CKElement]:
    return {
        (src, dst): m.edge_image(EdgeRef(src, dst, index))
        for src, dst, _ in m.source.families()
    }


def verify_ck_family_oracle(m: GeneratorMap, require_unital: bool = True) -> VerificationReport:
    """The report of :func:`ampgraph.verify_ck_family`, from element products.

    Every vertex table is turned into its element and every pair of
    families is multiplied out at indices (0, 0) and (0, 1), so the check
    names, verdicts and detail strings come from the word algebra alone.
    The report ends with the word-level ``gauge-homogeneity`` check, which
    the library no longer makes: no map it can represent fails it.
    """
    checks: list[Check] = []
    verts = m.source.vertices
    vimg = {v: table_element(m.target, m.vertex_images[v]) for v in verts}

    bad = [v for v in verts if not vimg[v].is_projection()]
    checks.append(
        Check(
            "vertex-projections",
            not bad,
            "" if not bad else f"image of p[{bad[0]}] is not a projection",
        )
    )

    bad_pair = None
    for i, v in enumerate(verts):
        for w in verts[i + 1 :]:
            if not (vimg[v] * vimg[w]).is_zero:
                bad_pair = (v, w)
                break
        if bad_pair:
            break
    checks.append(
        Check(
            "vertex-orthogonality",
            bad_pair is None,
            "" if bad_pair is None else
            f"images of p[{bad_pair[0]}] and p[{bad_pair[1]}] are not orthogonal",
        )
    )

    img0 = _family_images(m, 0)
    img1 = _family_images(m, 1)
    fams = sorted(img0)

    bad_fam = None
    for fam in fams:
        a = img0[fam]
        if a * a.adjoint() * a != a:
            bad_fam = fam
            break
    checks.append(
        Check(
            "adjoint-compatibility",
            bad_fam is None,
            "" if bad_fam is None else
            f"image of s[{bad_fam[0]}>{bad_fam[1]}#i] is not a partial isometry",
        )
    )

    ck1_fail = None
    zero = CKElement.zero(m.target)
    for f1 in fams:
        for f2 in fams:
            for x, y, same in ((img0[f1], img0[f2], True), (img0[f1], img1[f2], False)):
                want = vimg[f1[1]] if same and f1 == f2 else zero
                got = x.adjoint() * y
                if got != want:
                    ck1_fail = (f1, f2, same)
                    break
            if ck1_fail:
                break
        if ck1_fail:
            break
    checks.append(
        Check(
            "ck1",
            ck1_fail is None,
            "" if ck1_fail is None else
            f"m(s)* m(s') defect for families {ck1_fail[0]} , {ck1_fail[1]} "
            f"({'same' if ck1_fail[2] else 'distinct'} index)",
        )
    )

    ck2_fail = None
    for fam in fams:
        a = img0[fam]
        dom = a * a.adjoint()
        if not dom.is_projection() or vimg[fam[0]] * dom != dom:
            ck2_fail = fam
            break
    checks.append(
        Check(
            "ck2",
            ck2_fail is None,
            "" if ck2_fail is None else
            f"m(s) m(s)* not under m(p[{ck2_fail[0]}]) for family {ck2_fail}",
        )
    )

    total = CKElement.zero(m.target)
    for v in verts:
        total = total + vimg[v]
    unital = total == CKElement.unit(m.target)
    checks.append(
        Check(
            "unital",
            unital,
            "" if unital else "vertex images do not sum to the target unit",
            required=require_unital,
        )
    )

    gauge_bad = None
    for v in verts:
        if not vimg[v].is_zero and vimg[v].gauge_degree() != 0:
            gauge_bad = f"p[{v}]"
            break
    if gauge_bad is None:
        for fam in fams:
            a = img0[fam]
            if not a.is_zero and a.gauge_degree() != 1:
                gauge_bad = f"s[{fam[0]}>{fam[1]}#i]"
                break
    checks.append(
        Check(
            "gauge-homogeneity",
            gauge_bad is None,
            "" if gauge_bad is None else f"image of {gauge_bad} is not homogeneous",
        )
    )

    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# full-table oracles: the relation checks, composition, section identity and
# chain K_0 as they read before maps kept only their patch, every generator
# of every map walked on the full tables ``vertex_images`` and
# ``edge_images``


def _push_full(m, table: dict[str, int]) -> dict[str, int]:
    acc: dict[str, int] = {}
    images = m.vertex_images
    for x, c in table.items():
        for y, d in images[x].items():
            acc[y] = acc.get(y, 0) + c * d
    return {y: c for y, c in acc.items() if c}


def _template_full(templates: dict, tpl) -> tuple:
    acc: dict[tuple[str, str], int] = {}
    for coeff, mid in tpl:
        for c2, fam in templates[mid]:
            acc[fam] = acc.get(fam, 0) + coeff * c2
    return tuple((c, fam) for fam, c in sorted(acc.items()) if c)


def compose_tables_oracle(outer: GeneratorMap, inner: GeneratorMap):
    """``(source, target, vertex_images, edge_images)`` of ``outer . inner``, every generator composed."""
    if inner.target != outer.source:
        raise ValueError("maps do not compose: inner target differs from outer source")
    templates = outer.edge_images
    return (
        inner.source,
        outer.target,
        {v: _push_full(outer, table) for v, table in inner.vertex_images.items()},
        {fam: _template_full(templates, tpl) for fam, tpl in inner.edge_images.items()},
    )


def section_identity_failure_tables_oracle(section: GeneratorMap, quot: GeneratorMap) -> str | None:
    """The first generator of ``section.source`` that ``quot . section`` moves, table by table."""
    if section.target != quot.source:
        raise ValueError("maps do not compose: inner target differs from outer source")
    src = section.source
    home = quot.target == src
    vimgs, eimgs, templates = section.vertex_images, section.edge_images, quot.edge_images
    for v in src.vertices:
        if not home or _push_full(quot, vimgs[v]) != {v: 1}:
            return f"p[{v}]"
    for a, b, _ in src.families():
        if _template_full(templates, eimgs[(a, b)]) != ((1, (a, b)),):
            return f"s[{a}>{b}#0]"
    return None


def verify_ck_family_tables_oracle(m: GeneratorMap, require_unital: bool = True) -> VerificationReport:
    """The report of :func:`ampgraph.verify_ck_family`, every generator examined.

    Every vertex table and every family template is read, every pair of
    vertices and of families sharing a target is compared, and the tables
    are summed over all source vertices.
    """
    checks: list[Check] = []
    verts = m.source.vertices
    vimg, eimg = m.vertex_images, m.edge_images

    bad = [v for v in verts if any(c != 1 for c in vimg[v].values())]
    checks.append(Check("vertex-projections", not bad,
                        "" if not bad else f"image of p[{bad[0]}] is not a projection"))

    users: dict[str, list[int]] = {}
    for i, v in enumerate(verts):
        for x in vimg[v]:
            users.setdefault(x, []).append(i)
    failing = [(us[0], us[1]) for us in users.values() if len(us) > 1]
    pair = (verts[min(failing)[0]], verts[min(failing)[1]]) if failing else None
    checks.append(Check("vertex-orthogonality", pair is None,
                        "" if pair is None else
                        f"images of p[{pair[0]}] and p[{pair[1]}] are not orthogonal"))

    fams = sorted(eimg)
    sums = {}
    for fam in fams:
        acc: dict[str, int] = {}
        for c, (_, dst) in eimg[fam]:
            acc[dst] = acc.get(dst, 0) + c * c
        sums[fam] = acc
    isometry = {fam: all(c == 1 for c in sums[fam].values()) for fam in fams}
    bad_fam = next((fam for fam in fams if not isometry[fam]), None)
    checks.append(Check("adjoint-compatibility", bad_fam is None,
                        "" if bad_fam is None else
                        f"image of s[{bad_fam[0]}>{bad_fam[1]}#i] is not a partial isometry"))

    ck1 = [(f, f) for f in fams if sums[f] != vimg[f[1]]][:1]
    tusers: dict[tuple[str, str], list] = {}
    for f in fams:
        for c, t in eimg[f]:
            tusers.setdefault(t, []).append((f, c))
    cross: dict[tuple, dict[str, int]] = {}
    for t, fs in tusers.items():
        for (f, cf), (g, cg) in combinations(fs, 2):
            acc = cross.setdefault((f, g), {})
            acc[t[1]] = acc.get(t[1], 0) + cf * cg
    ck1 += [pair for pair, acc in cross.items() if any(acc.values())]
    ck1_fail = min(ck1, default=None)
    checks.append(Check("ck1", ck1_fail is None,
                        "" if ck1_fail is None else
                        f"m(s)* m(s') defect for families {ck1_fail[0]} , {ck1_fail[1]} "
                        "(same index)"))

    ck2_fail = next(
        (f for f in fams
         if not isometry[f] or not all(vimg[f[0]].get(t[0]) == 1 for _, t in eimg[f])),
        None,
    )
    checks.append(Check("ck2", ck2_fail is None,
                        "" if ck2_fail is None else
                        f"m(s) m(s)* not under m(p[{ck2_fail[0]}]) for family {ck2_fail}"))

    total: dict[str, int] = {}
    for v in verts:
        for x, c in vimg[v].items():
            total[x] = total.get(x, 0) + c
    unital = {x: c for x, c in total.items() if c} == dict.fromkeys(m.target.vertices, 1)
    checks.append(Check("unital", unital,
                        "" if unital else "vertex images do not sum to the target unit",
                        required=require_unital))
    return VerificationReport(tuple(checks))


def _apply_cols(cols, vec: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for r, x in vec.items():
        for i, y in cols[r].items():
            out[i] = out.get(i, 0) + x * y
    return {i: x for i, x in out.items() if x}


def check_chain_k0_tables_oracle(chain) -> K0ChainRecord:
    """``check_chain_k0`` with the full prefix products, every column multiplied at every step.

    Each step's Q and S are the full sparse columns of ``induced_k0``, indexed
    by vertex position; the prefixes ``S_1 ... S_i`` and ``Q_i ... Q_1`` are
    recomputed column by column.  A step's certificate is ``Q S = I`` and
    ``Q e_sink = 0`` on those columns.
    """
    n = len(chain.ambient.vertices)
    unit = tuple({i: 1} for i in range(n))
    prefix, qprefix = unit, unit
    forward_cols: list[dict[int, int]] = [{} for _ in range(n)]
    backward: list[dict[int, int]] = []
    failure = None
    for step, sd in enumerate(chain.steps):
        k = sd.working.index(sd.sink)
        q, s = induced_k0(sd.quotient_map), induced_k0(sd.sigma)
        section_ok = all(_apply_cols(q, col) == {j: 1} for j, col in enumerate(s))
        killed = not q[k]
        if not (section_ok and killed) and failure is None:
            what = ["Q S is not the identity"] if not section_ok else []
            if not killed:
                what.append("Q does not kill the sink class")
            failure = Check(
                "k0-step-unimodular", False,
                f"step at {sd.sink!r}: no left inverse certifies [e_sink | S]: {' and '.join(what)}",
            )
        s_row = {j: col[k] for j, col in enumerate(s) if k in col}
        row = {k: 1}
        for c, col in enumerate(q):
            x = sum(y * col.get(i, 0) for i, y in s_row.items())
            if x:
                row[c] = row.get(c, 0) - x
        for c, col in enumerate(qprefix):
            x = sum(y * col.get(i, 0) for i, y in row.items())
            if x:
                forward_cols[c][step] = x
        backward.append(prefix[k])
        prefix = tuple(_apply_cols(prefix, col) for col in s)
        qprefix = tuple(_apply_cols(q, col) for col in qprefix)
    steps = len(chain.steps)
    for c, col in enumerate(qprefix):
        for t, x in col.items():
            forward_cols[c][steps + t] = x
    rows = steps + len(chain.terminal.vertices)
    backward.extend(prefix)
    cls = chain.ambient.classify()
    free = cls.amplified and cls.acyclic
    inverse = rows == n and all(
        _apply_cols(forward_cols, col) == {j: 1} for j, col in enumerate(backward)
    )
    checks = (
        Check("k0-chain-inverse", inverse,
              "forward and backward are mutually inverse" if inverse
              else "the product forward backward is not the identity"),
        Check("k0-rank", free,
              f"K_0 = Z^{n}, K_1 = 0" if free else "ambient graph is not acyclic and amplified"),
    )
    if failure is not None:
        checks = (failure,) + checks
    return K0ChainRecord(
        forward=dense(tuple(forward_cols), rows),
        backward=dense(tuple(backward), n),
        report=VerificationReport(checks),
    )


# ---------------------------------------------------------------------------
# summing K_0 oracles: the K_0 checks as they read before they added into one
# dict in place, every sum a new sparse vector


def sum_vectors(terms) -> dict:
    """The sparse vector ``sum c v`` over the pairs ``(c, v)`` of ``terms``, a new dict, its zero entries dropped."""
    out: dict = {}
    for c, v in terms:
        for i, y in v.items():
            out[i] = out.get(i, 0) + c * y
    return {i: y for i, y in out.items() if y}


def section_holds_sum_oracle(target: AmpGraph, source: AmpGraph, q: dict, s: dict) -> bool:
    """``ktheory._section_holds`` as it read before the K_0 checks added in place: a new vector per column."""
    if target is not source and target.vertices != source.vertices:
        return False
    for u in (*s, *(x for x in q if x in source and x not in s)):
        col = s.get(u, {u: 1})
        if sum_vectors((c, q.get(x, {x: 1})) for x, c in col.items()) != {u: 1}:
            return False
    return True


def is_left_inverse_sum_oracle(a: dict, b) -> bool:
    """``ktheory._is_left_inverse`` as it read before: a new vector per column of ``A B``."""
    return all(sum_vectors((c, a.get(x, {})) for x, c in col.items()) == {j: 1} for j, col in enumerate(b))


def check_chain_k0_sum_oracle(chain):
    """``check_chain_k0`` as it read before the K_0 checks added in place.

    Every pushed row and every forward row is a new vector, summed from the
    rows it reads; a step's certificate is :func:`section_holds_sum_oracle`
    on the classes ``ktheory._range_counts`` gives, read at call time.
    """
    position = {v: i for i, v in enumerate(chain.ambient.vertices)}
    n = len(position)
    rows = {v: {i: 1} for v, i in position.items()}
    forward, backward, uncertified = [], [], []
    failure = None
    certificates = []
    for sd in chain.steps:
        q, s = ktheory._range_counts(sd.quotient_map), ktheory._range_counts(sd.sigma)
        certificates.append((q, s, section_holds_sum_oracle(sd.quotient_map.target, sd.sigma.source, q, s),
                             sd.sink in q and not q[sd.sink]))
    prefix = _prefix_fold((sd.sink, s, {}) for sd, (_, s, _, _) in zip(chain.steps, certificates))
    for sd, (q, s, section_ok, killed), at_sink in zip(chain.steps, certificates, prefix):
        if not (section_ok and killed):
            if not uncertified:
                what = ["Q S is not the identity"] if not section_ok else []
                if not killed:
                    what.append("Q does not kill the sink class")
                failure = Check(
                    "k0-step-unimodular", False,
                    f"step at {sd.sink!r}: no left inverse certifies [e_sink | S]: {' and '.join(what)}",
                )
            uncertified.append(sd.sink)
        backward.append({position[x]: c for x, c in at_sink.items()})
        sink_row = rows.get(sd.sink, {})
        moved_rows = {x: rows.pop(x, {}) for x in q}
        for x, table in q.items():
            for y, d in table.items():
                rows[y] = sum_vectors(((1, rows.get(y, {})), (d, moved_rows[x])))
        s_row = [(-table[sd.sink], rows.get(u, {})) for u, table in s.items() if sd.sink in table]
        forward.append(sum_vectors([(1, sink_row), *s_row]))
    terminal = chain.terminal.vertices
    tables, _ = next(prefix)
    forward += [rows.get(v, {}) for v in terminal]
    backward += [{position[x]: c for x, c in tables.get(v, {v: 1}).items()} for v in terminal]
    forward_cols: dict = {}
    for i, row in enumerate(forward):
        for c, x in row.items():
            forward_cols.setdefault(c, {})[i] = x
    cls = chain.ambient.classify()
    free = cls.amplified and cls.acyclic
    inverse = len(forward) == n and is_left_inverse_sum_oracle(forward_cols, tuple(backward))
    checks = (
        Check("k0-chain-inverse", inverse,
              "forward and backward are mutually inverse" if inverse
              else "the product forward backward is not the identity"),
        Check("k0-rank", free, f"K_0 = Z^{n}, K_1 = 0" if free else "ambient graph is not acyclic and amplified"),
    )
    if failure is not None:
        checks = (failure,) + checks
    columns = (tuple(forward_cols.get(c, {}) for c in range(n)), tuple(backward))
    return ktheory.K0ChainCheck(VerificationReport(checks), columns, (len(forward), n), tuple(uncertified))


# ---------------------------------------------------------------------------
# exact linear algebra oracles
#
# The library holds a matrix as a tuple of integer rows; one with no rows is
# ``()`` and its column count travels separately.  numpy object arrays of
# Python ints serve here as independent reference arithmetic.


def as_array(m, cols: int) -> np.ndarray:
    """A tuple-of-rows matrix with ``cols`` columns as a numpy object array."""
    return np.array(m, dtype=object).reshape(len(m), cols)


def is_identity(a: np.ndarray) -> bool:
    rows, cols = a.shape
    return rows == cols and np.array_equal(a, np.eye(rows, dtype=int))


def determinant(m) -> int:
    """Exact determinant of a square tuple-of-rows matrix, by Bareiss elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    work = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]


def det_oracle(a: np.ndarray) -> int:
    """Laplace expansion along the first row; fine for the sizes tested."""
    n = a.shape[0]
    if n == 0:
        return 1
    if n == 1:
        return int(a[0, 0])
    total = 0
    rest = list(range(1, n))
    for j in range(n):
        if a[0, j] == 0:
            continue
        cols = [c for c in range(n) if c != j]
        minor = a[np.ix_(rest, cols)]
        total += (-1) ** j * int(a[0, j]) * det_oracle(minor)
    return total


def invariant_factors_by_minors(a: np.ndarray) -> tuple[int, ...]:
    """Invariant factors as quotients of gcds of k x k minors."""
    m, n = a.shape
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, abs(det_oracle(a[np.ix_(rows, cols)])))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def snf_diag_oracle(a: np.ndarray) -> tuple[int, ...]:
    """Smith diagonal by classical alternating row/column Euclid.

    First-found pivots and one elementary step at a time: no strategy shared
    with the library implementation beyond the definition itself.
    """
    m = [[int(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag: list[int] = []
    top = 0
    while top < min(rows, cols):
        if all(m[i][j] == 0 for i in range(top, rows) for j in range(top, cols)):
            break
        while True:
            if m[top][top] == 0:
                i0, j0 = next(
                    (i, j)
                    for i in range(top, rows)
                    for j in range(top, cols)
                    if m[i][j] != 0
                )
                m[top], m[i0] = m[i0], m[top]
                for r in range(rows):
                    m[r][top], m[r][j0] = m[r][j0], m[r][top]
            col_live = [i for i in range(top + 1, rows) if m[i][top] != 0]
            if col_live:
                i = col_live[0]
                if abs(m[i][top]) < abs(m[top][top]):
                    m[top], m[i] = m[i], m[top]
                    continue
                q = m[i][top] // m[top][top]
                m[i] = [x - q * y for x, y in zip(m[i], m[top])]
                continue
            row_live = [j for j in range(top + 1, cols) if m[top][j] != 0]
            if row_live:
                j = row_live[0]
                if abs(m[top][j]) < abs(m[top][top]):
                    for r in range(rows):
                        m[r][top], m[r][j] = m[r][j], m[r][top]
                    continue
                q = m[top][j] // m[top][top]
                for r in range(rows):
                    m[r][j] -= q * m[r][top]
                continue
            bad = next(
                (
                    (i, j)
                    for i in range(top + 1, rows)
                    for j in range(top + 1, cols)
                    if m[i][j] % m[top][top] != 0
                ),
                None,
            )
            if bad is None:
                break
            m[top] = [x + y for x, y in zip(m[top], m[bad[0]])]
        diag.append(abs(m[top][top]))
        top += 1
    return tuple(diag)


def random_int_matrix(
    rng: random.Random, rows: int, cols: int, bound: int = 9
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)
    )


# ---------------------------------------------------------------------------
# K_0 oracles: the Smith-normal-form path that ampgraph.ktheory replaced with
# a left-inverse certificate.  Dense tuple-of-rows matrices throughout.  They
# read the K_0 columns through the library's ``induced_k0``: what they check
# independently is the certificate and the chain assembly, not the extraction.


def dense(cols, rows: int) -> tuple[tuple[int, ...], ...]:
    """Sparse K_0 columns (dicts row -> entry) as ``rows`` dense rows."""
    return tuple(tuple(col.get(i, 0) for col in cols) for i in range(rows))


def _eye(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a, b) -> tuple[tuple[int, ...], ...]:
    width = len(b[0]) if b else 0
    return tuple(
        tuple(sum(x * brow[j] for x, brow in zip(row, b, strict=True)) for j in range(width))
        for row in a
    )


def _hstack(*blocks):
    return tuple(sum(parts, ()) for parts in zip(*blocks, strict=True))


def diagonal_of(d) -> tuple[int, ...]:
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))


def kernel_basis(a, cols: int):
    """Columns spanning the integer kernel of ``a`` (a saturated sublattice).

    ``a`` has ``cols`` columns; the result has ``cols`` rows.
    """
    _, d, v = smith_normal_form(a, cols)
    rank = sum(1 for x in diagonal_of(d) if x != 0)
    return tuple(row[rank:] for row in v)


def unimodular_inverse(m):
    """Exact inverse of a square unimodular integer matrix, via its normal form."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("only square matrices can be unimodular")
    u, d, v = smith_normal_form(m, n)
    if diagonal_of(d) != (1,) * n:
        raise ValueError("matrix is not unimodular")
    return matmul(v, u)


def _dense_k0(m: GeneratorMap):
    return dense(induced_k0(m), len(m.target.vertices))


@dataclasses.dataclass(frozen=True)
class K0SplitRecord:
    """The five attributes of a ``K0SplitCheck``, every one computed up front."""

    sink: str
    q: tuple
    s: tuple
    inclusion: tuple
    report: VerificationReport


@dataclasses.dataclass(frozen=True, eq=False)
class K0ChainRecord:
    """The three attributes of a ``K0ChainCheck``, every one computed up front.

    It equals any value with the same ``forward``, ``backward`` and
    ``report``, so a ``K0ChainCheck`` compares equal to it from either side.
    """

    forward: tuple
    backward: tuple
    report: VerificationReport

    def __eq__(self, other: object) -> bool:
        attrs = ("forward", "backward", "report")
        if not all(hasattr(other, a) for a in attrs):
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in attrs)


def check_split_exact_k0_oracle(sd) -> K0SplitRecord:
    """``check_split_exact_k0`` with the kernel of Q found by a Smith form."""
    q = _dense_k0(sd.quotient_map)
    s = _dense_k0(sd.sigma)
    n = len(sd.working.vertices)
    k = sd.working.index(sd.sink)
    e_sink = tuple(int(i == k) for i in range(n))
    section_ok = matmul(q, s) == _eye(n - 1)
    ker = kernel_basis(q, n)
    rank = len(ker[0])
    line = tuple(row[0] for row in ker) if rank == 1 else None
    kernel_ok = line in (e_sink, tuple(-x for x in e_sink))
    checks = (
        Check("k0-section", section_ok),
        Check("k0-ideal-killed", all(row[k] == 0 for row in q)),
        Check(
            "k0-kernel",
            kernel_ok,
            "ker Q is the copy of Z at the sink"
            if kernel_ok
            else f"kernel rank {rank}, expected the sink line",
        ),
        Check("k0-decomposition", section_ok and kernel_ok),
    )
    return K0SplitRecord(
        sink=sd.sink, q=q, s=s, inclusion=tuple((x,) for x in e_sink),
        report=VerificationReport(checks),
    )


def check_chain_k0_oracle(chain) -> K0ChainRecord:
    """``check_chain_k0`` with each step inverted by a Smith form.

    A step whose ``[e_sink | S]`` is not unimodular ends the check with that
    one failure and empty matrices.  ``k0-chain-inverse`` demands both
    products to be identities.
    """
    n = len(chain.ambient.vertices)
    cols = []
    rows = []
    prefix = _eye(n)
    qprefix = _eye(n)
    for sd in chain.steps:
        k = sd.working.index(sd.sink)
        e_sink = tuple((int(i == k),) for i in range(len(sd.working.vertices)))
        s = _dense_k0(sd.sigma)
        q = _dense_k0(sd.quotient_map)
        try:
            inv = unimodular_inverse(_hstack(e_sink, s))
        except ValueError:
            check = Check("k0-step-unimodular", False, f"step at {sd.sink!r}")
            return K0ChainRecord(forward=(), backward=(), report=VerificationReport((check,)))
        cols.append(matmul(prefix, e_sink))
        rows.append(matmul(inv[:1], qprefix))
        prefix = matmul(prefix, s)
        qprefix = matmul(q, qprefix)
    backward = _hstack(*cols, prefix)
    forward = sum(rows, ()) + qprefix
    eye = _eye(n)
    cls = chain.ambient.classify()
    checks = (
        Check(
            "k0-chain-inverse",
            matmul(forward, backward) == eye and matmul(backward, forward) == eye,
        ),
        Check("k0-rank", cls.amplified and cls.acyclic),
    )
    return K0ChainRecord(forward=forward, backward=backward, report=VerificationReport(checks))


def forbid_smith_normal_form(monkeypatch) -> None:
    """Make every ampgraph binding of ``smith_normal_form`` raise when called."""

    def refuse(*args, **kwargs):
        raise AssertionError("smith_normal_form ran on the runtime path")

    for name, module in list(sys.modules.items()):
        if name == "ampgraph" or name.startswith("ampgraph."):
            for attr, value in list(vars(module).items()):
                if value is smith_normal_form:
                    monkeypatch.setattr(module, attr, refuse)


def watch_patch_builds(monkeypatch, seen) -> None:
    """Route each half of a quotient map's patch, when it is built on first
    read, through ``seen(m, half, value)``, whose return is the value kept.

    The attribute's ``build`` is wrapped with :func:`functools.wraps`, so its
    ``__name__``, the key the value is stored under, stays the half's.
    """
    for half in ("vertex_patch", "family_patch"):
        built = getattr(GeneratorMap, half)

        @functools.wraps(built.build)
        def watched(m, build=built.build, half=half):
            return seen(m, half, build(m))

        monkeypatch.setattr(built, "build", watched)


# ---------------------------------------------------------------------------
# chain corpora and composite oracles
#
# The composite oracles fold validated maps, one per step, each composed on
# full tables by ``compose_tables_oracle``, where ``KKChain`` folds generator
# tables with ``_fold_into`` and builds one map.  ``compose`` folds with
# ``_fold_into`` too, so it is not used here: what the oracles check
# independently is the fold, and the quotient by every sink at once against
# the steps' quotients.


#: Gr(2,4), Gr(2,5), Gr(3,6), Gr(3,7), full A3 and A4 {1,3}: the benchmark's cw ladder
CW_LADDER = [
    DynkinSpec(rank, frozenset(tags))
    for rank, tags in ((3, {2}), (4, {2}), (5, {3}), (6, {3}), (3, {1, 2, 3}), (4, {1, 3}))
]


def golden_chains():
    """The removal chains of the golden report mix: fixtures and cw specs."""
    chains = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        g = load_graph(path)
        for policy in (first_sink_first_star, prefer_source_star):
            chains.append(kk_chain(g, policy))
    for spec in CW_LADDER:
        chains.append(cw_kk_summary(spec).chain)
    return chains


def random_chain(rng: random.Random):
    g = random_amplified_dag(rng, rng.randint(1, 8), rng.choice((0.3, 0.5, 0.7)))
    return kk_chain(g, rng.choice((first_sink_first_star, prefer_source_star)))


def _widened_image(m: GeneratorMap, v: str) -> dict[str, int]:
    """An image of ``p[v]`` with a larger K_0 class, where the target allows it.

    A target vertex the image lacks is added to its table.  When the image
    already holds every target vertex it is doubled instead, which both
    paths refuse alike.
    """
    img = m.vertex_images[v]
    missing = [x for x in m.target.vertices if x not in img]
    if not missing:
        return {x: 2 * c for x, c in img.items()}
    return {**img, missing[0]: 1}


def corrupt_vertex_image(m: GeneratorMap, kind: str, rng: random.Random) -> GeneratorMap:
    """``m`` with one vertex image widened, cut by a term, swapped with another, or zeroed."""
    vimgs = dict(m.vertex_images)
    v = rng.choice(m.source.vertices)
    if kind == "widened":
        vimgs[v] = _widened_image(m, v)
    elif kind == "dropped":
        vimgs[v] = {x: vimgs[v][x] for x in sorted(vimgs[v])[:-1]}
    elif kind == "swapped":
        w = rng.choice(m.source.vertices)
        vimgs[v], vimgs[w] = vimgs[w], vimgs[v]
    else:
        vimgs[v] = {}
    return GeneratorMap(m.source, m.target, vimgs, m.edge_images)


def corrupted_chains(seed: int = 6, trials: int = 400):
    """Random chains with one or two steps' ``sigma`` or ``quotient_map`` damaged.

    Seed 6 over 400 trials gives 306 damaged chains.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        chain = random_chain(rng)
        steps = list(chain.steps)
        for at in rng.sample(range(len(steps)), min(len(steps), rng.choice((1, 2)))):
            field = rng.choice(("sigma", "quotient_map"))
            m = getattr(steps[at], field)
            if m.source.vertices:
                kind = rng.choice(("widened", "dropped", "swapped", "zeroed"))
                steps[at] = steps[at]._replace(
                    **{field: corrupt_vertex_image(m, kind, rng)}
                )
        if steps != list(chain.steps):
            yield chain._replace(steps=tuple(steps))


def composite_section_oracle(chain) -> GeneratorMap:
    """``sigma_1 . sigma_2 . ...``, one validated map per step, composed on full tables
    (:func:`compose_tables_oracle`), not by the fold ``compose`` shares with the chain."""
    if not chain.steps:
        return GeneratorMap.identity(chain.ambient)
    out = chain.steps[0].sigma
    for sd in chain.steps[1:]:
        out = GeneratorMap(*compose_tables_oracle(out, sd.sigma))
    return out


def composite_quotient_oracle(chain) -> GeneratorMap:
    """``q_k . ... . q_1``, one validated map per step, composed on full tables."""
    if not chain.steps:
        return GeneratorMap.identity(chain.ambient)
    out = chain.steps[0].quotient_map
    for sd in chain.steps[1:]:
        out = GeneratorMap(*compose_tables_oracle(sd.quotient_map, out))
    return out


def section_step_listing_oracle(sink: str, section: GeneratorMap, quot: GeneratorMap) -> tuple:
    """A step of :func:`prefix_fold_listing_oracle`: ``section``'s patch, then
    ``sink`` and the families at it, listed from ``quot``'s ``family_patch``."""
    return sink, section.vertex_patch, section.family_patch, [f for f in quot.family_patch if sink in f]


def prefix_fold_listing_oracle(steps, dropped: list | None = None):
    """``algebra._prefix_fold`` as it ran when each step listed the families at its sink.

    Each step is ``(sink, tables, templates, lost)``; after the step the
    sink's table and every listed family's template are popped, a miss when
    the fold holds none.  Each family whose template a pop removes is
    appended to ``dropped``.
    """
    tables: dict = {}
    templates: dict = {}
    for sink, vmoved, fmoved, lost in steps:
        held = tables.get(sink)
        yield {sink: 1} if held is None else held
        _fold_into(tables, vmoved, sink)
        if fmoved:
            _fold_into(templates, fmoved, sink)
        tables.pop(sink, None)
        for f in lost:
            if templates.pop(f, None) is not None and dropped is not None:
                dropped.append(f)
    yield tables, templates


def composite_section_listing_oracle(chain, dropped: list | None = None) -> GeneratorMap:
    """``sigma_1 . sigma_2 . ...`` folded by :func:`prefix_fold_listing_oracle`,
    each step's quotient map listing the families at its sink."""
    *_, (tables, templates) = prefix_fold_listing_oracle(
        (section_step_listing_oracle(sd.sink, sd.sigma, sd.quotient_map) for sd in chain.steps), dropped)
    return _label_map(chain.terminal, chain.ambient, tables, templates)


def quotient_onto_oracle(graph: AmpGraph, target: AmpGraph, removed) -> GeneratorMap:
    """The quotient map onto ``target`` killing ``removed``, run through the validator.

    The families at ``removed`` are listed by the generic walk
    ``families_at``, never by ``lacks``; every image is validated.
    """
    removed = tuple(removed)
    return _label_map(graph, target, {v: {} for v in removed}, {f: {} for f in graph.families_at(removed)})


def quotient_relation_check_oracle(graph: AmpGraph, target: AmpGraph, removed,
                                   require_unital: bool = True) -> VerificationReport:
    """The relation check of the quotient map onto ``target`` as it ran before a cut passed on one mask test.

    ``verify_ck_family`` walks the validated map of
    :func:`quotient_onto_oracle`, zero template by zero template; that map is
    not marked as a quotient map, so no mask test is made.
    """
    return verify_ck_family(quotient_onto_oracle(graph, target, removed), require_unital)


def splitting_map_oracle(working: AmpGraph, source: AmpGraph, sink: str, star) -> GeneratorMap:
    """A removal step's section out of ``source``, run through the validator."""
    moved = {} if star is None else {star: {star: 1, sink: 1}}
    families = {} if star is None else {
        (v, star): {(v, star): 1, (v, sink): 1} for v in source.predecessors(star)}
    return _label_map(source, working, moved, families)


def section_identity_failure_patch_oracle(section: GeneratorMap, quot: GeneratorMap) -> str | None:
    """The first generator of ``section.source`` that ``quot . section`` moves, composed patch by patch.

    The section identity as it read before a quotient map was asked what
    its target keeps: ``compose_tables`` reads ``quot``'s patch, building a
    quotient map's.
    """
    if section.target != quot.source:
        raise ValueError("maps do not compose: inner target differs from outer source")
    src = section.source
    if quot.target != src:
        return f"p[{src.vertices[0]}]" if src.vertices else None
    vpatch, fpatch = compose_tables(quot, section)
    at = src.vertex_order
    if vpatch:
        return f"p[{min(vpatch, key=at)}]"
    if fpatch:
        a, b = min(fpatch, key=lambda fam: (at(fam[0]), at(fam[1])))
        return f"s[{a}>{b}#0]"
    return None


def section_identity_failure_oracle(section: GeneratorMap, quot: GeneratorMap) -> str | None:
    """The first generator of ``section.source`` that ``quot . section`` moves.

    Each generator is pushed through both maps as an element, ``p[v]`` and
    ``s[a>b#0]``, and compared with itself; nothing is composed.
    """
    src = section.source
    for v in src.vertices:
        x = CKElement.projection(src, v)
        if quot.apply(section.apply(x)) != x:
            return f"p[{v}]"
    for a, b, _ in src.families():
        x = CKElement.edge(src, a, b, 0)
        if quot.apply(section.apply(x)) != x:
            return f"s[{a}>{b}#0]"
    return None


def stabilize_oracle(g: AmpGraph, plan) -> tuple[AmpGraph, tuple[tuple[str, str], ...]]:
    """The stabilised ambient graph and its added families, step by step.

    Every round rebuilds the chain of quotient graphs from the ambient graph
    and reads each step's demands on its own quotient: a family ``v -> sink``
    for each in-neighbour ``v`` of the star without one.  The rounds run to
    a fixed point.
    """
    ambient = g
    added: list[tuple[str, str]] = []
    while True:
        wanted: list[tuple[str, str]] = []
        current = ambient
        for sink, star in plan:
            if star is not None:
                into_sink = set(current.predecessors(sink))
                for v in current.predecessors(star):
                    if v not in into_sink and (v, sink) not in wanted:
                        wanted.append((v, sink))
            current = current.quotient((sink,))
        if not wanted:
            return ambient, tuple(added)
        for v, w in wanted:
            ambient = ambient.amplify_transitive_edges(v, w)
            added.append((v, w))


def unmoved_defects_listing_oracle(src: AmpGraph, target: AmpGraph, vpatch: dict, fpatch: dict) -> tuple[list, list]:
    """The CK1 pairs and CK2 families at which the unmoved families fail, as
    ``verify_ck_family`` found them before it read rows: every family with an
    end at a moved vertex the target keeps is listed and tested."""
    kept = [v for v in vpatch if v in target]
    ck1, ck2 = [], []
    for f in src.families_at(kept) if kept else ():
        if f not in fpatch:
            if f[1] in vpatch:
                ck1.append((f, f))
            if f[0] in vpatch and vpatch[f[0]].get(f[0]) != 1:
                ck2.append(f)
    return ck1, ck2


def with_images(m: GeneratorMap, vimgs=None, eimgs=None) -> GeneratorMap:
    return GeneratorMap(
        m.source,
        m.target,
        dict(m.vertex_images, **(vimgs or {})),
        {**m.edge_images, **(eimgs or {})},
    )


def map_corruptions(m: GeneratorMap, rng: random.Random) -> list[GeneratorMap]:
    """One variant per kind of damage the map admits."""
    out = []
    verts = m.source.vertices
    img = m.vertex_images
    live = [f for f in sorted(m.edge_images) if m.edge_images[f]]
    if live:
        f = rng.choice(live)
        tpl = list(m.edge_images[f])
        k = rng.randrange(len(tpl))
        c, t = tpl[k]
        scaled = tpl[:k] + [(c * rng.choice((-1, 2, 3)), t)] + tpl[k + 1 :]
        out.append(with_images(m, eimgs={f: tuple(scaled)}))
        out.append(with_images(m, eimgs={f: tuple(tpl[:k] + tpl[k + 1 :])}))
        shared = [
            (g, t) for g in live if g != f for _, t in m.edge_images[g]
        ]
        if shared:
            _, t = rng.choice(shared)
            out.append(with_images(m, eimgs={f: tuple(tpl) + ((1, t),)}))
        # vertex images moved along a target family t: p_r(t) added to one,
        # and p_s(t) - p_r(t) in place of another
        v = rng.choice(verts)
        out.append(with_images(m, vimgs={v: {**img[v], t[1]: img[v].get(t[1], 0) + 1}}))
        out.append(with_images(m, vimgs={v: {t[0]: 1, t[1]: -1}}))
    if len(verts) > 1:
        v, w = rng.sample(verts, 2)
        out.append(with_images(m, vimgs={v: img[w], w: img[v]}))
    if len(verts) > 2:
        v, *rest = rng.sample(verts, 3)
        out.append(with_images(m, vimgs={w: img[v] for w in rest}))
    tabled = [v for v in verts if img[v]]
    if tabled:
        v = rng.choice(tabled)
        out.append(with_images(m, vimgs={v: {x: 2 * c for x, c in img[v].items()}}))
        out.append(with_images(m, vimgs={v: {x: -c for x, c in img[v].items()}}))
    two_term = [v for v in tabled if len(img[v]) == 2]
    if two_term:
        v = rng.choice(two_term)
        kept = sorted(img[v])
        del kept[rng.randrange(2)]
        out.append(with_images(m, vimgs={v: {x: img[v][x] for x in kept}}))
    singles = [v for v in tabled if len(img[v]) == 1]
    if singles and len(tabled) > 1:
        w = rng.choice(singles)
        v = rng.choice([x for x in tabled if x != w])
        # p_x - p_y with p_y the image of w: the unital total at y cancels to 0
        diff = dict(img[v])
        for y, c in img[w].items():
            diff[y] = diff.get(y, 0) - c
        out.append(with_images(m, vimgs={v: diff}))
    # a generator the map leaves unmoved, given another image through the
    # constructor: a second target vertex (or zero), and a doubled family
    still = [v for v in verts if v not in m.vertex_patch]
    if still:
        v, x = rng.choice(still), rng.choice(m.target.vertices)
        out.append(with_images(m, vimgs={v: {} if x == v else {v: 1, x: 1}}))
    fixed = [f for f in sorted(m.edge_images) if f not in m.family_patch]
    if fixed:
        f = rng.choice(fixed)
        out.append(with_images(m, eimgs={f: ((2, f),)}))
    return out


# ---------------------------------------------------------------------------
# graph oracles and corpora


def valid_stars_oracle(g: AmpGraph, sink: str) -> list[str]:
    """The stars for ``sink``: every vertex but the sink and the heads of
    families whose source has no path to the sink."""
    blocked = {dst for src, dst, _ in g.families() if sink not in g.reachable_set(src)}
    return [v for v in g.vertices if v != sink and v not in blocked]


def prefer_source_star_oracle(g: AmpGraph) -> tuple[str, str]:
    """The source policy by listing: the first sink in vertex order, with the first source among
    its valid stars, else its first star."""
    cls = g.classify()
    sink = cls.sinks[0]
    stars = valid_stars_oracle(g, sink)
    if not stars:
        raise ValueError(f"no valid star exists for sink {sink!r}")
    return sink, next((v for v in stars if v in cls.sources), stars[0])


def hereditary_subsets_oracle(g: AmpGraph) -> set[tuple[str, ...]]:
    fams = [(a, b) for a, b, _ in g.families()]
    out = set()
    n = len(g.vertices)
    for bits in range(1 << n):
        chosen = {g.vertices[i] for i in range(n) if bits >> i & 1}
        if all(b in chosen for a, b in fams if a in chosen):
            out.add(tuple(v for v in g.vertices if v in chosen))
    return out


def random_amplified_dag(rng: random.Random, n: int, p: float = 0.5) -> AmpGraph:
    """Random acyclic amplified graph on n vertices, random topological order."""
    labels = tuple(f"w{i}" for i in range(1, n + 1))
    order = list(labels)
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    edges = [
        (a, b)
        for a in labels
        for b in labels
        if rank[a] < rank[b] and rng.random() < p
    ]
    return AmpGraph.from_edges(labels, edges)


class DenseGraph:
    """Reference model of a graph as a dense n x n multiplicity matrix.

    Reads ``from_edges`` input by the documented rule: a 2-tuple means
    OMEGA, a repeated pair takes its last multiplicity and 0 means no
    family.  Every query scans the matrix.
    """

    def __init__(self, vertices, edges=()) -> None:
        self.vertices = tuple(vertices)
        self.pos = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        self.mult = [[0] * n for _ in range(n)]
        for edge in edges:
            src, dst, m = edge if len(edge) == 3 else (*edge, OMEGA)
            self.mult[self.pos[src]][self.pos[dst]] = m

    def multiplicity(self, src: str, dst: str):
        return self.mult[self.pos[src]][self.pos[dst]]

    def families(self) -> list[tuple]:
        return [(a, b, self.multiplicity(a, b)) for a in self.vertices
                for b in self.vertices if self.multiplicity(a, b) != 0]

    def successors(self, v: str) -> tuple[str, ...]:
        return tuple(w for w in self.vertices if self.multiplicity(v, w) != 0)

    def predecessors(self, v: str) -> tuple[str, ...]:
        return tuple(w for w in self.vertices if self.multiplicity(w, v) != 0)

    def is_amplified(self) -> bool:
        return all(m == 0 or m is OMEGA for row in self.mult for m in row)

    def reachable_set(self, v: str) -> tuple[str, ...]:
        seen: set[str] = set()
        todo = list(self.successors(v))
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(self.successors(w))
        return tuple(w for w in self.vertices if w in seen)

    def classify(self) -> tuple:
        """``(amplified, acyclic, sinks, sources)``."""
        return (
            self.is_amplified(),
            all(v not in self.reachable_set(v) for v in self.vertices),
            tuple(v for v in self.vertices if not self.successors(v)),
            tuple(v for v in self.vertices if not self.predecessors(v)),
        )

    def quotient(self, removed) -> "DenseGraph":
        keep = [v for v in self.vertices if v not in set(removed)]
        return DenseGraph(keep, [(a, b, self.multiplicity(a, b))
                                 for a in keep for b in keep])

    def amplify(self, src: str, dst: str) -> "DenseGraph":
        return DenseGraph(self.vertices, self.families() + [(src, dst, OMEGA)])


def random_edge_list(rng: random.Random, vertices, count: int) -> list[tuple]:
    """Random ``from_edges`` input: loops, repeated pairs, explicit zeros, 2-tuples."""
    out = []
    for _ in range(count):
        src, dst = rng.choice(vertices), rng.choice(vertices)
        kind = rng.randrange(5)
        if kind == 0:
            out.append((src, dst))
        else:
            out.append((src, dst, (0, 1, 3, OMEGA)[kind - 1]))
    return out


# ---------------------------------------------------------------------------
# symmetric group oracles (one-line permutations of 1..n+1)


def _compose(u: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    """u after p, one-line: (u . p)(k) = u[p[k]]."""
    return tuple(u[p[k] - 1] for k in range(len(p)))


def _apply_gen(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def _inv_count(p: tuple[int, ...]) -> int:
    return sum(
        1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b]
    )


def word_to_perm_oracle(word: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """Evaluate a word in the generators; the rightmost letter acts first."""
    p = tuple(range(1, rank + 2))
    for i in word:
        p = _apply_gen(p, i)
    return p


def left_mult_oracle(i: int, p: tuple[int, ...]) -> tuple[int, ...]:
    """``s_i * p``: swap the values i, i+1 wherever they sit."""
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(x, x) for x in p)


def left_descents_oracle(p: tuple[int, ...]) -> frozenset[int]:
    """Generators ``s_i`` with ``len(s_i * p) < len(p)``: i + 1 sits before i."""
    pos = {x: k for k, x in enumerate(p)}
    return frozenset(i for i in range(1, len(p)) if pos[i] > pos[i + 1])


def peeled_reduced_word_oracle(p: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced word found by peeling the smallest left descent at each step."""
    word: list[int] = []
    while True:
        desc = left_descents_oracle(p)
        if not desc:
            return tuple(word)
        i = min(desc)
        word.append(i)
        p = left_mult_oracle(i, p)


def subgroup_oracle(rank: int, gens: set[int]) -> set[tuple[int, ...]]:
    ident = tuple(range(1, rank + 2))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for i in gens:
                q = _apply_gen(p, i)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def coset_reps_oracle(rank: int, tagged: frozenset[int]) -> set[tuple[int, ...]]:
    """Minimum-length element of each coset w W_J, J the untagged nodes."""
    untagged = set(range(1, rank + 1)) - set(tagged)
    wj = subgroup_oracle(rank, untagged)
    reps = set()
    seen = set()
    for p in permutations(range(1, rank + 2)):
        if p in seen:
            continue
        coset = {_compose(p, u) for u in wj}
        seen |= coset
        reps.add(min(coset, key=lambda q: (_inv_count(q), q)))
    return reps


def coset_reps_by_combinations_oracle(spec) -> list[CosetRep]:
    """The minimal coset representatives by block value sets, each word from scratch.

    A representative increases inside each block of positions between
    tagged nodes, so choosing the value set of every block but the last (by
    ``combinations``) yields each once, the last block taking the values
    left; its word is :func:`canonical_reduced_word` of its one-line form.
    Sorted by length then word, as ``minimal_coset_reps`` promises.
    """
    cuts = [0, *sorted(spec.tagged), spec.rank + 1]
    forms = [((), tuple(range(1, spec.rank + 2)))]
    for size in [b - a for a, b in zip(cuts, cuts[1:])][:-1]:
        forms = [(head + block, tuple(v for v in rest if v not in block))
                 for head, rest in forms for block in combinations(rest, size)]
    reps = []
    for head, rest in forms:
        p = head + rest
        word = canonical_reduced_word(p)
        reps.append(CosetRep(p, len(word), word))
    return sorted(reps, key=lambda r: (r.length, r.word))


def lex_least_reduced_word_oracle(p: tuple[int, ...]) -> tuple[int, ...]:
    """First word in length-then-lex order that evaluates to p."""
    rank = len(p) - 1
    ident = tuple(range(1, rank + 2))
    target_len = _inv_count(p)
    for word in product(range(1, rank + 1), repeat=target_len):
        q = ident
        for i in word:
            q = _apply_gen(q, i)
        if q == p:
            return word
    raise AssertionError(f"no reduced word of length {target_len} found for {p}")


def bruhat_leq_oracle(u: tuple[int, ...], w_word: tuple[int, ...], rank: int) -> bool:
    """Subword property against one fixed reduced word of w."""
    ident = tuple(range(1, rank + 2))
    k = _inv_count(u)
    for picks in combinations(range(len(w_word)), k):
        q = ident
        for idx in picks:
            q = _apply_gen(q, w_word[idx])
        if q == u:
            return True
    return False


def flag_vertices_alt(spec) -> list[tuple[int, ...]]:
    """Flag vertices characterised through reduced-word endings.

    The identity together with the elements all of whose reduced words end
    (rightmost letter, the one acting first) in a tagged node; equivalently
    the right-descent set, read off the one-line form, is contained in the
    tagged set.  Searched over the whole symmetric group.
    """
    n = spec.rank + 1
    out = [
        p for p in permutations(range(1, n + 1))
        if {i for i in range(1, n) if p[i - 1] > p[i]} <= spec.tagged
    ]
    return sorted(out, key=lambda p: (_inv_count(p), p))


def bruhat_leq(u: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """Subword (Bruhat) order via the prefix-dominance criterion.

    ``u <= w`` iff for every i the increasing sort of the first i entries of
    ``u`` is entrywise at most that of ``w``.
    """
    if len(u) != len(w):
        raise ValueError("cannot compare permutations of different sizes")
    n = len(u)
    for i in range(1, n):
        for a, b in zip(sorted(u[:i]), sorted(w[:i])):
            if a > b:
                return False
    return True


def flag_graph_oracle(spec) -> AmpGraph:
    """The flag graph by a scan of every candidate swap, kept when it is a representative.

    From each position i of each representative ``w``, every later position
    j whose value ``b`` lies between a running floor and ``w(i)`` is a
    Bruhat cover (Björner–Brenti, Lemma 2.1.4); its one-line form is built
    and kept when it is among the representatives.
    """
    reps = minimal_coset_reps(spec)
    labels = {r.element: word_label(r.word) for r in reps}
    edges = []
    for w, label in labels.items():
        for i, a in enumerate(w):
            floor = 0
            for j in range(i + 1, len(w)):
                b = w[j]
                if floor < b < a:
                    floor = b
                    u = w[:i] + (b,) + w[i + 1 : j] + (a,) + w[j + 1 :]
                    if u in labels:
                        edges.append((labels[u], label, OMEGA))
                    if b == a - 1:
                        break
    return AmpGraph(labels.values(), edges)
