"""Exact integer K-theory bookkeeping for amplified graph algebras.

For a finite acyclic amplified graph the even K-group is free on the vertex
projection classes and the odd group vanishes, so every map this package
constructs acts on K_0 through an integer matrix in the vertex bases.  The
module extracts those matrices from generator maps, and provides the exact
integer linear algebra (Smith normal form, kernels, unimodular inverses)
needed to certify that a split extension really decomposes K_0.

A matrix is a tuple of rows, each a tuple of Python ints, so arithmetic is
exact and the matrices serialise to JSON as they are.  A matrix with no rows
is ``()`` and does not record its column count; functions that need it take
it as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Check, GeneratorMap, VerificationReport, word_mul
from .splitting import KKChain, SplitData

Matrix = tuple[tuple[int, ...], ...]


def _eye(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    """``a b``, skipping the zero entries of ``a`` (K_0 matrices are sparse)."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, b, strict=True):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _hstack(*blocks: Matrix) -> Matrix:
    """Join matrices with equal row counts side by side."""
    return tuple(sum(parts, ()) for parts in zip(*blocks, strict=True))


def smith_normal_form(a: Matrix, cols: int) -> tuple[Matrix, Matrix, Matrix]:
    """Decompose ``U a V = D`` with unimodular U, V and diagonal D.

    ``a`` has ``cols`` columns.  The diagonal is nonnegative and each entry
    divides the next.  Pivoting is deterministic: the candidate of smallest
    nonzero absolute value wins, ties broken leftmost then topmost, so equal
    inputs give equal outputs.
    """
    d = [list(row) for row in a]
    if any(len(row) != cols for row in d):
        raise ValueError(f"expected a matrix with {cols} columns")
    rows = len(d)
    u = [list(row) for row in _eye(rows)]
    v = [list(row) for row in _eye(cols)]
    t = 0
    while t < min(rows, cols):
        pivot = None
        for j in range(t, cols):
            for i in range(t, rows):
                x = d[i][j]
                if x != 0:
                    key = (abs(x), j, i)
                    if pivot is None or key < pivot:
                        pivot = key
        if pivot is None:
            break
        _, pj, pi = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        hold = d[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                q = d[i][t] // hold
                if q:
                    d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                q = d[t][j] // hold
                if q:
                    for row in d:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        culprit = next(
            (
                i
                for i in range(t + 1, rows)
                if any(d[i][j] % hold != 0 for j in range(t + 1, cols))
            ),
            None,
        )
        if culprit is not None:
            d[t] = [x + y for x, y in zip(d[t], d[culprit])]
            u[t] = [x + y for x, y in zip(u[t], u[culprit])]
            continue
        t += 1
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))


def diagonal_of(d: Matrix) -> tuple[int, ...]:
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))


def kernel_basis(a: Matrix, cols: int) -> Matrix:
    """Columns spanning the integer kernel of ``a`` (a saturated sublattice).

    ``a`` has ``cols`` columns; the result has ``cols`` rows.
    """
    _, d, v = smith_normal_form(a, cols)
    rank = sum(1 for x in diagonal_of(d) if x != 0)
    return tuple(row[rank:] for row in v)


def unimodular_inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square unimodular integer matrix, via its normal form."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("only square matrices can be unimodular")
    u, d, v = smith_normal_form(m, n)
    if diagonal_of(d) != (1,) * n:
        raise ValueError("matrix is not unimodular")
    return _matmul(v, u)


def induced_k0(m: GeneratorMap) -> Matrix:
    """The matrix of ``m`` on K_0 in the vertex bases (columns = source).

    Requires every vertex image to be zero or a sum of pairwise-orthogonal
    range projections ``s_alpha s_alpha*`` with coefficient one; anything
    else has no evident K_0 class and is refused.
    """
    out = [[0] * len(m.source.vertices) for _ in m.target.vertices]
    for col, v in enumerate(m.source.vertices):
        img = m.vertex_images[v]
        words = [w for w, _ in img.terms]
        for w, c in img.terms:
            if c != 1 or w.alpha != w.beta:
                raise ValueError(
                    f"image of p[{v}] is not an orthogonal sum of path "
                    f"projections: term {c}*{w.render()}"
                )
        for i, w1 in enumerate(words):
            for w2 in words[i + 1 :]:
                if word_mul(w1, w2) is not None:
                    raise ValueError(
                        f"image of p[{v}] has non-orthogonal terms "
                        f"{w1.render()} and {w2.render()}"
                    )
        for w, _ in img.terms:
            out[m.target.index(w.alpha.range)][col] += 1
    return tuple(map(tuple, out))


@dataclass(frozen=True)
class K0SplitCheck:
    """K_0 data of one split extension plus the checklist that certifies it."""

    sink: str
    q: Matrix
    s: Matrix
    inclusion: Matrix
    report: VerificationReport


def check_split_exact_k0(sd: SplitData) -> K0SplitCheck:
    """Certify split exactness on K_0 for one sink removal.

    Checks ``Q S = I`` on the quotient summand, ``Q`` kills the ideal class,
    and the kernel of ``Q`` is exactly the copy of Z at the sink, which
    together give the decomposition of K_0 of the working graph as
    ``Z (+) Z^(N-1)``.
    """
    q = induced_k0(sd.quotient_map)
    s = induced_k0(sd.sigma)
    n = len(sd.working.vertices)
    k = sd.working.index(sd.sink)
    e_sink = tuple(int(i == k) for i in range(n))
    section_ok = _matmul(q, s) == _eye(n - 1)
    ker = kernel_basis(q, n)
    rank = len(ker[0])
    line = tuple(row[0] for row in ker) if rank == 1 else None
    kernel_ok = line in (e_sink, tuple(-x for x in e_sink))
    checks = (
        Check("k0-section", section_ok, "Q S = identity on the quotient K_0"),
        Check(
            "k0-ideal-killed",
            all(row[k] == 0 for row in q),
            "Q annihilates the ideal class",
        ),
        Check(
            "k0-kernel",
            kernel_ok,
            "ker Q is the copy of Z at the sink"
            if kernel_ok
            else f"kernel rank {rank}, expected the sink line",
        ),
        Check(
            "k0-decomposition",
            section_ok and kernel_ok,
            f"K_0 = Z^{n} splits as Z (+) Z^{n - 1}"
            if section_ok and kernel_ok
            else "needs k0-section and k0-kernel",
        ),
    )
    return K0SplitCheck(
        sink=sd.sink,
        q=q,
        s=s,
        inclusion=tuple((x,) for x in e_sink),
        report=VerificationReport(checks),
    )


@dataclass(frozen=True)
class K0ChainCheck:
    """K_0 of a whole removal chain: mutually inverse square matrices.

    ``backward`` columns push each split-off ideal class (and the terminal
    class) up into the ambient K_0; ``forward`` compresses the other way.
    Their products being identities is the K_0 shadow of the chain being an
    equivalence onto a sum of scalars.
    """

    forward: Matrix
    backward: Matrix
    report: VerificationReport


def check_chain_k0(chain: KKChain) -> K0ChainCheck:
    n = len(chain.ambient.vertices)
    cols = []
    rows = []
    prefix = _eye(n)
    qprefix = _eye(n)
    for sd in chain.steps:
        working = sd.working
        k = working.index(sd.sink)
        e_sink = tuple((int(i == k),) for i in range(len(working.vertices)))
        s = induced_k0(sd.sigma)
        q = induced_k0(sd.quotient_map)
        try:
            inv = unimodular_inverse(_hstack(e_sink, s))
        except ValueError:
            check = Check(
                "k0-step-unimodular",
                False,
                f"step at {sd.sink!r}: [e_sink | S] is not unimodular",
            )
            return K0ChainCheck(
                forward=(), backward=(), report=VerificationReport((check,))
            )
        cols.append(_matmul(prefix, e_sink))
        rows.append(_matmul(inv[:1], qprefix))
        prefix = _matmul(prefix, s)
        qprefix = _matmul(q, qprefix)
    backward = _hstack(*cols, prefix)
    forward = sum(rows, ()) + qprefix
    eye = _eye(n)
    cls = chain.ambient.classify()
    free = cls.amplified and cls.acyclic
    checks = (
        Check("k0-chain-left-inverse", _matmul(forward, backward) == eye, ""),
        Check("k0-chain-right-inverse", _matmul(backward, forward) == eye, ""),
        Check(
            "k0-rank",
            free,
            f"K_0 = Z^{n}, K_1 = 0"
            if free
            else "ambient graph is not acyclic and amplified",
        ),
    )
    return K0ChainCheck(
        forward=forward, backward=backward, report=VerificationReport(checks)
    )
