"""Exact integer K-theory bookkeeping for amplified graph algebras.

For a finite acyclic amplified graph the even K-group is free on the vertex
projection classes and the odd group vanishes, so every map this package
constructs acts on K_0 through an integer matrix in the vertex bases.  The
module builds those matrices from the K_0 class of each vertex image, which
:mod:`ampgraph.algebra` reads off the image's table of vertex-projection
coefficients, and certifies, by multiplication alone, that a split
extension really decomposes K_0.

A sink removal gives the quotient matrix Q and the section matrix S.  When
``Q S = I`` and ``Q e_sink = 0``, the matrix
``N = [e_sink^T - S[sink, :] Q ; Q]`` satisfies ``N [e_sink | S] = I``.  A
square integer matrix with an integer left inverse is unimodular, so
``[e_sink | S]`` is invertible over the integers, N is its inverse and
``ker Q = Z e_sink``.  No elimination runs when this certificate holds; only
when it fails is the kernel of Q decided by an exact rank.

K_0 maps are held as sparse columns: column j is a dict from row index to
the nonzero entries of that column.  A step's columns are extracted from its
maps once and kept on its :class:`~ampgraph.splitting.SplitData`, with the
two halves of its certificate; every check reads them and none writes to
them.  Reports expose dense matrices, tuples of rows of Python ints, which
serialise to JSON as they are.  A dense matrix with no rows is ``()`` and
does not record its column count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Check, GeneratorMap, VerificationReport, _range_counts
from .splitting import KKChain, SplitData

Matrix = tuple[tuple[int, ...], ...]
Column = dict[int, int]
Columns = tuple[Column, ...]


def _apply(cols: Columns, vec: Column) -> Column:
    """``A x`` for ``A`` given by its columns and a sparse vector ``x``."""
    out: Column = {}
    for r, x in vec.items():
        for i, y in cols[r].items():
            out[i] = out.get(i, 0) + x * y
    return {i: x for i, x in out.items() if x}


def _dot(a: Column, b: Column) -> int:
    if len(a) > len(b):
        a, b = b, a
    return sum(x * b.get(i, 0) for i, x in a.items())


def _dense(cols: Columns, rows: int) -> Matrix:
    out = [[0] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            out[i][j] = x
    return tuple(map(tuple, out))


def _is_left_inverse(a: Columns, b: Columns) -> bool:
    """Whether ``A B`` is the identity with as many columns as ``B``."""
    return all(_apply(a, col) == {j: 1} for j, col in enumerate(b))


def _rank(cols: Columns) -> int:
    """Rank over the rationals, by fraction-free elimination of the columns."""
    pivots: dict[int, Column] = {}
    for col in cols:
        while col:
            top = min(col)
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = col
                break
            a, b = col[top], pivot[top]
            col = {
                i: x
                for i in col.keys() | pivot.keys()
                if (x := b * col.get(i, 0) - a * pivot.get(i, 0))
            }
    return len(pivots)


def _step_columns(sd: SplitData) -> tuple[Columns, Columns, bool, bool]:
    """The step's ``(Q, S, Q S = I, Q e_sink = 0)``, decided on first use and kept on ``sd``."""
    if sd._k0 is None:
        q, s = induced_k0(sd.quotient_map), induced_k0(sd.sigma)
        killed = not q[sd.working.index(sd.sink)]
        object.__setattr__(sd, "_k0", (q, s, _is_left_inverse(q, s), killed))
    return sd._k0


def induced_k0(m: GeneratorMap) -> Columns:
    """The matrix of ``m`` on K_0 in the vertex bases, as sparse columns.

    Column j belongs to the j-th source vertex ``v`` and holds the table of
    ``m(p_v)`` at each target vertex index.  An image with a coefficient
    other than 1 is not a sum of distinct vertex projections and is refused.
    """
    index = m.target.index
    return tuple([{index(x): c for x, c in counts.items()} for counts in _range_counts(m)])


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
    ``Z (+) Z^(N-1)``.  The first two make the left-inverse certificate, which
    proves the third; only without it is the kernel decided by the rank of Q.
    """
    q, s, section_ok, killed = _step_columns(sd)
    n = len(sd.working.vertices)
    k = sd.working.index(sd.sink)
    nullity = 1 if section_ok and killed else n - _rank(q)
    kernel_ok = killed and nullity == 1
    checks = (
        Check(
            "k0-section",
            section_ok,
            "Q S = identity on the quotient K_0"
            if section_ok
            else "Q S is not the identity on the quotient K_0",
        ),
        Check(
            "k0-ideal-killed",
            killed,
            "Q annihilates the ideal class"
            if killed
            else "Q does not annihilate the ideal class",
        ),
        Check(
            "k0-kernel",
            kernel_ok,
            "ker Q is the copy of Z at the sink"
            if kernel_ok
            else f"kernel rank {nullity}, expected the sink line",
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
        q=_dense(q, len(sd.quotient_map.target.vertices)),
        s=_dense(s, n),
        inclusion=tuple((int(i == k),) for i in range(n)),
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
    """Assemble and check the K_0 matrices of a removal chain.

    Step i contributes the column ``S_1 ... S_(i-1) e_sink`` of ``backward``
    and the row ``N_i[0] Q_(i-1) ... Q_1`` of ``forward``, where ``N_i[0]``
    is the first row of the step's left-inverse certificate.  A step without
    a certificate fails ``k0-step-unimodular``; the chain is still assembled
    from the same formula and checked.
    """
    n = len(chain.ambient.vertices)
    unit = tuple({i: 1} for i in range(n))
    prefix = unit  # S_1 ... S_i: columns over the working vertices
    qprefix = unit  # Q_i ... Q_1: columns over the ambient vertices
    forward_cols: list[Column] = [{} for _ in range(n)]
    backward: list[Column] = []
    failure = None
    for step, sd in enumerate(chain.steps):
        k = sd.working.index(sd.sink)
        q, s, section_ok, killed = _step_columns(sd)
        if not (section_ok and killed) and failure is None:
            what = ["Q S is not the identity"] if not section_ok else []
            if not killed:
                what.append("Q does not kill the sink class")
            failure = Check(
                "k0-step-unimodular",
                False,
                f"step at {sd.sink!r}: no left inverse certifies [e_sink | S]: {' and '.join(what)}",
            )
        s_row = {j: col[k] for j, col in enumerate(s) if k in col}
        row = {k: 1}
        for c, col in enumerate(q):
            if x := _dot(s_row, col):
                row[c] = row.get(c, 0) - x
        for c, col in enumerate(qprefix):
            if x := _dot(row, col):
                forward_cols[c][step] = x
        backward.append(prefix[k])
        prefix = tuple(_apply(prefix, col) for col in s)
        qprefix = tuple(_apply(q, col) for col in qprefix)
    steps = len(chain.steps)
    for c, col in enumerate(qprefix):
        for t, x in col.items():
            forward_cols[c][steps + t] = x
    rows = steps + len(chain.terminal.vertices)
    backward.extend(prefix)
    cls = chain.ambient.classify()
    free = cls.amplified and cls.acyclic
    # F B = I gives B F = I only for square F and B
    inverse = rows == n and _is_left_inverse(tuple(forward_cols), tuple(backward))
    checks = (
        Check(
            "k0-chain-inverse",
            inverse,
            "forward and backward are mutually inverse"
            if inverse
            else "the product forward backward is not the identity",
        ),
        Check(
            "k0-rank",
            free,
            f"K_0 = Z^{n}, K_1 = 0"
            if free
            else "ambient graph is not acyclic and amplified",
        ),
    )
    if failure is not None:
        checks = (failure,) + checks
    return K0ChainCheck(
        forward=_dense(tuple(forward_cols), rows),
        backward=_dense(tuple(backward), n),
        report=VerificationReport(checks),
    )


def smith_normal_form(a: Matrix, cols: int) -> tuple[Matrix, Matrix, Matrix]:
    """Decompose ``U a V = D`` with unimodular U, V and diagonal D.

    Not used by the checks above; the test oracles build kernels and
    inverses on it, and the benchmark's traced run still wraps it by name.
    ``a`` has ``cols`` columns.  The diagonal is nonnegative and each entry
    divides the next.  Pivoting is deterministic: the candidate of smallest
    nonzero absolute value wins, ties broken leftmost then topmost, so equal
    inputs give equal outputs.
    """
    d = [list(row) for row in a]
    if any(len(row) != cols for row in d):
        raise ValueError(f"expected a matrix with {cols} columns")
    rows = len(d)
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
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
