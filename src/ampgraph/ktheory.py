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

A map sends every vertex it does not move to the vertex of the same label,
so its K_0 matrix is the identity on labels except in the columns of the
vertices it moves: a step's S differs from it in the star's column and Q in
the sink's.  A step keeps no K_0 state: each check reads those columns off
the two patches, as K_0 classes keyed by label, and decides the step's
certificate on them.  The chain check reads the columns of the prefix
products ``S_1 ... S_i`` off :mod:`ampgraph.algebra`'s one prefix fold,
which it feeds the sections' classes: the fold holds each moved column as
a table keyed by label, adds the sink's column into the star's in place,
and hands out each sink's column before that step.  It keeps
``Q_i ... Q_1`` as rows keyed by the labels of the current graph and
pushes each row its quotient map moves into the rows its class names.
Sparse columns and rows are dicts from an index to the nonzero entries;
each sum is added into one in place, by the prefix fold's ``_add_into``.
Reports expose dense matrices, tuples of rows of Python ints, which
serialise to JSON as they are; a step's dense Q and S, and a chain's
forward and backward, are built only when read, so a caller that reads
only the verdicts pays for none.  A dense matrix with no rows is ``()``
and does not record its column count.
"""

from __future__ import annotations

from . import _Frozen, _built
from .algebra import Check, GeneratorMap, VerificationReport, _add_into, _prefix_fold, _range_counts
from .graphs import AmpGraph
from .splitting import KKChain, SplitData

Matrix = tuple[tuple[int, ...], ...]
Column = dict[int, int]
Columns = tuple[Column, ...]


def _dense(cols: Columns, rows: int) -> Matrix:
    out = [[0] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            out[i][j] = x
    return tuple(map(tuple, out))


def _is_left_inverse(a: dict, b: Columns) -> bool:
    """Whether ``A B`` is the identity with as many columns as ``B``; ``a`` maps a column index to its column."""
    for j, col in enumerate(b):
        acc: dict = {}
        for x, c in col.items():
            _add_into(acc, c, a.get(x, {}))
        if acc != {j: 1}:
            return False
    return True


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


def _section_holds(target: AmpGraph, source: AmpGraph, q: dict, s: dict) -> bool:
    """Whether ``Q S`` is the identity.

    ``q`` and ``s`` are the moved classes of the quotient map and the
    section, ``target`` Q's target graph and ``source`` S's source graph.
    ``Q S = I`` is stated in the vertex bases of the two graphs, so it can
    hold only when they list the same labels in the same order; on a chain
    they are one graph, whose lists are not built.  Then a column neither
    map moves gives ``Q S e_u = e_u``, so only the columns either map moves
    are multiplied.
    """
    if target is not source and target.vertices != source.vertices:
        return False
    for u in (*s, *(x for x in q if x in source and x not in s)):
        acc: dict = {}
        for x, c in s.get(u, {u: 1}).items():
            _add_into(acc, c, q.get(x, {x: 1}))
        if acc != {u: 1}:
            return False
    return True


def _step_certificate(sd: SplitData) -> tuple[dict, dict, bool, bool]:
    """The step's moved classes ``(Q, S)``, then ``Q S = I`` and ``Q e_sink = 0``.

    A pure function of the two maps' patches.  Q kills the sink class
    exactly when the quotient map moves the sink to zero.
    """
    q, s = _range_counts(sd.quotient_map), _range_counts(sd.sigma)
    killed = sd.sink in q and not q[sd.sink]
    return q, s, _section_holds(sd.quotient_map.target, sd.sigma.source, q, s), killed


def _columns(m: GeneratorMap, moved: dict) -> Columns:
    """The K_0 matrix of ``m`` as sparse columns, from the classes ``moved`` of its moved vertices."""
    index = m.target.index
    return tuple([{index(x): c for x, c in moved.get(v, {v: 1}).items()} for v in m.source.vertices])


def induced_k0(m: GeneratorMap) -> Columns:
    """The matrix of ``m`` on K_0 in the vertex bases, as sparse columns.

    Column j belongs to the j-th source vertex ``v`` and holds the table of
    ``m(p_v)`` at each target vertex index.  An image with a coefficient
    other than 1 is not a sum of distinct vertex projections and is refused.
    """
    return _columns(m, _range_counts(m))


class K0SplitCheck(_Frozen):
    """K_0 data of one split extension plus the checklist that certifies it.

    The dense ``q``, ``s`` and ``inclusion`` are built from ``step`` and
    the moved ``classes`` of its quotient map and section when first read;
    two checks are equal when their sink, q, s, inclusion and report are.
    A check is immutable and unhashable.
    """

    _fields = ("sink", "q", "s", "inclusion", "report")
    __hash__ = None

    def __init__(self, sink: str, report: VerificationReport, step: SplitData, classes: tuple[dict, dict]) -> None:
        super().__init__(sink=sink, report=report, step=step, classes=classes)

    @_built
    def q(self) -> Matrix:
        return _dense(_columns(self.step.quotient_map, self.classes[0]), len(self.step.quotient_map.target))

    @_built
    def s(self) -> Matrix:
        return _dense(_columns(self.step.sigma, self.classes[1]), len(self.step.working))

    @_built
    def inclusion(self) -> Matrix:
        k = self.step.working.index(self.sink)
        return tuple((int(i == k),) for i in range(len(self.step.working)))

    def __repr__(self) -> str:
        return f"K0SplitCheck(sink={self.sink!r}, report={self.report!r})"


def check_split_exact_k0(sd: SplitData) -> K0SplitCheck:
    """Certify split exactness on K_0 for one sink removal.

    Checks ``Q S = I`` on the quotient summand, ``Q`` kills the ideal class,
    and the kernel of ``Q`` is exactly the copy of Z at the sink, which
    together give the decomposition of K_0 of the working graph as
    ``Z (+) Z^(N-1)``.  The first two make the left-inverse certificate, which
    proves the third; only without it is the kernel decided by the rank of Q.
    The dense Q and S are built from the classes certified when first read.
    """
    q_moved, s_moved, section_ok, killed = _step_certificate(sd)
    n, certified = len(sd.working), section_ok and killed
    report = _K0_PASSED.get(n) if certified else None
    if report is None:
        nullity = 1 if certified else n - _rank(_columns(sd.quotient_map, q_moved))
        kernel_ok = killed and nullity == 1
        report = VerificationReport((
            Check("k0-section", section_ok, "Q S = identity on the quotient K_0" if section_ok
                  else "Q S is not the identity on the quotient K_0"),
            Check("k0-ideal-killed", killed, "Q annihilates the ideal class" if killed
                  else "Q does not annihilate the ideal class"),
            Check("k0-kernel", kernel_ok, "ker Q is the copy of Z at the sink" if kernel_ok
                  else f"kernel rank {nullity}, expected the sink line"),
            Check("k0-decomposition", section_ok and kernel_ok, f"K_0 = Z^{n} splits as Z (+) Z^{n - 1}"
                  if section_ok and kernel_ok else "needs k0-section and k0-kernel"),
        ))
        if certified:
            _K0_PASSED[n] = report
    return K0SplitCheck(sd.sink, report, sd, (q_moved, s_moved))


#: The report of a certified step, by vertex count: a report is immutable,
#: so every certified step of that size gets the same one.
_K0_PASSED: dict[int, VerificationReport] = {}


class K0ChainCheck(_Frozen):
    """K_0 of a whole removal chain: mutually inverse square matrices.

    ``backward`` columns push each split-off ideal class (and the terminal
    class) up into the ambient K_0; ``forward`` compresses the other way.
    Their products being identities is the K_0 shadow of the chain being an
    equivalence onto a sum of scalars.  The dense matrices are built from
    their sparse ``columns`` and row counts ``rows`` when first read; two
    checks are equal when their forward, backward and report are.
    ``uncertified`` holds, in step order, the sinks whose certificate fails.
    """

    _fields = ("forward", "backward", "report")

    def __init__(self, report: VerificationReport, columns: tuple[Columns, Columns], rows: tuple[int, int], uncertified: tuple[str, ...]) -> None:
        super().__init__(report=report, columns=columns, rows=rows, uncertified=uncertified)

    @_built
    def forward(self) -> Matrix:
        return _dense(self.columns[0], self.rows[0])

    @_built
    def backward(self) -> Matrix:
        return _dense(self.columns[1], self.rows[1])


def check_chain_k0(chain: KKChain) -> K0ChainCheck:
    """Assemble and check the K_0 matrices of a removal chain.

    Step i contributes the column ``S_1 ... S_(i-1) e_sink`` of ``backward``
    and the row ``N_i[0] Q_(i-1) ... Q_1`` of ``forward``, where ``N_i[0]``
    is the first row of the step's left-inverse certificate.  A step without
    a certificate fails ``k0-step-unimodular``, named after the first, and
    lists its sink in ``uncertified``; the chain is still assembled from
    the same formula and checked.

    The columns ``S_1 ... S_i e_v`` come from the prefix fold
    (:func:`~ampgraph.algebra._prefix_fold`) fed each step's sink and the
    classes of the vertices its section moves: it yields the column at each
    sink before the step, and the columns at the terminal vertices last,
    keyed by ambient label.  The rows ``e_v Q_i ... Q_1`` are keyed by the
    label ``v`` of the current graph and indexed by the ambient vertices:
    each row the quotient map moves, the sink's included, is dropped and
    pushed, times its coefficients, into the rows its class names.  The
    forward row is ``e_sink Q_(i-1) ... Q_1 - S[sink, :] Q_i ... Q_1``,
    read off the rows before and after that update; every other row
    carries over.
    """
    position = {v: i for i, v in enumerate(chain.ambient.vertices)}
    n = len(position)
    rows = {v: {i: 1} for v, i in position.items()}
    forward: list[Column] = []
    backward: list[Column] = []
    uncertified: list[str] = []
    failure = None
    certificates = [_step_certificate(sd) for sd in chain.steps]
    prefix = _prefix_fold((sd.sink, s, {}) for sd, (_, s, _, _) in zip(chain.steps, certificates))
    for sd, (q, s, section_ok, killed), at_sink in zip(chain.steps, certificates, prefix):
        if not (section_ok and killed):
            if not uncertified:
                what = ["Q S is not the identity"] if not section_ok else []
                if not killed:
                    what.append("Q does not kill the sink class")
                failure = Check(
                    "k0-step-unimodular",
                    False,
                    f"step at {sd.sink!r}: no left inverse certifies [e_sink | S]: {' and '.join(what)}",
                )
            uncertified.append(sd.sink)
        backward.append({position[x]: c for x, c in at_sink.items()})
        # N[0] Q_(i-1) ... Q_1 = e_sink Q_(i-1) ... Q_1 - S[sink, :] Q_i ... Q_1
        row = dict(rows.get(sd.sink, {}))
        moved_rows = {x: rows.pop(x, {}) for x in q}
        for x, table in q.items():
            for y, d in table.items():
                _add_into(rows.setdefault(y, {}), d, moved_rows[x])
        for u, table in s.items():
            if sd.sink in table:
                _add_into(row, -table[sd.sink], rows.get(u, {}))
        forward.append(row)
    terminal = chain.terminal.vertices
    tables, _ = next(prefix)
    forward += [rows.get(v, {}) for v in terminal]
    backward += [{position[x]: c for x, c in tables.get(v, {v: 1}).items()} for v in terminal]
    forward_cols: dict[int, Column] = {}
    for i, row in enumerate(forward):
        for c, x in row.items():
            forward_cols.setdefault(c, {})[i] = x
    cls = chain.ambient.classify()
    free = cls.amplified and cls.acyclic
    # F B = I gives B F = I only for square F and B
    inverse = len(forward) == n and _is_left_inverse(forward_cols, tuple(backward))
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
    columns = (tuple(forward_cols.get(c, {}) for c in range(n)), tuple(backward))
    return K0ChainCheck(VerificationReport(checks), columns, (len(forward), n), tuple(uncertified))


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
