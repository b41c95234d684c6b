"""Finite directed graphs with amplified edge multiplicities.

Vertices are string labels kept in a fixed declaration order.  Each ordered
pair of vertices carries a multiplicity: ``0`` (no edges), a positive integer
(finitely many parallel edges), or :data:`OMEGA` (countably infinitely many).
A graph stores only its edge families, the pairs of nonzero multiplicity,
so its size is that of its vertex and family lists, never the square of the
vertex count.  A graph is *amplified* when every family has multiplicity
``OMEGA``; the symbolic machinery in the sibling modules requires amplified
input and rejects anything else.

A graph is validated tables read through a mask of the vertices it keeps.
The tables hold a graph's families as positions: each vertex's row of range
positions and a successor mask, with only the finite multiplicities in a
map.  They keep no object per family, so a large graph gives the cyclic
garbage collector nothing to walk; the ``(src, dst, mult)`` triples are
built when ``edges`` is first read, unless the constructor was given them.
A flag graph hands its rows straight to the tables (``AmpGraph._from_rows``).
A quotient by a hereditary set shares its parent's tables and clears the
set's bits, so a removal chain or a skeleton filtration copies no table.
That is exact: nothing leaves a hereditary set, so a family, a path or an
in-neighbour of a kept vertex stays among the kept vertices.  Every lookup
reads the tables under the mask, so a quotient builds its vertex and family
lists only when they are read.

All values are immutable and all operations are pure: they return new graphs
and never mutate shared state.  Vertex-set results are emitted as tuples
sorted in vertex order so that reports are reproducible bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Mapping
from itertools import accumulate, chain, compress
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from . import _Frozen, _built


class _Omega:
    """Multiplicity of a countably infinite family of parallel edges."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "OMEGA"

    def __reduce__(self) -> str:
        # a global's name: pickle stores the singleton by it, and copy returns it as itself
        return "OMEGA"


#: Singleton marker for countably infinite edge multiplicity.
OMEGA = _Omega()

Mult = Union[int, _Omega]


def _check_mult(m: Mult) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"invalid multiplicity {m!r}: expected 0, a positive integer, or OMEGA")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


class GraphClass(NamedTuple):
    """Shape facts that theorem preconditions read off a graph."""

    amplified: bool
    acyclic: bool
    sinks: tuple[str, ...]
    sources: tuple[str, ...]


def _positions(vertices: Iterable[str]) -> tuple[tuple[str, ...], dict[str, int]]:
    """The vertex labels and each one's position, refusing an empty, non-string or repeated label."""
    verts = tuple(vertices)
    index: dict[str, int] = {}
    for v in verts:
        if not isinstance(v, str) or not v:
            raise ValueError(f"vertex labels must be nonempty strings, got {v!r}")
        if v in index:
            raise ValueError(f"duplicate vertex label {v!r}")
        index[v] = len(index)
    return verts, index


class _Tables:
    """The validated tables of one vertex list and its families, held as positions.

    Row i's families are ``heads[starts[i]:starts[i + 1]]``, the positions of
    their ranges, strictly increasing, so ``heads`` lists every family's range
    in row-major order; ``counts`` maps ``(i, j)`` to the multiplicity of each
    finite family, every other family being OMEGA; ``finite`` has the range
    bit of each finite family; bit ``j`` of ``succ[i]`` is a family from i to
    j.  No object is kept per family, so the cyclic collector walks none: the
    ``(src, dst, mult)`` triples of :attr:`edges`, and the predecessor and
    reach masks, are built on first use.
    """

    __slots__ = ("labels", "pos", "heads", "starts", "counts", "succ", "finite", "_edges", "_pred", "_reach")

    def __init__(self, labels: tuple[str, ...], pos: dict[str, int], rows: list[list[int]],
                 counts: dict[tuple[int, int], int], edges: tuple | None = None) -> None:
        """``rows[i]`` lists the range positions of row i, strictly increasing; ``edges``, when given, their triples.

        A row count other than the vertex count, or a position repeated in
        its row, out of order or out of range, is refused.  Each row's
        successor mask is built once, from the offsets of its positions past
        the row's first: no per-family int as wide as the row.
        """
        n = len(labels)
        if len(rows) != n:
            raise ValueError(f"{len(rows)} rows of families for {n} vertices")
        succ = [0] * n
        for i, row in enumerate(rows):
            if not row:
                continue
            bits, lo, last = 0, row[0], -1
            for j in row:
                if not last < j < n:
                    if 0 <= j == last:
                        raise ValueError(f"repeated edge family {labels[i]!r} -> {labels[j]!r}")
                    raise ValueError(f"edge range position {j} out of order or out of range in row {i}")
                bits |= 1 << j - lo
                last = j
            succ[i] = bits << lo
        finite = 0
        for _, j in counts:
            finite |= 1 << j
        self.labels, self.pos, self.counts, self.succ, self.finite = labels, pos, counts, tuple(succ), finite
        self.heads = tuple(chain.from_iterable(rows))
        self.starts = tuple(accumulate(map(len, rows), initial=0))
        self._edges = edges
        self._pred = self._reach = None

    @property
    def edges(self) -> tuple[tuple[str, str, Mult], ...]:
        """The ``(src, dst, mult)`` triple of every family, in row-major order, built on first read."""
        if self._edges is None:
            labels, heads, starts, counts = self.labels, self.heads, self.starts, self.counts
            edges: list[tuple[str, str, Mult]] = []
            for i, src in enumerate(labels):
                edges += [(src, labels[j], counts.get((i, j), OMEGA)) for j in heads[starts[i]:starts[i + 1]]]
            self._edges = tuple(edges)
        return self._edges

    def plus(self, i: int, j: int) -> "_Tables":
        """These tables plus an OMEGA family from i to j, sharing the reach masks and the finite multiplicities."""
        at = bisect_left(self.heads, j, self.starts[i], self.starts[i + 1])
        t = object.__new__(_Tables)
        t.labels, t.pos, t.counts, t.finite, t._reach = self.labels, self.pos, self.counts, self.finite, self._reach
        t.heads = self.heads[:at] + (j,) + self.heads[at:]
        t.starts = self.starts[:i + 1] + tuple(map((1).__add__, self.starts[i + 1:]))
        t.succ = self.succ[:i] + (self.succ[i] | 1 << j,) + self.succ[i + 1:]
        edges = self._edges
        t._edges = None if edges is None else edges[:at] + ((self.labels[i], self.labels[j], OMEGA),) + edges[at:]
        t._pred = self._pred and self._pred[:j] + (self._pred[j] | 1 << i,) + self._pred[j + 1:]
        return t

    def pred(self) -> tuple[int, ...]:
        """Bit ``i`` of entry ``j``: a family from i to j."""
        if self._pred is None:
            heads, starts = self.heads, self.starts
            pred = [0] * len(self.labels)
            for i in range(len(pred)):
                bit = 1 << i
                for j in heads[starts[i]:starts[i + 1]]:
                    pred[j] |= bit
            self._pred = tuple(pred)
        return self._pred

    def reach(self) -> tuple[int, ...]:
        """Bit ``j`` of entry ``i``: a directed path of length >= 1 from i to j.

        The least fixpoint of ``reach[i] = succ[i] | reach[j]`` over the range
        positions j of row i, folded in place by sweeps from the last
        position down until one changes nothing.  A row whose families go
        to no earlier position reads only itself and rows the sweep has
        already folded, so when no row has a family to an earlier position
        the first sweep is the fixpoint and the only one: one sweep on a
        flag graph, whose families all go to later positions.
        """
        if self._reach is None:
            succ, heads, starts = self.succ, self.heads, self.starts
            reach = list(succ)
            back = any(heads[starts[i]] < i for i in range(len(reach)) if starts[i] < starts[i + 1])
            changed = True
            while changed:
                changed = False
                for i in range(len(reach) - 1, -1, -1):
                    folded = reach[i]
                    for j in heads[starts[i]:starts[i + 1]]:
                        folded |= reach[j]
                    if folded != reach[i]:
                        reach[i], changed = folded, True
                changed &= back
            self._reach = tuple(reach)
        return self._reach


class AmpGraph(_Frozen):
    """A finite directed graph with family-level edge multiplicities.

    ``edges`` lists the edge families ``(src, dst, mult)`` of nonzero
    multiplicity in row-major vertex order: by the position of ``src``, then
    of ``dst``.  A pair it does not list has multiplicity 0.  The constructor
    accepts the families in any order, drops those of multiplicity 0 and
    rejects unknown endpoints, invalid multiplicities and a pair given twice,
    so equal graphs compare and hash equal.  Its one validation pass looks up
    each family's two end positions; the families, sorted by them, go to the
    tables as rows of range positions, and the triples it was given are
    kept as ``edges``.

    A constructed graph keeps every vertex of its tables, a quotient fewer.
    Every lookup (``v in g``, ``len``, ``index``, ``multiplicity``,
    ``has_family``, ``is_amplified``, ``lacks``) reads the tables under the
    mask; ``vertices`` and ``edges`` are built only when read.
    """

    _fields = ("vertices", "edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, Mult]]) -> None:
        verts, index = _positions(vertices)
        seen: set[tuple[int, int]] = set()
        counts: dict[tuple[int, int], int] = {}
        keyed: list[tuple[int, int, tuple[str, str, Mult]]] = []
        for e in edges:
            src, dst, m = e
            i = index.get(src)
            if i is None:
                raise ValueError(f"unknown edge source {src!r}")
            j = index.get(dst)
            if j is None:
                raise ValueError(f"unknown edge range {dst!r}")
            finite = m is not OMEGA
            if finite:
                _check_mult(m)
            at = (i, j)
            if at in seen:
                raise ValueError(f"repeated edge family {src!r} -> {dst!r}")
            seen.add(at)
            if finite:
                if m == 0:
                    continue
                counts[at] = m
            # a given tuple is kept as it is: it holds the validated values
            keyed.append((i, j, e if type(e) is tuple else (src, dst, m)))
        keyed.sort()
        rows: list[list[int]] = [[] for _ in verts]
        for i, j, _ in keyed:
            rows[i].append(j)
        t = _Tables(verts, index, rows, counts, tuple([fam for _, _, fam in keyed]))
        self.__dict__.update(_t=t, _keep=(1 << len(verts)) - 1, vertices=verts, edges=t.edges)

    @staticmethod
    def _from_rows(vertices: Iterable[str], rows: list[list[int]]) -> "AmpGraph":
        """The amplified graph whose ``rows[i]`` lists the range positions of vertex i's families.

        The rows go to the tables as they are, so they must come strictly
        increasing, as a flag graph builds them; the tables refuse a
        repeated, out-of-order or out-of-range position.  No family triple is
        built until ``edges`` is read.
        """
        verts, index = _positions(vertices)
        return AmpGraph._on(_Tables(verts, index, rows, {}), (1 << len(verts)) - 1, vertices=verts)

    @classmethod
    def from_edges(cls, vertices: Iterable[str], edges: Iterable[tuple] = ()) -> "AmpGraph":
        """Build a graph from vertex labels and ``(src, dst[, mult])`` tuples.

        Omitted multiplicities default to OMEGA, which covers every amplified
        graph in this package.  A pair listed more than once takes its last
        multiplicity, so a later 0 deletes an earlier family.  ``edges`` may
        also be a mapping ``(src, dst) -> mult``, where a 0 likewise lists no
        family.
        """
        if isinstance(edges, Mapping):
            edges = [(src, dst, m) for (src, dst), m in edges.items()]
        last: dict[tuple[str, str], Mult] = {}
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge
                m = OMEGA
            else:
                src, dst, m = edge
            last[(src, dst)] = m
        return cls(tuple(vertices), tuple((a, b, m) for (a, b), m in last.items()))

    @staticmethod
    def _on(t: _Tables, keep: int, **known) -> "AmpGraph":
        """The graph that reads ``t`` through ``keep``, a mask closed under families."""
        g = object.__new__(AmpGraph)
        g.__dict__.update(_t=t, _keep=keep, **known)
        return g

    # -- the kept vertices and families, built when read -------------------

    @_built
    def _kept_bytes(self) -> bytes:
        """Byte ``i`` is 1 when position ``i`` is kept, else 0."""
        return f"{self._keep:0{len(self._t.labels)}b}"[::-1].encode().translate(_ZERO_ONE)

    def _kept(self) -> Iterator[int]:
        """The kept positions, in vertex order."""
        return compress(range(len(self._t.labels)), self._kept_bytes)

    @_built
    def vertices(self) -> tuple[str, ...]:
        return tuple(compress(self._t.labels, self._kept_bytes))

    @_built
    def edges(self) -> tuple[tuple[str, str, Mult], ...]:
        # a family is kept exactly when its range is
        return tuple(compress(self._t.edges, map(self._kept_bytes.__getitem__, self._t.heads)))

    # -- basic queries ---------------------------------------------------

    def __repr__(self) -> str:
        return f"AmpGraph({list(self.vertices)!r}, {len(self.edges)} families)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmpGraph):
            return NotImplemented
        if self._t is other._t:
            return self._keep == other._keep
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __len__(self) -> int:
        return self._keep.bit_count()

    def __contains__(self, v: str) -> bool:
        i = self._t.pos.get(v)
        return i is not None and bool(self._keep >> i & 1)

    def _at(self, v: str) -> int:
        """The table position of the kept vertex ``v``."""
        i = self._t.pos.get(v)
        if i is None or not self._keep >> i & 1:
            raise ValueError(f"unknown vertex {v!r}")
        return i

    def index(self, v: str) -> int:
        """The position of ``v`` among the kept vertices: the kept bits below its own."""
        return (self._keep & (1 << self._at(v)) - 1).bit_count()

    @property
    def vertex_order(self) -> Callable[[str], int]:
        """A sort key putting kept vertices in vertex order, as ``index`` does: their table positions, no bit count."""
        return self._t.pos.__getitem__

    def multiplicity(self, src: str, dst: str) -> Mult:
        i, j = self._at(src), self._at(dst)
        t = self._t
        return t.counts.get((i, j), OMEGA) if t.succ[i] >> j & 1 else 0

    def has_family(self, src: str, dst: str) -> bool:
        # a family is kept exactly when its range is
        t = self._t
        try:
            i, j = t.pos[src], t.pos[dst]
        except KeyError:
            return False
        return bool(t.succ[i] >> j & self._keep >> j & 1)

    def lacks(self, other: "AmpGraph") -> tuple[tuple[str, ...], list[tuple[str, str]]]:
        """The vertices of this graph that ``other`` lacks, then its families ``other`` lacks.

        On shared tables they are the bits this mask keeps and ``other``'s
        does not, and the families at them; otherwise labels are compared.
        """
        if self._t is other._t:
            gone = self._labels(self._keep & ~other._keep)
            return gone, self.families_at(gone)
        return (tuple(v for v in self.vertices if v not in other),
                [(a, b) for a, b, _ in self.edges if not other.has_family(a, b)])

    def is_sink(self, v: str) -> bool:
        """Whether ``v`` is a kept vertex with no kept successor: its row under the mask."""
        i = self._t.pos.get(v)
        return i is not None and bool(self._keep >> i & 1) and not self._t.succ[i] & self._keep

    def is_source(self, v: str) -> bool:
        """Whether ``v`` is a kept vertex with no kept predecessor: its predecessor row under the mask."""
        i = self._t.pos.get(v)
        return i is not None and bool(self._keep >> i & 1) and not self._t.pred()[i] & self._keep

    def is_cut(self, v: str, other: "AmpGraph") -> bool:
        """Whether ``other`` is this graph's quotient by its sink ``v``.

        On shared tables one mask comparison: ``other`` keeps this graph's
        bits less ``v``'s.  Otherwise the quotient is cut and compared.
        """
        if self._t is other._t:
            return other._keep == self._keep & ~(1 << self._at(v))
        return other == self.quotient((v,))

    def hereditary_cut(self, other: "AmpGraph") -> tuple[str, ...] | None:
        """The vertices ``other`` lacks when, on shared tables, it keeps only this graph's
        bits less a hereditary set, else ``None``: one mask test, no family listed."""
        if self._t is not other._t or other._keep & ~self._keep:
            return None
        gone = self._keep ^ other._keep
        return self._labels(gone) if self._closed(gone) else None

    def families(self) -> Iterator[tuple[str, str, Mult]]:
        """Yield the nonzero edge families in row-major (vertex) order."""
        return iter(self.edges)

    def successors(self, v: str) -> tuple[str, ...]:
        return self._labels(self._t.succ[self._at(v)] & self._keep)

    def predecessors(self, v: str) -> tuple[str, ...]:
        return self._labels(self._t.pred()[self._at(v)] & self._keep)

    def families_at(self, subset: Iterable[str]) -> list[tuple[str, str]]:
        """The families with an end in ``subset``, in row-major order: a
        member's kept successors, and the bits of ``subset`` in each row into it."""
        t, keep = self._t, self._keep
        mask = self._mask(subset)
        if not mask:
            return []
        pred = t.pred()
        rows = mask
        for j in _bits(mask):
            rows |= pred[j]
        out: list[tuple[str, str]] = []
        for i in _bits(rows):
            hit = t.succ[i] & (keep if mask >> i & 1 else mask)
            src = t.labels[i]
            out += [(src, t.labels[j]) for j in _bits(hit)]
        return out

    @property
    def is_amplified(self) -> bool:
        """No kept vertex is the range of a finite family: one mask test, no shape walk."""
        return not self._t.finite & self._keep

    # -- path structure --------------------------------------------------

    def classify(self) -> GraphClass:
        """Classify the graph: amplification, acyclicity, sinks and sources.

        Computed once per graph, or derived from its parent's by a one-sink
        cut (see :meth:`quotient`); every later call returns the same value.
        """
        return self._shape

    @_built
    def _shape(self) -> GraphClass:
        t, keep = self._t, self._keep
        cut = self.__dict__.get("_cut")
        if cut is not None:
            # the parent's facts less one sink at position i: no family left
            # it, so no source and no cycle changes, and the new sinks are
            # its in-neighbours with no kept successor, each inserted in
            # vertex order by one bisection
            parent, i = cut
            v = t.labels[i]
            sinks = list(parent.sinks)
            sinks.remove(v)
            for u in _bits(t.pred()[i] & keep):
                if not t.succ[u] & keep:
                    insort(sinks, t.labels[u], key=t.pos.__getitem__)
            sources = parent.sources
            if v in sources:
                sources = tuple(s for s in sources if s != v)
            return GraphClass(self.is_amplified, parent.acyclic, tuple(sinks), sources)
        kept = list(self._kept())
        pred, reach = t.pred(), t.reach()
        return GraphClass(
            amplified=self.is_amplified,
            acyclic=not any(reach[i] >> i & 1 for i in kept),
            sinks=tuple(t.labels[i] for i in kept if not t.succ[i] & keep),
            sources=tuple(t.labels[i] for i in kept if not pred[i] & keep),
        )

    def reachable_set(self, v: str) -> tuple[str, ...]:
        """All vertices reachable from ``v`` by a directed path of length >= 1."""
        return self._labels(self._t.reach()[self._at(v)] & self._keep)

    def _labels(self, mask: int) -> tuple[str, ...]:
        return tuple(map(self._t.labels.__getitem__, _bits(mask)))

    def _mask(self, subset: Iterable[str]) -> int:
        mask = 0
        for v in subset:
            mask |= 1 << self._at(v)
        return mask

    # -- hereditary subsets and ideals ------------------------------------

    def hereditary_closure(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The smallest hereditary set containing ``subset``."""
        reach = self._t.reach()
        closed = mask = self._mask(subset)
        for j in _bits(mask):
            closed |= reach[j]
        return self._labels(closed & self._keep)

    def _closed(self, mask: int) -> bool:
        """Whether no kept family leaves ``mask``: exactly when no path does."""
        succ, out = self._t.succ, self._keep & ~mask
        return not any(succ[j] & out for j in _bits(mask))

    def is_hereditary(self, subset: Iterable[str]) -> bool:
        """Whether no path leaves ``subset``: exactly when no family does."""
        return self._closed(self._mask(subset))

    def enumerate_hereditary(self, max_vertices: int = 20) -> list[tuple[str, ...]]:
        """All hereditary vertex subsets, sorted by size then vertex order.

        For an amplified graph this list is in bijection with the ideal
        lattice of the associated algebra.  The enumeration walks a binary
        decision tree with closure propagation, so the cost is proportional
        to the output size rather than 2^N; the bound guards memory.  The
        walk keeps its open branches on an explicit stack, so no recursion
        limit caps the vertex count.
        """
        t, keep = self._t, self._keep
        kept = list(self._kept())
        if len(kept) > max_vertices:
            raise ValueError(f"vertex count {len(kept)} exceeds enumeration bound {max_vertices}")
        reach = t.reach()
        down = {i: (reach[i] | 1 << i) & keep for i in kept}
        up = {i: 1 << i for i in kept}
        for i in kept:
            for j in _bits(reach[i] & keep):
                up[j] |= 1 << i
        found: list[int] = []
        stack = [(0, 0)]
        while stack:
            decided, included = stack.pop()
            rest = keep & ~decided
            if not rest:
                found.append(included)
                continue
            b = (rest & -rest).bit_length() - 1
            # Excluding b forces out everything that reaches b.
            if not (up[b] & included):
                stack.append((decided | up[b], included))
            # Including b drags in everything b reaches.
            if not (down[b] & decided & ~included):
                stack.append((decided | down[b], included | down[b]))
        keyed = sorted((mask.bit_count(), tuple(_bits(mask))) for mask in found)
        return [tuple(t.labels[j] for j in idxs) for _, idxs in keyed]

    def quotient(self, removed: Iterable[str]) -> "AmpGraph":
        """Delete a hereditary vertex set along with every incident family.

        Models passing to the quotient by the ideal the set generates; a
        non-hereditary set does not name an ideal and is rejected.

        The quotient reads this graph's tables through its mask less the
        bits of ``removed``; nothing is copied.  That is exact because
        nothing leaves a hereditary set (see the module docstring).

        A cut of one sink (no kept family out, a self-loop included) from a
        graph whose shape facts are read, or carried, carries them: the
        quotient records its parent's :class:`GraphClass` and the sink, and
        derives its own when first read, in the sink's in-degree.  Removing
        a sink creates no source and no cycle; its in-neighbours with no
        other kept successor become sinks.  A carried parent not yet read is
        derived first, so no derivation recurses.  Every other cut walks its
        kept vertices when its facts are read.
        """
        removed = tuple(removed)
        drop = self._mask(removed)
        if not self._closed(drop):
            raise ValueError(f"{sorted(removed)!r} is not hereditary: not a valid ideal")
        keep, i = self._keep & ~drop, drop.bit_length() - 1
        known = self.__dict__
        if drop.bit_count() == 1 and not self._t.succ[i] & self._keep and (
                "_shape" in known or "_cut" in known):
            return AmpGraph._on(self._t, keep, _cut=(self._shape, i))
        return AmpGraph._on(self._t, keep)

    # -- path-preserving edge addition ------------------------------------

    def amplify_transitive_edges(self, src: str, dst: str) -> "AmpGraph":
        """Add an OMEGA family ``src -> dst`` shadowing an existing long path.

        Legal only on amplified graphs when no direct family exists and some
        path of length >= 2 joins the pair; then the move preserves the
        path-existence relation exactly and the associated algebra up to
        isomorphism.

        The result reads new tables through this graph's mask, sharing its
        reach masks and shape facts: the move changes no path, so no reach
        mask, sink, source or cycle, and the new family is OMEGA.
        """
        if not self.is_amplified:
            raise ValueError("edge amplification requires an amplified graph")
        i, j = self._at(src), self._at(dst)
        t = self._t
        if t.succ[i] >> j & 1:
            raise ValueError(f"direct edges {src!r} -> {dst!r} already exist")
        reach = t.reach()
        via = 0
        for k in _bits(t.succ[i] & self._keep):
            via |= reach[k]
        if not (via >> j) & 1:
            raise ValueError(f"no path of length >= 2 from {src!r} to {dst!r}")
        return AmpGraph._on(t.plus(i, j), self._keep, _shape=self.classify())


def _star_scan(g: AmpGraph, sink: str) -> Iterator[str]:
    """The vertices :func:`is_star` accepts for the sink ``sink``, in vertex order, found lazily."""
    if not g.is_sink(sink):
        raise ValueError(f"{sink!r} is not a sink")
    for v in map(g._t.labels.__getitem__, _bits(g._keep)):
        if is_star(g, sink, v):
            yield v


def valid_stars(g: AmpGraph, sink: str) -> list[str]:
    """All admissible star vertices for splitting off ``sink``: those :func:`is_star` accepts."""
    return list(_star_scan(g, sink))


def first_star(g: AmpGraph, sink: str) -> str | None:
    """The first of :func:`valid_stars`, or ``None``; the scan stops there, at ``e`` on a flag graph."""
    return next(_star_scan(g, sink), None)


def is_star(g: AmpGraph, sink: str, v: str) -> bool:
    """Whether ``v`` is an admissible star for splitting off the sink ``sink``, read off ``v``'s in-neighbours.

    ``v`` qualifies when it is a vertex other than ``sink`` whose every
    in-neighbour reaches ``sink``; a source qualifies vacuously.  A ``sink``
    the graph does not keep, unknown or cut away, has no star.
    """
    t, keep = g._t, g._keep
    i, s = t.pos.get(v), t.pos.get(sink)
    if i is None or s is None or i == s or not (keep >> i & 1 and keep >> s & 1):
        return False
    bit, reach = 1 << s, t.reach()
    return all(reach[u] & bit for u in _bits(t.pred()[i] & keep))


def missing_families(g: AmpGraph, sink: str, star: str) -> list[tuple[str, str]]:
    """The families ``v -> sink`` the section at ``(sink, star)`` needs and ``g`` lacks.

    One for each in-neighbour ``v`` of ``star`` without a family into
    ``sink``, in vertex order: one difference of predecessor masks.
    """
    pred = g._t.pred()
    return [(v, sink) for v in g._labels(pred[g._at(star)] & ~pred[g._at(sink)] & g._keep)]
