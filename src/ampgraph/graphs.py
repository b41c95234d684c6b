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

from bisect import bisect_left
from collections.abc import Mapping
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Union


class _Omega:
    """Multiplicity of a countably infinite family of parallel edges."""

    __slots__ = ()
    _instance: "_Omega | None" = None

    def __new__(cls) -> "_Omega":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OMEGA"

    def __reduce__(self):
        return (_Omega, ())


#: Singleton marker for countably infinite edge multiplicity.
OMEGA = _Omega()

Mult = Union[int, _Omega]


def _check_mult(m: Mult) -> None:
    if m is OMEGA:
        return
    if isinstance(m, int) and not isinstance(m, bool) and m >= 0:
        return
    raise ValueError(f"invalid multiplicity {m!r}: expected 0, a positive integer, or OMEGA")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


class _built:
    """An attribute built on first read, then kept in the instance dict."""

    def __init__(self, build) -> None:
        self.build = build

    def __get__(self, g: "AmpGraph | None", owner: type):
        if g is None:
            return self
        value = g.__dict__[self.build.__name__] = self.build(g)
        return value


class GraphClass(NamedTuple):
    """Shape facts that theorem preconditions read off a graph."""

    amplified: bool
    acyclic: bool
    sinks: tuple[str, ...]
    sources: tuple[str, ...]


class _Tables:
    """The validated tables of one vertex list and row-major family list.

    ``mult`` maps each family ``(src, dst)`` to its multiplicity;
    ``heads[k]`` is the position of family ``k``'s range; ``finite`` has the
    range bit of each family that is not OMEGA; bit ``j`` of ``succ[i]`` is a
    family from i to j.  Predecessor and reach masks are built on first use.
    """

    __slots__ = ("labels", "pos", "edges", "mult", "heads", "succ", "finite", "_pred", "_reach")

    def __init__(self, labels: tuple[str, ...], pos: dict[str, int], keyed: list, mult: dict) -> None:
        """``keyed`` lists ``(i, j, family)`` in row-major order, i and j the family's end positions."""
        edges, succ, heads, finite = [], [0] * len(labels), [], 0
        for i, j, fam in keyed:
            edges.append(fam)
            heads.append(j)
            succ[i] |= 1 << j
            if fam[2] is not OMEGA:
                finite |= 1 << j
        self.labels, self.pos, self.edges, self.mult, self.heads = labels, pos, tuple(edges), mult, tuple(heads)
        self.succ, self.finite = tuple(succ), finite
        self._pred = self._reach = None

    def plus(self, i: int, j: int) -> "_Tables":
        """These tables plus an OMEGA family from i to j, sharing the reach masks."""
        pos, src, dst = self.pos, self.labels[i], self.labels[j]
        at = bisect_left(self.edges, (i, j), key=lambda e: (pos[e[0]], pos[e[1]]))
        t = object.__new__(_Tables)
        t.labels, t.pos, t.finite, t._reach = self.labels, pos, self.finite, self._reach
        t.edges = self.edges[:at] + ((src, dst, OMEGA),) + self.edges[at:]
        t.mult = {**self.mult, (src, dst): OMEGA}
        t.heads = self.heads[:at] + (j,) + self.heads[at:]
        t.succ = self.succ[:i] + (self.succ[i] | 1 << j,) + self.succ[i + 1:]
        t._pred = self._pred and self._pred[:j] + (self._pred[j] | 1 << i,) + self._pred[j + 1:]
        return t

    def pred(self) -> tuple[int, ...]:
        """Bit ``i`` of entry ``j``: a family from i to j."""
        if self._pred is None:
            pred = [0] * len(self.labels)
            for (src, _, _), j in zip(self.edges, self.heads):
                pred[j] |= 1 << self.pos[src]
            self._pred = tuple(pred)
        return self._pred

    def reach(self) -> tuple[int, ...]:
        """Bit ``j`` of entry ``i``: a directed path of length >= 1 from i to j.

        The least fixpoint of ``reach[i] = succ[i] | reach[j]`` over the bits j
        of ``succ[i]``, folded in place by sweeps from the last position down
        until one changes nothing: two on a flag graph, whose families all go
        to later positions.
        """
        if self._reach is None:
            succ, reach, changed = self.succ, list(self.succ), True
            while changed:
                changed = False
                for i in range(len(reach) - 1, -1, -1):
                    folded = reach[i]
                    for j in _bits(succ[i]):
                        folded |= reach[j]
                    if folded != reach[i]:
                        reach[i], changed = folded, True
            self._reach = tuple(reach)
        return self._reach


class AmpGraph:
    """A finite directed graph with family-level edge multiplicities.

    ``edges`` lists the edge families ``(src, dst, mult)`` of nonzero
    multiplicity in row-major vertex order: by the position of ``src``, then
    of ``dst``.  A pair it does not list has multiplicity 0.  The constructor
    accepts the families in any order, drops those of multiplicity 0 and
    rejects unknown endpoints, invalid multiplicities and a pair given twice,
    so equal graphs compare and hash equal.  Its one validation pass looks up
    each family's two end positions, and the families are sorted by them,
    a linear pass when they come row-major, as a flag graph hands them over.

    A constructed graph keeps every vertex of its tables, a quotient fewer.
    Every lookup (``v in g``, ``len``, ``index``, ``multiplicity``,
    ``has_family``, ``is_amplified``, ``lacks``) reads the tables under the
    mask; ``vertices`` and ``edges`` are built only when read.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, Mult]]) -> None:
        verts = tuple(vertices)
        index: dict[str, int] = {}
        for v in verts:
            if not isinstance(v, str) or not v:
                raise ValueError(f"vertex labels must be nonempty strings, got {v!r}")
            if v in index:
                raise ValueError(f"duplicate vertex label {v!r}")
            index[v] = len(index)
        mult: dict[tuple[str, str], Mult] = {}
        zeros: set[tuple[str, str]] = set()
        keyed: list[tuple[int, int, tuple[str, str, Mult]]] = []
        for e in edges:
            src, dst, m = e
            i = index.get(src)
            if i is None:
                raise ValueError(f"unknown edge source {src!r}")
            j = index.get(dst)
            if j is None:
                raise ValueError(f"unknown edge range {dst!r}")
            _check_mult(m)
            fam = (src, dst)
            if fam in mult or fam in zeros:
                raise ValueError(f"repeated edge family {src!r} -> {dst!r}")
            if m == 0:
                zeros.add(fam)
            else:
                mult[fam] = m
                # a given tuple is kept as it is: it holds the validated values
                keyed.append((i, j, e if type(e) is tuple else (src, dst, m)))
        keyed.sort()
        t = _Tables(verts, index, keyed, mult)
        self.__dict__.update(_t=t, _keep=(1 << len(verts)) - 1, vertices=verts, edges=t.edges)

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

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"AmpGraph is immutable: cannot set {name!r}")

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

    def multiplicity(self, src: str, dst: str) -> Mult:
        self._at(src)
        self._at(dst)
        return self._t.mult.get((src, dst), 0)

    def has_family(self, src: str, dst: str) -> bool:
        # a family is kept exactly when its range is
        return (src, dst) in self._t.mult and dst in self

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

        Computed once per graph; every later call returns the same value.
        """
        return self._shape

    @_built
    def _shape(self) -> GraphClass:
        t, keep = self._t, self._keep
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
        """
        removed = tuple(removed)
        drop = self._mask(removed)
        if not self._closed(drop):
            raise ValueError(f"{sorted(removed)!r} is not hereditary: not a valid ideal")
        return AmpGraph._on(self._t, self._keep & ~drop)

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
    if sink not in g.classify().sinks:
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
    in-neighbour reaches ``sink``; a source qualifies vacuously.
    """
    if v == sink or v not in g:
        return False
    t = g._t
    bit, reach = 1 << t.pos[sink], t.reach()
    return all(reach[i] & bit for i in _bits(t.pred()[t.pos[v]] & g._keep))
