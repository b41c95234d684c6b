"""Finite directed graphs with amplified edge multiplicities.

Vertices are string labels kept in a fixed declaration order.  Each ordered
pair of vertices carries a multiplicity: ``0`` (no edges), a positive integer
(finitely many parallel edges), or :data:`OMEGA` (countably infinitely many).
A graph stores only its edge families, the pairs of nonzero multiplicity,
so its size is that of its vertex and family lists, never the square of the
vertex count.  A graph is *amplified* when every family has multiplicity
``OMEGA``; the symbolic machinery in the sibling modules requires amplified
input and rejects anything else.

All values are immutable and all operations are pure: they return new graphs
and never mutate shared state.  Vertex-set results are emitted as tuples
sorted in vertex order so that reports are reproducible bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union


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
    raise ValueError(
        f"invalid multiplicity {m!r}: expected 0, a positive integer, or OMEGA"
    )


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class GraphClass:
    """Shape facts that theorem preconditions read off a graph."""

    amplified: bool
    acyclic: bool
    sinks: tuple[str, ...]
    sources: tuple[str, ...]


@dataclass(frozen=True, repr=False)
class AmpGraph:
    """A finite directed graph with family-level edge multiplicities.

    ``edges`` lists the edge families ``(src, dst, mult)`` of nonzero
    multiplicity in row-major vertex order: by the position of ``src``, then
    of ``dst``.  A pair it does not list has multiplicity 0.  The constructor
    accepts the families in any order, drops those of multiplicity 0 and
    rejects unknown endpoints, invalid multiplicities and a pair given twice,
    so equal graphs compare and hash equal.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, Mult], ...]
    _index: dict = field(init=False, repr=False, compare=False)
    #: ``(src, dst) -> mult`` for every listed family.
    _mult: dict = field(init=False, repr=False, compare=False)
    #: Bit ``j`` of entry ``i``: a family from vertex i to vertex j.
    _succ: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: Reach masks, filled on first use by :meth:`_reach_masks`.
    _reach: tuple[int, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    #: Shape facts, filled on first use by :meth:`classify`.
    _class: GraphClass | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        index: dict[str, int] = {}
        for v in verts:
            if not isinstance(v, str) or not v:
                raise ValueError(f"vertex labels must be nonempty strings, got {v!r}")
            if v in index:
                raise ValueError(f"duplicate vertex label {v!r}")
            index[v] = len(index)
        given: dict[tuple[str, str], Mult] = {}
        for src, dst, m in self.edges:
            if src not in index:
                raise ValueError(f"unknown edge source {src!r}")
            if dst not in index:
                raise ValueError(f"unknown edge range {dst!r}")
            _check_mult(m)
            if (src, dst) in given:
                raise ValueError(f"repeated edge family {src!r} -> {dst!r}")
            given[(src, dst)] = m
        edges = sorted(
            ((src, dst, m) for (src, dst), m in given.items() if m != 0),
            key=lambda e: (index[e[0]], index[e[1]]),
        )
        succ = [0] * len(verts)
        for src, dst, _ in edges:
            succ[index[src]] |= 1 << index[dst]
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_mult", {(a, b): m for a, b, m in edges})
        object.__setattr__(self, "_succ", tuple(succ))

    @classmethod
    def from_edges(
        cls, vertices: Iterable[str], edges: Iterable[tuple] = ()
    ) -> "AmpGraph":
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

    # -- basic queries ---------------------------------------------------

    def __repr__(self) -> str:
        return f"AmpGraph({list(self.vertices)!r}, {len(self.edges)} families)"

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def multiplicity(self, src: str, dst: str) -> Mult:
        self.index(src)
        self.index(dst)
        return self._mult.get((src, dst), 0)

    def families(self) -> Iterator[tuple[str, str, Mult]]:
        """Yield the nonzero edge families in row-major (vertex) order."""
        return iter(self.edges)

    def successors(self, v: str) -> tuple[str, ...]:
        return self._labels(self._succ[self.index(v)])

    def predecessors(self, v: str) -> tuple[str, ...]:
        bit = 1 << self.index(v)
        return tuple(u for u, mask in zip(self.vertices, self._succ) if mask & bit)

    @property
    def is_amplified(self) -> bool:
        return self.classify().amplified

    # -- path structure --------------------------------------------------

    def _reach_masks(self) -> tuple[int, ...]:
        """Bit ``j`` of entry ``i``: a directed path of length >= 1 from i to j.

        Computed once per graph; every path query reads the same tuple.
        """
        if self._reach is not None:
            return self._reach
        succ = self._succ
        reach: list[int] = []
        for i in range(len(self.vertices)):
            seen = 0
            frontier = succ[i]
            while frontier:
                seen |= frontier
                step = 0
                for j in _bits(frontier):
                    step |= succ[j]
                frontier = step & ~seen
            reach.append(seen)
        object.__setattr__(self, "_reach", tuple(reach))
        return self._reach

    def classify(self) -> GraphClass:
        """Classify the graph: amplification, acyclicity, sinks and sources.

        Computed once per graph; every later call returns the same value.
        """
        if self._class is not None:
            return self._class
        entered = 0
        for mask in self._succ:
            entered |= mask
        sinks = tuple(v for v, mask in zip(self.vertices, self._succ) if not mask)
        sources = tuple(
            v for j, v in enumerate(self.vertices) if not (entered >> j) & 1
        )
        reach = self._reach_masks()
        acyclic = all(not (reach[i] >> i) & 1 for i in range(len(self.vertices)))
        amplified = all(m is OMEGA for _, _, m in self.edges)
        object.__setattr__(
            self, "_class", GraphClass(amplified, acyclic, sinks, sources)
        )
        return self._class

    def reachable_set(self, v: str) -> tuple[str, ...]:
        """All vertices reachable from ``v`` by a directed path of length >= 1."""
        mask = self._reach_masks()[self.index(v)]
        return self._labels(mask)

    def _labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.vertices[j] for j in _bits(mask))

    def _mask(self, subset: Iterable[str]) -> int:
        mask = 0
        for v in subset:
            mask |= 1 << self.index(v)
        return mask

    # -- hereditary subsets and ideals ------------------------------------

    def hereditary_closure(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The smallest hereditary set containing ``subset``."""
        reach = self._reach_masks()
        mask = self._mask(subset)
        closed = mask
        for j in _bits(mask):
            closed |= reach[j]
        return self._labels(closed)

    def is_hereditary(self, subset: Iterable[str]) -> bool:
        reach = self._reach_masks()
        mask = self._mask(subset)
        return all(reach[j] & ~mask == 0 for j in _bits(mask))

    def enumerate_hereditary(self, max_vertices: int = 20) -> list[tuple[str, ...]]:
        """All hereditary vertex subsets, sorted by size then vertex order.

        For an amplified graph this list is in bijection with the ideal
        lattice of the associated algebra.  The enumeration walks a binary
        decision tree with closure propagation, so the cost is proportional
        to the output size rather than 2^N; the bound guards memory.
        """
        n = len(self.vertices)
        if n > max_vertices:
            raise ValueError(
                f"vertex count {n} exceeds enumeration bound {max_vertices}"
            )
        reach = self._reach_masks()
        down = [reach[i] | (1 << i) for i in range(n)]
        up = [1 << i for i in range(n)]
        for i in range(n):
            for j in _bits(reach[i]):
                up[j] |= 1 << i
        full = (1 << n) - 1
        found: list[int] = []

        def walk(decided: int, included: int) -> None:
            rest = full & ~decided
            if not rest:
                found.append(included)
                return
            b = (rest & -rest).bit_length() - 1
            # Excluding b forces out everything that reaches b.
            if not (up[b] & included):
                walk(decided | up[b], included)
            # Including b drags in everything b reaches.
            if not (down[b] & decided & ~included):
                walk(decided | down[b], included | down[b])

        walk(0, 0)
        keyed = sorted(
            (bin(mask).count("1"), tuple(_bits(mask))) for mask in found
        )
        return [tuple(self.vertices[j] for j in idxs) for _, idxs in keyed]

    def quotient(self, removed: Iterable[str]) -> "AmpGraph":
        """Delete a hereditary vertex set along with every incident family.

        Models passing to the quotient by the ideal the set generates; a
        non-hereditary set does not name an ideal and is rejected.

        The quotient is cut from this graph's tables, not rebuilt: its
        labels, multiplicities and pairs were checked here, and filtering
        keeps the row-major order.  When one vertex is removed (every chain
        step), the successor and reach masks are this graph's with that bit
        squeezed out.  That is exact: a path between two kept vertices never
        enters a hereditary set, since nothing leaves one.  A larger removal
        rebuilds the successor masks from the kept families and leaves the
        reach masks to be computed on first use.
        """
        removed = tuple(removed)
        if not self.is_hereditary(removed):
            raise ValueError(
                f"{sorted(removed)!r} is not hereditary: not a valid ideal"
            )
        drop = self._mask(removed)
        names = set(self._labels(drop))
        verts = tuple(v for v in self.vertices if v not in names)
        edges = tuple(
            e for e in self.edges if e[0] not in names and e[1] not in names
        )
        index = {v: i for i, v in enumerate(verts)}
        reach = None
        if len(names) == 1:
            k = drop.bit_length() - 1
            low = drop - 1

            def squeeze(masks: tuple[int, ...]) -> tuple[int, ...]:
                return tuple(
                    (m & low) | ((m >> (k + 1)) << k)
                    for i, m in enumerate(masks)
                    if i != k
                )

            succ = squeeze(self._succ)
            reach = squeeze(self._reach_masks())
        else:
            rows = [0] * len(verts)
            for src, dst, _ in edges:
                rows[index[src]] |= 1 << index[dst]
            succ = tuple(rows)
        mult = {(a, b): m for a, b, m in edges}
        return _derived(verts, edges, index, mult, succ, reach)

    # -- path-preserving edge addition ------------------------------------

    def amplify_transitive_edges(self, src: str, dst: str) -> "AmpGraph":
        """Add an OMEGA family ``src -> dst`` shadowing an existing long path.

        Legal only on amplified graphs when no direct family exists and some
        path of length >= 2 joins the pair; then the move preserves the
        path-existence relation exactly and the associated algebra up to
        isomorphism.

        The result shares this graph's reach masks and shape facts: the
        move changes no path, so no reach mask, sink, source or cycle; and
        the new family is OMEGA like every other.  The family is inserted at
        its row-major place and the rest of the tables are copied.
        """
        if not self.is_amplified:
            raise ValueError("edge amplification requires an amplified graph")
        i, j = self.index(src), self.index(dst)
        if (src, dst) in self._mult:
            raise ValueError(f"direct edges {src!r} -> {dst!r} already exist")
        reach = self._reach_masks()
        via = 0
        for k in _bits(self._succ[i]):
            via |= reach[k]
        if not (via >> j) & 1:
            raise ValueError(f"no path of length >= 2 from {src!r} to {dst!r}")
        index = self._index
        at = bisect_left(self.edges, (i, j), key=lambda e: (index[e[0]], index[e[1]]))
        edges = self.edges[:at] + ((src, dst, OMEGA),) + self.edges[at:]
        succ = list(self._succ)
        succ[i] |= 1 << j
        mult = dict(self._mult)
        mult[(src, dst)] = OMEGA
        return _derived(
            self.vertices, edges, index, mult, tuple(succ), reach, self._class
        )


def _derived(
    vertices: tuple[str, ...],
    edges: tuple[tuple[str, str, Mult], ...],
    index: dict,
    mult: dict,
    succ: tuple[int, ...],
    reach: tuple[int, ...] | None = None,
    shape: GraphClass | None = None,
) -> AmpGraph:
    """A graph assembled from tables derived from a validated parent graph.

    Only :meth:`AmpGraph.quotient` and :meth:`AmpGraph.amplify_transitive_edges`
    call this; each proves its tables equal to those the constructor would
    build from ``vertices`` and ``edges``.
    """
    g = object.__new__(AmpGraph)
    object.__setattr__(g, "vertices", vertices)
    object.__setattr__(g, "edges", edges)
    object.__setattr__(g, "_index", index)
    object.__setattr__(g, "_mult", mult)
    object.__setattr__(g, "_succ", succ)
    object.__setattr__(g, "_reach", reach)
    object.__setattr__(g, "_class", shape)
    return g


def valid_stars(g: AmpGraph, sink: str) -> list[str]:
    """All admissible star vertices for splitting off ``sink``.

    A vertex ``v != sink`` qualifies when it is a source, or when every
    vertex with an edge family into it also has a path to ``sink``.
    """
    cls = g.classify()
    if sink not in cls.sinks:
        raise ValueError(f"{sink!r} is not a sink")
    reach = g._reach_masks()
    bit = 1 << g.index(sink)
    blocked = {dst for src, dst, _ in g.families() if not reach[g.index(src)] & bit}
    return [v for v in g.vertices if v != sink and v not in blocked]
