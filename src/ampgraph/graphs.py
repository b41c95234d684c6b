"""Finite directed graphs with amplified edge multiplicities.

Vertices are string labels kept in a fixed declaration order.  Each ordered
pair of vertices carries a multiplicity: ``0`` (no edges), a positive integer
(finitely many parallel edges), or :data:`OMEGA` (countably infinitely many).
A graph is *amplified* when every multiplicity is ``0`` or ``OMEGA``; the
symbolic machinery in the sibling modules requires amplified input and
rejects anything else.

All values are immutable and all operations are pure: they return new graphs
and never mutate shared state.  Vertex-set results are emitted as tuples
sorted in vertex order so that reports are reproducible bit for bit.
"""

from __future__ import annotations

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

    ``mult[i][j]`` is the multiplicity of the edge family from ``vertices[i]``
    to ``vertices[j]``.  The matrix is square and indexed in vertex order.
    """

    vertices: tuple[str, ...]
    mult: tuple[tuple[Mult, ...], ...]
    _index: dict = field(init=False, repr=False, compare=False)
    #: Reach masks, filled on first use by :meth:`_reach_masks`.
    _reach: tuple[int, ...] | None = field(
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
        rows = tuple(tuple(row) for row in self.mult)
        n = len(verts)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"multiplicity matrix must be {n}x{n}")
        for row in rows:
            for m in row:
                _check_mult(m)
        object.__setattr__(self, "mult", rows)
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_edges(
        cls,
        vertices: Iterable[str],
        edges: Iterable[tuple] = (),
        default: Mult = OMEGA,
    ) -> "AmpGraph":
        """Build a graph from vertex labels and ``(src, dst[, mult])`` tuples.

        Omitted multiplicities default to OMEGA, which covers every amplified
        graph in this package.
        """
        verts = tuple(vertices)
        index = {v: i for i, v in enumerate(verts)}
        grid: list[list[Mult]] = [[0] * len(verts) for _ in verts]
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge
                m = default
            else:
                src, dst, m = edge
            if src not in index:
                raise ValueError(f"unknown edge source {src!r}")
            if dst not in index:
                raise ValueError(f"unknown edge range {dst!r}")
            grid[index[src]][index[dst]] = m
        return cls(verts, tuple(tuple(row) for row in grid))

    # -- basic queries ---------------------------------------------------

    def __repr__(self) -> str:
        fams = sum(1 for _ in self.families())
        return f"AmpGraph({list(self.vertices)!r}, {fams} families)"

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def multiplicity(self, src: str, dst: str) -> Mult:
        return self.mult[self.index(src)][self.index(dst)]

    def families(self) -> Iterator[tuple[str, str, Mult]]:
        """Yield the nonzero edge families in row-major (vertex) order."""
        for i, src in enumerate(self.vertices):
            for j, dst in enumerate(self.vertices):
                m = self.mult[i][j]
                if m != 0:
                    yield src, dst, m

    def successors(self, v: str) -> tuple[str, ...]:
        i = self.index(v)
        return tuple(
            w for j, w in enumerate(self.vertices) if self.mult[i][j] != 0
        )

    def predecessors(self, v: str) -> tuple[str, ...]:
        j = self.index(v)
        return tuple(
            w for i, w in enumerate(self.vertices) if self.mult[i][j] != 0
        )

    @property
    def is_amplified(self) -> bool:
        return all(
            m == 0 or m is OMEGA for row in self.mult for m in row
        )

    # -- path structure --------------------------------------------------

    def _succ_masks(self) -> list[int]:
        n = len(self.vertices)
        return [
            sum(1 << j for j in range(n) if self.mult[i][j] != 0)
            for i in range(n)
        ]

    def _reach_masks(self) -> tuple[int, ...]:
        """Bit ``j`` of entry ``i``: a directed path of length >= 1 from i to j.

        Computed once per graph; every path query reads the same tuple.
        """
        if self._reach is not None:
            return self._reach
        succ = self._succ_masks()
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
        """Classify the graph: amplification, acyclicity, sinks and sources."""
        n = len(self.vertices)
        sinks = tuple(
            v for i, v in enumerate(self.vertices)
            if all(self.mult[i][j] == 0 for j in range(n))
        )
        sources = tuple(
            v for j, v in enumerate(self.vertices)
            if all(self.mult[i][j] == 0 for i in range(n))
        )
        reach = self._reach_masks()
        acyclic = all(not (reach[i] >> i) & 1 for i in range(n))
        return GraphClass(self.is_amplified, acyclic, sinks, sources)

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
        """
        removed = tuple(removed)
        if not self.is_hereditary(removed):
            raise ValueError(
                f"{sorted(removed)!r} is not hereditary: not a valid ideal"
            )
        drop = set(removed)
        keep = [i for i, v in enumerate(self.vertices) if v not in drop]
        verts = tuple(self.vertices[i] for i in keep)
        rows = tuple(tuple(self.mult[i][j] for j in keep) for i in keep)
        return AmpGraph(verts, rows)

    # -- path-preserving edge addition ------------------------------------

    def amplify_transitive_edges(self, src: str, dst: str) -> "AmpGraph":
        """Add an OMEGA family ``src -> dst`` shadowing an existing long path.

        Legal only on amplified graphs when no direct family exists and some
        path of length >= 2 joins the pair; then the move preserves the
        path-existence relation exactly and the associated algebra up to
        isomorphism.
        """
        if not self.is_amplified:
            raise ValueError("edge amplification requires an amplified graph")
        i, j = self.index(src), self.index(dst)
        if self.mult[i][j] != 0:
            raise ValueError(f"direct edges {src!r} -> {dst!r} already exist")
        reach = self._reach_masks()
        succ = self._succ_masks()
        via = 0
        for k in _bits(succ[i]):
            via |= reach[k]
        if not (via >> j) & 1:
            raise ValueError(f"no path of length >= 2 from {src!r} to {dst!r}")
        rows = [list(row) for row in self.mult]
        rows[i][j] = OMEGA
        return AmpGraph(self.vertices, tuple(tuple(row) for row in rows))
