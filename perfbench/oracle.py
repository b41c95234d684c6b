"""Expected answers computed without ampgraph.

Everything here works on plain labels, edge lists and integers, so a check
that compares the program's output against these values does not trust the
code it is checking.  Graphs are ``(labels, edges)`` with ``edges`` a list
of ``(src, dst)`` pairs; every family is infinite (amplified).
"""

from __future__ import annotations

from math import factorial


# -- flag manifolds of tagged A-series diagrams -------------------------------


def block_sizes(rank: int, tags) -> list[int]:
    """Sizes of the blocks that the tagged nodes cut ``1..rank+1`` into."""
    cuts = [0, *sorted(tags), rank + 1]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def multinomial(sizes: list[int]) -> int:
    """Number of minimal coset representatives: vertices of the flag graph."""
    out = factorial(sum(sizes))
    for b in sizes:
        out //= factorial(b)
    return out


def _q_binomial(n: int, k: int) -> list[int]:
    """Coefficients of the Gaussian binomial [n choose k]_q, lowest first."""
    rows = {(0, 0): [1]}

    def get(m: int, j: int) -> list[int]:
        if j < 0 or j > m:
            return [0]
        if (m, j) not in rows:
            left = get(m - 1, j - 1)
            right = [0] * j + get(m - 1, j)
            size = max(len(left), len(right))
            rows[(m, j)] = [
                (left[i] if i < len(left) else 0) + (right[i] if i < len(right) else 0)
                for i in range(size)
            ]
        return rows[(m, j)]

    return get(n, k)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cell_counts(sizes: list[int]) -> list[int]:
    """Number of 2k-cells for each k: the Gaussian multinomial coefficients.

    The representatives of length k are counted by the coefficient of q^k in
    [N]_q! / prod [b]_q!, built here as a product of Gaussian binomials.
    """
    out, total = [1], 0
    for b in sizes:
        total += b
        out = _poly_mul(out, _q_binomial(total, b))
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def cw_summary_text(sizes: list[int]) -> str:
    """The chain of equivalences the skeleton peeling must print."""
    counts = cell_counts(sizes)
    top = len(counts) - 1
    parts = []
    for level in range(top - 1, -1, -1):
        compacts = sum(counts[level + 1 :])
        tail = "C" if level == 0 else f"C*(X{level})"
        parts.append(f"K^{compacts} (+) {tail}")
    parts.append(f"C^{sum(counts)}")
    return "  ->  ".join(parts)


# -- plain directed graphs ------------------------------------------------------


class Digraph:
    """Reachability facts of an edge list, by breadth-first search."""

    def __init__(self, labels, edges) -> None:
        self.labels = tuple(labels)
        self.succ = {v: [] for v in self.labels}
        self.pred = {v: [] for v in self.labels}
        for a, b in edges:
            self.succ[a].append(b)
            self.pred[b].append(a)
        self.reach = {v: self._reach_from(v) for v in self.labels}

    def _reach_from(self, v: str) -> set:
        seen, todo = set(), list(self.succ[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(self.succ[w])
        return seen

    def sinks(self, alive) -> list[str]:
        return [v for v in self.labels if v in alive and not any(w in alive for w in self.succ[v])]

    def sources(self, alive) -> list[str]:
        return [v for v in self.labels if v in alive and not any(w in alive for w in self.pred[v])]

    def stars(self, sink: str, alive) -> list[str]:
        """Vertices whose every live in-neighbour has a path to ``sink``."""
        return [
            v for v in self.labels
            if v in alive and v != sink
            and all(sink in self.reach[w] for w in self.pred[v] if w in alive)
        ]

    def chain_plan(self, policy: str) -> list[tuple[str, str]]:
        """``(sink, star)`` per step when peeling down to one vertex.

        Both policies take the first sink in label order; ``first`` takes the
        first admissible star, ``source`` the first admissible star that is a
        source, if there is one.
        """
        alive, plan = set(self.labels), []
        while len(alive) > 1:
            sink = self.sinks(alive)[0]
            stars = self.stars(sink, alive)
            star = stars[0]
            if policy == "source":
                sources = set(self.sources(alive))
                star = next((v for v in stars if v in sources), star)
            plan.append((sink, star))
            alive.discard(sink)
        return plan

    def closure(self, subset) -> list[str]:
        """Smallest successor-closed set containing ``subset``, in label order."""
        closed = set(subset)
        for v in subset:
            closed |= self.reach[v]
        return [v for v in self.labels if v in closed]

    def hereditary_sets(self) -> list[list[str]]:
        """Every successor-closed vertex set, by brute force over subsets."""
        n = len(self.labels)
        out = []
        for mask in range(1 << n):
            chosen = {self.labels[i] for i in range(n) if mask >> i & 1}
            if all(w in chosen for v in chosen for w in self.succ[v]):
                out.append([v for v in self.labels if v in chosen])
        return sorted(out, key=lambda s: (len(s), [self.labels.index(v) for v in s]))


def matmul(a, b) -> list[list[int]]:
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def is_identity(m) -> bool:
    return all(int(x) == (i == j) for i, row in enumerate(m) for j, x in enumerate(row))


def chain_faults(dg: Digraph, policy: str, steps, terminal, forward, backward) -> list[str]:
    """Differences between a reported removal chain and the expected one.

    ``steps`` are ``(sink, star)`` pairs; ``forward`` and ``backward`` are
    the K_0 matrices, which must be mutually inverse.
    """
    faults = []
    want = dg.chain_plan(policy)
    if list(map(tuple, steps)) != want:
        faults.append(f"steps {list(steps)[:3]}... differ from expected {want[:3]}...")
    alive = set(dg.labels) - {s for s, _ in want}
    if list(terminal) != [v for v in dg.labels if v in alive]:
        faults.append(f"terminal {list(terminal)} is not the one remaining vertex")
    if not (is_identity(matmul(forward, backward)) and is_identity(matmul(backward, forward))):
        faults.append("K_0 chain matrices are not mutually inverse")
    return faults
