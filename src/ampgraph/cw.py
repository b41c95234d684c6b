"""Skeleton filtrations of flag graphs and their removal-chain summaries.

A flag graph is graded by word length, each length-k representative being a
2k-cell.  Truncating at length k gives the graph of the k-skeleton, and the
discarded longer vertices always form a hereditary set, so each truncation
is an honest quotient of the full graph.  Peeling the filtration from the
top with split sink removals trades one cell at a time for a copy of the
compacts, ending at a single point; the summary lists the intermediate
algebras the way the chain of equivalences reads on paper.
"""

from __future__ import annotations

from typing import NamedTuple

from .coxeter import DynkinSpec, _word_length, flag_graph
from .graphs import AmpGraph
from .ktheory import check_chain_k0
from .splitting import KKChain, multi_sink_splitting
from .algebra import Check, VerificationReport


class Filtration(NamedTuple):
    """Skeleton graphs of a flag spec, indexed by maximal cell length."""

    spec: DynkinSpec
    full: AmpGraph
    levels: tuple[AmpGraph, ...]
    lengths: dict

    def level(self, k: int) -> AmpGraph:
        return self.levels[k]

    @property
    def top(self) -> int:
        return len(self.levels) - 1


def skeleton_filtration(spec: DynkinSpec) -> Filtration:
    """All skeleta of the flag graph, each a verified quotient sharing its tables.

    Level k keeps the representatives of length at most k.  Lengths are read
    off the vertex labels, each the letter count of the reduced word it
    spells, so no family triple is built.  The levels are cut top-down: the
    top level views the whole flag graph, and level k is level k + 1 less
    its length-(k + 1) vertices, so each label is cut once.  That
    class is hereditary in level k + 1, whose longest vertices it holds, and
    each cut checks so itself, reading only that class's successor masks.
    """
    full = flag_graph(spec)
    lengths = {v: _word_length(v) for v in full.vertices}
    by_length: list[list[str]] = [[] for _ in range(max(lengths.values()) + 1)]
    for v, k in lengths.items():
        by_length[k].append(v)
    levels = [full.quotient(())]
    for cls in reversed(by_length[1:]):
        levels.append(levels[-1].quotient(cls))
    return Filtration(spec=spec, full=full, levels=tuple(reversed(levels)), lengths=lengths)


class CWRecord(NamedTuple):
    """One line of the chain summary: compacts so far plus a skeleton algebra."""

    text: str
    compacts: int
    level: int | None
    vertices: tuple[str, ...]

    def __str__(self) -> str:
        return self.text


class CWSummary(NamedTuple):
    spec: DynkinSpec | None
    records: tuple[CWRecord, ...]
    chain: KKChain
    report: VerificationReport

    def __str__(self) -> str:
        return "  ->  ".join(r.text for r in self.records)


def summarize_filtration(full: AmpGraph, levels: tuple[AmpGraph, ...],
                         spec: DynkinSpec | None = None) -> CWSummary:
    """Chain summary for an explicit skeleton tower; see :func:`cw_kk_summary`."""
    # each level's sinks, from the top level down, in label order: read off
    # the cut where the level below is one
    tops = range(len(levels) - 1, 0, -1)
    removals = [sorted(levels[k].hereditary_cut(levels[k - 1])
                       or set(levels[k].vertices) - set(levels[k - 1].vertices)) for k in tops]
    chain = multi_sink_splitting(full, [v for level in removals for v in level])
    # check_split_exact_k0 passes exactly when the chain check certifies the step
    chain_k0 = check_chain_k0(chain)
    checks = [
        Check("k0-step", False, f"K_0 split check failed at sink {sink!r}")
        for sink in chain_k0.uncertified
    ]
    failed = [c.name for c in chain_k0.report.checks if not c.passed]
    checks.append(
        Check("k0-chain", chain_k0.report.ok,
              "chain K_0 matrices are mutually inverse" if chain_k0.report.ok
              else "chain K_0 checks failed: " + ", ".join(failed))
    )
    # The graph remaining after each level's sinks must be that skeleton,
    # except for families the chain added toward sinks it has yet to remove;
    # those are path-preserving and disappear when their sink goes.  A chain
    # graph is amplified, so equal multiplicities ask the skeleton to be too.
    added = set(chain.augmented)
    removed = 0
    records: list[CWRecord] = []
    for k, level in zip(tops, removals):
        removed += len(level)
        current = chain.steps[removed - 1].quotient_graph if removed else chain.ambient
        skel = levels[k - 1]
        match = (
            current.vertices == skel.vertices
            and not skel.lacks(current)[1]
            and all(fam in added for fam in current.lacks(skel)[1])
            and skel.is_amplified
        )
        checks.append(
            Check(
                f"skeleton-match-{k - 1}",
                match,
                f"chain quotient equals the level-{k - 1} skeleton"
                if match
                else f"chain quotient differs from the level-{k - 1} skeleton",
            )
        )
        if k - 1 == 0:
            text = f"K^{removed} (+) C"
        else:
            text = f"K^{removed} (+) C*(X{k - 1})"
        records.append(
            CWRecord(
                text=text,
                compacts=removed,
                level=k - 1,
                vertices=current.vertices,
            )
        )
    records.append(
        CWRecord(
            text=f"C^{len(full.vertices)}",
            compacts=removed,
            level=None,
            vertices=(),
        )
    )
    return CWSummary(
        spec=spec,
        records=tuple(records),
        chain=chain,
        report=VerificationReport(tuple(checks)),
    )


def cw_kk_summary(spec: DynkinSpec) -> CWSummary:
    """Peel a flag graph skeleton by skeleton and summarise the chain.

    Within a level the sinks are removed in lexicographic label order.  Each
    removal is a verified split extension; the records accumulate the split
    off compacts against the remaining skeleton algebra, ending with a plain
    sum of scalars, one per cell.
    """
    filtration = skeleton_filtration(spec)
    return summarize_filtration(filtration.full, filtration.levels, spec=spec)
