"""Explicit unital splittings of sink-removal extensions.

Removing a sink ``v_s`` from an amplified graph presents the algebra as an
extension of the quotient-graph algebra by a compact ideal.  Given a second
vertex ``v_*`` (a *star*) that is either a source or has every in-neighbour
connected to ``v_s`` by a path, the assignment

    p_{v_*}        |->  p_{v_*} + p_{v_s}
    s^i_{v, v_*}   |->  s^i_{v, v_*} + s^i_{v, v_s}
    everything else fixed

is a unital section of the quotient map.  The edge families ``v -> v_s`` it
needs may be missing; they are first added by the path-preserving move
:meth:`~ampgraph.graphs.AmpGraph.amplify_transitive_edges`, which changes the
graph but not the algebra.  With ``star=None`` the plain generator embedding
is used instead: also a section, but not unital.

A chosen ``(sink, star)`` reaches a verified step along one path, a single
removal as a chain of one step: one validator (:func:`_check_step`), one
augmenter (:func:`_stabilize`) and one builder (:func:`_split`).

Iterating sink removals on an acyclic graph peels the algebra down to a sum
of compacts plus a point, one explicitly split extension per step.  Later
steps may force edge additions on earlier graphs (a step's section needs its
target families to exist); :func:`multi_sink_splitting` and :func:`kk_chain`
therefore stabilise one ambient graph by running the augmentation demands to
a fixed point before building every step, so consecutive sections compose
on the nose.  The sinks removed before a step form a hereditary set, so a
step's quotient graph has the same in-neighbours at every vertex it keeps:
the demands are read on the ambient graph, and no quotient is built to
stabilise it.  One planner takes each step's quotient graph, its parent's
tables under a smaller mask, and validates the step on it, a verdict
stabilising cannot change (:func:`_plan` has the argument); the steps run
on those graphs unless stabilising adds families, when the chain is cut
once more from the ambient graph's tables.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .algebra import (
    Check,
    GeneratorMap,
    VerificationReport,
    _PASSED,
    _fold_sections,
    _from_patch,
    _quotient_onto,
    _section_identity_failure,
    verify_ck_family,
)
from .graphs import AmpGraph, first_star, is_star, missing_families, valid_stars


class VerificationFailure(RuntimeError):
    """A symbolic check that should hold by construction did not."""


class SplitData(NamedTuple):
    """One split sink-removal extension, with both maps in hand.

    ``sigma`` maps the quotient-graph algebra into the working-graph algebra
    (the original graph plus any families added for the splitting), and
    ``quotient_map`` goes the other way; ``quotient_map . sigma = id``.
    """

    original: AmpGraph
    working: AmpGraph
    sink: str
    star: str | None
    sigma: GeneratorMap
    quotient_map: GeneratorMap
    augmented: tuple[tuple[str, str], ...]

    @property
    def quotient_graph(self) -> AmpGraph:
        return self.sigma.source

    @property
    def ideal_kind(self) -> str:
        """``"K"`` for the compacts, ``"C"`` when the sink is also a source."""
        return "C" if self.working.is_source(self.sink) else "K"

    @property
    def iota_class(self) -> str:
        return f"[iota_{self.sink}]"


def _splitting_map(working: AmpGraph, source: AmpGraph, sink: str, star: str | None) -> GeneratorMap:
    """The section out of ``source``, the cut of ``working`` by ``sink``, built as it stands:
    :func:`_split` has refused a ``working`` without a family ``v -> sink`` it names."""
    if star is None:
        return _from_patch(source, working, {}, {})
    return _from_patch(source, working, {star: {star: 1, sink: 1}},
                       {(v, star): {(v, star): 1, (v, sink): 1} for v in source.predecessors(star)})


def build_splitting(g: AmpGraph, sink: str, star: str | None) -> SplitData:
    """Construct and verify the splitting of the extension that removes ``sink``.

    With a star vertex the section is unital and the working graph gains the
    edge families the section formula needs; with ``star=None`` the working
    graph is ``g`` itself and the section is the non-unital embedding.
    Every construction runs the checks of :func:`verify_split_exact`; a
    failure signals an implementation bug and raises :class:`VerificationFailure`.
    """
    _check_step(g, sink, star)
    working, augmented = _stabilize(g, ((sink, star),))
    return _split(g, working, working.quotient((sink,)), sink, star, augmented)


def _check_step(g: AmpGraph, sink: str, star: str | None) -> None:
    """Refuse a ``(sink, star)`` that ``g`` cannot split: ``g`` not amplified, ``sink`` no sink, or a bad star.

    The sink and the star are each decided on their own rows; the valid
    stars are listed only to name them in a refusal.
    """
    if not g.is_amplified:
        raise ValueError("splitting requires an amplified graph")
    if not g.is_sink(sink):
        raise ValueError(f"{sink!r} is not a sink")
    if star is not None and not is_star(g, sink, star):
        raise ValueError(
            f"{star!r} is not a valid choice of star for sink {sink!r}; "
            f"valid stars: {valid_stars(g, sink)}"
        )


def _split(original: AmpGraph, working: AmpGraph, quotient_graph: AmpGraph, sink: str, star: str | None, augmented: tuple) -> SplitData:
    """Build and verify the two maps of a checked step on its stabilised graph."""
    if star is not None and (missing := missing_families(working, sink, star)):
        raise VerificationFailure(
            f"ambient graph not stabilised: step {sink!r} still added {tuple(missing)}"
        )
    sd = SplitData(
        original=original,
        working=working,
        sink=sink,
        star=star,
        sigma=_splitting_map(working, quotient_graph, sink, star),
        quotient_map=_quotient_onto(working, quotient_graph),
        augmented=augmented,
    )
    section, quot, moved, failure = checks = _step_checks(sd)
    if not (section.ok and quot is _PASSED[True] and moved is None and failure is None):
        raise VerificationFailure(
            "splitting construction failed verification:\n" + _split_report(sd, *checks).render()
        )
    return sd


def _step_checks(sd: SplitData) -> tuple:
    """:func:`verify_split_exact`'s checks, run in its order, as they come: the section's and the
    quotient map's relation reports, the first generator the section identity moves, the ideal failure."""
    section = verify_ck_family(sd.sigma, require_unital=sd.star is not None)
    quot = verify_ck_family(sd.quotient_map, require_unital=True)
    moved = _section_identity_failure(sd.sigma, sd.quotient_map)
    if not sd.working.is_sink(sd.sink):
        failure = f"{sd.sink} is not a sink of the working graph"
    elif not sd.working.is_cut(sd.sink, sd.quotient_graph):
        failure = f"the quotient graph is not the working graph without {sd.sink}"
    else:
        failure = None
    return section, quot, moved, failure


def _split_report(sd: SplitData, report, q_report, moved, failure) -> VerificationReport:
    """:func:`verify_split_exact`'s report, from the results of :func:`_step_checks`."""
    q_ok = q_report is _PASSED[True]  # a passing check's one shared report
    what = "the compacts" if sd.ideal_kind == "K" else "C (sink is an isolated vertex)"
    moved_at = "" if moved is None else f"q(sigma({moved})) != {moved}"
    return VerificationReport((*report.checks, Check("quotient-map", q_ok, "" if q_ok else q_report.render()),
                               Check("section-identity", moved is None, moved_at),
                               Check("ideal", failure is None, failure or f"ideal at {sd.sink} is {what}")))


def verify_split_exact(sd: SplitData) -> VerificationReport:
    """Full symbolic checklist for one split extension.

    Runs the Cuntz-Krieger checks on the section (unitality demanded only
    when a star was used), the same for the quotient map, the section
    identity on every generator, and checks that the ideal is the one of a
    sink: ``sink`` is a sink of the working graph and the quotient graph is
    the working graph's quotient by ``sink``, which keeps every other vertex
    and every family not into ``sink``.  The section identity asks the
    quotient graph what it keeps, and the ideal check reads the sink's row
    and, on shared tables, compares two masks; no quotient is cut.  A chain
    step runs the same checks and builds this report only to refuse.
    """
    return _split_report(sd, *_step_checks(sd))


# ---------------------------------------------------------------------------
# chains of sink removals


#: A policy picks ``(sink, star)`` for the current graph; ``sinks`` is the
#: tuple of available sinks in vertex order.
StarPolicy = Callable[[AmpGraph, tuple[str, ...]], tuple[str, str | None]]


def _star(g: AmpGraph, sink: str) -> str:
    """:func:`~ampgraph.graphs.first_star`, raising when there is none."""
    star = first_star(g, sink)
    if star is None:
        raise ValueError(f"no valid star exists for sink {sink!r}")
    return star


def first_sink_first_star(g: AmpGraph, sinks: tuple[str, ...]) -> tuple[str, str | None]:
    """Default policy: first sink in vertex order, first valid star."""
    return sinks[0], _star(g, sinks[0])


def prefer_source_star(g: AmpGraph, sinks: tuple[str, ...]) -> tuple[str, str | None]:
    """Like the default, but picks the first source other than the sink, a star vacuously, when one exists."""
    source = next((v for v in g.classify().sources if v != sinks[0]), None)
    return sinks[0], _star(g, sinks[0]) if source is None else source


def explicit_steps(pairs: Sequence[tuple[str, str | None]]) -> StarPolicy:
    """A policy that replays a fixed ``(sink, star)`` list.

    Each call takes the first listed pair whose sink is still a vertex of
    the graph, so the policy keeps no state and can drive any number of
    chains.
    """
    steps = tuple(pairs)

    def policy(g: AmpGraph, sinks: tuple[str, ...]) -> tuple[str, str | None]:
        for sink, star in steps:
            if sink in g:
                if sink not in sinks:
                    raise ValueError(f"{sink!r} is not a sink of the remaining graph")
                return sink, star
        raise ValueError("ran out of prescribed (sink, star) steps")

    return policy


class KKChain(NamedTuple):
    """A verified chain of split sink removals.

    ``ambient`` is the input graph plus every edge family the chain's
    sections needed; the step quotients descend from it.  The formal class
    summands mirror how the two inverse equivalence classes decompose:
    ``iota_terms[k]`` is the class of the k-th ideal pushed forward through
    earlier sections, ``pi_terms[k]`` the matching compression through
    earlier quotient maps.
    """

    graph: AmpGraph
    ambient: AmpGraph
    steps: tuple[SplitData, ...]
    augmented: tuple[tuple[str, str], ...]

    @property
    def terminal(self) -> AmpGraph:
        return self.steps[-1].quotient_graph if self.steps else self.ambient

    @property
    def sinks(self) -> tuple[str, ...]:
        return tuple(sd.sink for sd in self.steps)

    def composite_section(self) -> GeneratorMap:
        """``sigma_1 . sigma_2 . ...`` from the terminal algebra upward.

        One prefix fold (:func:`~ampgraph.algebra._fold_sections`) pushes
        each section's patch through the sections before it, adding into the
        tables it holds in place, and drops each sink's table and the
        templates it holds into the sink; no quotient map is read, and only
        the last prefix is validated into a map.
        No steps fold to the identity on ``ambient``, one to its section.
        """
        return _fold_sections(self.terminal, self.ambient, ((sd.sink, sd.sigma) for sd in self.steps))

    def composite_quotient(self) -> GeneratorMap:
        """``q_k . ... . q_1`` from the ambient algebra down to the terminal.

        Each step's quotient map is the quotient by its sink, so the
        composite is the quotient by every removed sink at once, one map
        onto the terminal graph, which lacks exactly those sinks; the sinks
        of a chain form a hereditary set.  Its patch, every family at those
        sinks, is built only when read, and the section identity reads none.
        """
        return _quotient_onto(self.ambient, self.terminal)

    @property
    def iota_terms(self) -> tuple[str, ...]:
        names = []
        for k in range(1, len(self.steps) + 1):
            parts = [f"s_{j}" for j in range(1, k)] + [f"iota_{k}"]
            names.append("[" + " o ".join(parts) + "]")
        tail = [f"s_{j}" for j in range(1, len(self.steps) + 1)]
        names.append("[" + " o ".join(tail) + "]" if tail else "[id]")
        return tuple(names)

    @property
    def pi_terms(self) -> tuple[str, ...]:
        names = []
        for k in range(1, len(self.steps) + 1):
            if k == 1:
                names.append("[pi_1]")
            else:
                qs = " o ".join(f"q_{j}" for j in range(k - 1, 0, -1))
                names.append(f"[{qs}] * [pi_{k}]")
        tail = " o ".join(f"q_{j}" for j in range(len(self.steps), 0, -1))
        names.append(f"[{tail}]" if tail else "[id]")
        return tuple(names)


def _plan(g: AmpGraph, policy: StarPolicy, n_steps: int) -> tuple[list[tuple[str, str | None]], list[AmpGraph]]:
    """The policy's ``(sink, star)`` for each step, and the graphs it cuts.

    ``graphs[i]`` is ``g`` without the first ``i`` sinks, ``g``'s tables
    under a mask; :func:`_check_step` refuses there each step it cannot
    split.  The step runs on ``graphs[i]`` plus the families
    :func:`_stabilize` adds between its vertices, with the same verdict:
    each such family ``v -> w`` is OMEGA and shadows a path
    ``v -> ... -> u -> w`` that ``graphs[i]`` has, so it changes no reach
    mask, hence no sink, and no source.  Nor does it rule out a star: ``w``
    is ruled out for a sink ``t`` by ``v`` only if ``v`` misses ``t``, and
    then so does ``u``, which ``v`` reaches and which already rules ``w`` out.

    Each graph is a one-sink cut of the last, whose shape facts the planner
    has read, so it carries them (:meth:`~ampgraph.graphs.AmpGraph.quotient`):
    its sinks are derived in the removed sink's in-degree, and only ``g``
    is walked.  The stabilised chain's graphs carry them the same way.
    """
    plan: list[tuple[str, str | None]] = []
    graphs = [g]
    for step in range(1, n_steps + 1):
        current = graphs[-1]
        sinks = current.classify().sinks
        if not sinks:
            raise ValueError("graph has no sink: removal chain cannot proceed")
        sink, star = policy(current, sinks)
        if star is not None and star not in current:
            raise ValueError(
                f"star {star!r} of step {step} (sink {sink!r}) is not "
                "a vertex of the remaining graph"
            )
        _check_step(current, sink, star)
        plan.append((sink, star))
        graphs.append(current.quotient((sink,)))
    return plan, graphs


def _stabilize(g: AmpGraph, plan: Sequence[tuple[str, str | None]]) -> tuple[AmpGraph, tuple[tuple[str, str], ...]]:
    """Add every family any step's section will need, to a fixed point.

    Each step's demands are read on the ambient graph itself, with no mask
    for the sinks removed before it.  That is exact: those sinks form a
    hereditary set, so every in-neighbour of a vertex still present (the
    step's star or its sink) is still present too, and the graph at that
    step has the same in-neighbours, in the same vertex order.  Each
    demanded pair rides on a path in that graph, which lifts to the ambient
    graph, so each addition is a legal path-preserving move; the underlying
    check still runs and raises if that ever fails.
    """
    ambient = g
    added: list[tuple[str, str]] = []
    while True:
        wanted: list[tuple[str, str]] = []
        for sink, star in plan:
            if star is not None:
                for pair in missing_families(ambient, sink, star):
                    if pair not in wanted:
                        wanted.append(pair)
        if not wanted:
            return ambient, tuple(added)
        for v, w in wanted:
            ambient = ambient.amplify_transitive_edges(v, w)
            added.append((v, w))


def _run_chain(g: AmpGraph, policy: StarPolicy, n_steps: int) -> KKChain:
    """Plan ``n_steps`` removals, stabilise, then split each step."""
    plan, graphs = _plan(g, policy, n_steps)
    ambient, added = _stabilize(g, plan)
    if added:
        graphs = [ambient]
        for sink, _ in plan:
            graphs.append(graphs[-1].quotient((sink,)))
    steps = tuple(
        _split(graphs[i], graphs[i], graphs[i + 1], sink, star, ())
        for i, (sink, star) in enumerate(plan)
    )
    return KKChain(graph=g, ambient=ambient, steps=steps, augmented=added)


def multi_sink_splitting(
    g: AmpGraph,
    sinks: Sequence[str],
    stars: Sequence[str | None] | None = None,
) -> KKChain:
    """Split off several sinks in order and verify the composed section.

    Each listed vertex must be a sink of the graph remaining at its step.
    ``stars[i]`` may be ``None`` for the embedding section; with ``stars``
    omitted the first valid star is chosen at every step.  It plans as
    :func:`kk_chain` does, with a policy reading step ``i`` off the lists.
    """
    if stars is not None and len(stars) != len(sinks):
        raise ValueError("sinks and stars must have equal length")
    n = len(g)

    def listed(current: AmpGraph, _sinks: tuple[str, ...]) -> tuple[str, str | None]:
        i = n - len(current)
        if not current.is_sink(sinks[i]):
            raise ValueError(f"{sinks[i]!r} is not a sink of the remaining graph")
        return sinks[i], _star(current, sinks[i]) if stars is None else stars[i]

    chain = _run_chain(g, listed, len(sinks))
    if chain.steps:
        section = chain.composite_section()
        unital = all(sd.star is not None for sd in chain.steps)
        report = verify_ck_family(section, require_unital=unital)
        if not report.ok:
            raise VerificationFailure(
                "composite section failed verification:\n" + report.render()
            )
        moved = _section_identity_failure(section, chain.composite_quotient())
        if moved is not None:
            raise VerificationFailure(f"composite section identity fails at {moved}")
    return chain


def kk_chain(g: AmpGraph, policy: StarPolicy = first_sink_first_star) -> KKChain:
    """Peel an acyclic amplified graph down to one vertex, splitting each step.

    The resulting chain witnesses an explicit equivalence between the graph
    algebra and the direct sum of one copy of C per vertex; the formal
    summand lists on the result name the two inverse classes factor by
    factor.  Raises on cyclic input, where a sink can fail to exist.
    """
    cls = g.classify()
    if not cls.amplified:
        raise ValueError("kk_chain requires an amplified graph")
    if not cls.acyclic:
        raise ValueError("kk_chain requires an acyclic graph")
    if not len(g):
        raise ValueError("kk_chain requires at least one vertex")
    return _run_chain(g, policy, len(g) - 1)
