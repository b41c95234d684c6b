import functools
import random
import re

import pytest

from ampgraph import (
    AmpGraph,
    first_sink_first_star,
    KKChain,
    CKElement,
    DynkinSpec,
    GeneratorMap,
    OMEGA,
    VerificationFailure,
    build_splitting,
    compose,
    cw_kk_summary,
    explicit_steps,
    flag_graph,
    kk_chain,
    load_graph,
    multi_sink_splitting,
    prefer_source_star,
    valid_stars,
    verify_ck_family,
    verify_split_exact,
)
from ampgraph import algebra, graphs, splitting
from ampgraph.algebra import word_mul
from ampgraph.graphs import _Tables, is_star
from ampgraph.ktheory import check_chain_k0, check_split_exact_k0, induced_k0

from helpers import (
    CW_LADDER,
    DenseGraph,
    ROOT,
    composite_quotient_oracle,
    composite_section_oracle,
    example_graph,
    golden_chains,
    map_corruptions,
    random_amplified_dag,
    random_chain,
    section_identity_failure_oracle,
    section_identity_failure_patch_oracle,
    stabilize_oracle,
    watch_patch_builds,
)
from test_graphs import _assert_matches_model, _assert_tables_fresh


def test_valid_stars_example():
    g = example_graph()
    assert valid_stars(g, "v4") == ["v1", "v2", "v3"]
    # v4 is ruled out for sink v5: its in-neighbour v2 cannot reach v5
    assert valid_stars(g, "v5") == ["v1", "v2", "v3"]


def test_valid_stars_requires_sink():
    g = example_graph()
    with pytest.raises(ValueError, match="not a sink"):
        valid_stars(g, "v1")
    with pytest.raises(ValueError):
        valid_stars(g, "nope")


def test_valid_stars_can_be_empty():
    # a cycle feeding nothing into the isolated sink leaves no candidates
    g = AmpGraph.from_edges(("a", "b", "s"), [("a", "b"), ("b", "a")])
    assert valid_stars(g, "s") == []


def test_build_splitting_all_stars_verify():
    g = example_graph()
    expected_aug = {"v1": (), "v2": (("v1", "v4"),), "v3": (("v1", "v4"),)}
    for star in ("v1", "v2", "v3"):
        sd = build_splitting(g, "v4", star)
        assert sd.augmented == expected_aug[star]
        report = verify_split_exact(sd)
        assert report.ok
        for name in (
            "vertex-projections",
            "vertex-orthogonality",
            "adjoint-compatibility",
            "ck1",
            "ck2",
            "unital",
            "quotient-map",
            "section-identity",
        ):
            assert report.check(name).passed, name


def test_build_splitting_rejects_bad_star():
    g = example_graph()
    with pytest.raises(ValueError, match="not a valid choice"):
        build_splitting(g, "v4", "v5")
    with pytest.raises(ValueError, match="not a sink"):
        build_splitting(g, "v1", "v2")
    finite = AmpGraph.from_edges(("a", "b"), [("a", "b", 1)])
    with pytest.raises(ValueError, match="amplified"):
        build_splitting(finite, "b", None)


def test_splitting_section_formula_star_v2():
    sd = build_splitting(example_graph(), "v4", "v2")
    assert sd.sigma.render_table() == {
        "p[v1]": "p[v1]",
        "p[v2]": "p[v2] + p[v4]",
        "p[v3]": "p[v3]",
        "p[v5]": "p[v5]",
        "s[v1>v2#i]": "s[v1>v2#i] + s[v1>v4#i]",
        "s[v1>v3#i]": "s[v1>v3#i]",
        "s[v3>v5#i]": "s[v3>v5#i]",
    }
    assert sd.working.multiplicity("v1", "v4") is OMEGA
    assert sd.original.multiplicity("v1", "v4") == 0


def test_embedding_section_is_inclusion():
    g = example_graph()
    sd = build_splitting(g, "v4", None)
    assert sd.working == g
    assert sd.sigma == GeneratorMap.inclusion(g.quotient(("v4",)), g)
    report = verify_split_exact(sd)
    assert report.ok
    unital = report.check("unital")
    assert not unital.passed and not unital.required


def test_ideal_kind():
    g = example_graph()
    assert build_splitting(g, "v4", "v1").ideal_kind == "K"
    isolated = AmpGraph.from_edges(("a", "b", "s"), [("a", "b")])
    sd = build_splitting(isolated, "s", None)
    assert sd.ideal_kind == "C"
    assert build_splitting(isolated, "b", "a").ideal_kind == "K"


def test_iota_class_labels():
    sd = build_splitting(example_graph(), "v4", "v1")
    assert sd.iota_class == "[iota_v4]"


def test_kk_chain_example():
    g = example_graph()
    chain = kk_chain(g)
    assert len(chain.steps) == len(g.vertices) - 1
    assert len(chain.terminal.vertices) == 1
    assert chain.graph == g
    for sd in chain.steps:
        assert verify_split_exact(sd).ok


def test_chain_formal_summands():
    chain = multi_sink_splitting(
        example_graph().quotient(("v4", "v5")), ["v2", "v3"]
    )
    assert chain.iota_terms == ("[iota_1]", "[s_1 o iota_2]", "[s_1 o s_2]")
    assert chain.pi_terms == ("[pi_1]", "[q_1] * [pi_2]", "[q_2 o q_1]")


def test_single_vertex_chain_is_empty():
    g = AmpGraph.from_edges(("v",))
    chain = kk_chain(g)
    assert chain.steps == ()
    assert chain.terminal == g
    assert chain.iota_terms == ("[id]",)


def test_kk_chain_rejects_out_of_scope_graphs():
    loop = AmpGraph.from_edges(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="acyclic"):
        kk_chain(loop)
    finite = AmpGraph.from_edges(("a", "b"), [("a", "b", 2)])
    with pytest.raises(ValueError, match="amplified"):
        kk_chain(finite)
    with pytest.raises(ValueError, match="at least one vertex"):
        kk_chain(AmpGraph((), ()))


def _later_step_needs_a_family():
    # removing s2 second with star w forces the family x -> s2 into the
    # ambient graph before s1 is split off
    g = AmpGraph.from_edges(
        ("x", "w", "s1", "s2"), [("x", "w"), ("w", "s1"), ("w", "s2")]
    )
    return g, explicit_steps([("s1", None), ("s2", "w"), ("w", "x")])


def test_chain_augments_ambient_for_later_steps():
    chain = kk_chain(*_later_step_needs_a_family())
    assert chain.augmented == (("x", "s2"),)
    assert chain.ambient.multiplicity("x", "s2") is OMEGA
    assert [sd.sink for sd in chain.steps] == ["s1", "s2", "w"]
    assert chain.steps[1].augmented == ()


def test_unstabilised_ambient_graph_is_reported(monkeypatch):
    monkeypatch.setattr(splitting, "_stabilize", lambda g, plan: (g, ()))
    message = "ambient graph not stabilised: step 's2' still added (('x', 's2'),)"
    with pytest.raises(VerificationFailure, match=re.escape(message)):
        kk_chain(*_later_step_needs_a_family())


def test_a_section_naming_a_family_its_target_lacks_is_no_partial_isometry():
    """The section of step ``s2`` built as it stands on the unstabilised
    graph names ``x -> s2``, which the graph lacks (``_split`` refuses that
    step before it builds anything).  The relation check fails
    ``adjoint-compatibility`` at the least such template, and the section
    identity there: the quotient map kills no family its source lacks."""
    g = AmpGraph.from_edges(("x", "y", "w", "s2"), [("x", "w"), ("y", "w"), ("w", "s2")])

    def section(working):
        return algebra._from_patch(working.quotient(("s2",)), working, {"w": {"w": 1, "s2": 1}}, {
            (v, "w"): {(v, "w"): 1, (v, "s2"): 1} for v in ("x", "y")})

    for working, first in ((g, "x"), (g.amplify_transitive_edges("x", "s2"), "y")):
        sigma = section(working)
        report = verify_ck_family(sigma)
        assert not report.ok
        assert report.check("adjoint-compatibility").detail == f"image of s[{first}>w#i] is not a partial isometry"
        quot = algebra._quotient_onto(working, sigma.source)
        assert splitting._section_identity_failure(sigma, quot) == f"s[{first}>w#0]"
        assert section_identity_failure_patch_oracle(sigma, quot) == f"s[{first}>w#0]"
    stable = g.amplify_transitive_edges("x", "s2").amplify_transitive_edges("y", "s2")
    assert verify_ck_family(section(stable)) is algebra._PASSED[True]


def test_the_ideal_check_reads_masks_on_shared_tables_and_compares_other_graphs():
    """The ``ideal`` check on a step's own quotient graph compares two masks;
    a quotient graph on other tables is compared as a graph, so one built
    anew passes, and one whose vertices sit at the same positions but whose
    families differ fails with today's text."""
    g = example_graph()
    sd = build_splitting(g, "v4", None)
    assert verify_split_exact(sd).check("ideal").passed
    fresh = AmpGraph(sd.quotient_graph.vertices, sd.quotient_graph.edges)
    thinner = AmpGraph(g.vertices, [e for e in g.edges if e[:2] != ("v1", "v3")]).quotient(("v4",))
    for source, passed in ((fresh, True), (thinner, False)):
        check = verify_split_exact(sd._replace(sigma=GeneratorMap.inclusion(source, sd.working))).check("ideal")
        assert check.passed is passed
        assert check.detail == ("ideal at v4 is the compacts" if passed else
                                "the quotient graph is not the working graph without v4")


def _split_outcome(monkeypatch, sd):
    """``_split`` run on ``sd``'s graphs with ``sd``'s two maps in hand: the step it returns, or its refusal."""
    monkeypatch.setattr(splitting, "_splitting_map", lambda *_: sd.sigma)
    monkeypatch.setattr(splitting, "_quotient_onto", lambda *_: sd.quotient_map)
    try:
        return splitting._split(sd.original, sd.working, sd.quotient_graph, sd.sink, sd.star, sd.augmented)
    except VerificationFailure as exc:
        return str(exc)


def test_a_step_refuses_exactly_when_its_report_fails(monkeypatch):
    """``_split``'s verdict against ``verify_split_exact``'s report.

    On every step of the golden chains and of 40 random chains, run with
    both policies and with some stars dropped for the embedding section,
    and on each ``map_corruptions`` variant of every step's ``sigma`` and
    ``quotient_map``: ``_split`` refuses exactly when the report is not
    ``ok``, with the report's text, and otherwise returns the step.  Every
    way a step can pass or fail alone occurs: an embedding whose ``unital``
    check warns, and a failing quotient map or section identity with every
    other check passing.
    """
    rng = random.Random(20261034)
    chains = golden_chains()
    for _ in range(40):
        chain = random_chain(rng)
        stars = [None if rng.random() < 0.5 else sd.star for sd in chain.steps]
        chains += [chain, multi_sink_splitting(chain.graph, chain.sinks, stars)]
    seen = set()
    for chain in chains:
        for sd in chain.steps:
            variants = [sd]
            variants += [sd._replace(sigma=m) for m in map_corruptions(sd.sigma, rng)]
            variants += [sd._replace(quotient_map=m) for m in map_corruptions(sd.quotient_map, rng)]
            for step in variants:
                report = verify_split_exact(step)
                got = _split_outcome(monkeypatch, step)
                if report.ok:
                    assert got == step
                else:
                    assert got == "splitting construction failed verification:\n" + report.render()
                failed = [c for c in report.checks if not c.passed]
                seen.add(tuple((c.name, c.required) for c in failed))
    assert (("unital", False),) in seen  # an embedding passes with a warning
    assert (("quotient-map", True),) in seen
    assert (("section-identity", True),) in seen


def test_no_valid_star_is_reported_by_every_policy():
    point = AmpGraph.from_edges(("v",))
    message = "no valid star exists for sink 'v'"
    with pytest.raises(ValueError, match=message):
        multi_sink_splitting(point, ["v"])
    for policy in (first_sink_first_star, prefer_source_star):
        with pytest.raises(ValueError, match=message):
            policy(point, ("v",))


def test_composite_section_splits_composite_quotient():
    g = example_graph()
    for policy in (None, prefer_source_star):
        chain = kk_chain(g) if policy is None else kk_chain(g, policy=policy)
        section = chain.composite_section()
        quot = chain.composite_quotient()
        # the composite quotient lands on the chain's own terminal graph
        assert quot.target is chain.terminal
        assert compose(quot, section) == GeneratorMap.identity(chain.terminal)


def test_the_composite_of_no_step_or_one_step_is_the_identity_or_the_section():
    """One fold builds every composite: no steps give the identity on the
    ambient graph, one step gives that step's section."""
    rng = random.Random(27)
    chains = golden_chains() + [_random_policy_chain(rng)[1] for _ in range(40)]
    for chain in chains:
        assert chain._replace(steps=()).composite_section() == GeneratorMap.identity(chain.ambient)
        if chain.steps:
            assert chain._replace(steps=chain.steps[:1]).composite_section() == chain.steps[0].sigma
    assert any(not chain.steps for chain in chains)
    assert multi_sink_splitting(example_graph(), []).composite_section() == (
        GeneratorMap.identity(example_graph())
    )


def test_multi_sink_splitting_with_explicit_stars():
    g = example_graph()
    chain = multi_sink_splitting(g, ["v4", "v5"], ["v2", "v3"])
    assert [sd.sink for sd in chain.steps] == ["v4", "v5"]
    assert [sd.star for sd in chain.steps] == ["v2", "v3"]
    with pytest.raises(ValueError, match="equal length"):
        multi_sink_splitting(g, ["v4"], ["v2", "v3"])
    with pytest.raises(ValueError, match="not a sink"):
        multi_sink_splitting(g, ["v1"], ["v2"])


def test_multi_sink_splitting_rejects_unknown_sink():
    g = example_graph()
    with pytest.raises(ValueError, match="'nope' is not a sink of the remaining graph"):
        multi_sink_splitting(g, ["nope"], [None])
    with pytest.raises(ValueError, match="'nope' is not a sink of the remaining graph"):
        multi_sink_splitting(g, ["v4", "nope"], ["v1", None])
    with pytest.raises(ValueError, match="'nope' is not a sink of the remaining graph"):
        multi_sink_splitting(g, ["nope"])
    # a sink listed twice is gone by its second step, with or without stars
    for stars in (None, ["v1", "v1"]):
        with pytest.raises(ValueError, match="'v4' is not a sink of the remaining graph"):
            multi_sink_splitting(g, ["v4", "v4"], stars)


@pytest.mark.parametrize(
    "stars, message",
    [
        # v4 is the sink of step 1, so it is gone by step 2
        (["v1", "v4"], "star 'v4' of step 2 (sink 'v5')"),
        (["nope", None], "star 'nope' of step 1 (sink 'v4')"),
    ],
)
def test_explicit_star_not_in_the_remaining_graph_is_rejected(monkeypatch, stars, message):
    g = example_graph()
    sinks = ["v4", "v5"]

    def unreachable(*args):
        raise AssertionError("stabilisation started")

    monkeypatch.setattr(splitting, "_stabilize", unreachable)
    message = re.escape(message + " is not a vertex of the remaining graph")
    with pytest.raises(ValueError, match=message):
        multi_sink_splitting(g, sinks, stars)
    with pytest.raises(ValueError, match=message):
        kk_chain(g, explicit_steps(list(zip(sinks, stars))))


def test_explicit_steps_policy_validation():
    g = example_graph()
    with pytest.raises(ValueError, match="ran out"):
        kk_chain(g, policy=explicit_steps([("v4", "v1")]))
    # v1 is still a vertex, but not a sink
    with pytest.raises(ValueError, match="'v1' is not a sink of the remaining graph"):
        kk_chain(g, policy=explicit_steps([("v1", "v2")]))


def test_a_graph_without_a_sink_cannot_start_a_chain():
    cycle = AmpGraph.from_edges(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="graph has no sink: removal chain cannot proceed"):
        multi_sink_splitting(cycle, ["a"])


def test_every_path_names_a_bad_star_before_stabilising():
    # c has a family into b but no path to s, so b is no star for s; adding
    # the family c -> s that b would need is impossible
    g = AmpGraph.from_edges(("a", "b", "s", "c"), [("a", "b"), ("a", "s"), ("c", "b")])
    message = re.escape("'b' is not a valid choice of star for sink 's'; valid stars: ['a', 'c']")
    with pytest.raises(ValueError, match=message):
        build_splitting(g, "s", "b")
    with pytest.raises(ValueError, match=message):
        kk_chain(g, explicit_steps([("s", "b"), ("b", None), ("a", None)]))
    with pytest.raises(ValueError, match=message):
        multi_sink_splitting(g, ["s"], ["b"])


def test_explicit_steps_policy_is_reusable():
    g = example_graph()
    policy = explicit_steps([("v4", "v1"), ("v5", None), ("v2", "v3"), ("v3", "v1")])
    first = kk_chain(g, policy)
    second = kk_chain(g, policy)
    assert [(sd.sink, sd.star) for sd in first.steps] == [
        ("v4", "v1"), ("v5", None), ("v2", "v3"), ("v3", "v1")
    ]
    assert second == first


def test_composite_section_identity_failure_is_reported(monkeypatch):
    healthy = KKChain.composite_quotient

    def moved(chain):
        quot = healthy(chain)
        vimgs = dict(quot.vertex_images, v3={"v2": 1})
        return GeneratorMap(quot.source, quot.target, vimgs, quot.edge_images)

    monkeypatch.setattr(KKChain, "composite_quotient", moved)
    with pytest.raises(VerificationFailure, match=r"identity fails at p\[v3\]"):
        multi_sink_splitting(example_graph(), ["v4", "v5"])


@pytest.mark.parametrize("seed", range(10))
def test_random_chains_verify(seed):
    rng = random.Random(5000 + seed)
    g = random_amplified_dag(rng, rng.randint(2, 6))
    chain = kk_chain(g)
    assert len(chain.steps) == len(g.vertices) - 1
    for sd in chain.steps:
        assert verify_split_exact(sd).ok
    section = chain.composite_section()
    quot = chain.composite_quotient()
    assert compose(quot, section) == GeneratorMap.identity(chain.terminal)


def test_composite_section_ck_failure_is_reported(monkeypatch):
    healthy = KKChain.composite_section

    def doubled(chain):
        section = healthy(chain)
        v = section.source.vertices[0]
        vimgs = dict(section.vertex_images)
        vimgs[v] = {x: 2 * c for x, c in vimgs[v].items()}
        return GeneratorMap(section.source, section.target, vimgs, section.edge_images)

    monkeypatch.setattr(KKChain, "composite_section", doubled)
    with pytest.raises(VerificationFailure, match="composite section failed verification"):
        multi_sink_splitting(example_graph(), ["v4", "v5"])


# ---------------------------------------------------------------------------
# each verified map is built once


@pytest.mark.parametrize("rank, tags", [(3, {2}), (3, {1, 2, 3}), (4, {1, 3})])
def test_multi_sink_splitting_builds_two_maps_per_step_and_two_composites(
    monkeypatch, rank, tags
):
    spec = DynkinSpec(rank, frozenset(tags))
    g = flag_graph(spec)
    sinks = list(cw_kk_summary(spec).chain.sinks)
    original, validate = algebra._fill, algebra._patch
    quotient_onto = algebra._quotient_onto
    built, validated, quotients, read = [], [], [], []

    def counted(m, *patch):
        built.append(m)
        original(m, *patch)

    def checked(*images):
        validated.append(images)
        return validate(*images)

    def counted_quotient(graph, target):
        quotients.append(quotient_onto(graph, target))
        return quotients[-1]

    def counted_build(m, half, value):
        read.append(m)
        return value

    monkeypatch.setattr(algebra, "_fill", counted)
    monkeypatch.setattr(algebra, "_patch", checked)
    monkeypatch.setattr(splitting, "_quotient_onto", counted_quotient)
    watch_patch_builds(monkeypatch, counted_build)
    chain = multi_sink_splitting(g, sinks)
    steps = len(chain.steps)
    assert steps == len(sinks) > 1
    # a section per step, then the composite section, each filled once
    assert len(built) == steps + 1
    # a quotient map per step, then the composite quotient, each made once;
    # no patch of either is read: the composite fold drops what it holds
    assert len(quotients) == steps + 1
    assert read == []
    # only the composite section is validated: the steps' maps and the
    # composite quotient are built as they stand
    assert len(validated) == 1
    validated.clear()
    assert kk_chain(g).steps
    assert validated == []


# ---------------------------------------------------------------------------
# vertex images decided on coefficient tables


def test_checks_build_no_elements_and_multiply_no_words(monkeypatch):
    """Maps, checks and K_0 columns all work on vertex tables.

    On the golden mix (fixtures and the cw-ladder specs) building each
    chain and its composites, the relation checks, the section identities
    and the K_0 columns read and write coefficient tables alone: no element
    is built and no word is multiplied.
    """
    built, products = [], []
    init = CKElement.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_mul(x, y):
        products.append((x, y))
        return word_mul(x, y)

    monkeypatch.setattr(CKElement, "__init__", counted_init)
    monkeypatch.setattr(algebra, "word_mul", counted_mul)
    chains = golden_chains()
    composites = [
        (chain.composite_section(), chain.composite_quotient(),
         all(sd.star is not None for sd in chain.steps))
        for chain in chains if chain.steps
    ]
    steps = 0
    for chain in chains:
        for sd in chain.steps:
            assert verify_split_exact(sd).ok
            induced_k0(sd.sigma)
            induced_k0(sd.quotient_map)
            steps += 1
    for section, quot, unital in composites:
        assert verify_ck_family(section, require_unital=unital).ok
        assert splitting._section_identity_failure(section, quot) is None
        induced_k0(section)
        induced_k0(quot)
    assert steps > 150
    assert (len(built), len(products)) == (0, 0)


def test_section_identity_against_a_foreign_quotient_reports_the_first_vertex():
    # the quotient's tables undo the section, but it lands in a graph with
    # one more family than the section's source, so no p[v] comes back
    sd = build_splitting(example_graph(), "v4", "v2")
    src, q = sd.quotient_graph, sd.quotient_map
    wider = AmpGraph(src.vertices, src.edges + (("v5", "v1", OMEGA),))
    foreign = GeneratorMap(q.source, wider, q.vertex_images, q.edge_images)
    assert splitting._section_identity_failure(sd.sigma, q) is None
    assert splitting._section_identity_failure(sd.sigma, foreign) == "p[v1]"
    assert section_identity_failure_oracle(sd.sigma, foreign) == "p[v1]"


# ---------------------------------------------------------------------------
# composites against the oracle folds of validated maps


def _assert_composites_match_oracle(chain) -> tuple[bool, bool]:
    """Compare the composites and both verdicts with the oracles; return the verdicts."""
    section, quot = chain.composite_section(), chain.composite_quotient()
    want_section, want_quot = composite_section_oracle(chain), composite_quotient_oracle(chain)
    assert section == want_section
    assert quot == want_quot
    unital = all(sd.star is not None for sd in chain.steps)
    report = verify_ck_family(section, require_unital=unital)
    assert report == verify_ck_family(want_section, require_unital=unital)
    moved = splitting._section_identity_failure(section, quot)
    assert moved == section_identity_failure_oracle(want_section, want_quot)
    return report.ok, moved is None


def test_composites_match_oracle_on_golden_mix():
    # the fixtures under both policies, then the six cw-ladder chains
    for chain in golden_chains():
        assert _assert_composites_match_oracle(chain) == (True, True)


def test_composites_match_oracle_on_random_chains():
    rng = random.Random(20261018)
    for _ in range(120):
        assert _assert_composites_match_oracle(random_chain(rng)) == (True, True)


def test_composites_match_oracle_on_corrupted_chains():
    """One step's section damaged; the composites and verdicts still agree.

    The composite quotient is the quotient by every removed sink, built
    from the ambient graph, so only sections are damaged here; a step's
    quotient map is built by the same ``GeneratorMap.quotient``.
    """
    rng = random.Random(8)
    verdicts = set()
    trials = 0
    while trials < 120:
        chain = random_chain(rng)
        if len(chain.steps) < 2:
            continue
        at = rng.randrange(len(chain.steps))
        damaged = map_corruptions(chain.steps[at].sigma, rng)
        if not damaged:
            continue
        trials += 1
        steps = list(chain.steps)
        steps[at] = steps[at]._replace(sigma=rng.choice(damaged))
        bad = chain._replace(steps=tuple(steps))
        verdicts.add(_assert_composites_match_oracle(bad))
    # the damage reaches both checks, and the CK check alone
    assert {(False, False), (False, True)} <= verdicts, verdicts


# ---------------------------------------------------------------------------
# the ambient graph stabilised without quotients


def _random_star_policy(rng: random.Random):
    """A random sink, then a random valid star or the embedding."""

    def policy(g, sinks):
        sink = rng.choice(sinks)
        return sink, rng.choice(valid_stars(g, sink) + [None])

    return policy


def _plan_of(chain):
    return [(sd.sink, sd.star) for sd in chain.steps]


def _random_policy_chain(rng: random.Random):
    """A random graph and its chain under a shipped or a random policy."""
    g = random_amplified_dag(rng, rng.randint(1, 8), rng.choice((0.3, 0.5, 0.7, 0.9)))
    policy = rng.choice(
        (first_sink_first_star, prefer_source_star, _random_star_policy(rng))
    )
    return g, kk_chain(g, policy)


def test_stabilize_matches_quotient_chain_oracle_on_golden_mix():
    # the fixtures under both policies, then the six cw-ladder chains
    for chain in golden_chains():
        got = splitting._stabilize(chain.graph, _plan_of(chain))
        assert got == stabilize_oracle(chain.graph, _plan_of(chain))
        assert got == (chain.ambient, chain.augmented)


def test_stabilize_matches_quotient_chain_oracle_on_random_chains():
    rng = random.Random(20261019)
    augmented = 0
    for _ in range(120):
        g, chain = _random_policy_chain(rng)
        got = splitting._stabilize(g, _plan_of(chain))
        assert got == stabilize_oracle(g, _plan_of(chain))
        assert got == (chain.ambient, chain.augmented)
        augmented += bool(chain.augmented)
    assert augmented >= 10


def _assert_steps_run_on_ambient_quotients(chain):
    """Each step's working graph is the ambient graph without the earlier sinks."""
    for i, sd in enumerate(chain.steps):
        assert sd.working == sd.original == chain.ambient.quotient(chain.sinks[:i])
        assert sd.quotient_graph == chain.ambient.quotient(chain.sinks[: i + 1])


def test_step_graphs_match_ambient_quotients_on_golden_mix():
    for chain in golden_chains():
        _assert_steps_run_on_ambient_quotients(chain)


def test_step_graphs_match_ambient_quotients_on_random_chains():
    rng = random.Random(20261020)
    augmented = 0
    for _ in range(120):
        _, chain = _random_policy_chain(rng)
        _assert_steps_run_on_ambient_quotients(chain)
        augmented += bool(chain.augmented)
    assert augmented >= 10


def _assert_step_graphs_read_as_fresh(chain):
    """Both graphs of every step equal the graph built anew and the dense model."""
    model = DenseGraph(chain.ambient.vertices, chain.ambient.edges)
    for i, sd in enumerate(chain.steps):
        for graph, removed in ((sd.working, chain.sinks[:i]), (sd.quotient_graph, chain.sinks[: i + 1])):
            _assert_tables_fresh(graph)
            _assert_matches_model(graph, model.quotient(removed))


def test_step_graphs_equal_fresh_graphs_on_golden_mix():
    for chain in golden_chains():
        _assert_step_graphs_read_as_fresh(chain)


def test_step_graphs_equal_fresh_graphs_on_random_chains():
    rng = random.Random(20261023)
    augmented = 0
    for _ in range(120):
        _, chain = _random_policy_chain(rng)
        _assert_step_graphs_read_as_fresh(chain)
        augmented += bool(chain.augmented)
    assert augmented >= 10


def test_stabilising_changes_no_verdict_of_the_planner():
    """The planned graphs and the stabilised ones agree on what ``_check_step`` reads."""
    rng = random.Random(20261022)
    augmented = 0
    while augmented < 40:
        g, chain = _random_policy_chain(rng)
        if not chain.augmented:
            continue
        augmented += 1
        for i, sd in enumerate(chain.steps):
            planned = g.quotient(chain.sinks[:i])
            ours, theirs = planned.classify(), sd.working.classify()
            assert (ours.sinks, ours.sources, ours.amplified) == (theirs.sinks, theirs.sources, theirs.amplified)
            for sink in ours.sinks:
                assert valid_stars(planned, sink) == valid_stars(sd.working, sink)


def test_chains_build_no_quotient_to_stabilise_and_derive_reach_masks(monkeypatch):
    """Quotients and reach-mask searches made by chains.

    ``_stabilize`` builds no quotient.  A chain whose stabilising adds
    nothing builds one quotient per step, the planner's, and runs its steps
    on them; one that adds families cuts its chain once more from the
    ambient graph, two per step.  Each step's ``ideal`` check compares its
    quotient graph's mask with the working graph's and cuts none.  Every
    graph of a chain reads the input graph's tables or the stabilised ones,
    which share its reach masks, so a chain searches for reach masks once,
    on the input graph's tables.
    """
    quotient, reach, stabilize, run_chain = (
        AmpGraph.quotient, _Tables.reach, splitting._stabilize, splitting._run_chain
    )
    made, searched = [], []
    stabilising = []
    runs = []

    def counted_quotient(self, removed):
        made.append(bool(stabilising))
        return quotient(self, removed)

    def counted_reach(self):
        if self._reach is None:
            searched.append(self)
        return reach(self)

    def counted_stabilize(g, plan):
        stabilising.append(True)
        try:
            return stabilize(g, plan)
        finally:
            stabilising.pop()

    def counted_run(*args):
        start = len(made)
        chain = run_chain(*args)
        runs.append((chain, made[start:]))
        return chain

    monkeypatch.setattr(AmpGraph, "quotient", counted_quotient)
    monkeypatch.setattr(_Tables, "reach", counted_reach)
    monkeypatch.setattr(splitting, "_stabilize", counted_stabilize)
    monkeypatch.setattr(splitting, "_run_chain", counted_run)

    def assert_searched_once(chain):
        assert searched == [chain.graph._t]
        assert chain.ambient._t.reach() is chain.graph._t.reach()
        for sd in chain.steps:
            assert sd.working._t is sd.quotient_graph._t is chain.ambient._t

    for policy in (first_sink_first_star, prefer_source_star):
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            searched.clear()
            assert_searched_once(kk_chain(load_graph(path), policy))
    kk_chain(*_later_step_needs_a_family())
    rng = random.Random(20261021)
    for _ in range(40):
        searched.clear()
        _, chain = _random_policy_chain(rng)
        assert_searched_once(chain)
    for spec in CW_LADDER:
        searched.clear()
        summary = cw_kk_summary(spec)
        assert summary.report.ok
        assert_searched_once(summary.chain)
    assert made and not any(made)
    for chain, quotients in runs:
        assert len(quotients) == len(chain.steps) * (2 if chain.augmented else 1)
    assert {bool(chain.augmented) for chain, _ in runs} == {False, True}


def test_a_chain_walks_one_graph_for_its_shape_facts(monkeypatch):
    """The planner reads every step graph's sinks, the steps their sinks and
    sources, but a one-sink cut derives its facts from its parent's, and an
    amplification keeps them: a chain walks its input graph, and no other,
    whether stabilising adds families or not."""
    shape = AmpGraph.__dict__["_shape"]
    build, walked = shape.build, []

    @functools.wraps(build)
    def counted(g):
        if "_cut" not in g.__dict__:
            walked.append(g)
        return build(g)

    monkeypatch.setattr(shape, "build", counted)
    chains = [kk_chain(flag_graph(DynkinSpec(4, frozenset({1, 2, 3, 4}))))]
    rng = random.Random(20261026)
    chains += [_random_policy_chain(rng)[1] for _ in range(40)]
    assert [id(g) for g in walked] == [id(chain.graph) for chain in chains]
    assert len(chains[0].steps) == 119
    assert any(chain.augmented for chain in chains)
    # and the carried facts are the ones a walk finds
    for chain in chains:
        for sd in chain.steps:
            fresh = AmpGraph(sd.quotient_graph.vertices, sd.quotient_graph.edges)
            assert sd.quotient_graph.classify() == fresh.classify()


def test_a_step_lists_its_valid_stars_at_most_once(monkeypatch):
    """A chosen star is decided on its in-neighbours and a default one is
    the first the lazy scan accepts, so no shipped chain lists the stars.
    On a flag graph the scan stops at ``e``, a source at position 0, and
    the step's check decides that star once more."""
    calls, decided = [], []
    monkeypatch.setattr(splitting, "valid_stars", lambda g, sink: calls.append(sink) or valid_stars(g, sink))

    def counted(g, sink, v):
        decided.append(v)
        return is_star(g, sink, v)

    monkeypatch.setattr(graphs, "is_star", counted)
    monkeypatch.setattr(splitting, "is_star", counted)
    steps = 0

    def assert_listed_at_most_once(build):
        nonlocal steps
        calls.clear()
        decided.clear()
        chain = build()
        assert calls == []
        steps += len(chain.steps)
        return chain

    for path in sorted((ROOT / "fixtures").glob("*.json")):
        for policy in (first_sink_first_star, prefer_source_star):
            assert_listed_at_most_once(lambda: kk_chain(load_graph(path), policy))
        g = load_graph(path)
        assert_listed_at_most_once(lambda: multi_sink_splitting(g, kk_chain(g).sinks))
    for spec in CW_LADDER:
        chain = assert_listed_at_most_once(lambda: cw_kk_summary(spec).chain)
        assert {sd.star for sd in chain.steps} == set(decided) == {"e"}
        assert len(decided) <= 2 * len(chain.steps)
    assert steps > 100


def _listed(g: AmpGraph) -> bool:
    """Whether ``g`` has built its vertex or family list."""
    return "vertices" in g.__dict__ or "edges" in g.__dict__


def test_chains_and_their_k0_checks_list_no_step_graph():
    """No step graph builds its vertex or family list: every lookup reads masks.

    Only the input, ambient and terminal graphs may be listed:
    ``check_chain_k0`` reads the ambient and terminal vertex lists.
    """
    chains = [
        kk_chain(load_graph(path), policy)
        for policy in (first_sink_first_star, prefer_source_star)
        for path in sorted((ROOT / "fixtures").glob("*.json"))
    ]
    rng = random.Random(20261024)
    chains += [_random_policy_chain(rng)[1] for _ in range(40)]
    assert any(chain.augmented for chain in chains)
    for chain in chains:
        assert check_chain_k0(chain).report.ok
        assert all(check_split_exact_k0(sd).report.ok for sd in chain.steps)
        allowed = {id(chain.graph), id(chain.ambient), id(chain.terminal)}
        graphs = {id(g): g for sd in chain.steps for g in (sd.working, sd.quotient_graph)}
        assert [len(g) for i, g in graphs.items() if i not in allowed and _listed(g)] == []
