"""Generator maps kept as a patch, against the full-table checks they replace.

A map stores only the images that differ from the same-label generator.
Every relation check, composite, section identity and chain K_0 check reads
that patch and its neighbours; here each is compared, report for report,
with the full-table version in ``helpers`` on the golden mix, on random
chains, on every corrupted map variant and on the corrupted chains.  The
count test pins what each step examines to its patches and their
neighbours.
"""

import random
import re

import pytest

from ampgraph import (
    AmpGraph,
    DynkinSpec,
    GeneratorMap,
    KKChain,
    check_chain_k0,
    check_split_exact_k0,
    cw_kk_summary,
    flag_graph,
    kk_chain,
    multi_sink_splitting,
    verify_ck_family,
)
from ampgraph import algebra, splitting

from helpers import (
    CW_LADDER,
    compose_tables_oracle,
    composite_section_listing_oracle,
    check_chain_k0_tables_oracle,
    corrupted_chains,
    example_graph,
    golden_chains,
    hereditary_subsets_oracle,
    map_corruptions,
    quotient_onto_oracle,
    quotient_relation_check_oracle,
    random_chain,
    section_identity_failure_patch_oracle,
    section_identity_failure_tables_oracle,
    splitting_map_oracle,
    unmoved_defects_listing_oracle,
    verify_ck_family_tables_oracle,
    watch_patch_builds,
    with_images,
)


def _outcome(check, *args):
    """The check's result, or the message of the ValueError it raised."""
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def _step_maps(chain):
    return [m for sd in chain.steps for m in (sd.sigma, sd.quotient_map)]


def _assert_map_matches(m):
    for unital in (True, False):
        assert verify_ck_family(m, unital) == verify_ck_family_tables_oracle(m, unital)


def _assert_chain_matches(chain):
    """Every map, section identity, composite and the chain K_0 against the oracles."""
    for m in _step_maps(chain):
        _assert_map_matches(m)
    for sd in chain.steps:
        assert splitting._section_identity_failure(sd.sigma, sd.quotient_map) == (
            section_identity_failure_tables_oracle(sd.sigma, sd.quotient_map)
        )
    for inner, outer in zip(chain.steps[1:], chain.steps):
        want = GeneratorMap(*compose_tables_oracle(outer.sigma, inner.sigma))
        assert algebra.compose(outer.sigma, inner.sigma) == want
    if chain.steps:
        section, quot = chain.composite_section(), chain.composite_quotient()
        _assert_map_matches(section)
        _assert_map_matches(quot)
        assert splitting._section_identity_failure(section, quot) == (
            section_identity_failure_tables_oracle(section, quot)
        )
    assert _outcome(check_chain_k0, chain) == _outcome(check_chain_k0_tables_oracle, chain)


def test_patch_checks_match_full_tables_on_golden_mix():
    for chain in golden_chains():
        _assert_chain_matches(chain)


def test_patch_checks_match_full_tables_on_random_chains():
    rng = random.Random(20261018)
    for _ in range(120):
        _assert_chain_matches(random_chain(rng))


def test_patch_checks_match_full_tables_on_every_corrupted_map():
    """Every ``map_corruptions`` variant of every step map of 40 random chains (2,348).

    Each variant is checked on its own, as the section of its step's
    quotient map, and composed under and over its neighbours.
    """
    rng = random.Random(14)
    variants = failing = 0
    for _ in range(40):
        chain = random_chain(rng)
        for i, sd in enumerate(chain.steps):
            for field in ("sigma", "quotient_map"):
                for bad in map_corruptions(getattr(sd, field), rng):
                    variants += 1
                    _assert_map_matches(bad)
                    failing += not verify_ck_family(bad).ok
                    section, quot = (bad, sd.quotient_map) if field == "sigma" else (sd.sigma, bad)
                    assert splitting._section_identity_failure(section, quot) == (
                        section_identity_failure_tables_oracle(section, quot)
                    )
                    pairs = [(quot, section)]
                    if field == "sigma" and i:
                        pairs.append((chain.steps[i - 1].sigma, bad))
                    for outer, inner in pairs:
                        want = GeneratorMap(*compose_tables_oracle(outer, inner))
                        assert algebra.compose(outer, inner) == want
    assert variants > 2000 and failing > 2000


def test_chain_k0_matches_full_tables_on_corrupted_chains():
    outcomes = set()
    for bad in corrupted_chains():
        got = _outcome(check_chain_k0, bad)
        assert got == _outcome(check_chain_k0_tables_oracle, bad)
        outcomes.add("refused" if isinstance(got, str) else got.report.ok)
    assert outcomes == {"refused", False, True}


# ---------------------------------------------------------------------------
# what a map keeps, and what it refuses


def test_canned_maps_keep_only_what_they_move():
    sd = splitting.build_splitting(example_graph(), "v4", "v2")
    assert sd.sigma.vertex_patch == {"v2": {"v2": 1, "v4": 1}}
    assert sd.sigma.family_patch == {("v1", "v2"): {("v1", "v2"): 1, ("v1", "v4"): 1}}
    assert sd.quotient_map.vertex_patch == {"v4": {}}
    assert sd.quotient_map.family_patch == {("v1", "v4"): {}, ("v2", "v4"): {}}
    g = example_graph()
    ident = GeneratorMap.identity(g)
    assert (ident.vertex_patch, ident.family_patch) == ({}, {})
    # the constructor takes full tables and keeps their difference
    assert GeneratorMap(g, g, ident.vertex_images, ident.edge_images) == ident
    for m in (sd.sigma, sd.quotient_map):
        assert GeneratorMap(m.source, m.target, m.vertex_images, m.edge_images) == m
    assert ident.vertex_images == {v: {v: 1} for v in g.vertices}
    assert ident.edge_images == {(a, b): ((1, (a, b)),) for a, b, _ in g.families()}
    # every map a chain builds as it stands is the validated one, in the same order
    rng = random.Random(20261019)
    chains = golden_chains() + [random_chain(rng) for _ in range(40)]
    for chain in chains:
        built = [(chain.composite_quotient(),
                  quotient_onto_oracle(chain.ambient, chain.terminal, chain.sinks))]
        for sd in chain.steps:
            built.append((sd.sigma, splitting_map_oracle(sd.working, sd.quotient_graph, sd.sink, sd.star)))
            built.append((sd.quotient_map, quotient_onto_oracle(sd.working, sd.quotient_graph, (sd.sink,))))
        for m, oracle in built:
            assert m == oracle == GeneratorMap(m.source, m.target, m.vertex_images, m.edge_images)
            assert (list(m.vertex_patch), list(m.family_patch)) == (
                list(oracle.vertex_patch), list(oracle.family_patch))


def test_an_override_of_an_unmoved_generator_joins_the_patch():
    sd = splitting.build_splitting(example_graph(), "v4", "v2")
    bad = with_images(sd.sigma, vimgs={"v3": {"v3": 1, "v4": 1}})
    assert bad.vertex_patch == {"v2": {"v2": 1, "v4": 1}, "v3": {"v3": 1, "v4": 1}}
    assert bad != sd.sigma
    assert verify_ck_family(bad).check("vertex-orthogonality").detail == (
        "images of p[v2] and p[v3] are not orthogonal"
    )
    # the quotient map kills v4, so the section identity still holds ...
    assert splitting._section_identity_failure(bad, sd.quotient_map) is None
    # ... but not when v3 also covers the unmoved v5
    worse = with_images(sd.sigma, vimgs={"v3": {"v3": 1, "v5": 1}})
    assert splitting._section_identity_failure(worse, sd.quotient_map) == "p[v3]"
    assert verify_ck_family(worse).check("vertex-orthogonality").detail == (
        "images of p[v3] and p[v5] are not orthogonal"
    )
    # an image put back to the same-label generator leaves the patch
    assert with_images(bad, vimgs={"v3": {"v3": 1, "v5": 0}}) == sd.sigma


def test_a_template_given_as_pairs_sums_repeats_and_drops_zeros():
    sd = splitting.build_splitting(example_graph(), "v4", "v2")
    f, t, u = ("v1", "v2"), ("v1", "v4"), ("v3", "v5")
    # a repeated family and a cancelling pair build the same map as the reduced table
    pairs = ((2, t), (1, u), (1, f), (-1, t), (-1, u))
    m = with_images(sd.sigma, eimgs={f: pairs})
    assert m.family_patch == {f: {f: 1, t: 1}}
    assert m == sd.sigma
    # a template that reduces to its own family leaves the patch
    ident = GeneratorMap.identity(example_graph())
    back = with_images(ident, eimgs={("v1", "v3"): ((1, ("v1", "v3")), (1, u), (-1, u))})
    assert back.family_patch == {}
    assert back == ident
    assert verify_ck_family(back).ok


def _without(g: AmpGraph, fam) -> AmpGraph:
    return AmpGraph(g.vertices, tuple(e for e in g.edges if e[:2] != fam))


@pytest.mark.parametrize("fam", [("v1", "v2"), ("v1", "v3"), ("v3", "v5")])
def test_an_unmoved_family_the_target_lacks_is_refused(fam):
    g = example_graph()
    h = _without(g, fam)
    ident = GeneratorMap.identity(g)
    msg = f"template for {fam} uses missing target family {fam[0]!r} -> {fam[1]!r}"
    with pytest.raises(ValueError) as full:
        GeneratorMap(g, h, ident.vertex_images, ident.edge_images)
    with pytest.raises(ValueError) as patched:
        GeneratorMap.inclusion(g, h)
    assert str(full.value) == str(patched.value) == msg


def test_refusals_name_the_first_offender_as_the_full_tables_do():
    # two unmoved families the target lacks, and a moved template naming a
    # third: the first in row-major order is named
    g = example_graph()
    h = _without(_without(g, ("v3", "v5")), ("v1", "v3"))
    fams = {("v2", "v4"): ((1, ("v2", "v4")), (1, ("v1", "v3")))}
    ident = GeneratorMap.identity(g)
    with pytest.raises(ValueError) as full:
        GeneratorMap(g, h, ident.vertex_images, {**ident.edge_images, **fams})
    with pytest.raises(ValueError) as patched:
        algebra._label_map(g, h, {}, {("v2", "v4"): {("v2", "v4"): 1, ("v1", "v3"): 1}})
    assert str(full.value) == str(patched.value) == (
        "template for ('v1', 'v3') uses missing target family 'v1' -> 'v3'"
    )
    # an unmoved vertex the target lacks comes before a bad moved image
    # later in vertex order
    small = g.quotient(("v5",))
    with pytest.raises(ValueError, match=r"image of p\[v5\] names unknown vertex 'v5'"):
        algebra._label_map(g, small, {}, {})
    with pytest.raises(ValueError, match=r"image of p\[v2\] names unknown vertex 'zz'"):
        algebra._label_map(g, small, {"v2": {"zz": 1}}, {})


def test_a_quotient_map_is_what_its_target_lacks():
    # every vertex and family the target lacks is killed, the rest fixed,
    # as the validated map does it
    g = example_graph()
    cases = [
        (("v4",), {"v4": {}}, {("v2", "v4"): {}}),
        (("v4", "v5"), {"v4": {}, "v5": {}}, {("v2", "v4"): {}, ("v3", "v5"): {}}),
        ((), {}, {}),
    ]
    for removed, vpatch, fpatch in cases:
        target = g.quotient(removed)
        q = algebra._quotient_onto(g, target)
        assert (q.vertex_patch, q.family_patch) == (vpatch, fpatch)
        assert q == quotient_onto_oracle(g, target, removed) == GeneratorMap.quotient(g, removed)
        assert verify_ck_family(q).ok
    assert algebra._quotient_onto(g, g) == GeneratorMap.identity(g)
    # the quotient graph still refuses a set that names no ideal
    with pytest.raises(ValueError, match=re.escape("['v2'] is not hereditary: not a valid ideal")):
        GeneratorMap.quotient(g, ("v2",))
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        GeneratorMap.quotient(g, ("zz",))
    finite = AmpGraph.from_edges(("a", "b"), [("a", "b", 2)])
    with pytest.raises(ValueError, match="generator maps require amplified graphs"):
        GeneratorMap.quotient(finite, ("b",))


def test_a_quotient_maps_zero_tables_are_its_own_and_handed_out_as_copies():
    # a caller writing into a table read off ``vertex_images`` changes no
    # map: not the one it came from, nor another quotient map's killed tables
    g = AmpGraph.from_edges(("a", "b", "c"), [("a", "b"), ("b", "c")])
    m = GeneratorMap.quotient(g, ["c"])
    m.vertex_images["c"]["b"] = 1
    m.vertex_images["a"]["b"] = 1
    assert m.vertex_patch == {"c": {}} and m.vertex_images == {"a": {"a": 1}, "b": {"b": 1}, "c": {}}
    n = GeneratorMap.quotient(AmpGraph.from_edges(("x", "y", "z"), [("x", "y"), ("z", "y")]), ["y"])
    assert (n.vertex_patch, n.family_patch) == ({"y": {}}, {("x", "y"): {}, ("z", "y"): {}})
    tables = [*m.vertex_patch.values(), *m.family_patch.values(), *n.vertex_patch.values(), *n.family_patch.values()]
    assert len(set(map(id, tables))) == len(tables) == 5


def _omega_graph(rng: random.Random) -> AmpGraph:
    """A random amplified graph on up to seven vertices: self-loops, cycles and sinks all occur."""
    labels = tuple(f"u{i}" for i in range(rng.randint(1, 7)))
    return AmpGraph.from_edges(labels, [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(0, 14))])


def test_a_quotient_map_builds_the_oracles_patch_when_first_read(monkeypatch):
    """Quotient maps between hereditary quotients of random amplified graphs
    against the validating oracle, patch for patch and in order.

    Each quotient is cut again by every one-vertex hereditary set, a sink's
    or a self-loop's, and by two random hereditary sets.  A map lists what
    its target lacks once, on first read, and keeps it."""
    lacks, lacked = AmpGraph.lacks, []

    def counted(self, other):
        lacked.append(self)
        return lacks(self, other)

    monkeypatch.setattr(AmpGraph, "lacks", counted)
    rng = random.Random(20261032)
    singles = loops = 0
    for _ in range(60):
        g = _omega_graph(rng)
        for first in sorted(hereditary_subsets_oracle(g)):
            q = g.quotient(first)
            subsets = sorted(hereditary_subsets_oracle(q))
            ones = [s for s in subsets if len(s) == 1]
            for second in ones + rng.sample(subsets, min(2, len(subsets))):
                target = q.quotient(second)
                m = algebra._quotient_onto(q, target)
                lacked.clear()
                patch = (list(m.vertex_patch.items()), list(m.family_patch.items()))
                oracle = quotient_onto_oracle(q, target, second)
                assert patch == (list(oracle.vertex_patch.items()), list(oracle.family_patch.items()))
                assert m.vertex_patch is m.vertex_patch and m.family_patch is m.family_patch
                assert lacked[:1] == [q]
                assert m == oracle
                singles += len(second) == 1
                loops += len(second) == 1 and q.has_family(second[0], second[0])
    assert singles > 500 and loops > 50


def _halves_built(m) -> list[str]:
    """The halves of ``m``'s patch already built, read off its dict without building one."""
    return [half for half in ("vertex_patch", "family_patch") if half in vars(m)]


def _cut_targets(q: AmpGraph, rng: random.Random) -> list:
    """``(target, removed)`` pairs on ``q``'s tables, for the quotient map out of ``q``.

    ``q`` cut by every one-vertex hereditary set and by two random ones;
    masks that drop a set that is not hereditary; and masks that keep a bit
    of the tables ``q`` lacks, with or without a hereditary set dropped.
    The last two are built with ``AmpGraph._on``, as no cut builds them.
    """
    subsets = sorted(hereditary_subsets_oracle(q))
    ones = [s for s in subsets if len(s) == 1]
    cases = [(q.quotient(s), s) for s in ones + rng.sample(subsets, min(2, len(subsets)))]
    t, keep = q._t, q._keep
    bit = {v: 1 << t.pos[v] for v in t.labels}
    for _ in range(3):
        picked = tuple(v for v in q.vertices if rng.random() < 0.4)
        if picked and not q.is_hereditary(picked):
            cases.append((AmpGraph._on(t, keep & ~sum(bit[v] for v in picked)), picked))
    extra = [v for v in t.labels if v not in q]
    if extra:
        for dropped in ((), rng.choice(subsets)):
            mask = keep & ~sum(bit[v] for v in dropped) | bit[rng.choice(extra)]
            cases.append((AmpGraph._on(t, mask), dropped))
    return cases


def test_a_quotient_map_passes_its_relations_on_its_cut_as_the_oracle_decides():
    """The relation check of quotient maps out of the hereditary quotients of
    60 random amplified graphs with self-loops and cycles, against the walk
    of the validated map it replaced (``quotient_relation_check_oracle``).

    Where the oracle passes, the check returns the very same shared report
    and builds neither half of the patch; where it fails, it returns an
    equal report.  Targets whose masks drop a set that is not hereditary, or
    keep a bit the source lacks, fail the mask test and are walked."""
    rng = random.Random(20261035)
    outcomes = {"passed": 0, "open": 0, "superset": 0}
    for _ in range(60):
        g = _omega_graph(rng)
        for first in sorted(hereditary_subsets_oracle(g)):
            q = g.quotient(first)
            for target, removed in _cut_targets(q, rng):
                for unital in (True, False):
                    m = algebra._quotient_onto(q, target)
                    got = verify_ck_family(m, unital)
                    want = quotient_relation_check_oracle(q, target, removed, unital)
                    assert got == want, (q, target, removed)
                    shared = algebra._PASSED[unital]
                    assert (got is shared) == (want is shared)
                    if got is shared:
                        assert _halves_built(m) == []
                        outcomes["passed"] += 1
                    elif not target._keep & ~q._keep:
                        outcomes["open"] += 1
                    else:
                        outcomes["superset"] += 1
    assert min(outcomes.values()) > 200, outcomes


def _identity_cases(section, quot, rng: random.Random) -> list:
    """``(section, quot)``, then sections and quotients damaged around it.

    The section's table at a random vertex, or its template at a random
    family, gains an entry at a label the quotient kills, a label its
    target lacks, or a label the quotient keeps; the quotient is made anew
    from the section's target built afresh (other tables), onto another
    graph, or as a validated map with the same patch.
    """
    src, whole = section.source, section.target
    vpatch, fpatch = section.vertex_patch, section.family_patch
    cases = [(section, quot)]

    def damaged(vertices=None, families=None):
        return algebra._from_patch(src, whole, {**vpatch, **(vertices or {})}, {**fpatch, **(families or {})})

    if src.vertices:
        x = rng.choice(src.vertices)
        table = vpatch.get(x, {x: 1})
        killed = [v for v in whole.vertices if v not in src]
        for extra in ([rng.choice(killed)] if killed else []) + ["nowhere", rng.choice(src.vertices)]:
            cases.append((damaged(vertices={x: {**table, extra: table.get(extra, 0) + 2}}), quot))
    fams = [(a, b) for a, b, _ in src.edges]
    if fams:
        f = rng.choice(fams)
        tpl = fpatch.get(f, {f: 1})
        killed = [(a, b) for a, b, _ in whole.edges if not src.has_family(a, b)]
        absent = (f[1], f[0]) if not whole.has_family(f[1], f[0]) else (f[0], "nowhere")
        for extra in ([rng.choice(killed)] if killed else []) + [absent, rng.choice(fams)]:
            cases.append((damaged(families={f: {**tpl, extra: tpl.get(extra, 0) + 2}}), quot))
    fresh = AmpGraph(whole.vertices, whole.edges)
    cases.append((section, algebra._quotient_onto(fresh, src)))
    cases.append((section, algebra._quotient_onto(whole, whole)))
    cases.append((section, GeneratorMap(quot.source, quot.target, quot.vertex_images, quot.edge_images)))
    return cases


def test_the_section_identity_asks_the_target_as_the_composing_oracle_answers():
    """The section identity against the composing one it replaced, on every
    step and composite of the golden chains and 40 seeded random chains,
    and on damaged sections and foreign quotients around each: an entry at
    a killed label, which leaves the identity as it was, and a label the
    section's target lacks or the quotient keeps, which breaks it."""
    rng = random.Random(20261033)
    chains = golden_chains() + [random_chain(rng) for _ in range(40)]
    outcomes = {"fixed": 0, "moved": 0}
    for chain in chains:
        pairs = [(sd.sigma, sd.quotient_map) for sd in chain.steps]
        if chain.steps:
            pairs.append((chain.composite_section(), chain.composite_quotient()))
        for section, quot in pairs:
            assert quot._quotient
            for s, q in _identity_cases(section, quot, rng):
                got = splitting._section_identity_failure(s, q)
                assert got == section_identity_failure_patch_oracle(s, q), (s, q)
                outcomes["fixed" if got is None else "moved"] += 1
    assert min(outcomes.values()) > 1000


def test_the_composite_quotient_builds_its_patch_only_when_read(monkeypatch):
    """On full A4 and 40 random chains run through ``multi_sink_splitting``,
    the composite quotient's patch, every family at the removed sinks, is
    never built: the composite section identity asks the terminal graph
    what it keeps.  Read afterwards, it is the oracle's."""
    composite = KKChain.composite_quotient
    built, made = [], []

    def counted_build(m, half, value):
        built.append(m)
        return value

    def counted_composite(chain):
        made.append(composite(chain))
        return made[-1]

    watch_patch_builds(monkeypatch, counted_build)
    monkeypatch.setattr(KKChain, "composite_quotient", counted_composite)
    rng = random.Random(20261034)
    chains = [cw_kk_summary(DynkinSpec(4, frozenset({1, 2, 3, 4}))).chain]
    for _ in range(40):
        chain = random_chain(rng)
        chains.append(multi_sink_splitting(chain.graph, chain.sinks, [sd.star for sd in chain.steps]))
    assert len(made) == sum(1 for chain in chains if chain.steps) > 30
    assert not any(m is quot for m in built for quot in made)
    for chain, quot in zip([c for c in chains if c.steps], made):
        assert quot == quotient_onto_oracle(chain.ambient, chain.terminal, chain.sinks)
        assert built[-1] is quot


def test_a_step_and_the_composite_fold_list_no_family_at_its_sink(monkeypatch):
    """No family at a sink is listed, by a step or by the composite fold.

    A step's checks list none: the quotient map passes its relation check
    on one mask test and the section identity reads no patch of it, so
    ``_split`` calls neither ``lacks`` nor a ``families_at`` naming the
    sink.  The composite fold drops the templates it holds at each sink
    and reads no quotient map, so ``composite_section`` names no removed
    sink either: its one ``lacks`` is the validator's, of the terminal
    graph against the ambient one, which lacks nothing.
    """
    listed, lacked = [], []
    families_at, lacks = AmpGraph.families_at, AmpGraph.lacks

    def counted(self, subset):
        subset = tuple(subset)
        listed.append(subset)
        return families_at(self, subset)

    def counted_lacks(self, other):
        got = lacks(self, other)
        lacked.append((self, other, got))
        return got

    monkeypatch.setattr(AmpGraph, "families_at", counted)
    monkeypatch.setattr(AmpGraph, "lacks", counted_lacks)
    chains = [c for c in golden_chains() if c.steps]
    rng = random.Random(20261026)
    chains += [random_chain(rng) for _ in range(40)]
    for chain in chains:
        for sd in chain.steps:
            listed.clear()
            lacked.clear()
            splitting._split(sd.working, sd.quotient_graph, sd.sink, sd.star, sd.augmented)
            assert [s for s in listed if sd.sink in s] == [] and lacked == []
        listed.clear()
        lacked.clear()
        chain.composite_section()
        assert [s for s in listed if set(s) & set(chain.sinks)] == []
        assert lacked == [(chain.terminal, chain.ambient, ((), []))]


def test_a_chain_and_its_k0_checks_build_no_step_family_patch(monkeypatch):
    """``kk_chain`` and both K_0 checks on 40 random chains build each step
    quotient map's ``vertex_patch`` once and its ``family_patch`` never,
    which, read afterwards, lists no step graph's vertices or families;
    ``cw_kk_summary`` on Gr(2,4), full A3 and A4 {1,3}, whose composite
    fold drops what it holds at each sink, builds no ``family_patch`` at
    all, of a step or of the composite quotient."""
    built = []

    def counted(m, half, value):
        built.append((id(m), half))
        return value

    watch_patch_builds(monkeypatch, counted)
    rng = random.Random(20261038)
    steps = 0
    for _ in range(40):
        built.clear()
        chain = random_chain(rng)
        check_chain_k0(chain)
        for sd in chain.steps:
            check_split_exact_k0(sd)
        assert sorted(built) == sorted((id(sd.quotient_map), "vertex_patch") for sd in chain.steps)
        steps += len(chain.steps)
        # read afterwards, as the composite fold reads them, the killed
        # families are listed off the masks: no step graph lists itself
        for sd in chain.steps:
            assert sd.quotient_map.family_patch == dict.fromkeys(sd.working.families_at((sd.sink,)), {})
        inner = {id(g): g for sd in chain.steps for g in (sd.working, sd.quotient_graph)}
        for g in (chain.graph, chain.ambient, chain.terminal):
            inner.pop(id(g), None)
        assert not [g for g in inner.values() if "vertices" in g.__dict__ or "edges" in g.__dict__]
    assert steps > 100
    for spec in (CW_LADDER[0], CW_LADDER[4], CW_LADDER[5]):
        built.clear()
        summary = cw_kk_summary(spec)
        assert summary.report.ok and summary.chain.steps
        assert [m for m, half in built if half == "family_patch"] == []


# ---------------------------------------------------------------------------
# what a step examines


class _Watched(dict):
    """A patch that records every label looked up in it."""

    def __init__(self, data, seen):
        super().__init__(data)
        self.seen = seen

    def get(self, key, default=None):
        self.seen.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.seen.append(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.seen.append(key)
        return super().__getitem__(key)


def _neighbourhood(maps) -> set:
    """The labels of the maps' patches, every label their images name, the
    families at each moved vertex, and the ends of all those families."""
    out = set()
    for m in maps:
        vpatch, fpatch = m.vertex_patch, m.family_patch
        out |= set(vpatch) | {x for table in vpatch.values() for x in table}
        out |= set(fpatch) | {t for tpl in fpatch.values() for t in tpl}
        out |= set(m.source.families_at(vpatch))
    return out | {v for fam in out if isinstance(fam, tuple) for v in fam}


def test_each_step_examines_only_its_patches_and_their_neighbours(monkeypatch):
    """Count the generators each map is asked about on full A4.

    Every lookup of a label in a map's patch, by any check, composite or K_0
    step, is recorded: a section's patch is watched from when it is filled,
    a quotient map's halves each from when it is built on first read.  No map's full
    tables are built.  Per step, the labels asked about lie in the
    neighbourhood of the step's two patches and of the next step's, whose
    section the composite pushes through this one; there are a few lookups
    per label, and a whole chain asks about a small share of its maps'
    generators.  Each step's quotient map builds its killed vertices once,
    for the K_0 checks, and its killed families never: the composite fold
    drops what it holds at each sink.  The composite quotient builds
    neither.  The section identity looks up no label in either patch: it
    reads the section's tables and asks the quotient graph what it keeps.
    """
    fill = algebra._fill
    built = []

    def watched(m, source, target, vpatch, fpatch):
        fill(m, source, target, _Watched(vpatch, []), _Watched(fpatch, []))

    def watched_build(m, half, value):
        built.append((id(m), half))
        return _Watched(value, [])

    def refuse(self):
        raise AssertionError("a full table was built")

    monkeypatch.setattr(algebra, "_fill", watched)
    watch_patch_builds(monkeypatch, watched_build)
    monkeypatch.setattr(GeneratorMap, "vertex_images", property(refuse))
    monkeypatch.setattr(GeneratorMap, "edge_images", property(refuse))
    summary = cw_kk_summary(DynkinSpec(4, frozenset({1, 2, 3, 4})))
    assert summary.report.ok
    steps = summary.chain.steps
    assert sorted(built) == sorted((id(sd.quotient_map), "vertex_patch") for sd in steps)
    assert len(built) == len(steps) == 119
    examined = generators = 0
    for sd, after in zip(steps, steps[1:] + steps[-1:]):
        maps = (sd.sigma, sd.quotient_map)
        patches = [patch for m in maps for patch in (m.vertex_patch, m.family_patch)]
        seen = [x for patch in patches for x in patch.seen]
        near = _neighbourhood(maps + (after.sigma, after.quotient_map))
        assert set(seen) <= near, set(seen) - near
        assert len(seen) <= 8 * len(near)
        assert splitting._section_identity_failure(*maps) is None
        assert sum(len(patch.seen) for patch in patches) == len(seen)
        examined += len(seen)
        generators += sum(len(m.source.vertices) + len(m.source.edges) for m in maps)
    assert generators > 60_000
    assert examined < generators / 10


# ---------------------------------------------------------------------------
# the prefix fold


def _reference_fold(steps, cancelled: list):
    """``algebra._prefix_fold`` with every prefix table rebuilt as a new dict at every step.

    Each entry that sums to zero is appended to ``cancelled``.
    """
    def push(prefix, moved):
        out = {}
        for u, terms in moved.items():
            acc = {}
            for x, c in terms.items():
                for y, d in prefix.get(x, {x: 1}).items():
                    acc[y] = acc.get(y, 0) + c * d
            cancelled.extend(y for y, c in acc.items() if not c)
            out[u] = {y: c for y, c in acc.items() if c}
        return {**prefix, **out}

    tables, templates = {}, {}
    for sink, vmoved, fmoved in steps:
        yield dict(tables.get(sink, {sink: 1}))
        tables = push(tables, vmoved)
        templates = push(templates, fmoved)
        tables.pop(sink, None)
        templates = {f: tpl for f, tpl in templates.items() if sink not in f}
    yield tables, templates


def _random_feed(rng: random.Random) -> list:
    """Steps over labels ``a``, ``b``, ... with random integer tables and templates.

    The labels are removed in a random order, and a family ``x -> y`` exists
    when ``y`` goes before ``x``, so each step's sink has no family out.
    Each step names labels still present and moves one to three of those
    it keeps, each often naming itself with coefficient 1 and sometimes
    another moved label, and some families it keeps; it drops its sink and
    the families at it.
    """
    labels = [chr(ord("a") + i) for i in range(rng.randint(2, 7))]
    rank = {v: rng.random() for v in labels}
    steps = []
    while len(labels) > 1:
        sink = min(labels, key=rank.get)
        kept = [v for v in labels if v != sink]
        fams = [(x, y) for x in labels for y in labels if rank[y] < rank[x]]

        def terms(own, pool):
            out = {own: 1} if rng.random() < 0.8 else {}
            for x in rng.sample(pool, min(len(pool), rng.randint(0, 3))):
                out[x] = out.get(x, 0) + rng.choice((-2, -1, 1, 1, 2))
            return {x: c for x, c in out.items() if c}

        vmoved = {u: terms(u, labels) for u in rng.sample(kept, rng.randint(1, min(3, len(kept))))}
        live = [f for f in fams if sink not in f]
        fmoved = {f: terms(f, fams) for f in rng.sample(live, min(len(live), rng.randint(0, 3)))}
        steps.append((sink, vmoved, fmoved))
        labels = kept
    return steps


def test_the_fold_matches_fresh_tables_on_random_feeds():
    """The in-place fold against the rebuilding one, on random integer steps.

    The steps move several labels, some naming each other, with
    coefficients that cancel, so every path of the fold runs: a table
    added into in place, a step built fresh, an entry that cancels, a
    template dropped at its range sink.  No yielded table and no step's
    table changes afterwards.
    """
    rng = random.Random(20261019)
    cancelled, crossed, dropped = [], 0, 0
    for _ in range(300):
        steps = _random_feed(rng)
        before = repr(steps)
        held, copies = [], []
        fold = algebra._prefix_fold(iter(steps))
        for _ in steps:
            table = next(fold)
            held.append(table)
            copies.append(dict(table))
        tables, templates = next(fold)
        *want, (want_tables, want_templates) = _reference_fold(steps, cancelled)
        assert held == copies == want
        assert tables == want_tables
        assert templates == want_templates
        assert repr(steps) == before
        crossed += any(x in vmoved and x != u for _, vmoved, _ in steps
                       for u, terms in vmoved.items() for x in terms)
        dropped += len(want_templates) < len({f for _, _, fmoved in steps for f in fmoved})
    assert crossed > 50 and len(cancelled) > 50 and dropped > 50


def _section_feed(chain):
    return ((sd.sink, sd.sigma.vertex_patch, sd.sigma.family_patch) for sd in chain.steps)


def _section_prefixes(chain):
    """``sigma_1 . ... . sigma_i`` for i = 0, 1, ..., each composed on full tables."""
    prefix = GeneratorMap.identity(chain.ambient)
    yield prefix
    for sd in chain.steps:
        prefix = GeneratorMap(*compose_tables_oracle(prefix, sd.sigma))
        yield prefix


def _damaged_section_chains(rng: random.Random, count: int) -> list:
    """Random chains of two steps or more, one section replaced by a ``map_corruptions`` variant."""
    out = []
    while len(out) < count:
        chain = random_chain(rng)
        if len(chain.steps) < 2:
            continue
        at = rng.randrange(len(chain.steps))
        damaged = map_corruptions(chain.steps[at].sigma, rng)
        if damaged:
            steps = list(chain.steps)
            steps[at] = steps[at]._replace(sigma=rng.choice(damaged))
            out.append(chain._replace(steps=tuple(steps)))
    return out


def test_the_fold_yields_each_prefix_at_its_sink_and_changes_no_patch():
    """On the golden chains and damaged sections, step by step against full-table composites."""
    for chain in golden_chains() + _damaged_section_chains(random.Random(27), 120):
        patches = repr([(sd.sigma.vertex_patch, sd.sigma.family_patch) for sd in chain.steps])
        fold = algebra._prefix_fold(_section_feed(chain))
        prefixes = list(_section_prefixes(chain))
        held, copies = [], []
        for sd, prefix in zip(chain.steps, prefixes):
            table = next(fold)
            assert table == prefix.vertex_images[sd.sink]
            held.append(table)
            copies.append(dict(table))
        tables, templates = next(fold)
        assert held == copies
        assert algebra._label_map(chain.terminal, chain.ambient, tables, templates) == prefixes[-1]
        assert repr([(sd.sigma.vertex_patch, sd.sigma.family_patch) for sd in chain.steps]) == patches


def test_the_fold_drops_what_it_holds_as_the_listing_fold_does(monkeypatch):
    """The composite section against the fold that listed the families at each sink.

    On the golden chains, the corrupted chains and 150 random chains,
    ``composite_section`` equals the listing fold's map, which pops every
    family each step's quotient map kills, a miss unless the fold holds it;
    on some random chains a pop removes a template.  The composite section
    builds no quotient map's ``family_patch``.
    """
    built = []

    def counted(m, half, value):
        built.append(half)
        return value

    watch_patch_builds(monkeypatch, counted)
    rng = random.Random(20261034)
    randoms = [random_chain(rng) for _ in range(150)]
    drops = []
    for chain in golden_chains() + list(corrupted_chains()) + randoms:
        built.clear()
        got = chain.composite_section()
        assert "family_patch" not in built
        dropped = []
        assert got == composite_section_listing_oracle(chain, dropped)
        drops.append(bool(dropped))
    assert sum(drops[-len(randoms):]) >= 20


def _count_moves(monkeypatch) -> list:
    """The entries ``algebra._add_into`` moves, by kind: vertex tables, then templates."""
    moved = [0, 0]
    add_into = algebra._add_into

    def counted(acc, c, table):
        for y in table:
            moved[isinstance(y, tuple)] += 1
        add_into(acc, c, table)

    monkeypatch.setattr(algebra, "_add_into", counted)
    return moved


def test_the_fold_moves_what_its_steps_drop(monkeypatch):
    """A step moves at most the entries of the tables it drops, the sink's
    and its families', plus one per label it moves, and a fold moves at
    most as many vertex entries as it yields nonzeros, fed by either
    reader.  The accumulators it replaced pushed the star's whole table
    again at every step."""
    moved = _count_moves(monkeypatch)
    rng = random.Random(20261027)
    chains = [kk_chain(flag_graph(DynkinSpec(4, frozenset({1, 2, 3, 4}))))]
    chains += [random_chain(rng) for _ in range(40)]
    assert any(sd.sigma.family_patch for chain in chains for sd in chain.steps)
    for chain in chains:
        moved[:] = [0, 0]
        fold = algebra._prefix_fold(_section_feed(chain))
        yielded = len(next(fold)) if chain.steps else 0
        for sd, prefix in zip(chain.steps, _section_prefixes(chain)):
            before = sum(moved)
            out = next(fold)  # runs the step, then yields the next sink's table or the last prefix
            fams = sd.working.families_at([sd.sink])
            dropped = len(prefix.vertex_images[sd.sink]) + sum(len(prefix.edge_images[f]) for f in fams)
            labels = len(sd.sigma.vertex_patch) + len(sd.sigma.family_patch)
            assert sum(moved) - before <= dropped + labels
            yielded += len(out) if sd is not chain.steps[-1] else sum(map(len, out[0].values()))
        assert moved[0] <= yielded
        moved[:] = [0, 0]
        backward = check_chain_k0(chain).columns[1]
        assert moved[1] == 0 and moved[0] <= sum(map(len, backward))


def test_the_fold_moves_one_entry_per_step_on_full_a5(monkeypatch):
    """Full A5's star is the source ``e`` at every step, so each step moves
    the sink's one-entry table into the star's: 720 entries over 719 steps,
    the first building the star's table from its own entry too.  The
    composite's fold of ``compose_tables`` this replaced pushed 259,557."""
    chain = cw_kk_summary(DynkinSpec(5, frozenset({1, 2, 3, 4, 5}))).chain
    moved = _count_moves(monkeypatch)
    chain.composite_section()
    assert moved == [720, 0]
    moved[:] = [0, 0]
    check_chain_k0(chain)
    assert moved == [720, 0]


# ---------------------------------------------------------------------------
# the shared passing report


def test_the_relation_check_matches_full_tables_on_every_step_map():
    """Every step map of the golden and corrupted chains, both unital settings."""
    chains = [*golden_chains(), *corrupted_chains()]
    for m in {id(m): m for chain in chains for m in _step_maps(chain)}.values():
        _assert_map_matches(m)


def test_the_unmoved_pass_reads_rows_as_the_listing_decides(monkeypatch):
    """Every step map of the golden chains and of 40 random ones, and every
    ``map_corruptions`` variant of each: the unmoved families that fail are
    the ones the listing finds, and the reports, for both unital settings,
    are the ones the listing pass gives."""
    rng = random.Random(2039)
    maps = [m for chain in golden_chains() + [random_chain(rng) for _ in range(40)] for m in _step_maps(chain)]
    maps += [bad for m in list(maps) for bad in map_corruptions(m, rng)]
    flagged = 0
    for m in maps:
        args = (m.source, m.target, m.vertex_patch, m.family_patch)
        got, want = algebra._unmoved_defects(*args), unmoved_defects_listing_oracle(*args)
        assert [sorted(set(half)) for half in got] == [sorted(set(half)) for half in want]
        flagged += bool(want[0] or want[1])
    reports = [verify_ck_family(m, unital) for m in maps for unital in (False, True)]
    monkeypatch.setattr(algebra, "_unmoved_defects", unmoved_defects_listing_oracle)
    assert [verify_ck_family(m, unital) for m in maps for unital in (False, True)] == reports
    assert len(maps) > 3000 and flagged > 500


def test_a_template_keyed_by_a_pair_the_source_lacks_hides_no_unmoved_family():
    """A section built as it stands whose family patch carries ``z -> w``,
    no family of its source, beside ``x -> w``, while ``y -> w`` stays
    unmoved: CK1 fails first at the unmoved family into the star, which the
    stray key does not stand in for."""
    working = AmpGraph.from_edges(("x", "y", "z", "w", "s"),
                                  [("x", "w"), ("y", "w"), ("w", "s"), ("x", "s"), ("y", "s")])
    source = working.quotient(("s",))
    moved = {("x", "w"): {("x", "w"): 1, ("x", "s"): 1}}
    honest = algebra._from_patch(source, working, {"w": {"w": 1, "s": 1}},
                                 {**moved, ("y", "w"): {("y", "w"): 1, ("y", "s"): 1}})
    assert verify_ck_family(honest) is algebra._PASSED[True]
    stray = algebra._from_patch(source, working, {"w": {"w": 1, "s": 1}}, {**moved, ("z", "w"): {}})
    report = verify_ck_family(stray)
    assert not report.check("ck1").passed
    assert report.check("ck1").detail == "m(s)* m(s') defect for families ('y', 'w') , ('y', 'w') (same index)"
    assert report == verify_ck_family_tables_oracle(stray)


def test_a_passing_check_returns_the_shared_report_and_a_failing_one_never_does():
    """The step maps of the golden and corrupted chains, and each variant of the first 60 of the latter."""
    passed = failed = 0
    rng = random.Random(2027)
    maps = [m for chain in golden_chains() for m in _step_maps(chain)]
    for i, chain in enumerate(corrupted_chains()):
        maps += [v for m in _step_maps(chain) for v in (m, *(map_corruptions(m, rng) if i < 60 else ()))]
    for m in maps:
        for unital in (True, False):
            report = verify_ck_family(m, unital)
            assert report == verify_ck_family_tables_oracle(m, unital)
            shared = report is algebra._PASSED[unital]
            assert shared == all(c.passed for c in report.checks)
            passed += shared
            failed += not shared
    assert passed > 1000 and failed > 1000
