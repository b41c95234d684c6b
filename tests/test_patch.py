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

import pytest

from ampgraph import (
    AmpGraph,
    DynkinSpec,
    GeneratorMap,
    check_chain_k0,
    cw_kk_summary,
    verify_ck_family,
)
from ampgraph import algebra, splitting

from helpers import (
    compose_tables_oracle,
    check_chain_k0_tables_oracle,
    corrupted_chains,
    example_graph,
    golden_chains,
    map_corruptions,
    random_chain,
    section_identity_failure_tables_oracle,
    verify_ck_family_tables_oracle,
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
    assert sd.sigma.family_patch == {("v1", "v2"): ((1, ("v1", "v2")), (1, ("v1", "v4")))}
    assert sd.quotient_map.vertex_patch == {"v4": {}}
    assert sd.quotient_map.family_patch == {("v1", "v4"): (), ("v2", "v4"): ()}
    g = example_graph()
    ident = GeneratorMap.identity(g)
    assert (ident.vertex_patch, ident.family_patch) == ({}, {})
    # the constructor takes full tables and keeps their difference
    assert GeneratorMap(g, g, ident.vertex_images, ident.edge_images) == ident
    for m in (sd.sigma, sd.quotient_map):
        assert GeneratorMap(m.source, m.target, m.vertex_images, m.edge_images) == m
    assert ident.vertex_images == {v: {v: 1} for v in g.vertices}
    assert ident.edge_images == {(a, b): ((1, (a, b)),) for a, b, _ in g.families()}


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
        algebra._label_map(g, h, {}, fams)
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


def test_a_quotient_map_hands_its_one_listing_to_the_validator():
    # onto the quotient by the removed set: the families at it are killed
    g = example_graph()
    q = algebra._quotient_onto(g, g.quotient(("v4",)), ("v4",))
    assert (q.vertex_patch, q.family_patch) == ({"v4": {}}, {("v2", "v4"): ()})
    # onto a graph that lacks more: the validator still sees the extra vertex
    with pytest.raises(ValueError, match=r"image of p\[v5\] names unknown vertex 'v5'"):
        algebra._quotient_onto(g, g.quotient(("v4", "v5")), ("v4",))
    # onto a graph that keeps the removed vertex: its families are listed anew
    kept = algebra._quotient_onto(g, g, ("v4",))
    assert (kept.vertex_patch, kept.family_patch) == ({"v4": {}}, {("v2", "v4"): ()})
    assert verify_ck_family(kept).check("unital").passed is False


def test_each_step_lists_the_families_at_its_sink_once(monkeypatch):
    """The quotient map lists the families into its sink once, for its
    templates and its validation, and its relation check, whose moved
    vertex the target lacks, lists none."""
    listed = []
    families_at = AmpGraph.families_at

    def counted(self, subset):
        subset = tuple(subset)
        listed.append(subset)
        return families_at(self, subset)

    monkeypatch.setattr(AmpGraph, "families_at", counted)
    chains = [c for c in golden_chains() if c.steps]
    rng = random.Random(20261026)
    chains += [random_chain(rng) for _ in range(40)]
    for chain in chains:
        for sd in chain.steps:
            listed.clear()
            splitting._split(sd.working, sd.working, sd.quotient_graph, sd.sink, sd.star, ())
            assert [s for s in listed if sd.sink in s] == [(sd.sink,)]


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
        out |= set(fpatch) | {t for tpl in fpatch.values() for _, t in tpl}
        out |= set(m.source.families_at(vpatch))
    return out | {v for fam in out if isinstance(fam, tuple) for v in fam}


def test_each_step_examines_only_its_patches_and_their_neighbours(monkeypatch):
    """Count the generators each map is asked about on full A4.

    Every lookup of a label in a map's patch, by any check, composite or K_0
    step, is recorded; no map's full tables are built.  Per step, the
    labels asked about lie in the neighbourhood of the step's two patches
    and of the next step's, whose section the composite pushes through this
    one; there are a few lookups per label, and a whole chain asks about a
    small share of its maps' generators.
    """
    fill = algebra._fill

    def watched(m, source, target, vpatch, fpatch):
        fill(m, source, target, _Watched(vpatch, []), _Watched(fpatch, []))

    def refuse(self):
        raise AssertionError("a full table was built")

    monkeypatch.setattr(algebra, "_fill", watched)
    monkeypatch.setattr(GeneratorMap, "vertex_images", property(refuse))
    monkeypatch.setattr(GeneratorMap, "edge_images", property(refuse))
    summary = cw_kk_summary(DynkinSpec(4, frozenset({1, 2, 3, 4})))
    assert summary.report.ok
    examined = generators = 0
    steps = summary.chain.steps
    for sd, after in zip(steps, steps[1:] + steps[-1:]):
        maps = (sd.sigma, sd.quotient_map)
        seen = [x for m in maps for patch in (m.vertex_patch, m.family_patch) for x in patch.seen]
        near = _neighbourhood(maps + (after.sigma, after.quotient_map))
        assert set(seen) <= near, set(seen) - near
        assert len(seen) <= 8 * len(near)
        examined += len(seen)
        generators += sum(len(m.source.vertices) + len(m.source.edges) for m in maps)
    assert len(summary.chain.steps) == 119
    assert generators > 60_000
    assert examined < generators / 10
