"""Every public record is frozen, compares by its fields and shows them.

The records are named tuples, or small classes on one frozen base where a
record validates its input, has its own constructor or builds attributes
when first read, a graph among them.  Each is checked the same way: two
records built from equal inputs are equal (with equal hashes, where
hashable), a record built from other inputs is not, nor is a value of
another type, no attribute can be assigned, and no field of a record can be
deleted.  Each round-trips equal through ``pickle``, ``copy.copy`` and
``copy.deepcopy``, and shows itself by the same repr before and after.
"""

import copy
import pickle

import pytest

from ampgraph import (
    OMEGA,
    AmpGraph,
    Check,
    DynkinSpec,
    GeneratorMap,
    VerificationReport,
    build_splitting,
    check_chain_k0,
    check_split_exact_k0,
    cw_kk_summary,
    kk_chain,
    minimal_coset_reps,
    skeleton_filtration,
)
from ampgraph.algebra import _quotient_onto
from ampgraph.cli import run_command

from helpers import ROOT, example_graph

EXAMPLE = str(ROOT / "fixtures" / "example.json")


def _spec(other: bool) -> DynkinSpec:
    return DynkinSpec(3, frozenset({1 if other else 2}))


def _split(other: bool):
    return build_splitting(example_graph(), "v4", "v3" if other else "v2")


def _chain(other: bool):
    return kk_chain(example_graph().quotient(("v4",) if other else ()))


def _map(other: bool) -> GeneratorMap:
    g = example_graph()
    families = {(a, b): ((2 if other and (a, b) == ("v3", "v5") else 1, (a, b)),) for a, b, _ in g.edges}
    return GeneratorMap(g, g, {v: {v: 1} for v in g.vertices}, families)


#: record name -> a function of ``other`` that builds the record afresh; two
#: calls with the same ``other`` give equal records, and the two values of
#: ``other`` unequal ones.
RECORDS = {
    "Check": lambda other: Check("ck1", True, "detail", required=not other),
    "VerificationReport": lambda other: VerificationReport((Check("ck1", not other),)),
    "GraphClass": lambda other: example_graph().quotient(("v4",) if other else ()).classify(),
    "CosetRep": lambda other: minimal_coset_reps(_spec(False))[2 if other else 1],
    "DynkinSpec": _spec,
    "Filtration": lambda other: skeleton_filtration(_spec(other)),
    "CWRecord": lambda other: cw_kk_summary(_spec(False)).records[1 if other else 0],
    "CWSummary": lambda other: cw_kk_summary(_spec(other)),
    "SplitData": _split,
    "KKChain": _chain,
    "GeneratorMap": _map,
    "K0SplitCheck": lambda other: check_split_exact_k0(_split(other)),
    "K0ChainCheck": lambda other: check_chain_k0(_chain(other)),
    "Report": lambda other: run_command(["ktheory" if other else "classify", EXAMPLE]),
    "AmpGraph": lambda other: example_graph().quotient(("v4",) if other else ()),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_is_frozen_and_compares_by_its_fields(name):
    a, b, c = RECORDS[name](False), RECORDS[name](False), RECORDS[name](True)
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != c and a != "a record"
    try:
        hashes = hash(a), hash(b)
    except TypeError:
        pass  # a record holding a dict
    else:
        assert hashes[0] == hashes[1]
    for attr in (a._fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert a == b


#: one copy of a record through each route that restores its state
ROUND_TRIPS = {
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("route", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_round_trips_equal_and_stays_frozen(name, route):
    # a graph's families compare OMEGA by identity, so its copy must restore the singleton
    a = RECORDS[name](False)
    b = ROUND_TRIPS[route](a)
    assert type(b) is type(a) and b == a and b != RECORDS[name](True)
    with pytest.raises(AttributeError):
        setattr(b, "unknown", None)


@pytest.mark.parametrize("route", sorted(ROUND_TRIPS))
def test_a_quotient_map_round_trips_with_its_killed_generators(route):
    # a quotient map stores only its graphs; reading its state builds each half of its patch
    g = example_graph()
    h = g.quotient(("v4",))
    m = ROUND_TRIPS[route](_quotient_onto(g, h))
    assert m._quotient and m.source == g and m.target == h
    assert m.vertex_patch == {"v4": {}} and m.family_patch == {("v2", "v4"): {}}
    assert m == _quotient_onto(g, h)


@pytest.mark.parametrize("route", sorted(ROUND_TRIPS))
def test_copying_a_quotient_map_builds_no_patch_on_the_original(route):
    # the state a copy reads is the two graphs and ``_quotient``; the copy builds the patch when read
    g = example_graph()
    m = _quotient_onto(g, g.quotient(("v4",)))
    c = ROUND_TRIPS[route](m)
    assert "vertex_patch" not in vars(m) and "family_patch" not in vars(m)
    assert c.vertex_patch == m.vertex_patch and c.family_patch == m.family_patch


@pytest.mark.parametrize("route", sorted(ROUND_TRIPS))
def test_a_cut_deep_in_a_chain_copies_without_the_graphs_above_it(route):
    # a one-vertex cut records its parent only to skip mask work, and a copy
    # leaves the record out: copying it would recurse through every graph
    # above, 2,000 here
    labels = tuple(f"v{i}" for i in range(2001))
    g = AmpGraph.from_edges(labels, [(a, b) for a, b in zip(labels, labels[1:])])
    g.classify()
    for v in reversed(labels[1:]):
        g = g.quotient((v,))
    c = ROUND_TRIPS[route](g)
    assert "_parent" in vars(g) and "_parent" not in vars(c)
    assert c == g and len(c) == 1 and c.classify() == g.classify() == (True, True, ("v0",), ("v0",))


def test_a_one_vertex_cut_records_its_count_parent_and_position_alone():
    # before any read, whether its parent's shape facts were read or not
    g = example_graph()
    read, unread = g.quotient(("v4",)), g.quotient(("v4",))
    read.classify()
    for parent in (g, read, unread):
        assert set(vars(parent.quotient(("v5",)))) == {"_t", "_keep", "_len", "_parent", "_removed"}


@pytest.mark.parametrize("route", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_shows_itself_the_same_before_and_after_a_copy(name, route):
    a, b = RECORDS[name](False), RECORDS[name](False)
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    assert repr(ROUND_TRIPS[route](a)) == repr(a)


@pytest.mark.parametrize("route", sorted(ROUND_TRIPS))
def test_omega_is_one_value_through_every_copy(route):
    assert ROUND_TRIPS[route](OMEGA) is OMEGA and repr(OMEGA) == "OMEGA"


def test_the_repr_names_every_field():
    assert repr(DynkinSpec(rank=3, tagged={2})) == "DynkinSpec(rank=3, tagged=frozenset({2}))"
    assert repr(Check("ck1", True)) == "Check(name='ck1', passed=True, detail='', required=True)"
    assert repr(example_graph().classify()) == (
        "GraphClass(amplified=True, acyclic=True, sinks=('v4', 'v5'), sources=('v1',))"
    )
    assert repr(example_graph().quotient(("v4", "v5"))) == "AmpGraph(['v1', 'v2', 'v3'], 2 families)"
    check = check_split_exact_k0(_split(False))
    assert repr(check) == f"K0SplitCheck(sink='v4', report={check.report!r})"
    summary = cw_kk_summary(_spec(False))
    assert [str(r) for r in summary.records] == [r.text for r in summary.records]
    assert str(summary) == "  ->  ".join(r.text for r in summary.records)


def test_a_spec_refuses_what_it_refused_before():
    with pytest.raises(ValueError, match="rank must be between 1 and 8, got 0"):
        DynkinSpec(0, frozenset({1}))
    with pytest.raises(ValueError, match="at least one node must be tagged"):
        DynkinSpec(2, frozenset())
    with pytest.raises(ValueError, match=r"tagged nodes \[3\] outside 1..2"):
        DynkinSpec(2, [3])
