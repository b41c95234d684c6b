"""Every public record is frozen, compares by its fields and shows them.

The records are named tuples, or small classes on one frozen base where a
record validates its input, has its own constructor or builds attributes
when first read.  Each is checked the same way: two records built from
equal inputs are equal (with equal hashes, where hashable), a record built
from other inputs is not, and no attribute can be assigned.
"""

import pytest

from ampgraph import (
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
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_is_frozen_and_compares_by_its_fields(name):
    a, b, c = RECORDS[name](False), RECORDS[name](False), RECORDS[name](True)
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != c
    try:
        hashes = hash(a), hash(b)
    except TypeError:
        pass  # a record holding a dict
    else:
        assert hashes[0] == hashes[1]
    for attr in (a._fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
    assert a == b


def test_the_repr_names_every_field():
    assert repr(DynkinSpec(rank=3, tagged={2})) == "DynkinSpec(rank=3, tagged=frozenset({2}))"
    assert repr(Check("ck1", True)) == "Check(name='ck1', passed=True, detail='', required=True)"
    assert repr(example_graph().classify()) == (
        "GraphClass(amplified=True, acyclic=True, sinks=('v4', 'v5'), sources=('v1',))"
    )


def test_a_spec_refuses_what_it_refused_before():
    with pytest.raises(ValueError, match="rank must be between 1 and 8, got 0"):
        DynkinSpec(0, frozenset({1}))
    with pytest.raises(ValueError, match="at least one node must be tagged"):
        DynkinSpec(2, frozenset())
    with pytest.raises(ValueError, match=r"tagged nodes \[3\] outside 1..2"):
        DynkinSpec(2, [3])
