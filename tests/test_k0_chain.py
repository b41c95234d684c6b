"""The chain K_0 check on what the other comparisons leave open.

``summarize_filtration`` turns ``check_chain_k0(chain).uncertified`` into
its ``k0-step`` rows, standing in for one ``check_split_exact_k0`` per step;
here the two are compared on the golden chains and the corrupted chains.
Every class a map can give has coefficients 1, so the coefficients a moved
row is pushed with are exercised only on scaled classes, against the
full-table oracle.
"""

import pytest

from ampgraph import check_chain_k0, check_split_exact_k0, ktheory

from helpers import check_chain_k0_tables_oracle, corrupted_chains, golden_chains
from test_patch import _outcome


def test_uncertified_lists_the_steps_whose_split_check_fails():
    outcomes = set()
    for chain in (*golden_chains(), *corrupted_chains()):
        try:
            uncertified = check_chain_k0(chain).uncertified
        except ValueError:
            outcomes.add("refused")
            with pytest.raises(ValueError):
                for sd in chain.steps:
                    check_split_exact_k0(sd)
            continue
        failing = tuple(sd.sink for sd in chain.steps if not check_split_exact_k0(sd).report.ok)
        assert uncertified == failing
        outcomes.add(len(failing))
    assert {"refused", 0, 1, 2} <= outcomes


def test_chain_k0_matches_full_tables_on_scaled_classes(monkeypatch):
    original = ktheory._range_counts

    def scaled(m):
        return {v: {x: 2 * c for x, c in table.items()} for v, table in original(m).items()}

    monkeypatch.setattr(ktheory, "_range_counts", scaled)
    pushed = 0
    for chain in corrupted_chains():
        got = _outcome(check_chain_k0, chain)
        assert got == _outcome(check_chain_k0_tables_oracle, chain)
        pushed += not isinstance(got, str) and any(
            any(ktheory._step_certificate(sd)[0].values()) for sd in chain.steps
        )
    assert pushed
