"""The chain K_0 check on what the other comparisons leave open.

``summarize_filtration`` turns ``check_chain_k0(chain).uncertified`` into
its ``k0-step`` rows, standing in for one ``check_split_exact_k0`` per step;
here the two are compared on the golden chains and the corrupted chains.
Every class a map can give has coefficients 1, so the coefficients a moved
row is pushed with are exercised only on scaled classes, against the
full-table oracle.  The checks that add in place are compared with the ones
they replaced, which built a new vector for every sum, on the same chains
and on scaled classes, where a moved row is pushed into several rows.
"""

import random

import pytest

from ampgraph import GeneratorMap, check_chain_k0, check_split_exact_k0, ktheory

from helpers import (
    check_chain_k0_sum_oracle,
    check_chain_k0_tables_oracle,
    corrupted_chains,
    golden_chains,
    is_left_inverse_sum_oracle,
    random_chain,
    section_holds_sum_oracle,
)
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


def _assert_matches_the_summing_oracles(chain) -> bool:
    """``check_chain_k0``, each step's ``_section_holds`` and the chain's
    ``_is_left_inverse`` against the versions that summed into new vectors;
    whether any step pushed a row its quotient map moves."""
    got = _outcome(check_chain_k0, chain)
    want = _outcome(check_chain_k0_sum_oracle, chain)
    assert got == want
    pushed = False
    if not isinstance(got, str):
        assert (got.columns, got.rows, got.uncertified) == (want.columns, want.rows, want.uncertified)
        forward, backward = dict(enumerate(got.columns[0])), got.columns[1]
        for b in (backward, backward[::-1]):
            assert ktheory._is_left_inverse(forward, b) == is_left_inverse_sum_oracle(forward, b)
        for sd in chain.steps:
            q, s = ktheory._range_counts(sd.quotient_map), ktheory._range_counts(sd.sigma)
            args = (sd.quotient_map.target, sd.sigma.source, q, s)
            assert ktheory._section_holds(*args) == section_holds_sum_oracle(*args)
            pushed = pushed or any(q.values())
    return pushed


def _sink_row_read_again(chain):
    """``chain`` led by a copy of its first step whose quotient map is the
    identity, so it keeps its sink's row, which the real step reads next."""
    first = chain.steps[0]
    kept = first._replace(quotient_map=GeneratorMap.identity(first.working))
    return chain._replace(steps=(kept, *chain.steps))


def test_in_place_k0_checks_match_the_summing_oracles():
    """On the golden, corrupted and 40 random chains, and on golden chains
    whose first sink's row is held on past a step, so that a forward row
    added into it in place would change what the next step reads."""
    rng = random.Random(20261036)
    chains = [*golden_chains(), *corrupted_chains(), *(random_chain(rng) for _ in range(40))]
    chains += [_sink_row_read_again(chain) for chain in golden_chains() if chain.steps]
    for chain in chains:
        _assert_matches_the_summing_oracles(chain)


def test_in_place_k0_checks_match_the_summing_oracles_on_scaled_classes(monkeypatch):
    original = ktheory._range_counts

    def scaled(m):
        return {v: {x: 2 * c for x, c in table.items()} for v, table in original(m).items()}

    monkeypatch.setattr(ktheory, "_range_counts", scaled)
    rng = random.Random(20261037)
    chains = [*golden_chains(), *corrupted_chains(), *(random_chain(rng) for _ in range(40))]
    pushed = sum(_assert_matches_the_summing_oracles(chain) for chain in chains)
    assert pushed > 50


def test_a_certified_step_shares_its_report_and_an_uncertified_one_never_does():
    """One passing report per vertex count, as a passing relation check has;
    a step whose certificate fails gets a report of its own."""
    shared: dict = {}
    uncertified = 0
    for chain in (*golden_chains(), *corrupted_chains()):
        for sd in chain.steps:
            try:
                res = check_split_exact_k0(sd)
            except ValueError:
                continue
            if res.report.ok:
                assert shared.setdefault(len(sd.working), res.report) is res.report
            else:
                uncertified += 1
                assert all(res.report is not r for r in shared.values())
    assert uncertified > 100 and len(shared) > 5
