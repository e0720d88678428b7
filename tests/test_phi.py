from fractions import Fraction

import pytest

from fuzzyfo.chains import STANDARD_CHAIN, make_godel_chain, make_lukasiewicz_chain
from fuzzyfo.phi import (
    PHI_TEXT, ValueSet, consistency_check_valuesets, eval_phi_on_valueset,
    phi_fin_refutation, phi_sentence, phi_truncated_witness, witness_family,
)
from fuzzyfo.syntax import FragmentError, classify, format_formula, parse, star_translate


def oracle_phi_value(values):
    """Independent computation of Phi on exact rationals, plain loops only."""
    first = max(1 - abs(v - (1 - v)) for v in values)
    second = min(
        max(1 - abs(a - max(Fraction(0), 2 * b - 1)) for b in values)
        for a in values
    )
    return max(Fraction(0), first + second - 1)


def test_phi_parses_back():
    assert parse(PHI_TEXT, None) == parse(format_formula(phi_sentence()), None)


def test_phi_classification():
    flags = classify(phi_sentence())
    assert flags.is_sentence and flags.is_relational
    with pytest.raises(FragmentError):
        star_translate(phi_sentence())


def test_valueset_requires_lukasiewicz():
    with pytest.raises(ValueError):
        eval_phi_on_valueset(ValueSet(make_godel_chain(3), frozenset({1})))
    with pytest.raises(ValueError):
        ValueSet(make_lukasiewicz_chain(3), frozenset())


def test_valueset_examples():
    b2 = make_lukasiewicz_chain(2)
    assert eval_phi_on_valueset(ValueSet(b2, frozenset({0}))) == 0
    l3 = make_lukasiewicz_chain(3)
    assert eval_phi_on_valueset(ValueSet(l3, frozenset({1}))) == 1  # one half


def test_valueset_agrees_with_rational_oracle():
    for k in range(2, 8):
        chain = make_lukasiewicz_chain(k)
        import itertools
        for r in range(1, k + 1):
            for subset in itertools.combinations(range(k), r):
                rank = eval_phi_on_valueset(ValueSet(chain, frozenset(subset)))
                rationals = [Fraction(v, k - 1) for v in subset]
                assert Fraction(rank, k - 1) == oracle_phi_value(rationals)


def test_even_carrier_without_fixed_point_stays_below_one():
    for k in (2, 4, 6):
        chain = make_lukasiewicz_chain(k)
        vs = ValueSet(chain, frozenset(range(k)))
        assert eval_phi_on_valueset(vs) < chain.top


def test_fin_refutation_maxima():
    report = phi_fin_refutation(6)
    by_k = {row.k: row for row in report.rows}
    assert by_k[2].max_value_rank == 0
    assert by_k[2].value_sets_scanned == 3
    assert by_k[3].max_value == Fraction(1, 2)
    assert by_k[3].value_sets_scanned == 7


def test_fin_refutation_checks_each_chain_once(monkeypatch):
    from fuzzyfo import phi
    checked = []
    monkeypatch.setattr(phi, "is_lukasiewicz", lambda chain: checked.append(chain.size) or True)
    phi.phi_fin_refutation(6)
    assert checked == [2, 3, 4, 5, 6]
    monkeypatch.undo()
    monkeypatch.setattr(phi, "make_lukasiewicz_chain", make_godel_chain)
    with pytest.raises(ValueError, match="only supported on Lukasiewicz chains"):
        phi.phi_fin_refutation(3)


def test_fin_refutation_cap():
    with pytest.raises(ValueError):
        phi_fin_refutation(13)


def test_consistency_check_valuesets():
    assert consistency_check_valuesets(3, 1) is None
    assert consistency_check_valuesets(3, 2) is None
    assert consistency_check_valuesets(2, 3) is None


def test_witness_family_invariants():
    fam = witness_family(8)
    assert fam[0] == Fraction(1, 2)
    assert list(fam) == sorted(set(fam))
    for k in range(7):
        assert STANDARD_CHAIN.square(fam[k + 1]) == fam[k]


def test_truncated_witness_values():
    for n in range(1, 65):
        _, value = phi_truncated_witness(n)
        assert value == Fraction(2 ** n - 1, 2 ** n)


def test_truncated_witness_matches_oracle_and_increases():
    previous = Fraction(0)
    for n in range(1, 21):
        structure, value = phi_truncated_witness(n)
        assert value == oracle_phi_value(list(structure.predicates["P"].values()))
        assert value > previous
        assert value > 1 - Fraction(2, 2 ** n)  # 1 - 2^(1-n)
        previous = value
