import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzyfo.chains import (
    STANDARD_CHAIN, enumerate_mtl_chains, make_godel_chain, make_lukasiewicz_chain,
)
from fuzzyfo.phi import (
    DEFAULT_K_CAP, PHI_TEXT, PhiRefutationRow, ValueSet, _greatest_supported_sets,
    consistency_check_valuesets, eval_phi_on_valueset, phi_fin_refutation, phi_maximum,
    phi_sentence, phi_truncated_witness, witness_family,
)
from fuzzyfo.syntax import (
    FragmentError, format_formula, is_sentence, parse, star_translate, vocabulary_of,
)


def oracle_phi_value(values):
    """Independent computation of Phi on exact rationals, plain loops only."""
    first = max(1 - abs(v - (1 - v)) for v in values)
    second = min(
        max(1 - abs(a - max(Fraction(0), 2 * b - 1)) for b in values)
        for a in values
    )
    return max(Fraction(0), first + second - 1)


def phi_on_values(chain, values):
    """Phi's value-set formula on any chain, straight from its definition."""
    first = max(chain.biimpl(a, chain.neg(a)) for a in values)
    second = min(
        max(chain.biimpl(a, chain.square(b)) for b in values)
        for a in values
    )
    return chain.tnorm(first, second)


def scanned_maximum(chain):
    """The maximum of Phi over every nonempty value set, one set at a time,
    and the number of sets scanned (2^k - 1)."""
    best, scanned = chain.bot, 0
    for r in range(1, chain.size + 1):
        for values in itertools.combinations(chain.carrier(), r):
            best = max(best, phi_on_values(chain, values))
            scanned += 1
    return best, scanned


def test_phi_parses_back():
    assert parse(PHI_TEXT, None) == parse(format_formula(phi_sentence()), None)
    assert phi_sentence() is phi_sentence()


def test_phi_classification():
    assert is_sentence(phi_sentence()) and not vocabulary_of(phi_sentence()).functions
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
    assert DEFAULT_K_CAP == 64
    with pytest.raises(ValueError):
        phi_fin_refutation(DEFAULT_K_CAP + 1)


def test_fin_refutation_rows_equal_the_subset_scan():
    rows = []
    for k in range(2, 13):
        best, scanned = scanned_maximum(make_lukasiewicz_chain(k))
        rows.append(PhiRefutationRow(k, scanned, best, Fraction(best, k - 1)))
    assert phi_fin_refutation(12).rows == tuple(rows)


def test_fixpoint_maximum_equals_the_subset_scan_on_every_small_chain():
    chains = [make_lukasiewicz_chain(k) for k in range(2, 13)]
    for size in range(2, 7):
        chains.extend(enumerate_mtl_chains(size))
    for chain in chains:
        best, values = phi_maximum(chain)
        assert best == scanned_maximum(chain)[0]
        assert phi_on_values(chain, values) == best


@st.composite
def weight_matrices(draw):
    n = draw(st.integers(1, 6))
    return [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]


@given(weight_matrices())
def test_supported_sets_are_the_union_of_all_supported_sets(weight):
    n = len(weight)
    expected = []
    for t in range(n):
        union = set()
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                if all(any(weight[a][b] >= t for b in subset) for a in subset):
                    union.update(subset)
        if not union:
            break
        expected.append((t, tuple(sorted(union))))
    assert list(_greatest_supported_sets(weight)) == expected


def test_fin_refutation_rows_past_the_scan():
    # observed, not proved: the max rank on Luk_k is k-2 for odd k, k-3 for even k
    for row in phi_fin_refutation(DEFAULT_K_CAP).rows[11:]:
        assert row.value_sets_scanned == 2 ** row.k - 1
        assert row.max_value_rank == (row.k - 2 if row.k % 2 else row.k - 3)


def test_fin_refutation_checks_the_maximum(monkeypatch):
    from fuzzyfo import phi
    monkeypatch.setattr(phi, "phi_maximum", lambda chain: (chain.top, (chain.top,)))
    with pytest.raises(AssertionError, match="Phi attained the top value on Lukasiewicz chain k=2"):
        phi.phi_fin_refutation(3)
    # on Godel_3 the rank 1 is below top, yet its negation is bottom
    monkeypatch.setattr(phi, "make_lukasiewicz_chain", make_godel_chain)
    monkeypatch.setattr(phi, "is_lukasiewicz", lambda chain: True)
    monkeypatch.setattr(phi, "phi_maximum", lambda chain: (chain.top - 1, (chain.top - 1,)))
    with pytest.raises(AssertionError, match="~Phi vanished on Lukasiewicz chain k=3"):
        phi.phi_fin_refutation(3)


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
