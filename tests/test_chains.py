from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzyfo.chains import (
    ChainValidationError, EnumerationCapError, check_square_meet_law,
    derived_ops, embed_rank, enumerate_mtl_chains, format_chain_file,
    is_lukasiewicz, make_chain_from_table, make_godel_chain,
    make_lukasiewicz_chain, parse_chain_file, std_biimpl, std_mult, std_square,
)


def test_lukasiewicz_b2_is_classical():
    b2 = make_lukasiewicz_chain(2)
    assert b2.tnorm_table == ((0, 0), (0, 1))
    assert b2.residuum_table == ((1, 1), (0, 1))


def test_lukasiewicz_3_values():
    c = make_lukasiewicz_chain(3)
    assert c.tnorm(1, 1) == 0
    assert c.residuum(2, 1) == 1


def test_godel_matches_lukasiewicz_at_2():
    assert make_godel_chain(2).tnorm_table == make_lukasiewicz_chain(2).tnorm_table


def test_godel_3_values():
    g = make_godel_chain(3)
    assert g.tnorm(1, 1) == 1
    assert g.residuum(1, 0) == 0


@pytest.mark.parametrize("factory", [make_lukasiewicz_chain, make_godel_chain])
def test_invalid_size_rejected(factory):
    with pytest.raises(ChainValidationError):
        factory(1)


def test_from_table_accepts_godel_3():
    table = [[min(x, y) for y in range(3)] for x in range(3)]
    chain = make_chain_from_table(3, table)
    assert chain.tnorm_table == make_godel_chain(3).tnorm_table
    assert chain.residuum_table == make_godel_chain(3).residuum_table


def test_from_table_accepts_classical():
    chain = make_chain_from_table(2, [[0, 0], [0, 1]])
    assert chain.tnorm_table == make_lukasiewicz_chain(2).tnorm_table


def test_from_table_rejects_bad_interior_entry():
    # t[1][1]=2 forces t[1][1] > t[1][2]=1, breaking monotonicity/identity
    table = [[0, 0, 0], [0, 2, 1], [0, 1, 2]]
    with pytest.raises(ChainValidationError) as exc:
        make_chain_from_table(3, table)
    assert exc.value.axiom in ("monotonicity", "identity", "associativity")


def test_from_table_names_commutativity_witness():
    table = [[0, 0, 0], [0, 0, 1], [0, 0, 2]]
    with pytest.raises(ChainValidationError) as exc:
        make_chain_from_table(3, table)
    assert exc.value.axiom == "commutativity"


@pytest.mark.parametrize("size,count", [(2, 1), (3, 2), (4, 6), (5, 22), (6, 94)])
def test_enumeration_counts(size, count):
    # size 2 and 3 derived by hand; 4..6 frozen from the enumeration itself
    assert len(list(enumerate_mtl_chains(size))) == count


def test_enumeration_deduplicated_and_valid():
    seen = set()
    for chain in enumerate_mtl_chains(4):
        assert chain.tnorm_table not in seen
        seen.add(chain.tnorm_table)
        make_chain_from_table(chain.size, chain.tnorm_table)


def test_enumeration_cap_refused():
    with pytest.raises(EnumerationCapError):
        list(enumerate_mtl_chains(8))


def test_derived_ops_lukasiewicz_3():
    c = make_lukasiewicz_chain(3)
    ops = derived_ops(c)
    assert ops["square"](1) == 0
    assert ops["neg"](1) == 1
    assert ops["biimpl"](1, 0) == 1


def test_derived_ops_godel_3():
    assert make_godel_chain(3).neg(1) == 0


def test_square_meet_law_named_chains():
    for k in range(2, 13):
        assert check_square_meet_law(make_lukasiewicz_chain(k)) is None
        assert check_square_meet_law(make_godel_chain(k)) is None


def test_named_chains_pass_validation():
    for k in range(2, 13):
        for chain in (make_lukasiewicz_chain(k), make_godel_chain(k)):
            rebuilt = make_chain_from_table(chain.size, chain.tnorm_table)
            assert rebuilt.residuum_table == chain.residuum_table


@given(st.integers(2, 6), st.data())
def test_residuation_law(size, data):
    chains = list(enumerate_mtl_chains(size))
    chain = data.draw(st.sampled_from(chains))
    x = data.draw(st.integers(0, size - 1))
    y = data.draw(st.integers(0, size - 1))
    z = data.draw(st.integers(0, size - 1))
    assert (chain.tnorm(x, z) <= y) == (z <= chain.residuum(x, y))


def test_std_ops_examples():
    assert std_mult(Fraction(1, 2), Fraction(7, 10)) == Fraction(1, 5)
    assert std_square(Fraction(3, 4)) == Fraction(1, 2)
    assert std_biimpl(Fraction(1, 2), Fraction(1, 2)) == 1


def test_std_ops_agree_with_finite_chains():
    from fuzzyfo.chains import STANDARD_CHAIN
    for k in range(2, 13):
        chain = make_lukasiewicz_chain(k)
        for x in chain.carrier():
            for y in chain.carrier():
                ex, ey = embed_rank(chain, x), embed_rank(chain, y)
                assert STANDARD_CHAIN.tnorm(ex, ey) == embed_rank(chain, chain.tnorm(x, y))
                assert STANDARD_CHAIN.residuum(ex, ey) == embed_rank(chain, chain.residuum(x, y))
                assert STANDARD_CHAIN.biimpl(ex, ey) == embed_rank(chain, chain.biimpl(x, y))


def test_is_lukasiewicz():
    assert is_lukasiewicz(make_lukasiewicz_chain(5))
    assert not is_lukasiewicz(make_godel_chain(5))


def test_is_lukasiewicz_on_every_small_chain():
    for size in range(2, 6):
        luk = make_lukasiewicz_chain(size).tnorm_table
        for chain in enumerate_mtl_chains(size):
            assert is_lukasiewicz(chain) == (chain.tnorm_table == luk)


def test_chain_file_round_trip():
    chain = make_godel_chain(4)
    text = format_chain_file(chain)
    assert parse_chain_file(text).tnorm_table == chain.tnorm_table


def test_chain_file_comments_and_errors():
    parsed = parse_chain_file("# a comment\nchain 2\n0 0\n0 1\n")
    assert parsed.size == 2
    with pytest.raises(ValueError):
        parse_chain_file("0 0\n0 1\n")
    with pytest.raises(ChainValidationError):
        parse_chain_file("chain 2\n0 1\n1 1\n")
