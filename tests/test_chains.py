from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzyfo.chains import (
    ChainValidationError, EnumerationCapError, MAX_NAMED_CHAIN_SIZE, _derive_residuum,
    check_square_meet_law,
    STANDARD_CHAIN, StandardChain, embed_rank, enumerate_mtl_chains, format_chain_file,
    is_lukasiewicz, make_chain_from_table, make_godel_chain,
    make_lukasiewicz_chain, parse_chain_file,
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


@pytest.mark.parametrize("factory", [make_lukasiewicz_chain, make_godel_chain])
@pytest.mark.parametrize("k", [2049, 10**9])  # not the cap 2048 itself: ~8M table entries
def test_sizes_above_the_cap_rejected_before_building(factory, k):
    with pytest.raises(ChainValidationError) as info:
        factory(k)
    assert info.value.axiom == "size" and info.value.witness == (k,)


@pytest.mark.parametrize("k", range(2, 65))
def test_named_tables_equal_their_entry_formulas(k):
    top = k - 1
    r = range(k)
    luk, godel = make_lukasiewicz_chain(k), make_godel_chain(k)
    assert luk.tnorm_table == tuple(tuple(max(0, x + y - top) for y in r) for x in r)
    assert luk.residuum_table == tuple(tuple(min(top, top - x + y) for y in r) for x in r)
    assert godel.tnorm_table == tuple(tuple(min(x, y) for y in r) for x in r)
    assert godel.residuum_table == tuple(tuple(top if x <= y else y for y in r) for x in r)


@pytest.mark.parametrize("factory", [make_lukasiewicz_chain, make_godel_chain])
def test_named_chains_at_the_cap_are_built(factory):
    k = MAX_NAMED_CHAIN_SIZE
    chain = factory(k)
    top = k - 1
    assert chain.size == k and len(chain.tnorm_table) == len(chain.residuum_table) == k
    for x in (0, 1, 2, k // 3, 1000, top - 1, top):
        tnorm, res = chain.tnorm_table[x], chain.residuum_table[x]
        assert len(tnorm) == len(res) == k
        for y in (0, 1, k // 2, top - x, top - x + 1, x, top - 1, top):
            if y > top:
                continue
            if factory is make_lukasiewicz_chain:
                assert (tnorm[y], res[y]) == (max(0, x + y - top), min(top, top - x + y))
            else:
                assert (tnorm[y], res[y]) == (min(x, y), top if x <= y else y)


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


def unpruned_mtl_chains(size):
    """The enumeration without associativity pruning: every table filled in
    with monotonicity pruning only, then kept if it validates in full."""
    top = size - 1
    positions = [(x, y) for x in range(1, top) for y in range(x, top)]
    table = [[0] * size for _ in range(size)]
    for x in range(size):
        table[x][top] = table[top][x] = x

    def assign(idx):
        if idx == len(positions):
            try:
                yield make_chain_from_table(size, [row[:] for row in table])
            except ChainValidationError:
                pass
            return
        x, y = positions[idx]
        lo = max(table[x - 1][y], table[x][y - 1] if y - 1 >= x else 0)
        for v in range(lo, x + 1):
            table[x][y] = table[y][x] = v
            yield from assign(idx + 1)
        table[x][y] = table[y][x] = 0

    yield from assign(0)


@pytest.mark.parametrize("size", range(2, 8))
def test_pruned_enumeration_equals_unpruned(size):
    pruned = [(c.tnorm_table, c.residuum_table) for c in enumerate_mtl_chains(size)]
    assert pruned == [(c.tnorm_table, c.residuum_table) for c in unpruned_mtl_chains(size)]


def reference_residuum(size, tnorm):
    """residuum[x][y] = max { z : tnorm[x][z] <= y }, by the triple loop."""
    res = []
    for x in range(size):
        row = []
        for y in range(size):
            best = 0
            for z in range(size):
                if tnorm[x][z] <= y:
                    best = z
            row.append(best)
        res.append(tuple(row))
    return tuple(res)


def test_derived_residuum_equals_the_triple_loop():
    for size in range(2, 7):
        for chain in enumerate_mtl_chains(size):
            assert _derive_residuum(size, chain.tnorm_table) == \
                reference_residuum(size, chain.tnorm_table) == chain.residuum_table
    for k in range(2, 33):
        for chain in (make_lukasiewicz_chain(k), make_godel_chain(k)):
            assert _derive_residuum(k, chain.tnorm_table) == \
                reference_residuum(k, chain.tnorm_table) == chain.residuum_table


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
    assert c.square(1) == 0
    assert c.neg(1) == 1
    assert c.biimpl(1, 0) == 1


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
    assert STANDARD_CHAIN.tnorm(Fraction(1, 2), Fraction(7, 10)) == Fraction(1, 5)
    assert STANDARD_CHAIN.square(Fraction(3, 4)) == Fraction(1, 2)
    assert STANDARD_CHAIN.biimpl(Fraction(1, 2), Fraction(1, 2)) == 1


def test_std_ops_agree_with_finite_chains():
    for k in range(2, 13):
        chain = make_lukasiewicz_chain(k)
        for x in chain.carrier():
            for y in chain.carrier():
                ex, ey = embed_rank(chain, x), embed_rank(chain, y)
                assert STANDARD_CHAIN.tnorm(ex, ey) == embed_rank(chain, chain.tnorm(x, y))
                assert STANDARD_CHAIN.residuum(ex, ey) == embed_rank(chain, chain.residuum(x, y))
                assert STANDARD_CHAIN.biimpl(ex, ey) == embed_rank(chain, chain.biimpl(x, y))


def test_scaled_standard_chain_is_the_finite_lukasiewicz_chain():
    # with top d the standard operations act on the ranks of {0, 1/d, .., 1}
    for k in range(2, 13):
        chain, scaled = make_lukasiewicz_chain(k), StandardChain(k - 1)
        assert (scaled.bot, scaled.top) == (chain.bot, chain.top)
        for x in chain.carrier():
            assert (scaled.neg(x), scaled.square(x)) == (chain.neg(x), chain.square(x))
            for y in chain.carrier():
                for op in ("tnorm", "residuum", "meet", "join", "biimpl"):
                    assert getattr(scaled, op)(x, y) == getattr(chain, op)(x, y)


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

