import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import fuzzyfo.chains as chains_mod

from fuzzyfo.chains import (
    ChainValidationError, EnumerationCapError, MAX_NAMED_CHAIN_SIZE, MAX_TABLE_CHAIN_SIZE,
    _associative_through, _derive_residuum,
    check_square_meet_law,
    STANDARD_CHAIN, FiniteChain, StandardChain, enumerate_mtl_chains,
    is_lukasiewicz, make_chain_from_table, make_godel_chain,
    make_lukasiewicz_chain, parse_chain_file,
)
from fuzzyfo.cli import run


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


def reference_chain_from_table(size, tnorm, derive_residuum=None):
    """The chain axioms checked entry by entry, in the validator's order.

    The loops visit every entry, pair and triple in row-major order, so the
    first violation they meet is the witness `make_chain_from_table` must
    name.  `derive_residuum` replaces the derived residuum, to reach the
    residuation check.
    """
    if size < 2:
        raise ChainValidationError("size", (size,), "chain needs at least 2 elements")
    if len(tnorm) != size or any(len(row) != size for row in tnorm):
        raise ChainValidationError("shape", (size,), "table must be size x size")
    for x in range(size):
        for y in range(size):
            v = tnorm[x][y]
            if not (0 <= v < size):
                raise ChainValidationError("range", (x, y), f"entry {v} outside 0..{size - 1}")
    for x in range(size):
        for y in range(x, size):
            if tnorm[x][y] != tnorm[y][x]:
                raise ChainValidationError(
                    "commutativity", (x, y), f"t[{x}][{y}]={tnorm[x][y]} != t[{y}][{x}]={tnorm[y][x]}"
                )
    for x in range(size):
        if tnorm[x][size - 1] != x:
            raise ChainValidationError(
                "identity", (x,), f"t[{x}][{size - 1}]={tnorm[x][size - 1]} != {x}"
            )
    for x in range(size - 1):
        for y in range(size):
            if tnorm[x][y] > tnorm[x + 1][y]:
                raise ChainValidationError(
                    "monotonicity", (x, x + 1, y),
                    f"t[{x}][{y}]={tnorm[x][y]} > t[{x + 1}][{y}]={tnorm[x + 1][y]}",
                )
    for x in range(size):
        for y in range(size):
            for z in range(size):
                left = tnorm[tnorm[x][y]][z]
                right = tnorm[x][tnorm[y][z]]
                if left != right:
                    raise ChainValidationError(
                        "associativity", (x, y, z), f"({x}*{y})*{z}={left} != {x}*({y}*{z})={right}"
                    )
    residuum = (derive_residuum or reference_residuum)(size, tnorm)
    for x in range(size):
        for y in range(size):
            for z in range(size):
                if (tnorm[x][z] <= y) != (z <= residuum[x][y]):
                    raise ChainValidationError(
                        "residuation", (x, y, z),
                        f"t[{x}][{z}] <= {y} does not match {z} <= r[{x}][{y}]",
                    )
    return FiniteChain(size, tuple(tuple(row) for row in tnorm), residuum)


def validation_outcome(validate, size, table):
    """The chain a validator returns, or the axiom, witness and message it raises."""
    try:
        return validate(size, table)
    except ChainValidationError as exc:
        return exc.axiom, exc.witness, str(exc)


@lru_cache(maxsize=None)
def enumerated_chains():
    """Every enumerated chain of size <= 6."""
    return tuple(c for size in range(2, 7) for c in enumerate_mtl_chains(size))


def small_chains():
    """The enumerated chains and the named chains of size <= 12."""
    return enumerated_chains() + tuple(
        f(k) for k in range(2, 13) for f in (make_lukasiewicz_chain, make_godel_chain))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_mutated_tables_fail_as_the_reference_does(data):
    chain = data.draw(st.sampled_from(small_chains()))
    size = chain.size
    table = [list(row) for row in chain.tnorm_table]
    for _ in range(data.draw(st.integers(1, 2))):
        x, y = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        v = data.draw(st.integers(-1, size))
        table[x][y] = v
        if data.draw(st.booleans()):  # keep the table commutative
            table[y][x] = v
    expected = validation_outcome(reference_chain_from_table, size, table)
    assert validation_outcome(make_chain_from_table, size, table) == expected


def test_every_axiom_is_named_by_some_mutation():
    # the hypothesis test above must be able to reach each axiom
    seen = set()
    for chain in small_chains():
        size = chain.size
        for x in range(size):
            for y in range(x, size):
                for v in (-1, 0, size - 1, size):
                    table = [list(row) for row in chain.tnorm_table]
                    table[x][y] = table[y][x] = v
                    new = validation_outcome(make_chain_from_table, size, table)
                    assert new == validation_outcome(reference_chain_from_table, size, table)
                    if isinstance(new, tuple):
                        seen.add(new[0])
                    table[y][x] = chain.tnorm_table[y][x]
                    new = validation_outcome(make_chain_from_table, size, table)
                    assert new == validation_outcome(reference_chain_from_table, size, table)
                    if isinstance(new, tuple):
                        seen.add(new[0])
    assert seen == {"range", "commutativity", "identity", "monotonicity", "associativity"}


def test_residuation_is_checked_on_every_triple(monkeypatch):
    # the law holds for a correctly derived residuum, so only a wrong one
    # reaches the check: shift each entry of it by one in turn
    for chain in enumerated_chains()[:60] + (make_godel_chain(9), make_lukasiewicz_chain(9)):
        size = chain.size
        for x in range(size):
            for y in range(size):
                for delta in (-1, 1):
                    r = chain.residuum_table[x][y] + delta
                    if not 0 <= r < size:
                        continue
                    wrong = [list(row) for row in chain.residuum_table]
                    wrong[x][y] = r
                    wrong = tuple(map(tuple, wrong))
                    monkeypatch.setattr(chains_mod, "_derive_residuum", lambda s, t: wrong)
                    got = validation_outcome(make_chain_from_table, size, chain.tnorm_table)
                    assert got == validation_outcome(
                        lambda s, t: reference_chain_from_table(s, t, lambda s2, t2: wrong),
                        size, chain.tnorm_table)
                    assert got[0] == "residuation"


def reference_associative_through(t, x):
    for a in range(x + 1):
        for p, q in ((a, x), (x, a)):
            row_pq, row_p, row_q = t[t[p][q]], t[p], t[q]
            for c, pq_c in enumerate(row_pq):
                if pq_c != row_p[row_q[c]]:
                    return False
    return True


def test_associative_through_equals_the_entry_loop():
    # the enumerator's pruning check on complete rows 0..x with one entry of
    # them changed (symmetrically, as the enumerator assigns): a weaker check
    # would not change the enumeration, since every table is validated in full
    outcomes = set()
    for chain in enumerated_chains():
        size = chain.size
        for x in range(1, size - 1):
            for a in range(1, x + 1):
                for b in range(a, size - 1):
                    for v in range(a + 1):
                        table = [bytearray(row) for row in chain.tnorm_table]
                        table[a][b] = table[b][a] = v
                        expected = reference_associative_through(table, x)
                        assert _associative_through(table, x) == expected
                        outcomes.add(expected)
    assert outcomes == {True, False}


def test_every_size_7_chain_is_accepted_as_by_the_reference():
    found = list(enumerate_mtl_chains(7))
    assert len(found) == 451
    for chain in found:
        assert make_chain_from_table(7, chain.tnorm_table) == chain
        assert reference_chain_from_table(7, chain.tnorm_table) == chain


def test_tables_above_256_ranks_are_refused_before_any_entry_is_read():
    assert MAX_TABLE_CHAIN_SIZE == 256
    for size in (257, 300, 10**9):
        with pytest.raises(ChainValidationError) as info:
            make_chain_from_table(size, None)  # the table is never touched
        assert info.value.axiom == "size" and info.value.witness == (size,)
        assert str(info.value) == \
            f"size violated at ({size},): table chains are capped at 256 ranks"
    godel = [[min(x, y) for y in range(257)] for x in range(257)]
    with pytest.raises(ChainValidationError) as info:
        make_chain_from_table(257, godel)
    assert info.value.axiom == "size"


def test_chain_file_refused_on_its_header_above_256_ranks():
    # no rows follow: the header alone is refused
    with pytest.raises(ChainValidationError) as info:
        parse_chain_file("chain 300\n")
    assert (info.value.axiom, info.value.witness) == ("size", (300,))


def test_256_rank_godel_table_validates_in_under_a_second():
    godel = make_godel_chain(256)
    start = time.perf_counter()
    chain = make_chain_from_table(256, godel.tnorm_table)
    assert time.perf_counter() - start < 1.0
    assert chain == godel


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


def test_enumeration_propagates_a_table_the_pruning_let_through(monkeypatch):
    # the pruning guarantees every axiom, so a rejected table is a pruning
    # bug: with associativity pruning off, size 4 reaches a bad table
    monkeypatch.setattr(chains_mod, "_associative_through", lambda t, x: True)
    with pytest.raises(ChainValidationError):
        list(enumerate_mtl_chains(4))


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


@pytest.mark.parametrize("size", [1, 8])
def test_enumeration_checks_the_size_when_called(size):
    # not when the first chain is asked for, so a caller can check every size first
    with pytest.raises(EnumerationCapError):
        enumerate_mtl_chains(size)


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
    for k in range(2, 65):
        for chain in (make_lukasiewicz_chain(k), make_godel_chain(k)):
            assert make_chain_from_table(k, chain.tnorm_table) == chain
            assert make_chain_from_table(k, [list(row) for row in chain.tnorm_table]) == chain
            if k <= 16:
                assert reference_chain_from_table(k, chain.tnorm_table) == chain


@pytest.mark.parametrize("k", range(2, 65))
def test_named_operations_equal_their_table_lookups(k):
    # a named chain's operations are closed forms; each agrees, on every
    # pair of ranks, with the lookup the table chain makes
    for chain in (make_lukasiewicz_chain(k), make_godel_chain(k)):
        tnorm, res = chain.tnorm_table, chain.residuum_table
        for x in range(k):
            assert chain.neg(x) == res[x][0]
            assert chain.square(x) == tnorm[x][x]
            for y in range(k):
                assert chain.tnorm(x, y) == tnorm[x][y]
                assert chain.residuum(x, y) == res[x][y]
                assert chain.biimpl(x, y) == min(res[x][y], res[y][x])


@pytest.mark.parametrize("k", [2, 3, 7, 64, 256])
def test_named_chains_equal_and_hash_like_their_table_twins(k):
    # each comparison starts from a fresh chain, which has built no table yet
    for factory in (make_lukasiewicz_chain, make_godel_chain):
        twin = make_chain_from_table(k, factory(k).tnorm_table)
        assert type(factory(k)) is not FiniteChain and type(twin) is FiniteChain
        assert factory(k) == twin and twin == factory(k)
        assert hash(factory(k)) == hash(twin)
        assert {twin: k}[factory(k)] == k and {factory(k): k}[twin] == k
        assert factory(k) == factory(k) and factory(k) != factory(k + 1)
    assert (make_godel_chain(k) == make_lukasiewicz_chain(k)) == (k == 2)
    assert make_lukasiewicz_chain(k) != "luk" and make_lukasiewicz_chain(k) != k


@pytest.mark.parametrize("factory", [make_lukasiewicz_chain, make_godel_chain])
def test_named_chains_build_no_table_until_one_is_read(factory):
    chain = factory(MAX_NAMED_CHAIN_SIZE)
    assert vars(chain) == {"size": MAX_NAMED_CHAIN_SIZE}
    top = chain.top
    assert (chain.tnorm(top, top), chain.residuum(top, 0), chain.neg(0), chain.square(top),
            chain.biimpl(1, 1)) == (top, 0, top, top, top)
    if factory is make_lukasiewicz_chain:
        assert is_lukasiewicz(chain)  # known by its class: no table is scanned
    assert vars(chain) == {"size": MAX_NAMED_CHAIN_SIZE}
    residuum = chain.residuum_table
    assert "residuum_table" in vars(chain) and chain.residuum_table is residuum  # built once
    assert len(chain.tnorm_table) == MAX_NAMED_CHAIN_SIZE


def test_a_domain_1_decide_on_luk_1200_builds_no_table():
    # the query refutes at its second structure: it reads a handful of
    # operations, where two 1200 x 1200 tables take about 23 MB
    argv = ["decide", "--set", "taut0", "--chain", "luk:1200", "--max-domain", "1",
            "--formula", "exists x. P(x)"]
    run(argv)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        code, text = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "outcome: refuted" in text and "chain-size: 1200" in text
    assert peak < 2 * 2**20


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
                ex, ey = Fraction(x, k - 1), Fraction(y, k - 1)
                assert STANDARD_CHAIN.tnorm(ex, ey) == Fraction(chain.tnorm(x, y), k - 1)
                assert STANDARD_CHAIN.residuum(ex, ey) == Fraction(chain.residuum(x, y), k - 1)
                assert STANDARD_CHAIN.biimpl(ex, ey) == Fraction(chain.biimpl(x, y), k - 1)


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
    text = chain.describe() + "\n"
    assert parse_chain_file(text).tnorm_table == chain.tnorm_table


def test_chain_file_comments_and_errors():
    parsed = parse_chain_file("# a comment\nchain 2\n0 0\n0 1\n")
    assert parsed.size == 2
    with pytest.raises(ValueError):
        parse_chain_file("0 0\n0 1\n")
    with pytest.raises(ChainValidationError):
        parse_chain_file("chain 2\n0 1\n1 1\n")

