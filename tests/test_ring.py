"""Block rings and term orders."""

import pytest

from multigb.errors import RingMismatchError
from multigb.monomials import ambient_dimension
from multigb.ring import (BlockRing, degrevlex, elimination_order, lex,
                          weight_order)
from oracles import degrevlex_blocks_reversed, order_key


def test_ring_shape():
    R = BlockRing((2, 3, 1))
    assert R.v == 3
    assert R.nvars == 6
    assert R.characteristic == 32003
    assert R.block_sizes == (2, 3, 1)


def test_ring_validation():
    with pytest.raises(ValueError):
        BlockRing(())
    with pytest.raises(ValueError):
        BlockRing((2, 0))
    with pytest.raises(ValueError):
        BlockRing((2, 2), characteristic=15)
    with pytest.raises(ValueError):
        BlockRing((2, 2), characteristic=1)



@pytest.mark.parametrize("n", [10 ** 18 + 9, 2 ** 61 - 1, 32003, 2, 41, 43])
def test_large_prime_characteristics_are_accepted(n):
    assert BlockRing((2,), n).characteristic == n


# 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the bases 2, 3,
# 5 and 7; 561 is a Carmichael number; the last is the primality bound
@pytest.mark.parametrize("n", [10 ** 18 + 7, 561, 3215031751, 41 * 43,
                               3317044064679887385961981, 10 ** 30])
def test_composite_or_too_large_characteristics_are_rejected(n):
    with pytest.raises(ValueError, match="characteristic"):
        BlockRing((2,), n)


def test_small_characteristics_match_trial_division():
    for n in range(-2, 3000):
        prime = n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        try:
            BlockRing((1,), n)
        except ValueError:
            assert not prime, n
        else:
            assert prime, n

def test_variable_indexing_round_trip():
    R = BlockRing((2, 3))
    assert R.var_index(1, 1) == 0
    assert R.var_index(2, 3) == 4
    for flat in range(R.nvars):
        block, pos = R.var_pair(flat)
        assert R.var_index(block, pos) == flat
    assert R.var_label(2) == "x[2,1]"
    with pytest.raises(RingMismatchError):
        R.var_index(3, 1)
    with pytest.raises(RingMismatchError):
        R.var_index(1, 3)


@pytest.mark.parametrize("var", [-1, 4, 10])
def test_flat_indices_outside_the_ring_are_rejected(var):
    # unit_exp(-1) once gave x[2,2] and unit_exp(4) a bare IndexError
    R = BlockRing((2, 2))
    for call in (R.unit_exp, R.var_label, R.var_pair):
        with pytest.raises(RingMismatchError, match="0..3"):
            call(var)
    assert R.unit_exp(3) == (0, 0, 0, 1) and R.var_label(3) == "x[2,2]"


def test_block_vars_rejects_out_of_range_blocks():
    R = BlockRing((2, 3))
    assert list(R.block_vars(1)) == [0, 1]
    assert list(R.block_vars(2)) == [2, 3, 4]
    for block in (0, -1, 3):
        with pytest.raises(RingMismatchError):
            R.block_vars(block)


def test_multidegree():
    R = BlockRing((2, 2))
    assert R.multidegree((1, 0, 2, 0)) == (1, 2)
    assert R.unit_degree(2) == (0, 1)
    with pytest.raises(RingMismatchError):
        R.multidegree((1, 0, 0))


def test_lex_order_within_block():
    # x[i,j] > x[i,k] for j < k
    R = BlockRing((3,))
    o = lex(R)
    x1 = R.unit_exp(0)
    x2 = R.unit_exp(1)
    assert order_key(o, x1) > order_key(o, x2)
    assert order_key(o, x2) < order_key(o, x1)


def test_degrevlex_degree_dominates():
    R = BlockRing((3,))
    o = degrevlex(R)
    quad = (2, 0, 0)
    lin = (0, 0, 1)
    assert order_key(o, quad) > order_key(o, lin)


def test_degrevlex_revlex_tie():
    # equal degree: smaller exponent on the last variable wins
    R = BlockRing((3,))
    o = degrevlex(R)
    ac = (1, 0, 1)
    bb = (0, 2, 0)
    assert order_key(o, bb) > order_key(o, ac)


def test_degrevlex_cross_block_tie():
    # frozen from the worked determinantal initial ideal: the lead term of
    # x[1,1]x[2,2] - x[1,2]x[2,1] is x[1,2]x[2,1]
    R = BlockRing((3, 3, 3))
    o = degrevlex(R)
    a = [0] * 9
    a[R.var_index(1, 1)] = 1
    a[R.var_index(2, 2)] = 1
    b = [0] * 9
    b[R.var_index(1, 2)] = 1
    b[R.var_index(2, 1)] = 1
    assert order_key(o, tuple(b)) > order_key(o, tuple(a))


def test_one_is_minimal():
    R = BlockRing((2, 2))
    one = (0, 0, 0, 0)
    for o in (lex(R), degrevlex(R), degrevlex_blocks_reversed(R),
              weight_order(R, (5, 3, 7, 2))):
        for flat in range(4):
            assert order_key(o, R.unit_exp(flat)) > order_key(o, one)


def test_block_convention_checks():
    R = BlockRing((2, 2))
    assert degrevlex(R).respects_block_convention(R)
    assert lex(R).respects_block_convention(R)
    assert degrevlex_blocks_reversed(R).respects_block_convention(R)
    # increasing weights within a block flip x[1,1] below x[1,2]
    bad = weight_order(R, (1, 9, 1, 1))
    assert not bad.respects_block_convention(R)


def test_degrevlex_blocks_reversed_priority():
    R = BlockRing((2, 2))
    o = degrevlex_blocks_reversed(R)
    # block 2 outranks block 1 at equal total degree
    assert order_key(o, R.unit_exp(2)) > order_key(o, R.unit_exp(0))
    # within a block the convention still holds
    assert order_key(o, R.unit_exp(2)) > order_key(o, R.unit_exp(3))


def test_elimination_order():
    o = elimination_order(4, front=(0, 1))
    # any power of a front variable beats any back monomial
    assert order_key(o, (1, 0, 0, 0)) > order_key(o, (0, 0, 5, 5))
    assert order_key(o, (0, 0, 5, 5)) < order_key(o, (0, 1, 0, 0))


def test_weight_order_requires_positive_weights():
    R = BlockRing((2,))
    with pytest.raises(ValueError):
        weight_order(R, (1, 0))
    with pytest.raises(ValueError):
        weight_order(R, (1,))


def test_monomials_of_multidegree_count():
    R = BlockRing((2, 3))
    for a in ((0, 0), (1, 0), (2, 1), (1, 3)):
        monos = list(R.monomials_of_multidegree(a))
        assert len(monos) == ambient_dimension(R, a)
        assert len(set(monos)) == len(monos)
        assert all(R.multidegree(e) == a for e in monos)
