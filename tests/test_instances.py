"""Random instance generators: the benchmark's pools in ``multigb.instances``
and the generators only the tests draw, in ``oracles``."""

import random

import pytest

from multigb import instances
from multigb.csideals import MembershipReport
from multigb.errors import InternalConsistencyError
from multigb.instances import (cs_instance_pool, csstar_instance_pool,
                               random_borel_fixed_squarefree,
                               random_first_variables_ideal,
                               random_linear_form, random_ring,
                               strongly_stable_closure)
from multigb.monomials import (is_extended_from_first_variables,
                               is_radical_monomial, is_strongly_stable)
from multigb.ring import BlockRing
from oracles import (random_graded_ideal, random_monomial_ideal,
                     random_squarefree_ideal)


def test_random_ring_bounds():
    rng = random.Random(1)
    for _ in range(50):
        R = random_ring(rng, max_blocks=3, max_block_size=3, max_vars=8)
        assert 1 <= R.v <= 3
        assert all(1 <= n <= 3 for n in R.block_sizes)
        assert R.nvars <= 8


def test_random_monomial_ideal_well_formed():
    rng = random.Random(2)
    for _ in range(30):
        R = random_ring(rng)
        I = random_monomial_ideal(R, rng)
        for g in I.gens:
            assert len(g) == R.nvars
            assert all(e >= 0 for e in g)


def test_random_squarefree_ideal():
    rng = random.Random(3)
    for _ in range(30):
        R = random_ring(rng)
        I = random_squarefree_ideal(R, rng)
        assert is_radical_monomial(I)


def test_random_graded_ideal_multihomogeneous():
    rng = random.Random(4)
    for _ in range(20):
        R = random_ring(rng, max_vars=6)
        I = random_graded_ideal(R, rng)
        assert I.is_multihomogeneous


def test_random_linear_form():
    rng = random.Random(5)
    R = BlockRing((2, 3))
    for _ in range(20):
        L = random_linear_form(R, rng)
        assert sum(L.multidegree()) == 1
    L1 = random_linear_form(R, rng, block=2)
    assert L1.multidegree() == (0, 1)


def test_strongly_stable_closure():
    R = BlockRing((3,))
    M = strongly_stable_closure(R, [(0, 0, 1)])
    assert M.gens == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert is_strongly_stable(M)


def test_random_borel_fixed_squarefree():
    rng = random.Random(6)
    for _ in range(25):
        R = random_ring(rng, max_vars=6)
        M = random_borel_fixed_squarefree(R, rng)
        assert is_radical_monomial(M)
        assert is_strongly_stable(M)


def test_random_first_variables_ideal():
    rng = random.Random(7)
    for _ in range(25):
        R = random_ring(rng, max_vars=6)
        M = random_first_variables_ideal(R, rng)
        assert is_extended_from_first_variables(M)
        assert not M.is_zero


def test_cs_instance_pool_small():
    pool = cs_instance_pool(3, seed=2)
    assert len(pool) == 3
    for I in pool:
        assert not I.is_zero_ideal
        assert not I.is_unit_ideal


def test_csstar_instance_pool_small():
    pool = csstar_instance_pool(3, seed=4)
    assert len(pool) == 3
    for I in pool:
        assert not I.is_zero_ideal


@pytest.mark.parametrize("pool, test", [(cs_instance_pool, "is_cs"),
                                        (csstar_instance_pool, "is_csstar")])
def test_pools_give_up_when_no_candidate_passes(pool, test, monkeypatch):
    asked = []

    def never(candidate):
        asked.append(candidate)
        return MembershipReport("no", "none", "never", {})

    monkeypatch.setattr(instances, test, never)
    with pytest.raises(InternalConsistencyError,
                       match=rf"{pool.__name__}\(seed=4\) found 0 of 2"):
        pool(2, seed=4)
    assert 0 < len(asked) <= instances.DRAWS_PER_MEMBER * 2
