"""Generic initial ideals via random Borel coordinate changes."""

import dataclasses
import importlib
import random

import pytest

from multigb import groebner
from multigb.errors import InconclusiveError
from multigb.gin import (BorelElement, GinReport, apply_change, gin,
                         gin_order_independence, random_borel)
from multigb.groebner import Ideal, ideal_from_monomials
from multigb.monomials import MonomialIdeal, is_borel_fixed, is_strongly_stable
from multigb.poly import Polynomial
from multigb.ring import BlockRing, degrevlex_blocks_reversed, lex, weight_order

# ``multigb.gin`` as a package attribute is the function, not the module
gin_module = importlib.import_module("multigb.gin")


def x(R, i, j):
    return Polynomial.variable(R, i, j)


def test_identity_borel_fixes_polynomials():
    R = BlockRing((2, 3))
    g = BorelElement(R, tuple(
        tuple(tuple(int(k == j) for j in range(n)) for k in range(n))
        for n in R.block_sizes))
    f = x(R, 1, 1) * x(R, 2, 3) - 2 * x(R, 1, 2) ** 2
    assert apply_change(g, Ideal(R, [f])).gens == (f,)


def test_random_borel_shape_and_determinism():
    R = BlockRing((2, 3))
    a = random_borel(R, 42)
    b = random_borel(R, 42)
    assert a == b
    assert a != random_borel(R, 43)
    for mat, n in zip(a.blocks, R.block_sizes):
        assert len(mat) == n
        for k, row in enumerate(mat):
            assert all(row[j] == 0 for j in range(k))
            assert row[k] != 0


def test_borel_action_drifts_to_first_variable():
    # the image of the last variable involves all earlier variables of
    # its block and nothing from other blocks
    R = BlockRing((3, 2))
    g = random_borel(R, 7)
    (img,) = apply_change(g, Ideal(R, [x(R, 1, 3)])).gens
    assert img.support_vars() <= set(R.block_vars(1))


def test_gin_in_a_large_ring():
    # the Borel images are built only for variables the generators use
    R = BlockRing((200,))
    I = Ideal(R, [x(R, 1, 1) ** 2])
    rep = gin(I, trials=1)
    assert rep.require() == MonomialIdeal(R, [R.unit_exp(0, 2)])


def test_gin_of_principal_variable():
    # gin of (x[1,2]) is (x[1,1]): a generic coordinate change moves any
    # linear form of block 1 onto its first variable
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 2)])
    rep = gin(I, seed=5)
    assert rep.agreement
    assert rep.result.gens == (R.unit_exp(R.var_index(1, 1)),)


def test_gin_report_fields():
    R = BlockRing((2,))
    I = Ideal(R, [x(R, 1, 2)])
    rep = gin(I, trials=4, seed=9)
    assert rep.trials == 4
    assert len(rep.seeds) == 4 == len(rep.candidates)
    assert isinstance(rep.seeds, tuple) and isinstance(rep.candidates, tuple)
    assert rep.seeds[0] == 9 * 1_000_003
    assert rep.require() == rep.result
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.result = None
    bad = GinReport(result=None, candidates=(), trials=2, agreement=False,
                    seeds=(0, 1), order=R.storage_order)
    with pytest.raises(InconclusiveError):
        bad.require()


def _no_buchberger(monkeypatch):
    """Make every Buchberger run and every coordinate change fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a gin that needs no trials ran one")
    monkeypatch.setattr(groebner, "_reduced_basis_raw", refuse)
    monkeypatch.setattr(gin_module, "apply_change", refuse)


def test_gin_of_borel_fixed_monomial_ideal_runs_no_trials(monkeypatch):
    R = BlockRing((2,))
    I = Ideal(R, [x(R, 1, 1)])
    _no_buchberger(monkeypatch)
    rep = gin(I, trials=4, seed=9)
    assert rep.trials == 0
    assert rep.seeds == ()
    assert rep.candidates == (I.monomial_ideal(),)
    assert rep.agreement
    assert rep.result == I.monomial_ideal()
    assert rep.require() == rep.result


def test_gin_of_non_borel_fixed_monomial_ideal_runs_trials():
    # (x[1,2]^2) is monomial but not Borel fixed: its gin is (x[1,1]^2)
    R = BlockRing((2,))
    I = Ideal(R, [x(R, 1, 2) ** 2])
    rep = gin(I, seed=1)
    assert rep.trials == 3
    assert rep.require() == MonomialIdeal(R, [(2, 0)])


def test_gin_of_zero_and_unit_ideals(monkeypatch):
    R = BlockRing((2, 2))
    _no_buchberger(monkeypatch)
    zero = gin(Ideal(R, []), seed=1)
    assert zero.trials == 0 and zero.require().is_zero
    unit = gin(Ideal(R, [Polynomial(R, [((0, 0, 0, 0), 5)])]), seed=1)
    assert unit.trials == 0 and unit.require().is_unit


def test_borel_fixed_but_not_strongly_stable_in_characteristic_two():
    # in characteristic 2, (a x1 + b x2)^2 = a^2 x1^2 + b^2 x2^2, so
    # (x1^2, x2^2) is Borel fixed although x1*x2 is not in it
    R = BlockRing((2,), characteristic=2)
    I = Ideal(R, [x(R, 1, 1) ** 2, x(R, 1, 2) ** 2])
    M = I.monomial_ideal()
    assert is_borel_fixed(M) and not is_strongly_stable(M)
    rep = gin(I, seed=4)
    assert rep.trials == 0
    assert rep.require() == M
    for s in range(4):
        moved = apply_change(random_borel(R, s), I)
        assert moved.initial_ideal(R.storage_order) == M


def test_gin_shortcut_equals_the_moved_initial_ideal():
    # every Borel-fixed monomial ideal is taken without trials, and is
    # in(b(I)) for any Borel element b; every other monomial ideal runs
    # the trials
    rng = random.Random(23)
    rings = [BlockRing(sizes, characteristic=p) for p in (2, 3, 32003)
             for sizes in ((3,), (2, 2), (2, 1))]
    fixed = {2: 0, 3: 0, 32003: 0}
    for R in rings:
        p = R.characteristic
        for k in range(25):
            gens = [tuple(rng.randrange(3) for _ in range(R.nvars))
                    for _ in range(rng.randint(1, 3))]
            I = ideal_from_monomials(MonomialIdeal(R, gens))
            M = I.monomial_ideal()
            for order in (R.storage_order, degrevlex_blocks_reversed(R)):
                if not is_borel_fixed(M):
                    # small characteristics can give degenerate trials
                    if p == 32003:
                        assert gin(I, order, seed=k).trials == 3
                    continue
                fixed[p] += 1
                rep = gin(I, order, seed=k)
                assert rep.trials == 0 and rep.result == M
                moved = apply_change(random_borel(R, 1000 + k), I)
                assert moved.initial_ideal(order) == M
    assert min(fixed.values()) >= 10, fixed


def test_gin_memo(monkeypatch):
    R = BlockRing((2, 2))
    f = x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1)
    I = Ideal(R, [f])
    runs = []
    raw = groebner._reduced_basis_raw

    def counted(*args, **kwargs):
        runs.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduced_basis_raw", counted)
    rep = gin(I, seed=3)
    assert len(runs) == 3
    # the same question of the same ideal: the same report, no run
    assert gin(I, R.storage_order, trials=3, seed=3) is rep
    assert len(runs) == 3
    # change one of order, trials and seed, or ask a second ideal with
    # the same generators: computed afresh
    for again in (lambda: gin(I, lex(R), seed=3),
                  lambda: gin(I, trials=2, seed=3),
                  lambda: gin(I, seed=4),
                  lambda: gin(Ideal(R, [f]), seed=3)):
        before = len(runs)
        other = again()
        assert other is not rep and len(runs) > before


def test_gin_seed_determinism():
    R = BlockRing((2, 2))
    f = x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1)
    I = Ideal(R, [f])
    a = gin(I, seed=3).require()
    b = gin(I, seed=3).require()
    assert a == b


def test_gin_of_two_by_two_determinant():
    # row-graded 2x2 determinant: gin is the product of first variables
    R = BlockRing((2, 2))
    f = x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1)
    rep = gin(Ideal(R, [f]), seed=1)
    e = [0] * 4
    e[R.var_index(1, 1)] = 1
    e[R.var_index(2, 1)] = 1
    assert rep.require().gens == (tuple(e),)


def test_gin_result_is_borel_fixed_and_preserves_hilbert_series():
    rng = random.Random(17)
    R = BlockRing((2, 2))
    for trial in range(5):
        gens = []
        for _ in range(2):
            d = (rng.randrange(2), rng.randrange(2))
            if d == (0, 0):
                d = (1, 0)
            monos = list(R.monomials_of_multidegree(d))
            terms = [(m, rng.randrange(1, R.characteristic)) for m in monos]
            gens.append(Polynomial(R, terms))
        I = Ideal(R, gens)
        rep = gin(I, trials=3, seed=100 + trial)
        if not rep.agreement:
            continue
        G = rep.result
        assert is_borel_fixed(G)
        assert ideal_from_monomials(G).hilbert_series() == I.hilbert_series()


def test_borel_fixed_ideal_is_gin_invariant():
    # strongly stable ideals are their own gin
    R = BlockRing((3,))
    M = MonomialIdeal(R, [(2, 0, 0), (1, 1, 0), (0, 2, 0)])
    I = ideal_from_monomials(M)
    rep = gin(I, seed=2)
    assert rep.require() == M


def test_gin_idempotent_on_result():
    R = BlockRing((2, 2))
    f = x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1)
    G = gin(Ideal(R, [f]), seed=4).require()
    again = gin(ideal_from_monomials(G), seed=8).require()
    assert again == G


def test_gin_rejects_convention_violating_order():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 1)])
    bad = weight_order(R, (1, 9, 1, 1))
    with pytest.raises(ValueError):
        gin(I, order=bad)


def test_gin_rejects_fewer_than_one_trial():
    R = BlockRing((2, 2))
    with pytest.raises(ValueError):
        gin(Ideal(R, [x(R, 1, 1)]), trials=0)


def test_gin_alternative_orders():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 2)])
    e = (R.unit_exp(R.var_index(1, 1)),)
    assert gin(I, order=lex(R), seed=6).require().gens == e
    assert gin(I, order=degrevlex_blocks_reversed(R), seed=6).require().gens == e


def test_gin_order_independence_on_principal():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 2)])
    ok, witness = gin_order_independence(
        I, [R.storage_order, lex(R), degrevlex_blocks_reversed(R)], seed=12)
    assert ok
    assert witness is None
