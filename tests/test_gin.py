"""Generic initial ideals via random Borel coordinate changes."""

import dataclasses
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from multigb import groebner, kernel
from multigb.determinantal import build_column_graded, minor_ideal
from multigb.errors import InconclusiveError, InternalConsistencyError
from multigb.gin import BorelElement, GinReport, gin, random_borel
from multigb.groebner import Ideal, ideal_from_monomials
from multigb.instances import cs_instance_pool, csstar_instance_pool
from multigb.monomials import MonomialIdeal, is_borel_fixed, is_strongly_stable
from multigb.poly import Polynomial
from multigb.ring import BlockRing, lex, weight_order
from oracles import degrevlex_blocks_reversed
from test_groebner import _driver_widths

# ``multigb.gin`` as a package attribute is the function, not the module
gin_module = importlib.import_module("multigb.gin")


def x(R, i, j):
    return Polynomial.variable(R, i, j)


def test_identity_borel_fixes_polynomials():
    R = BlockRing((2, 3))
    g = BorelElement(R, tuple(
        tuple(tuple(int(k == j) for j in range(n)) for k in range(n))
        for n in R.block_sizes))
    assert gin_module._variable_images(g, range(R.nvars)) == {
        v: [(R.unit_exp(v), 1)] for v in range(R.nvars)}
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 3) - 2 * x(R, 1, 2) ** 2])
    for order in (R.storage_order, lex(R)):
        assert gin_module._trial(g, I, order) == I.initial_ideal(order)


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
    var = R.var_index(1, 3)
    (img,) = gin_module._variable_images(g, [var]).values()
    assert {R.var_index(1, k) for k in (1, 2, 3)} == {
        e.index(1) for e, _ in img}


def test_gin_in_a_large_ring():
    # the Borel images are built only for variables the generators use
    R = BlockRing((200,))
    I = Ideal(R, [x(R, 1, 1) ** 2])
    rep = gin(I, trials=1)
    assert rep.require() == MonomialIdeal(R, [(2,) + (0,) * 199])


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
    """Make every packed run (a gin trial moves its generators inside one)
    and every Buchberger run fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a gin that needs no trials ran one")
    monkeypatch.setattr(groebner, "_packed_run", refuse)
    monkeypatch.setattr(groebner, "_buchberger", refuse)


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
        assert gin_module._trial(random_borel(R, s), I, R.storage_order) == M


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
                assert gin_module._trial(random_borel(R, 1000 + k), I,
                                         order) == M
    assert min(fixed.values()) >= 10, fixed


def test_gin_seed_determinism(monkeypatch):
    # two fresh ideals with equal generators: each recomputes every trial,
    # and the same seed gives the same result
    R = BlockRing((2, 2))
    f = x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1)
    runs = []
    raw = groebner._buchberger

    def counted(*args, **kwargs):
        runs.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    a = gin(Ideal(R, [f]), seed=3)
    b = gin(Ideal(R, [f]), seed=3)
    assert len(runs) == 2 * 3
    assert a.require() == b.require() and a.seeds == b.seeds


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


@st.composite
def trial_cases(draw):
    """A Borel element of a ring of 1-3 blocks in characteristic 2, 3 or
    32003, an ideal of 1-4 nonzero generators whose terms have degrees 1 to
    3 (not multihomogeneous in general, never the unit ideal), an order
    respecting the block convention, and a start width for the packed run
    (None: the default)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    R = BlockRing(sizes, draw(st.sampled_from([2, 3, 32003])))
    n = R.nvars
    monomial = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(
        lambda vs: tuple(vs.count(v) for v in range(n)))
    poly = st.dictionaries(monomial, st.integers(1, R.characteristic - 1),
                           min_size=1, max_size=3).map(
        lambda terms: Polynomial(R, terms.items()))
    I = Ideal(R, draw(st.lists(poly, min_size=1, max_size=4)))
    order = draw(st.sampled_from([R.storage_order,
                                  degrevlex_blocks_reversed(R)]))
    g = random_borel(R, draw(st.integers(0, 2 ** 32)))
    return g, I, order, draw(st.sampled_from([None, 2, 3]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(trial_cases())
def test_trial_equals_the_moved_initial_ideal(case):
    g, I, order, start = case
    moved = oracles.apply_change(g, I)
    expected = moved.initial_ideal(order)
    with pytest.MonkeyPatch.context() as mp:
        widths = _driver_widths(mp)
        if start is not None:
            mp.setattr(kernel, "bits_for", lambda polys: start)
        assert gin_module._trial(g, I, order) == expected
    top = max(max(e) for f in moved.gens for e, _ in f.terms)
    if start is not None and top >= 1 << (start - 1):
        # an exponent of a moved generator does not fit the start width:
        # the run restarted
        assert widths[0] > start


def test_trial_restarts_when_the_basis_outgrows_its_fields(monkeypatch):
    R = BlockRing((4,))
    v = [x(R, 1, j) for j in range(1, 5)]
    I = Ideal(R, [v[0] - v[1] ** 2, v[1] - v[2] ** 2, v[2] - v[3] ** 2])
    g = random_borel(R, 3)
    expected = oracles.apply_change(g, I).initial_ideal(lex(R))
    widths = _driver_widths(monkeypatch)
    assert gin_module._trial(g, I, lex(R)) == expected
    # the generators fit the first fields, the lex basis does not
    assert widths == [4, 8]


def test_trial_does_the_buchberger_work_of_the_moved_ideal(monkeypatch):
    calls = {"normal_form": 0, "spoly": 0}
    for name in calls:
        def counted(*args, inner=getattr(kernel, name), name=name):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(kernel, name, counted)
    R = BlockRing((2, 2, 2))
    x11, x12, x21, x22, x31, x32 = (x(R, i, j) for i in (1, 2, 3)
                                    for j in (1, 2))
    ideals = [Ideal(R, [x11 * x22 - x12 * x21, x21 * x32 - x22 * x31]),
              Ideal(R, [x12 * x22 * x32, x11 * x21 * x32 + x12 * x22 * x31]),
              Ideal(R, [x12 ** 2 - x11 * x21, x22 * x32 + 5])]
    pairs = 0
    for I in ideals:
        for order in (R.storage_order, degrevlex_blocks_reversed(R)):
            g = random_borel(R, 11)
            gin_module._trial(g, I, order)
            packed = dict(calls)
            oracles.apply_change(g, I).initial_ideal(order)
            assert {k: calls[k] - packed[k] for k in calls} == packed
            pairs += packed["spoly"]
            calls.update(normal_form=0, spoly=0)
    assert pairs > 0


def test_trial_with_the_series_cutoff_equals_one_without(monkeypatch):
    skipped = [0]
    inner = groebner._SeriesCutoff.settled

    def spy(self, a, basis):
        done = inner(self, a, basis)
        skipped[0] += done
        return done

    monkeypatch.setattr(groebner._SeriesCutoff, "settled", spy)
    pool = cs_instance_pool(6, seed=4) + csstar_instance_pool(6, seed=8)
    for k, I in enumerate(pool):
        R = I.ring
        cached = Ideal(R, I.gens)
        cached.groebner_basis()
        for order in (R.storage_order, degrevlex_blocks_reversed(R)):
            g = random_borel(R, 100 + k)
            assert gin_module._trial(g, cached, order) == \
                gin_module._trial(g, Ideal(R, I.gens), order)
    assert skipped[0] > 0


def test_gin_guard_catches_a_candidate_without_the_series(monkeypatch):
    # a cutoff that settles every degree skips the S-pairs the moved ideal
    # needs: the trials agree on a candidate that is too small, and only its
    # Hilbert series shows it
    R = BlockRing((2, 2, 2))
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1),
                  x(R, 2, 1) * x(R, 3, 2) - x(R, 2, 2) * x(R, 3, 1)])
    I.groebner_basis()
    monkeypatch.setattr(groebner._SeriesCutoff, "settled",
                        lambda self, a, basis: True)
    with pytest.raises(InternalConsistencyError, match="Hilbert series"):
        gin(I, seed=1)


def test_gin_guard_follows_the_cutoff_of_a_minor_ideal(monkeypatch):
    # a minor ideal under its rank check has a model from its construction,
    # so its trials skip pairs by the cutoff and the guard compares with the
    # cutoff's series, though nobody asked for the series (the 2-minors of
    # a 3 x 3 matrix need S-pairs in moved coordinates)
    A = build_column_graded(3, (3, 3, 3), seed=1)
    I = minor_ideal(A, 2)
    assert I._cutoff is None and not I._gb_cache
    monkeypatch.setattr(groebner._SeriesCutoff, "settled",
                        lambda self, a, basis: True)
    with pytest.raises(InternalConsistencyError, match="Hilbert series"):
        gin(I, seed=1)
