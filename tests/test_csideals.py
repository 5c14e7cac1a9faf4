"""Membership tests, duality, closure operations, sampled universal bases."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigb import csideals
from multigb.csideals import (MembershipReport, check_incomparable_degrees,
                              closure_suite, csstar_canonical_C,
                              degree_bound_check, gamma_sequence, is_cs,
                              is_csstar, sample_orders, stable_gin, ugb_check,
                              verify_dual_theorem)
from multigb.determinantal import (build_column_graded, build_row_graded,
                                   minors, variable_matrix)
from multigb.errors import (HypothesisNotSatisfiedError,
                            InternalConsistencyError, NotSquarefreeError)
from multigb.groebner import Ideal, ideal_from_monomials
from multigb.instances import (cs_instance_pool, csstar_instance_pool,
                               random_graded_ideal, random_linear_form,
                               random_monomial_ideal,
                               random_multihomogeneous_polynomial, random_ring,
                               random_squarefree_ideal)
from multigb.monomials import (HilbertNumerator, MonomialIdeal,
                               hilbert_numerator,
                               is_extended_from_first_variables,
                               is_radical_monomial)
from multigb.poly import Polynomial
from multigb.ring import BlockRing, degrevlex_blocks_reversed


def x(R, i, j):
    return Polynomial.variable(R, i, j)


def remark_matrix_ideal():
    """2-minors of the 3x3 row-graded matrix with zeros at (2,3), (3,1), (3,2)."""
    R = BlockRing((3, 3, 3))
    zero = Polynomial.zero(R)
    entries = [
        [x(R, 1, 1), x(R, 1, 2), x(R, 1, 3)],
        [x(R, 2, 1), x(R, 2, 2), zero],
        [zero, zero, x(R, 3, 3)],
    ]
    gens = []
    for r1, r2 in ((0, 1), (0, 2), (1, 2)):
        for c1, c2 in ((0, 1), (0, 2), (1, 2)):
            g = entries[r1][c1] * entries[r2][c2] - entries[r1][c2] * entries[r2][c1]
            if not g.is_zero:
                gens.append(g)
    return R, Ideal(R, gens)


def test_sample_orders_permutation_family():
    R = BlockRing((2, 2))
    orders = sample_orders(R, 5, seed=1)
    # 2 block orders x 2 x 2 within-block orders, each with lex and degrevlex
    assert len(orders) == 2 * 2 * 2 * 2 + 5
    assert len({o.rows for o in orders}) == len(orders)
    # only the 4 priorities that keep each block in its natural order (either
    # block first, lex and degrevlex) respect x[i,1] > x[i,2]
    family = orders[:16]
    assert sum(o.respects_block_convention(R) for o in family) == 4
    # weight orders are deterministic per seed
    again = sample_orders(R, 5, seed=1)
    assert [o.rows for o in again] == [o.rows for o in orders]


def test_sample_orders_canonical_only():
    R = BlockRing((2, 2))
    orders = sample_orders(R, 7, include_permutations=False)
    assert len(orders) == 2 + 7
    assert orders[0].name == "degrevlex"
    assert orders[1].name == "lex"


def test_sample_orders_rejects_impossible_counts():
    # weights are drawn from 1..1000: one variable has 1000 weight orders
    R = BlockRing((1,))
    assert len(sample_orders(R, 1000)) == 2 + 1000
    for n in (1001, -1):
        with pytest.raises(ValueError, match="n_weight"):
            sample_orders(R, n)
    assert len(sample_orders(R, 0)) == 2


def test_sample_orders_large_ring_skips_permutations():
    R = BlockRing((5, 4))
    orders = sample_orders(R, 3)
    assert len(orders) == 2 + 3


def test_gamma_sequence():
    R = BlockRing((3, 2))
    gamma = gamma_sequence(R)
    assert len(gamma) == 3
    assert gamma[0] == x(R, 1, 2) - x(R, 1, 1)
    assert gamma[2] == x(R, 2, 2) - x(R, 2, 1)
    assert all(sum(g.multidegree()) == 1 for g in gamma)


def test_stable_gin_matches_gin():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 2)])
    rep = stable_gin(I, seed=3)
    assert rep.agreement
    assert rep.result.gens == (R.unit_exp(R.var_index(1, 1)),)


def test_is_cs_on_remark_ideal():
    _, I = remark_matrix_ideal()
    rep = is_cs(I)
    assert rep.verdict == "yes"
    assert rep.is_yes
    assert rep.family == "radical-gin"
    assert rep.evidence == {"gin_generators": rep.gin_result.generator_strings()}


def test_is_cs_fails_after_colon_by_cubic():
    # the colon by a degree-(1,1,1) form acquires generators of degree
    # (2,0,0), leaving the radical-gin family
    R, I = remark_matrix_ideal()
    F = x(R, 1, 1) * x(R, 2, 1) * x(R, 3, 2) + x(R, 1, 3) * x(R, 2, 3) * x(R, 3, 3)
    J = I.colon(F)
    expect = Ideal(R, list(I.gens) + [x(R, 1, 2) * x(R, 1, 3),
                                      x(R, 1, 1) * x(R, 1, 3)])
    assert J.equals(expect)
    rep = is_cs(J)
    assert rep.verdict == "no"


def test_remark_initial_ideal_is_frozen():
    R, I = remark_matrix_ideal()
    leads = I.initial_ideal()
    pairs = [((1, 2), (2, 1)), ((1, 3), (2, 1)), ((1, 3), (2, 2)),
             ((1, 1), (3, 3)), ((1, 2), (3, 3)), ((2, 1), (3, 3)),
             ((2, 2), (3, 3))]
    expect = []
    for a, b in pairs:
        e = [0] * 9
        e[R.var_index(*a)] = 1
        e[R.var_index(*b)] = 1
        expect.append(tuple(e))
    assert leads == MonomialIdeal(R, expect)


def test_is_csstar_yes_and_no():
    R = BlockRing((2, 2))
    # extended from first variables
    I = ideal_from_monomials(MonomialIdeal(R, [(1, 0, 1, 0)]))
    rep = is_csstar(I)
    assert rep.verdict == "yes"
    assert rep.evidence == {"gin_generators": ["x[1,1]*x[2,1]"],
                            "regular_sequence_test": True}
    # two generators in one block have comparable degrees
    J = ideal_from_monomials(MonomialIdeal(R, [(1, 0, 0, 0), (0, 1, 0, 0)]))
    rep = is_csstar(J)
    assert rep.verdict == "no"
    assert rep.gin_result is None
    assert rep.evidence == {"regular_sequence_test": False}


def test_is_csstar_unit_ideal():
    R = BlockRing((2, 2))
    I = Ideal(R, [Polynomial.one(R)])
    rep = is_csstar(I)
    assert rep.verdict == "yes"


def test_membership_report_is_yes():
    rep = MembershipReport("yes", "radical-gin", "c", {})
    assert rep.is_yes
    assert not MembershipReport("no", "radical-gin", "c", {}).is_yes
    assert not MembershipReport("inconclusive", "radical-gin", "c", {}).is_yes


# -- series verdicts against the gin oracle --------------------------------------

def gin_oracle(I):
    """(radical-gin verdict, first-variables verdict, gin) of seeded gin
    trials under the storage order, with the radical-gin side also under
    degrevlex with the blocks reversed; None where the trials are
    inconclusive, or raise on a non-generic change over a small field."""
    ring = I.ring
    try:
        reps = [stable_gin(I, ring.storage_order, seed=0),
                stable_gin(I, degrevlex_blocks_reversed(ring), seed=1)]
    except InternalConsistencyError:
        return None
    if not all(rep.agreement for rep in reps):
        return None
    G = reps[0].result
    radical = [is_radical_monomial(rep.result) for rep in reps]
    assert radical[0] == radical[1], "gin radicality differs across orders"
    return radical[0], is_extended_from_first_variables(G), G


def assert_series_verdicts_match_gin(I):
    cs, star = is_cs(I), is_csstar(I)  # I's series is known from here on
    for rep in (cs, star):
        assert rep.verdict in ("yes", "no")
        assert (rep.gin_result is None) == (rep.verdict == "no")
        if rep.is_yes:
            assert hilbert_numerator(rep.gin_result) == I.hilbert_series()
    oracle = gin_oracle(I)
    if oracle is None:
        return False
    radical, first, G = oracle
    assert cs.is_yes == radical
    assert star.is_yes == first
    for rep in (cs, star):
        if rep.is_yes:
            assert rep.gin_result == G
    return True


def test_series_verdicts_match_gin_on_the_closure_pools():
    pool = cs_instance_pool(15, seed=4) + csstar_instance_pool(15, seed=8)
    assert all([assert_series_verdicts_match_gin(I) for I in pool])


def random_ideal(kind: str, characteristic: int, seed: int) -> Ideal:
    rng = random.Random(seed)
    R = random_ring(rng, max_vars=6, characteristic=characteristic)
    if kind == "graded":
        return random_graded_ideal(R, rng)
    if kind == "monomial":
        return ideal_from_monomials(random_monomial_ideal(R, rng))
    return ideal_from_monomials(random_squarefree_ideal(R, rng))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["graded", "monomial", "squarefree"]),
       st.sampled_from([2, 3, 32003]), st.integers(0, 2 ** 32))
def test_series_verdicts_match_gin_on_random_ideals(kind, characteristic,
                                                    seed):
    assert_series_verdicts_match_gin(random_ideal(kind, characteristic, seed))


@pytest.mark.parametrize("characteristic", [2, 3])
def test_family_verdicts_over_small_fields_are_decided(characteristic):
    # random gin trials are often inconclusive, or agree on a candidate that
    # is not Borel fixed, over F_2 and F_3; the series verdicts never are
    for seed in range(40):
        for kind in ("graded", "monomial", "squarefree"):
            I = random_ideal(kind, characteristic, seed)
            assert is_cs(I).verdict in ("yes", "no")
            assert is_csstar(I).verdict in ("yes", "no")


def test_a_flipped_series_coefficient_changes_the_verdict():
    # every coefficient of the numerator matters: changed in one degree, the
    # series gives "no" or another ideal, never the same verdict and gin
    pool = cs_instance_pool(8, seed=4) + csstar_instance_pool(8, seed=8)
    mutants = 0
    for I in pool:
        series = I.hilbert_series()
        for model in (csideals._radical_model,
                      csideals._first_variables_model):
            J, _ = model(I.ring, series)
            if J is None:
                continue
            for a, c in series.coeffs.items():
                for flipped in (-c, c + 1):
                    mutant = HilbertNumerator(
                        series.v, {**series.coeffs, a: flipped})
                    K, _ = model(I.ring, mutant)
                    assert K != J
                    assert K is None or hilbert_numerator(K) == mutant
                    mutants += 1
    assert mutants > 100


def test_series_check_rejects_an_ideal_with_another_series(monkeypatch):
    # a model read off the series must have that series; a construction
    # that returned another ideal is caught by the final numerator check
    R, I = remark_matrix_ideal()
    assert is_cs(I).is_yes
    monkeypatch.setattr(csideals, "alexander_dual",
                        lambda M: MonomialIdeal(R, [R.unit_exp(0)]))
    rep = is_cs(Ideal(R, I.gens))
    assert rep.verdict == "no" and rep.gin_result is None
    assert "another series" in rep.criterion


def test_family_verdicts_of_the_zero_and_unit_ideals():
    R = BlockRing((2, 3))
    zero, unit = Ideal(R, []), Ideal(R, [Polynomial.constant(R, 5)])
    for I, J in ((zero, MonomialIdeal(R, [])),
                 (unit, MonomialIdeal(R, [(0,) * R.nvars]))):
        for rep in (is_cs(I), is_csstar(I)):
            assert rep.verdict == "yes" and rep.gin_result == J
        assert gin_oracle(I) == (True, True, J)


def test_family_verdicts_need_a_multigraded_ideal():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 1) ** 2 - x(R, 2, 1)])
    for test in (is_cs, is_csstar):
        with pytest.raises(HypothesisNotSatisfiedError, match="multigraded"):
            test(I)


def test_canonical_monomial_model_for_maximal_minors():
    # column-graded 2x3: the canonical model is generated by the pairwise
    # products of the first variables of the three blocks
    A = build_column_graded(2, (2, 2, 2), seed=5)
    R = A.ring
    I = Ideal(R, minors(A, 2))
    C = csstar_canonical_C(I)
    first = [R.var_index(b, 1) for b in (1, 2, 3)]
    expect = []
    for a in range(3):
        for b in range(a + 1, 3):
            e = [0] * R.nvars
            e[first[a]] = 1
            e[first[b]] = 1
            expect.append(tuple(e))
    assert C == MonomialIdeal(R, expect)
    # same Hilbert series as the source ideal
    assert ideal_from_monomials(C).hilbert_series() == I.hilbert_series()


def test_canonical_model_rejects_non_members():
    R = BlockRing((2, 2))
    J = ideal_from_monomials(MonomialIdeal(R, [(1, 0, 0, 0), (0, 1, 0, 0)]))
    with pytest.raises(HypothesisNotSatisfiedError):
        csstar_canonical_C(J)


def test_check_incomparable_degrees():
    R = BlockRing((2, 2))
    good = Ideal(R, [x(R, 1, 1) * x(R, 1, 2)])
    assert check_incomparable_degrees(good)
    A = variable_matrix(2, 2, grading="row")
    I = Ideal(A.ring, minors(A, 2))
    assert check_incomparable_degrees(I)
    bad = Ideal(R, [x(R, 1, 1), x(R, 1, 2)])
    assert not check_incomparable_degrees(bad)


def test_verify_dual_theorem_positive():
    # a squarefree strongly stable ideal: both sides hold and the gin
    # identity is checked
    R = BlockRing((2, 2))
    I = MonomialIdeal(R, [(1, 0, 1, 0)])
    out = verify_dual_theorem(I)
    assert out["passed"]
    assert out["cs_verdict"] == "yes"
    assert out["dual_csstar_verdict"] == "yes"
    assert out["identity_checked"]
    assert out["identity_holds"]


def test_verify_dual_theorem_negative_side():
    # (x11x12) has a non-squarefree gin, so both verdicts must be "no"
    R = BlockRing((2, 2))
    I = MonomialIdeal(R, [(1, 1, 0, 0)])
    out = verify_dual_theorem(I)
    assert out["passed"]
    assert out["cs_verdict"] == "no"
    assert out["dual_csstar_verdict"] == "no"
    assert not out["identity_checked"]


def test_verify_dual_theorem_rejects_nonsquarefree():
    R = BlockRing((2, 2))
    with pytest.raises(NotSquarefreeError):
        verify_dual_theorem(MonomialIdeal(R, [(2, 0, 0, 0)]))


def test_closure_suite_radical_gin_family():
    R, I = remark_matrix_ideal()
    L = x(R, 1, 3)
    out = closure_suite(I, L, seed=5)
    assert out["families"]["radical-gin"] is True
    assert out["families"]["first-variables-gin"] is False
    items = {c["item"] for c in out["checks"]}
    assert items == {4, 5, 6}
    assert out["passed"]


def test_closure_suite_both_families():
    A = build_column_graded(2, (2, 2, 2), seed=9)
    R = A.ring
    I = Ideal(R, minors(A, 2))
    L = x(R, 1, 2)
    out = closure_suite(I, L, seed=7)
    assert out["families"] == {"radical-gin": True, "first-variables-gin": True}
    items = sorted(c["item"] for c in out["checks"])
    assert items == [1, 2, 3, 4, 5, 5, 6]
    assert out["passed"]


def test_closure_suite_rejects_nonlinear_form():
    R, I = remark_matrix_ideal()
    with pytest.raises(HypothesisNotSatisfiedError):
        closure_suite(I, x(R, 1, 1) * x(R, 1, 2), seed=1)
    with pytest.raises(HypothesisNotSatisfiedError):
        closure_suite(I, x(R, 1, 1) + x(R, 2, 1), seed=1)


def test_closure_suite_rejects_outside_both_families():
    R, I = remark_matrix_ideal()
    F = x(R, 1, 1) * x(R, 2, 1) * x(R, 3, 2) + x(R, 1, 3) * x(R, 2, 3) * x(R, 3, 3)
    J = I.colon(F)
    with pytest.raises(HypothesisNotSatisfiedError):
        closure_suite(J, x(R, 1, 1), seed=1)


def test_closure_suite_size_one_block_quotient_inapplicable():
    R = BlockRing((1, 2))
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 1)])
    out = closure_suite(I, x(R, 1, 1), seed=2)
    quotient_items = [c for c in out["checks"] if not c["applicable"]]
    assert quotient_items
    assert out["passed"]


def test_closure_suite_derived_series_equal_computed_ones(monkeypatch):
    # the colon takes its series from its Bayer-Stillman basis, and the sum,
    # intersection and quotients take theirs from identities: each equals
    # the series of a fresh copy of the ideal, read off a Groebner basis
    derived = []
    for name in ("is_cs", "is_csstar"):
        def spy(J, test=getattr(csideals, name)):
            if J._series is not None and not J._gb_cache:
                derived.append((J, J._series))
            return test(J)
        monkeypatch.setattr(csideals, name, spy)
    pool = cs_instance_pool(15, seed=4) + csstar_instance_pool(15, seed=8)
    rng = random.Random(77)
    for I in pool:
        R = I.ring
        for L in (x(R, 1, R.block_sizes[0]), random_linear_form(R, rng)):
            assert closure_suite(I, L)["passed"]
    assert len(derived) > 100
    for J, series in derived:
        assert Ideal(J.ring, J.gens).hilbert_series() == series

def test_ugb_check_positive_for_maximal_minors():
    A = variable_matrix(2, 3, grading="column")
    I = Ideal(A.ring, minors(A, 2))
    rep = ugb_check(I.gens, I, n_orders=10, seed=3)
    assert rep.passed
    assert not rep.failures
    assert rep.note == "sampled, not certified"
    assert rep.orders_tested == len(rep.order_names)
    assert rep.records[0]["lead_exps"]


def test_ugb_check_failure_detected():
    # x11^2 - x12^2 and x11*x12 generate, but under lex with x12 first the
    # basis needs x11^3 (or x12^3), whose lead is outside the candidate leads
    R = BlockRing((2,))
    f = x(R, 1, 1) ** 2 - x(R, 1, 2) ** 2
    g = x(R, 1, 1) * x(R, 1, 2)
    I = Ideal(R, [f, g])
    rep = ugb_check([f, g], I, n_orders=30, seed=11)
    assert not rep.passed
    assert rep.failures


def ugb_oracle(candidates, I, orders):
    """Records and failures of a fresh Buchberger run under every order."""
    ring = I.ring
    records, failures = [], []
    for o in orders:
        gb = Ideal(ring, I.gens).groebner_basis(o)
        cand_leads = MonomialIdeal(ring, [c.lead_exp(o) for c in candidates])
        for e in gb.lead_exponents():
            if not cand_leads.contains_monomial(e):
                failures.append({"order": o.name,
                                 "lead": ring.monomial_str(e)})
        records.append({"order": o.name, "lead_exps": gb.lead_exponents(),
                        "gb_multidegrees": [g.multidegree() for g in gb]})
    return records, failures


def assert_matches_oracle(rep, candidates, I, orders):
    records, failures = ugb_oracle(candidates, I, orders)
    assert rep.order_names == [o.name for o in orders]
    assert rep.records == records
    assert rep.failures == failures


@pytest.mark.parametrize("make", [
    lambda: variable_matrix(2, 3, grading="column"),
    lambda: build_column_graded(3, (3, 3, 3, 3), seed=5),
], ids=["variables-2x3", "column-graded-3x4"])
def test_ugb_check_certified_records_match_buchberger(make):
    A = make()
    cands = minors(A, A.nrows)
    I = Ideal(A.ring, cands)
    rep = ugb_check(cands, I, n_orders=20, seed=6)
    assert rep.orders_tested >= 22
    assert rep.certified == rep.orders_tested
    assert_matches_oracle(rep, cands, I,
                          sample_orders(A.ring, 20, seed=6))


def test_ugb_check_inhomogeneous_ideal_runs_buchberger():
    R = BlockRing((2, 2))
    f = x(R, 1, 1) ** 2 - x(R, 2, 1)
    g = x(R, 1, 2) * x(R, 2, 2) - x(R, 1, 1)
    I = Ideal(R, [f, g])
    assert not I.is_multihomogeneous
    rep = ugb_check([f, g], I, n_orders=8, seed=2)
    assert rep.certified == 0
    assert_matches_oracle(rep, [f, g], I, sample_orders(R, 8, seed=2))


def test_ugb_check_failures_match_buchberger():
    R = BlockRing((2,))
    f = x(R, 1, 1) ** 2 - x(R, 1, 2) ** 2
    g = x(R, 1, 1) * x(R, 1, 2)
    I = Ideal(R, [f, g])
    rep = ugb_check([f, g], I, n_orders=30, seed=11)
    assert rep.failures
    assert rep.certified < rep.orders_tested
    assert_matches_oracle(rep, [f, g], I, sample_orders(R, 30, seed=11))


def test_ugb_check_maximal_minors_run_buchberger_once():
    # the 3x5 generic maximal minors form a universal basis, so every order
    # is settled by the Hilbert series computed from the one storage-order
    # basis the membership prechecks need
    B = build_column_graded(3, (3, 3, 3, 3, 3), seed=7)
    cands = minors(B, 3)
    I = Ideal(B.ring, cands)
    rep = ugb_check(cands, I, n_orders=200, include_permutations=False)
    assert rep.passed
    assert rep.certified == rep.orders_tested == 202
    assert len(I._gb_cache) == 1


def test_ugb_check_hypothesis_errors():
    R = BlockRing((2,))
    f = x(R, 1, 1)
    I = Ideal(R, [f])
    with pytest.raises(HypothesisNotSatisfiedError):
        ugb_check([], I)
    with pytest.raises(HypothesisNotSatisfiedError):
        ugb_check([x(R, 1, 2)], I)  # not inside I
    with pytest.raises(HypothesisNotSatisfiedError):
        ugb_check([x(R, 1, 1) ** 2], I)  # does not generate


def test_ugb_check_builds_candidate_ideal_only_when_needed(monkeypatch):
    # every generator of I a candidate: I lies in their ideal, no basis of it
    built = []

    class Recording(Ideal):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(csideals, "Ideal", Recording)
    A = variable_matrix(2, 3, grading="column")
    maximal = minors(A, 2)
    assert ugb_check(maximal, Ideal(A.ring, maximal), n_orders=4).passed
    assert built == []
    # a generator that is not a candidate is checked against their ideal
    I = Ideal(A.ring, [maximal[0] + maximal[1]] + maximal[1:])
    assert ugb_check(maximal, I, n_orders=4).passed
    assert len(built) == 1 and built[0].gens == tuple(maximal)


def test_degree_bound_check_le():
    A = variable_matrix(2, 3, grading="column")
    I = Ideal(A.ring, minors(A, 2))
    ok, details = degree_bound_check(I, (1, 1, 1), n_orders=6, seed=2)
    assert ok
    assert details["mode"] == "le"
    assert not details["violations"]
    assert details["records"][0]["gb_multidegrees"]
    # a strict bound fails and reports where
    ok, details = degree_bound_check(I, (1, 0, 0), n_orders=2, seed=2)
    assert not ok
    assert details["violations"]


def degree_bound_oracle(I, bound, n_orders, seed, mode):
    """Records and per-order violations of a fresh full basis under every
    sampled order."""
    ring = I.ring
    records, violations = [], []
    for o in sample_orders(ring, n_orders, seed=seed,
                           include_permutations=False):
        gb = Ideal(ring, I.gens).groebner_basis(o)
        degrees = [g.multidegree() for g in gb]
        records.append({"order": o.name, "lead_exps": gb.lead_exponents(),
                        "gb_multidegrees": degrees})
        for d in degrees:
            if d != bound and (mode == "eq" or
                               any(x > y for x, y in zip(d, bound))):
                violations.append({"where": o.name, "degree": d})
    return records, violations


def assert_degree_bound_matches_oracle(I, bound, n_orders, seed, mode="le"):
    ok, details = degree_bound_check(I, bound, n_orders=n_orders, seed=seed,
                                     mode=mode)
    records, violations = degree_bound_oracle(I, bound, n_orders, seed, mode)
    assert details["records"] == records
    assert [v for v in details["violations"]
            if v["where"] != "minimal generator"] == violations
    return ok, details


@pytest.mark.parametrize("make, t, bound, mode", [
    (lambda: build_column_graded(3, (3, 3, 3, 3), seed=5), 2, (1, 1, 1, 1),
     "le"),
    (lambda: build_row_graded(4, (3, 3, 3), seed=5), 3, (1, 1, 1), "eq"),
    (lambda: build_row_graded(4, (3, 3, 3), seed=5), 2, (1, 1, 1), "le"),
], ids=["column-2-minors", "row-maximal-minors", "row-2-minors"])
def test_degree_bound_check_certifies_every_order(make, t, bound, mode):
    A = make()
    I = Ideal(A.ring, minors(A, t))
    ok, _ = assert_degree_bound_matches_oracle(I, bound, 8, 3, mode)
    assert ok
    # one basis, the one the series is read off; no order ran Buchberger
    assert len(I._gb_cache) == 1


def test_degree_bound_check_falls_back_where_the_certificate_fails():
    # a strict bound drops every generator, so no order is certified
    A = variable_matrix(2, 3, grading="column")
    I = Ideal(A.ring, minors(A, 2))
    ok, details = assert_degree_bound_matches_oracle(I, (1, 0, 0), 2, 2)
    assert not ok and details["violations"]
    assert set(I._gb_cache) == {o.rows for o in sample_orders(
        A.ring, 2, seed=2, include_permutations=False)}
    # two (1, 1) forms: the reduced basis fits (1, 2) under some sampled
    # orders and not under others
    R = BlockRing((2, 2))
    rng = random.Random(0)
    I = Ideal(R, [random_multihomogeneous_polynomial(R, rng, (1, 1))
                  for _ in range(2)])
    ok, details = assert_degree_bound_matches_oracle(I, (1, 2), 6, 0)
    assert not ok
    assert 1 < len(I._gb_cache) < len(details["orders"])


def test_degree_bound_check_eq():
    A = variable_matrix(2, 3, grading="row")
    I = Ideal(A.ring, minors(A, 2))
    ok, details = degree_bound_check(I, (1, 1), n_orders=6, seed=4, mode="eq")
    assert ok
    with pytest.raises(ValueError):
        degree_bound_check(I, (1, 1), mode="between")


def test_degree_bound_check_rejects_bound_of_wrong_length():
    A = variable_matrix(2, 3, grading="row")
    I = Ideal(A.ring, minors(A, 2))
    for bound in ((1,), (1, 1, 1)):
        for mode in ("le", "eq"):
            with pytest.raises(ValueError, match="bound needs 2 entries"):
                degree_bound_check(I, bound, n_orders=2, mode=mode)
