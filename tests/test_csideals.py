"""Membership tests, duality, closure operations, sampled universal bases."""

import hashlib
import json
import random
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigb import csideals, groebner, kernel, monomials
from multigb.csideals import (MembershipReport, closure_suite,
                              degree_bound_check, is_cs, is_csstar,
                              sample_orders, stable_gin, ugb_check,
                              verify_dual_theorem)
from multigb.determinantal import (build_column_graded, build_row_graded,
                                   minors, variable_matrix)
from multigb.errors import (HypothesisNotSatisfiedError,
                            InternalConsistencyError, NotSquarefreeError,
                            RingMismatchError)
from multigb.groebner import (GroebnerBasis, Ideal, ideal_from_monomials,
                              regular_sequence_test)
from multigb.instances import (cs_instance_pool, csstar_instance_pool,
                               random_linear_form, random_ring)
from multigb.monomials import (HilbertNumerator, MonomialIdeal,
                               _numerator, _numerator_key,
                               hilbert_numerator,
                               is_extended_from_first_variables,
                               is_radical_monomial)
from multigb.poly import Polynomial, lead_exponents
from multigb.ring import BlockRing, lex
import oracles
from oracles import (degrevlex_blocks_reversed, gamma_sequence,
                     quotient_by_linear_form, random_graded_ideal,
                     random_monomial_ideal,
                     random_multihomogeneous_polynomial,
                     random_squarefree_ideal)


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


def test_sample_orders_caps_the_permutation_family():
    # 2 block orders x 4! x 4! priorities, each with lex and degrevlex, are
    # 2304 orders; the family stops at the cap, all of them distinct
    orders = sample_orders(BlockRing((4, 4)), 0)
    assert len({o.rows for o in orders}) == len(orders) == \
        csideals.PERMUTATION_FAMILY_CAP == 1024


def test_sample_orders_large_ring_skips_permutations():
    R = BlockRing((5, 4))
    orders = sample_orders(R, 3)
    assert len(orders) == 2 + 3


@pytest.mark.parametrize("blocks, n_weight, seed, include", [
    ((2, 2), 5, 1, True), ((2, 2), 5, 1, False), ((1, 2), 0, 0, True),
    ((2,), 30, 11, True), ((2, 1, 2), 12, 4, False), ((4, 4), 3, 2, True),
    ((3, 3, 3, 3, 3), 200, 0, False), ((3, 3, 3, 3, 3), 20, 5, True),
    ((1,), 1000, 0, True), ((1,), 1000, 3, False)])
def test_sample_orders_match_the_oracle(blocks, n_weight, seed, include):
    # the same draws, orders and names as a weight_order per draw, kept
    # when its rows are new; a one-variable ring at its cap draws all 1000
    R = BlockRing(blocks)
    assert sample_orders(R, n_weight, seed=seed,
                         include_permutations=include) == \
        oracles.sample_orders(R, n_weight, seed=seed,
                              include_permutations=include)


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
    assert rep.evidence == {"gin_generators": ["x[1,1]*x[2,1]"]}
    # two generators in one block have comparable degrees
    J = ideal_from_monomials(MonomialIdeal(R, [(1, 0, 0, 0), (0, 1, 0, 0)]))
    rep = is_csstar(J)
    assert rep.verdict == "no"
    assert rep.gin_result is None
    assert rep.evidence == {}


def test_is_csstar_unit_ideal():
    R = BlockRing((2, 2))
    I = Ideal(R, [Polynomial.one(R)])
    rep = is_csstar(I)
    assert rep.verdict == "yes"


@st.composite
def monomial_ideals(draw):
    """A proper monomial ideal in at most 8 variables and 3 blocks."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                 .filter(lambda sizes: sum(sizes) <= 8))
    R = BlockRing(sizes)
    exps = st.tuples(*[st.integers(0, 2)] * R.nvars).filter(any)
    return ideal_from_monomials(
        MonomialIdeal(R, draw(st.lists(exps, max_size=4))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(monomial_ideals())
def test_gamma_regularity_matches_first_variables_verdict(I):
    # the linear-section criterion: a proper monomial ideal is in the
    # first-variables family exactly when gamma is regular on S/I
    assert (regular_sequence_test(I, gamma_sequence(I.ring))
            == is_csstar(I).is_yes)


def test_csstar_verdicts_run_no_regular_sequence_test(monkeypatch):
    # the criterion is checked on request: neither a verdict on a monomial
    # ideal nor the closure suite runs it, under either name it could have
    def refuse(*args):
        raise AssertionError("regular_sequence_test was called")

    monkeypatch.setattr(groebner, "regular_sequence_test", refuse)
    monkeypatch.setattr(csideals, "regular_sequence_test", refuse,
                        raising=False)
    I = next(I for I in csstar_instance_pool(4, seed=8) if I.is_monomial)
    R = I.ring
    assert is_csstar(I).is_yes
    out = closure_suite(I, x(R, 1, R.block_sizes[0]))
    assert out["families"]["first-variables-gin"] and out["passed"]


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


@settings(max_examples=100, deadline=None, derandomize=True)
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
            J, _ = model(I.ring, series, {})
            if J is None:
                continue
            for a, c in series.coeffs.items():
                for flipped in (-c, c + 1):
                    mutant = HilbertNumerator(
                        series.v, {**series.coeffs, a: flipped})
                    K, _ = model(I.ring, mutant, {})
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
    C = is_csstar(I).gin_result
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
    rep = is_csstar(J)
    assert rep.verdict == "no" and rep.gin_result is None


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


def test_closure_suite_builds_neither_colon_nor_moved_copy(monkeypatch):
    # every result is judged by a series from I + L and identities: no
    # colon, no coordinate change
    pool = cs_instance_pool(6, seed=4) + csstar_instance_pool(6, seed=8)

    def refuse(*args):
        raise AssertionError("closure_suite built a colon or moved copy")

    monkeypatch.setattr(Ideal, "colon", refuse)
    monkeypatch.setattr(Polynomial, "substitute", refuse)
    for I in pool:
        R = I.ring
        assert closure_suite(I, x(R, 1, R.block_sizes[0]))["passed"]
    R = BlockRing((2, 2))
    out = closure_suite(Ideal(R, [x(R, 1, 1) * x(R, 2, 1)]), x(R, 1, 2))
    assert out["families"] == {"radical-gin": True, "first-variables-gin": True}
    assert [(c["item"], c["verdict"], c["detail"]) for c in out["checks"]
            if c["item"] in (1, 5) and c["detail"]] == [
        (1, "yes", "dropped x[1,2]"), (5, "yes", "dropped x[1,2]")]


def test_closure_suite_formats_no_membership_report(monkeypatch):
    # I's two model ideals are read directly: no report, so no generator
    # strings for an evidence dict the suite would throw away
    def refuse(*args):
        raise AssertionError("closure_suite built a membership report")

    pool = cs_instance_pool(4, seed=4) + csstar_instance_pool(4, seed=8)
    for name in ("is_cs", "is_csstar"):
        monkeypatch.setattr(csideals, name, refuse)
    monkeypatch.setattr(MonomialIdeal, "generator_strings", refuse)
    for I in pool:
        R = I.ring
        assert closure_suite(I, x(R, 1, R.block_sizes[0]))["passed"]


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
    # the series closure_suite judges are those of I, I + L, I : L,
    # L(I : L), the quotient by L and the section, each as a fresh basis of
    # the real ideal gives it
    judged = []
    for name in ("_radical_model", "_first_variables_model"):
        def spy(ring, series, numerators, model=getattr(csideals, name)):
            judged.append((ring, series))
            return model(ring, series, numerators)
        monkeypatch.setattr(csideals, name, spy)

    def fresh(J):
        return J.ring, Ideal(J.ring, J.gens).hilbert_series()

    pool = cs_instance_pool(15, seed=4) + csstar_instance_pool(15, seed=8)
    rng = random.Random(77)
    quotients = 0
    for I in pool:
        R = I.ring
        for L in (x(R, 1, R.block_sizes[0]), random_linear_form(R, rng)):
            judged.clear()
            out = closure_suite(I, L)
            assert out["passed"]
            colon = I.colon(L)
            expected = {fresh(I), fresh(colon)}
            if out["families"]["first-variables-gin"]:
                expected.add(fresh(Ideal(R, [L * g for g in colon.gens])))
            if out["families"]["radical-gin"]:
                expected.add(fresh(I + L))
                try:
                    expected.add(fresh(oracles.coordinate_section(
                        I, max(L.support_vars()))))
                except HypothesisNotSatisfiedError:
                    pass
            try:
                expected.add(fresh(quotient_by_linear_form(I, L)[0]))
                quotients += 1
            except HypothesisNotSatisfiedError:
                pass
            assert set(judged) == expected
    assert quotients > 30


# SHA-256 of the transcripts below as closure_suite gave them when it read
# every series afresh, I's own series included
CLOSURE_TRANSCRIPTS = (
    "0a9d782f51feb7ce233c551f492327d526669541996319407b4e074b118f2764")


def test_closure_suite_reads_each_series_once_per_call(monkeypatch):
    # a reading is a function of its model, ring and series, so a call
    # reads each distinct one once; the next call reads them again
    reads = []
    for name in ("_radical_model", "_first_variables_model"):
        def spy(ring, series, numerators, model=getattr(csideals, name),
                name=name):
            reads.append((name, ring, series))
            return model(ring, series, numerators)
        monkeypatch.setattr(csideals, name, spy)

    pool = cs_instance_pool(8, seed=4) + csstar_instance_pool(8, seed=8)
    rng = random.Random(31)
    transcripts, saved = [], 0
    for I in pool:
        R = I.ring
        own = {(name, R, I.hilbert_series())
               for name in ("_radical_model", "_first_variables_model")}
        for L in (x(R, 1, R.block_sizes[0]), random_linear_form(R, rng)):
            reads.clear()
            out = closure_suite(I, L)
            assert len(reads) == len(set(reads))
            assert own <= set(reads)
            saved += 2 + sum(c["applicable"] for c in out["checks"]) \
                - len(reads)
            transcripts.append(out)
    assert saved > 0
    text = json.dumps(transcripts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLOSURE_TRANSCRIPTS


def test_closure_suite_computes_each_numerator_key_once_per_call(
        monkeypatch):
    # every numerator of one call, the section's and the checks' included,
    # is kept in one dict by key, so no key is computed twice in a call,
    # whether in csideals or in monomials; the dict dies with the call, so
    # the next call computes the same keys again
    computed, keyed = [], []
    for module in (monomials, csideals):
        def counted(key, inner=module._numerator):
            computed.append(key)
            return inner(key)
        monkeypatch.setattr(module, "_numerator", counted)

    def key_of(J, inner=csideals._ideal_key):
        keyed.append(J)
        return inner(J)

    monkeypatch.setattr(csideals, "_ideal_key", key_of)
    pool = cs_instance_pool(8, seed=4) + csstar_instance_pool(8, seed=8)
    rng = random.Random(31)
    shared = 0
    for I in pool:
        R = I.ring
        I.hilbert_series()  # kept by I, so only the first call would ask
        for L in (x(R, 1, R.block_sizes[0]), random_linear_form(R, rng)):
            calls = []
            for _ in range(2):
                computed.clear()
                keyed.clear()
                closure_suite(I, L)
                calls.append(list(computed))
                assert len(computed) == len(set(computed))
                shared += len(keyed) - len(computed)
            assert calls[0] == calls[1] and calls[0]
    assert shared > 0


def test_closure_suite_computes_the_sum_numerator_once_per_call(
        monkeypatch):
    # the numerator of in(I + L) joins the call's dict of numerators, so a
    # model read off the sum's series, or any other model of that key,
    # takes it instead of computing it again
    computed = []
    for module in (monomials, csideals):
        def counted(key, inner=module._numerator):
            computed.append(key)
            return inner(key)
        monkeypatch.setattr(module, "_numerator", counted)
    pool = cs_instance_pool(8, seed=4) + csstar_instance_pool(8, seed=8)
    rng = random.Random(31)
    for I in pool:
        R = I.ring
        I.hilbert_series()
        for L in (x(R, 1, R.block_sizes[0]), random_linear_form(R, rng)):
            key = monomials._ideal_key((I + L).initial_ideal())
            computed.clear()
            closure_suite(I, L)
            assert computed.count(key) == 1


def test_verify_dual_theorem_computes_each_numerator_key_once(monkeypatch):
    # the four numerators of a call, of I, its dual and the two models,
    # share one dict: a model with the key of I or of the dual takes it;
    # these ideals are in the family, so both models exist
    computed = []

    def counted(key):
        computed.append(key)
        return _numerator(key)

    monkeypatch.setattr(csideals, "_numerator", counted)
    R = BlockRing((2, 2))
    shared = 0
    for gens in ([(1, 0, 1, 0)], [(1, 0, 1, 0), (0, 1, 1, 0)],
                 [(1, 0, 0, 0)]):
        computed.clear()
        out = verify_dual_theorem(MonomialIdeal(R, gens))
        assert out["passed"] and out["identity_checked"]
        assert len(computed) == len(set(computed))
        shared += 4 - len(computed)
    assert shared > 0


def test_minimal_generator_call_sites_pass_int_tuples(monkeypatch):
    # MonomialIdeal(_minimal=True) takes its generators as they are, so each
    # internal call site must pass minimal int tuples of the ring's length
    sites = []
    inner = MonomialIdeal.__init__

    def checked(self, ring, gens, *, _minimal=False):
        if _minimal:
            gens = list(gens)
            assert all(type(e) is tuple and len(e) == ring.nvars
                       and all(type(c) is int and c >= 0 for c in e)
                       for e in gens)
            assert sorted(gens) == list(MonomialIdeal(ring, gens).gens)
            sites.append(traceback.extract_stack(limit=2)[0].name)
        inner(self, ring, gens, _minimal=_minimal)

    monkeypatch.setattr(MonomialIdeal, "__init__", checked)
    R, I = remark_matrix_ideal()
    assert I.initial_ideal(lex(R)).gens  # groebner.Ideal.initial_ideal
    assert stable_gin(I, seed=1).result.gens  # gin._trial
    assert csideals.alexander_dual(MonomialIdeal(R, [(1,) * R.nvars])).gens
    S = BlockRing((2,))
    f = x(S, 1, 1) ** 2 - x(S, 1, 2) ** 2
    g = x(S, 1, 1) * x(S, 1, 2)
    assert not ugb_check([f, g], Ideal(S, [f, g]), n_orders=30,
                         seed=11).passed  # csideals._sampled_records
    assert set(sites) == {"initial_ideal", "_trial", "alexander_dual",
                          "_sampled_records"}


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
    # is settled by the Hilbert series, read off the one storage-order basis
    # it needs; the candidates are I's generators, so no membership test
    # runs
    B = build_column_graded(3, (3, 3, 3, 3, 3), seed=7)
    cands = minors(B, 3)
    I = Ideal(B.ring, cands)
    rep = ugb_check(cands, I, n_orders=200, include_permutations=False)
    assert rep.passed
    assert rep.certified == rep.orders_tested == 202
    assert len(I._gb_cache) == 1


def test_sampled_records_compute_one_numerator_per_key(monkeypatch):
    # the ugb benchmark instance at seed 0: its 202 orders give 143
    # distinct lead sets, all with one numerator key, as in each block
    # every lead uses one and the same variable; so one numerator certifies
    # every order, no certified order builds a lead ideal, and the records
    # are those of a fresh Buchberger run under every order
    B = build_column_graded(3, (3, 3, 3, 3, 3), seed=7)
    cands = minors(B, 3)
    I = Ideal(B.ring, cands)
    orders = sample_orders(B.ring, 200, seed=0, include_permutations=False)
    leads = lead_exponents(cands, orders)
    numerators = []

    def counted(key):
        numerators.append(key)
        return _numerator(key)

    monkeypatch.setattr(csideals, "_numerator", counted)
    settled = csideals._sampled_records(I, orders, leads)
    lead_sets = {frozenset(exps) for exps in leads}
    assert (len(orders), len(lead_sets), len(numerators)) == (202, 143, 1)
    assert all(certified and lead_ideal is None
               for lead_ideal, _, certified in settled)
    assert [record for _, record, _ in settled] == \
        ugb_oracle(cands, I, orders)[0]


def test_sampled_records_reject_malformed_leads():
    # a lead set is validated when its lead ideal is built
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 1)])
    orders = sample_orders(R, 1, seed=0)
    with pytest.raises(RingMismatchError, match="exponent length"):
        csideals._sampled_records(I, orders, [[(1, 0, 1)]] * len(orders))
    with pytest.raises(ValueError, match="negative exponent"):
        csideals._sampled_records(I, orders,
                                  [[(1, 0, -1, 0)]] * len(orders))


@st.composite
def sampled_cases(draw):
    """An ideal, multigraded or not, a few sampled orders and, for each, a
    lead list: the leads of I's reduced basis with a duplicate and a
    multiple added, drawn exponents, an earlier list with the variables
    renamed inside each block, or nothing."""
    R = BlockRing(draw(st.sampled_from([(2,), (2, 2), (1, 2), (3, 2)])))
    I = random_graded_ideal(R, random.Random(draw(st.integers(0, 10**6))),
                            max_gens=2)
    if draw(st.booleans()):  # a constant term: not multigraded
        one = Polynomial.monomial(R, (0,) * R.nvars, 1)
        I = Ideal(R, [I.gens[0] + one, *I.gens[1:]])
    orders = sample_orders(R, draw(st.integers(0, 3)),
                           seed=draw(st.integers(0, 3)),
                           include_permutations=False)
    exps = st.tuples(*[st.integers(0, 2)] * R.nvars)
    leads = []
    for o in orders:
        kind = draw(st.sampled_from(["basis", "drawn", "renamed", "empty"]))
        if kind == "basis":
            basis = I.groebner_basis(o).lead_exponents()
            e = draw(st.sampled_from(basis))
            more = tuple(a + b for a, b in zip(e, draw(exps)))
            leads.append(basis + [e, more])
        elif kind == "drawn":
            leads.append(draw(st.lists(exps, max_size=4)))
        elif kind == "renamed" and leads:
            before = draw(st.sampled_from(leads))
            moved = []  # moved[v]: the variable v is renamed to
            for b in range(1, R.v + 1):
                moved += draw(st.permutations(list(R.block_vars(b))))
            leads.append([tuple(e[moved.index(v)] for v in range(R.nvars))
                          for e in before])
        else:
            leads.append([])
    return I, orders, leads


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sampled_cases())
def test_sampled_records_match_the_oracle(case):
    I, orders, leads = case
    settled = csideals._sampled_records(I, orders, leads)
    expected = oracles.sampled_records(I, orders, leads)
    assert [s[1:] for s in settled] == [e[1:] for e in expected]
    for (lead_ideal, _, certified), (oracle_ideal, _, _) in zip(settled,
                                                                 expected):
        assert lead_ideal is None if certified else lead_ideal == oracle_ideal


def test_sampled_records_keep_each_lead_set_of_a_shared_key(monkeypatch):
    # x11*x21 and x12*x22 differ by renaming inside each block, so they
    # share one numerator key; each order still records its own lead
    R = BlockRing((2, 2))
    f = x(R, 1, 1) * x(R, 2, 1) + x(R, 1, 2) * x(R, 2, 2)
    I = Ideal(R, [f])
    orders = [lex(R), lex(R, (1, 0, 3, 2))]
    leads = lead_exponents([f], orders)
    assert leads == [[(1, 0, 1, 0)], [(0, 1, 0, 1)]]
    assert _numerator_key(R, leads[0])[0] == _numerator_key(R, leads[1])[0]
    numerators = []

    def counted(key):
        numerators.append(key)
        return _numerator(key)

    monkeypatch.setattr(csideals, "_numerator", counted)
    settled = csideals._sampled_records(I, orders, leads)
    assert len(numerators) == 1
    assert [(record["lead_exps"], certified)
            for _, record, certified in settled] == [
        ([(1, 0, 1, 0)], True), ([(0, 1, 0, 1)], True)]
    assert [record for _, record, _ in settled] == \
        ugb_oracle([f], I, orders)[0]


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


def test_ugb_check_tests_no_generator_for_membership(monkeypatch):
    # a candidate that is a generator of I lies in I without a normal form
    calls = []
    inner = GroebnerBasis.contains

    def counted(self, f):
        calls.append(f)
        return inner(self, f)

    monkeypatch.setattr(GroebnerBasis, "contains", counted)
    A = variable_matrix(2, 3, grading="column")
    I = Ideal(A.ring, minors(A, 2))
    assert ugb_check(I.gens, I, n_orders=4).passed
    assert calls == []
    # any other candidate is still tested, and a non-member raises
    outside = x(A.ring, 1, 1)
    with pytest.raises(HypothesisNotSatisfiedError, match="outside the ideal"):
        ugb_check(list(I.gens) + [outside], I, n_orders=4)
    assert calls == [outside]


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
    assert details["violations"] == violations
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


@pytest.mark.parametrize("make, t, b, series", [
    (lambda: build_column_graded(3, (3, 3, 3, 3), seed=5), 2, (1, 1, 1, 1),
     True),
    (lambda: build_row_graded(4, (3, 3, 3), seed=5), 3, (1, 1, 1), True),
    # squares fit the bound and no series skips their pairs, so runs
    # started at 2-bit fields outgrow them midway
    (lambda: build_column_graded(3, (3, 3, 3), seed=1), 2, (2, 2, 2),
     False),
], ids=["column-2-minors", "row-maximal-minors", "column-squares"])
@pytest.mark.parametrize("start", [None, 1, 2])
def test_shared_truncated_leads_equal_fresh_runs(make, t, b, series, start,
                                                 monkeypatch):
    # the truncated runs of one batch share the packed generators and the
    # lcm data; each order must still get the leads a run of its own gets,
    # also when a run repacks wider (1-bit fields hold no generator)
    A = make()
    I = Ideal(A.ring, minors(A, t))
    if series:
        I.hilbert_series()
    orders = sample_orders(A.ring, 8, seed=3, include_permutations=False)
    fresh = [next(I._truncated_leads([o], b)) for o in orders]
    widths = []
    inner = groebner._buchberger

    def recorded(gens, layout, *args):
        widths.append(layout.bits)
        return inner(gens, layout, *args)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    if start is not None:
        monkeypatch.setattr(kernel, "bits_for", lambda polys: start)
    assert list(I._truncated_leads(orders, b)) == fresh
    if start == 1:
        assert min(widths) == 2
    elif start == 2 and not series:
        # a widened width holds for the rest of the batch
        assert widths == [2] + [4] * len(orders)


def test_degree_bound_check_keeps_no_cache_on_the_ideal():
    # the truncated runs' shared data dies with the call
    A = build_column_graded(3, (3, 3, 3, 3), seed=5)
    I = Ideal(A.ring, minors(A, 2))
    keys = set(vars(I))
    degree_bound_check(I, (1, 1, 1, 1), n_orders=4, seed=0)
    assert set(vars(I)) == keys


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


def ugb_lead_sets():
    # the candidates' lead sets of the ugb benchmark instance at seed 0
    B = build_column_graded(3, (3, 3, 3, 3, 3), seed=7)
    orders = sample_orders(B.ring, 200, seed=0, include_permutations=False)
    return [MonomialIdeal(B.ring, leads)
            for leads in lead_exponents(minors(B, 3), orders)]


def truncated_lead_sets():
    # the truncated leads degree_bound_check reads on the column 2-minors
    A = build_column_graded(3, (3, 3, 3, 3), seed=5)
    I = Ideal(A.ring, minors(A, 2))
    I.hilbert_series()
    return [MonomialIdeal(A.ring, leads) for leads in I._truncated_leads(
        sample_orders(A.ring, 8, seed=3, include_permutations=False),
        (1, 1, 1, 1))]


def mixed_polarization_sets():
    # squarefree sets, sets holding x^2 and x^3 in one ring, and sets of
    # two rings with other block sizes
    R, S = BlockRing((2, 2)), BlockRing((1, 3))
    return [MonomialIdeal(R, gens) for gens in [
        [(1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)],
        [(1, 1, 0, 0), (0, 1, 0, 1)],
        [(1, 1, 0, 0), (1, 0, 1, 0)],
        [(2, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)],
        [(3, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)],
        [(2, 1, 0, 0), (0, 3, 0, 1), (0, 0, 1, 1)]]] + [
        MonomialIdeal(S, gens) for gens in [
            [(1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)],
            [(2, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)],
            [(1, 1, 0, 0), (0, 1, 0, 1)]]]


@pytest.mark.parametrize("lead_sets, oracle", [
    (mixed_polarization_sets, oracles.hilbert_numerator_inclusion_exclusion),
    (ugb_lead_sets, oracles.hilbert_numerator_packed),
    (truncated_lead_sets, oracles.hilbert_numerator_packed)],
    ids=["mixed-polarizations", "ugb", "degree-bound-2-minors"])
def test_numerator_of_each_key_matches_the_oracles(lead_sets, oracle):
    # the lead sets _sampled_records certifies by key: each key's
    # numerator is its lead ideal's, by the public call and by an
    # independent oracle (inclusion-exclusion where the sets are small,
    # the recursion on the unpolarized exponents otherwise)
    for J in lead_sets():
        num = _numerator(_numerator_key(J.ring, J.gens)[0])
        assert num == hilbert_numerator(J) == oracle(J)


def test_degree_bound_check_rejects_inhomogeneous_input():
    # the check reads the Hilbert series, which needs multigraded
    # generators: it says so before computing it
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 1) - x(R, 1, 2),
                  x(R, 1, 2) * x(R, 2, 2)])
    with pytest.raises(HypothesisNotSatisfiedError,
                       match="degree bound check needs multigraded"):
        degree_bound_check(I, (1, 1), n_orders=2)
    assert I._gb_cache == {}


def degree_bound_verdict_oracle(I, bound, n_orders, seed, mode):
    """The verdict of the sampled full bases and of the minimal
    generators."""
    _, violations = degree_bound_oracle(I, bound, n_orders, seed, mode)
    degrees = [d for d in (g.multidegree() for g in I.minimal_generators())
               if d != bound and (mode == "eq" or
                                  any(x > y for x, y in zip(d, bound)))]
    return not violations and not degrees


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_degree_bound_check_needs_no_minimal_generator_pass(data):
    # every reduced basis has an element of each minimal generator's
    # multidegree, so the sampled orders alone decide the verdict
    R = BlockRing(data.draw(st.sampled_from([(2,), (2, 2), (1, 2), (2, 1, 2)])))
    I = random_graded_ideal(R, random.Random(data.draw(st.integers(0, 10**6))))
    bound = tuple(data.draw(st.lists(st.integers(0, 2), min_size=R.v,
                                     max_size=R.v)))
    mode = data.draw(st.sampled_from(["le", "eq"]))
    seed = data.draw(st.integers(0, 3))
    ok, details = degree_bound_check(I, bound, n_orders=3, seed=seed,
                                     mode=mode)
    assert ok == degree_bound_verdict_oracle(I, bound, 3, seed, mode)
    assert all(v["where"] != "minimal generator"
               for v in details["violations"])


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
