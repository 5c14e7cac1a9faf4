"""End-to-end verification suites on desk-scale instances.

One test per headline guarantee, each a single pass/fail line under
``pytest -v``: the worked colon example, the determinantal universal-basis
and degree-profile suites, membership and regularity of minor ideals, the
exhaustive small duality scan, equivalence of the two first-variables
tests, the closure-operation suite, and engine self-consistency.
"""

import itertools
import random
import time

import pytest

from multigb.csideals import (closure_suite, degree_bound_check, is_cs,
                              is_csstar, stable_gin, ugb_check,
                              verify_dual_theorem)
from multigb.determinantal import (build_column_graded, build_row_graded,
                                   minors)
from multigb.groebner import (Ideal, ideal_from_monomials,
                              regular_sequence_test)
from multigb.instances import (cs_instance_pool, csstar_instance_pool,
                               random_linear_form, random_ring)
from multigb.monomials import (MonomialIdeal, alexander_dual,
                               hilbert_numerator,
                               quotient_dimension_from_numerator,
                               regularity_strongly_stable)
from multigb.poly import Polynomial
from multigb.ring import BlockRing, exp_divides, lex, weight_order
from oracles import (degrevlex_blocks_reversed, gamma_sequence,
                     graded_dimension, random_graded_ideal,
                     random_monomial_ideal, random_squarefree_ideal)

N_INSTANCES = 20


@pytest.fixture(scope="module")
def column_instances():
    """20 column-graded matrices, shapes (2,3) and (3,4), block sizes in 2..3."""
    rng = random.Random(20260814)
    out = []
    for k in range(N_INSTANCES):
        m, n = (2, 3) if k % 2 == 0 else (3, 4)
        sizes = tuple(rng.randint(2, 3) for _ in range(n))
        A = build_column_graded(m, sizes, seed=rng.randrange(2 ** 31))
        I_max = Ideal(A.ring, minors(A, m))
        I_two = Ideal(A.ring, minors(A, 2))
        out.append((A, I_max, I_two, m))
    return out


@pytest.fixture(scope="module")
def row_instances():
    """20 row-graded matrices, shapes (2,3) and (3,4), block sizes in 2..3."""
    rng = random.Random(814)
    out = []
    for k in range(N_INSTANCES):
        m, n = (2, 3) if k % 2 == 0 else (3, 4)
        sizes = tuple(rng.randint(2, 3) for _ in range(m))
        A = build_row_graded(n, sizes, seed=rng.randrange(2 ** 31))
        I_max = Ideal(A.ring, minors(A, m))
        I_two = Ideal(A.ring, minors(A, 2))
        out.append((A, I_max, I_two, m))
    return out


def test_worked_colon_example():
    # the 3x3 matrix with zeros at (2,3), (3,1), (3,2): the colon of its
    # 2-minor ideal by a cubic form adds exactly two block-1 quadrics,
    # acquiring a generator of multidegree (2,0,0) and leaving the
    # radical-gin family
    started = time.perf_counter()
    R = BlockRing((3, 3, 3))
    x = lambda i, j: Polynomial.variable(R, i, j)
    zero = Polynomial.zero(R)
    entries = [
        [x(1, 1), x(1, 2), x(1, 3)],
        [x(2, 1), x(2, 2), zero],
        [zero, zero, x(3, 3)],
    ]
    gens = []
    for r1, r2 in ((0, 1), (0, 2), (1, 2)):
        for c1, c2 in ((0, 1), (0, 2), (1, 2)):
            g = (entries[r1][c1] * entries[r2][c2]
                 - entries[r1][c2] * entries[r2][c1])
            if not g.is_zero:
                gens.append(g)
    I = Ideal(R, gens)
    F = x(1, 1) * x(2, 1) * x(3, 2) + x(1, 3) * x(2, 3) * x(3, 3)

    J = I.colon(F)
    expected = Ideal(R, list(I.gens) + [x(1, 2) * x(1, 3), x(1, 1) * x(1, 3)])
    assert J.groebner_basis().elements == expected.groebner_basis().elements

    degrees = [g.multidegree() for g in J.minimal_generators()]
    assert (2, 0, 0) in degrees

    assert is_cs(I).verdict == "yes"
    assert is_cs(J).verdict == "no"
    assert time.perf_counter() - started < 10


def test_column_graded_universal_bases(column_instances):
    # maximal minors of a generic column-graded matrix: a sampled universal
    # basis whose sampled initial ideals are squarefree and generated in
    # total degree exactly m
    started = time.perf_counter()
    for k, (A, I_max, _, m) in enumerate(column_instances):
        rep = ugb_check(list(I_max.gens), I_max, n_orders=200, seed=3 * k + 1,
                        include_permutations=False)
        assert rep.orders_tested >= 200
        assert not rep.failures, (k, rep.failures[:3])
        for rec in rep.records:
            for e in rec["lead_exps"]:
                assert max(e) <= 1, (k, rec["order"], e)
                assert sum(e) == m, (k, rec["order"], e)
    assert time.perf_counter() - started < 300


def test_row_graded_degree_profiles(row_instances):
    # row-graded: every sampled reduced-GB element of the maximal-minor
    # ideal has multidegree exactly (1,...,1); 2-minor bases stay squarefree
    # within the same bound
    for k, (A, I_max, I_two, m) in enumerate(row_instances):
        v = A.ring.v
        target = (1,) * v
        ok, details = degree_bound_check(I_max, target, n_orders=20,
                                         seed=5 * k + 2, mode="eq")
        assert ok, (k, details["violations"][:3])
        for rec in details["records"]:
            for e in rec["lead_exps"]:
                assert max(e) <= 1, (k, rec["order"], e)
        ok2, details2 = degree_bound_check(I_two, target, n_orders=20,
                                           seed=5 * k + 3, mode="le")
        assert ok2, (k, details2["violations"][:3])
        for rec in details2["records"]:
            for e in rec["lead_exps"]:
                assert max(e) <= 1, (k, rec["order"], e)


def test_minor_ideal_membership_and_regularity(column_instances, row_instances):
    # maximal- and 2-minor ideals pass the radical-gin test; column-graded
    # maximal minors pass the first-variables test; the gin of the
    # maximal-minor ideal has regularity exactly m (and m never exceeds
    # the number of blocks)
    for k, (A, I_max, I_two, m) in enumerate(column_instances):
        assert m <= A.ring.v
        rep = is_cs(I_max)
        assert rep.verdict == "yes", (k, "column", "max")
        assert regularity_strongly_stable(rep.gin_result) == m
        rep2 = is_cs(I_two)
        assert rep2.verdict == "yes", (k, "column", "two")
        star = is_csstar(I_max)
        assert star.verdict == "yes", (k, "column", "star")
    for k, (A, I_max, I_two, m) in enumerate(row_instances):
        assert m <= A.ring.v
        rep = is_cs(I_max)
        assert rep.verdict == "yes", (k, "row", "max")
        assert regularity_strongly_stable(rep.gin_result) == m
        rep2 = is_cs(I_two)
        assert rep2.verdict == "yes", (k, "row", "two")


def test_duality_biconditional_exhaustive_small():
    # every nonzero proper squarefree monomial ideal of K[x11,x12,x21,x22]
    # with blocks (2,2) and generators of multidegree at most (1,1): the
    # radical-gin property of I is equivalent to the first-variables
    # property of its dual, and the gin identity holds on the yes side
    started = time.perf_counter()
    R = BlockRing((2, 2))
    monos = []
    for b1 in ((), (1,), (2,)):
        for b2 in ((), (1,), (2,)):
            if not b1 and not b2:
                continue
            e = [0] * 4
            if b1:
                e[R.var_index(1, b1[0])] = 1
            if b2:
                e[R.var_index(2, b2[0])] = 1
            monos.append(tuple(e))
    assert len(monos) == 8

    antichains = []
    for r in range(1, len(monos) + 1):
        for subset in itertools.combinations(monos, r):
            if all(not exp_divides(a, b)
                   for a, b in itertools.permutations(subset, 2)):
                antichains.append(subset)
    assert len(antichains) == 46

    for idx, gens in enumerate(antichains):
        I = MonomialIdeal(R, gens, _minimal=True)
        out = verify_dual_theorem(I)
        assert out["passed"], (I.generator_strings(), out)
    assert time.perf_counter() - started < 120


def test_first_variables_tests_agree():
    # the linear-section regular-sequence test and the series-based
    # first-variables test give the same answer on random monomial ideals
    rng = random.Random(606)
    disagreements = 0
    checked = 0
    while checked < 200:
        R = random_ring(rng, max_blocks=3, max_block_size=3, max_vars=8)
        M = random_monomial_ideal(R, rng)
        if M.is_zero or M.is_unit:
            continue
        I = ideal_from_monomials(M)
        rng.randrange(2 ** 31)  # the draw that seeded the gin trials
        if regular_sequence_test(I, gamma_sequence(R)) != is_csstar(I).is_yes:
            disagreements += 1
        checked += 1
    assert checked == 200
    assert disagreements == 0


def test_closure_operations_suite():
    # verified members of each family stay in the family under quotient,
    # colon, intersection, sum and coordinate sections, for the last
    # variable of block 1 and for a random graded linear form
    rng = random.Random(77)
    pools = cs_instance_pool(50, seed=4) + csstar_instance_pool(50, seed=8)
    assert len(pools) == 100
    for k, I in enumerate(pools):
        R = I.ring
        forms = [Polynomial.variable(R, 1, R.block_sizes[0]),
                 random_linear_form(R, rng)]
        for which, L in enumerate(forms):
            out = closure_suite(I, L)
            assert out["passed"], (k, which, out)


def test_engine_self_consistency():
    # Hilbert series do not depend on the computing order; numerators count
    # standard monomials; the Alexander dual is an involution; gins agree
    # across seeds, are idempotent, and preserve the Hilbert series
    rng = random.Random(4242)

    for _ in range(100):
        R = random_ring(rng, max_vars=6)
        I = random_graded_ideal(R, rng)
        orders = [R.storage_order, lex(R), degrevlex_blocks_reversed(R),
                  weight_order(R, tuple(rng.randrange(1, 50)
                                        for _ in range(R.nvars))),
                  weight_order(R, tuple(rng.randrange(1, 50)
                                        for _ in range(R.nvars)))]
        series = [hilbert_numerator(I.initial_ideal(o)) for o in orders]
        assert all(s == series[0] for s in series[1:])

    for _ in range(100):
        R = random_ring(rng, max_vars=6)
        M = random_monomial_ideal(R, rng)
        num = hilbert_numerator(M)
        for total in range(5):
            for a in itertools.product(range(total + 1), repeat=R.v):
                if sum(a) == total:
                    assert quotient_dimension_from_numerator(num, R, a) == \
                        graded_dimension(M, a)

    for _ in range(100):
        R = random_ring(rng, max_vars=6)
        M = random_squarefree_ideal(R, rng)
        if M.is_zero or M.is_unit:
            continue
        assert alexander_dual(alexander_dual(M)) == M

    for k in range(100):
        R = random_ring(rng, max_vars=6)
        I = random_graded_ideal(R, rng)
        G = stable_gin(I, trials=5, seed=7 * k).require()
        assert hilbert_numerator(G) == I.hilbert_series()
        again = stable_gin(ideal_from_monomials(G), trials=3,
                           seed=7 * k + 3).require()
        assert again == G


def test_public_names_resolve():
    import multigb
    assert len(set(multigb.__all__)) == len(multigb.__all__)
    assert [n for n in multigb.__all__ if not hasattr(multigb, n)] == []
