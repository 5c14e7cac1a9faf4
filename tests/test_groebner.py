"""Buchberger engine and derived ideal operations."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multigb import groebner, kernel
from multigb.errors import (HypothesisNotSatisfiedError,
                            InternalConsistencyError, ResourceLimitError,
                            RingMismatchError)
from multigb.csideals import gamma_sequence, sample_orders
from multigb.determinantal import build_column_graded, minors
from multigb.groebner import (EngineLimits, Ideal, _buchberger,
                              coordinate_section, exact_divide,
                              ideal_from_monomials, regular_sequence_test)
from multigb.instances import (cs_instance_pool, random_graded_ideal,
                               random_linear_form, random_monomial_ideal,
                               random_multihomogeneous_polynomial,
                               random_ring)
from multigb.monomials import MonomialIdeal, colon_monomial
from multigb.poly import Polynomial
from multigb.ring import (BlockRing, degrevlex, elimination_order, lex,
                          weight_order)
from oracles import groebner_basis as groebner_basis_oracle
from oracles import intersect_monomial, quotient_by_linear_form
from oracles import normal_form as normal_form_oracle
from test_kernel import orders


def x(R, i, j):
    return Polynomial.variable(R, i, j)


@pytest.fixture
def R33():
    return BlockRing((3, 3, 3))


def two_minor(R, rows, cols):
    (i1, i2), (j1, j2) = rows, cols
    return x(R, i1, j1) * x(R, i2, j2) - x(R, i1, j2) * x(R, i2, j1)


def test_principal_ideal_gb(R33):
    f = two_minor(R33, (1, 2), (1, 2))
    G = Ideal(R33, [f]).groebner_basis()
    assert len(G) == 1
    assert G[0] == f.monic(G.order)


def test_two_minors_of_variable_matrix_initial_ideal(R33):
    # all 2x2 minors of the 3x3 matrix of distinct variables x[i,j]:
    # the nine antidiagonals are exactly the lead terms
    gens = [two_minor(R33, rows, cols)
            for rows in ((1, 2), (1, 3), (2, 3))
            for cols in ((1, 2), (1, 3), (2, 3))]
    G = Ideal(R33, gens).groebner_basis()
    leads = {str(Polynomial.monomial(R33, e)) for e in G.lead_exponents()}
    antidiagonals = {
        f"x[{i1},{j2}]*x[{i2},{j1}]"
        for (i1, i2) in ((1, 2), (1, 3), (2, 3))
        for (j1, j2) in ((1, 2), (1, 3), (2, 3))
    }
    assert leads == antidiagonals


def test_gb_lead_reduction_property(R33):
    # no lead term of the reduced basis divides another, and every
    # generator reduces to zero
    gens = [two_minor(R33, (1, 2), (1, 2)), two_minor(R33, (2, 3), (2, 3)),
            x(R33, 1, 1) * x(R33, 3, 3) - x(R33, 2, 2) ** 2]
    I = Ideal(R33, gens)
    G = I.groebner_basis()
    leads = G.lead_exponents()
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not all(p <= q for p, q in zip(a, b))
    for g in gens:
        assert G.contains(g)


def test_spoly_criterion_on_random_pairs():
    # Buchberger criterion: all S-polynomials of the computed basis reduce to 0
    R = BlockRing((2, 2))
    rng = random.Random(5)
    for _ in range(10):
        gens = []
        for _ in range(3):
            terms = [(tuple(rng.randrange(3) for _ in range(4)),
                      rng.randrange(1, R.characteristic)) for _ in range(3)]
            gens.append(Polynomial(R, terms))
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        G = Ideal(R, gens).groebner_basis()
        m = G.order.rows
        p = R.characteristic
        raws = [kernel.sort_terms(g.terms, m, p) for g in G]
        layout = kernel.layout(m, kernel.bits_for(raws))
        packed = [layout.element(layout.pack(g)) for g in raws]
        for i in range(len(packed)):
            for j in range(i + 1, len(packed)):
                s = kernel.spoly(packed[i], packed[j], layout, p)
                assert kernel.normal_form(s, packed, layout, p) == []


def test_membership(R33):
    f = two_minor(R33, (1, 2), (1, 2))
    g = two_minor(R33, (1, 2), (1, 3))
    I = Ideal(R33, [f, g])
    assert I.contains(x(R33, 1, 1) * f - x(R33, 2, 2) * g)
    assert not I.contains(x(R33, 1, 1))
    assert I.contains(f)
    assert not all(Ideal(R33, [f]).contains(h) for h in I.gens)


def test_intersect_vs_monomial_lcm_rule():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 1), x(R, 1, 2) ** 2])
    J = Ideal(R, [x(R, 1, 1) * x(R, 1, 2), x(R, 2, 2)])
    K = I.intersect(J)
    MI = MonomialIdeal(R, [e for e, _ in (g.terms[0] for g in I.gens)])
    MJ = MonomialIdeal(R, [e for e, _ in (g.terms[0] for g in J.gens)])
    expect = intersect_monomial(MI, MJ)
    assert K.monomial_ideal().gens == expect.gens


def test_intersect_principal():
    R = BlockRing((2,))
    a, b = x(R, 1, 1), x(R, 1, 2)
    K = Ideal(R, [a * b]).intersect(Ideal(R, [b * b]))
    assert K.equals(Ideal(R, [a * b * b]))


def test_colon_vs_monomial_oracle():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 1) ** 2, x(R, 1, 2) * x(R, 2, 2)])
    f = x(R, 2, 1)
    Q = I.colon(f)
    M = MonomialIdeal(R, [g.terms[0][0] for g in I.gens])
    expect = colon_monomial(M, f.terms[0][0])
    assert Q.monomial_ideal().gens == expect.gens


def test_colon_enlarges(R33):
    f = two_minor(R33, (1, 2), (1, 2))
    F = x(R33, 1, 1)
    I = Ideal(R33, [F * f])
    assert I.colon(F).equals(Ideal(R33, [f]))


def test_colon_by_zero_rejected(R33):
    I = Ideal(R33, [x(R33, 1, 1)])
    with pytest.raises(ValueError):
        I.colon(Polynomial.zero(R33))


def test_eliminate():
    R = BlockRing((2, 2))
    # from x11 - x21*x22 and x12 - x21, eliminating block 1 leaves nothing;
    # eliminating block 2 from (x21 - x11, x22 - x12^2) gives relations in block 1
    I = Ideal(R, [x(R, 2, 1) - x(R, 1, 1), x(R, 2, 2) - x(R, 1, 2) ** 2,
                  x(R, 2, 1) * x(R, 2, 2) - 1])
    E = I.eliminate([R.var_index(2, 1), R.var_index(2, 2)])
    expect = x(R, 1, 1) * x(R, 1, 2) ** 2 - 1
    assert E.equals(Ideal(R, [expect]))
    for g in E.gens:
        assert not g.support_vars() & {R.var_index(2, 1), R.var_index(2, 2)}


def test_exact_divide(R33):
    f = two_minor(R33, (1, 2), (1, 2))
    g = x(R33, 3, 1) + x(R33, 3, 2)
    assert exact_divide(f * g, g) == f
    with pytest.raises(InternalConsistencyError):
        exact_divide(f + 1, g)


def test_exact_divide_by_zero(R33):
    with pytest.raises(ValueError, match="exact division by zero"):
        exact_divide(x(R33, 1, 1), Polynomial.zero(R33))


def test_minimal_generators(R33):
    f = two_minor(R33, (1, 2), (1, 2))
    I = Ideal(R33, [f, x(R33, 1, 1) * f, x(R33, 2, 2) * f])
    mins = I.minimal_generators()
    assert len(mins) == 1
    assert mins[0].multidegree() == (1, 1, 0)


def test_minimal_generators_multidegrees(R33):
    gens = [two_minor(R33, rows, cols)
            for rows in ((1, 2), (1, 3), (2, 3))
            for cols in ((1, 2), (1, 3), (2, 3))]
    mins = Ideal(R33, gens).minimal_generators()
    assert len(mins) == 9
    assert {m.multidegree() for m in mins} == {
        (1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_resource_limits(R33):
    gens = [two_minor(R33, rows, cols)
            for rows in ((1, 2), (1, 3), (2, 3))
            for cols in ((1, 2), (1, 3), (2, 3))]
    I = Ideal(R33, gens, limits=EngineLimits(max_basis=2))
    with pytest.raises(ResourceLimitError):
        I.groebner_basis()
    J = Ideal(R33, gens, limits=EngineLimits(max_terms=1))
    with pytest.raises(ResourceLimitError):
        J.groebner_basis()
    # the abort carries the driver's partial state, also in its message
    for limits in (EngineLimits(max_basis=2), EngineLimits(max_terms=1)):
        with pytest.raises(ResourceLimitError) as info:
            Ideal(R33, gens, limits=limits).groebner_basis()
        err = info.value
        assert isinstance(err.basis_size, int) and err.basis_size >= 1
        assert isinstance(err.pending_pairs, int) and err.pending_pairs >= 0
        assert err.degree >= 2
        assert (f"basis size {err.basis_size}, {err.pending_pairs} pending "
                f"pairs, degree {err.degree}") in str(err)
    with pytest.raises(ResourceLimitError) as info:
        Ideal(R33, gens, limits=EngineLimits(max_basis=2)).groebner_basis()
    assert info.value.basis_size > 2


def test_max_basis_is_checked_as_the_basis_grows(R33):
    # the nine 2-minors are independent: the generator loop alone would
    # grow the basis to 9 elements before the first pair is taken
    gens = [two_minor(R33, rows, cols)
            for rows in ((1, 2), (1, 3), (2, 3))
            for cols in ((1, 2), (1, 3), (2, 3))]
    with pytest.raises(ResourceLimitError) as info:
        Ideal(R33, gens, limits=EngineLimits(max_basis=2)).groebner_basis()
    assert info.value.basis_size <= 3


def test_monomial_ideal_extraction():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 1), x(R, 1, 1) ** 2 * x(R, 2, 1)])
    M = I.monomial_ideal()
    assert isinstance(M, MonomialIdeal)
    assert M.gens == ((1, 0, 1, 0),)
    J = Ideal(R, [x(R, 1, 1) + x(R, 1, 2)])
    with pytest.raises(HypothesisNotSatisfiedError):
        J.monomial_ideal()


def test_ideal_from_monomials_round_trip():
    R = BlockRing((2, 2))
    M = MonomialIdeal(R, [(1, 0, 1, 0), (0, 2, 0, 0)])
    I = ideal_from_monomials(M)
    assert I.is_monomial
    assert I.monomial_ideal().gens == M.gens


def test_quotient_by_linear_form():
    R = BlockRing((2, 2))
    # mod x[1,1] - x[1,2]: the highest variable x[1,2] is rewritten to x[1,1],
    # so the minor x11*x22 - x12*x21 maps to x11*(x22 - x21)
    f = x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1)
    I = Ideal(R, [f])
    L = x(R, 1, 1) - x(R, 1, 2)
    Q, dropped = quotient_by_linear_form(I, L)
    small = Q.ring
    assert small.block_sizes == (1, 2)
    assert dropped == R.var_index(1, 2)
    y = Polynomial.variable(small, 1, 1)
    z1 = Polynomial.variable(small, 2, 1)
    z2 = Polynomial.variable(small, 2, 2)
    assert Q.equals(Ideal(small, [y * z2 - y * z1]))


def test_quotient_by_linear_form_rejects_size_one_block():
    R = BlockRing((1, 2))
    I = Ideal(R, [x(R, 1, 1)])
    with pytest.raises(HypothesisNotSatisfiedError):
        quotient_by_linear_form(I, x(R, 1, 1))


def test_quotient_rejects_nonlinear():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 1)])
    with pytest.raises(HypothesisNotSatisfiedError):
        quotient_by_linear_form(I, x(R, 1, 1) * x(R, 1, 2))
    with pytest.raises(HypothesisNotSatisfiedError):
        quotient_by_linear_form(I, x(R, 1, 1) + x(R, 2, 1))


def test_coordinate_section():
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 2) * x(R, 2, 1), x(R, 1, 1) * x(R, 2, 2)])
    S = coordinate_section(I, R.var_index(1, 2))
    small = S.ring
    assert small.block_sizes == (1, 2)
    y = Polynomial.variable(small, 1, 1)
    z2 = Polynomial.variable(small, 2, 2)
    assert S.equals(Ideal(small, [y * z2]))
    # a principal prime has zero section: no multiple of the minor is
    # free of the eliminated variable
    f = x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1)
    Z = coordinate_section(Ideal(R, [f]), R.var_index(1, 2))
    assert Z.is_zero_ideal
    # an ideal that is not multigraded gets no series
    g = x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 1)
    assert coordinate_section(Ideal(R, [g]), R.var_index(1, 2))._series is None


def test_coordinate_section_series_from_elimination_leads():
    # the leads of the kept elimination basis give every section the
    # series that a fresh basis of the section gives
    sections = 0
    for I in cs_instance_pool(15, seed=4):
        for var in range(I.ring.nvars):
            try:
                S = coordinate_section(I, var)
            except HypothesisNotSatisfiedError:
                continue  # the only variable of its block
            sections += 1
            assert S._series is not None and not S._gb_cache
            assert S._series == Ideal(S.ring, S.gens).hilbert_series()
    assert sections == 87


@pytest.mark.parametrize("call, error", [
    (lambda I: elimination_order(4, {9}), ValueError),
    (lambda I: I.eliminate({9}), ValueError),
    (lambda I: I.eliminate({-1}), ValueError),
    (lambda I: coordinate_section(I, 4), RingMismatchError),
    (lambda I: coordinate_section(I, -1), RingMismatchError),
], ids=["order", "eliminate-9", "eliminate--1", "section-4", "section--1"])
def test_variable_indices_outside_the_ring_are_rejected(call, error):
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 2) * x(R, 2, 1), x(R, 1, 1) * x(R, 2, 2)])
    with pytest.raises(error, match="0..3|not in the ring"):
        call(I)


def test_regular_sequence_test():
    R = BlockRing((2, 2))
    # x12 - x11, x22 - x21 is regular on S/(x11*x21)
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 1)])
    gamma = [x(R, 1, 2) - x(R, 1, 1), x(R, 2, 2) - x(R, 2, 1)]
    assert regular_sequence_test(I, gamma)
    # x11 is a zerodivisor on S/(x11*x12)
    J = Ideal(R, [x(R, 1, 1) * x(R, 1, 2)])
    assert not regular_sequence_test(J, [x(R, 1, 1), x(R, 1, 2)])
    # x12 - x11 maps to zero in S/(x11, x12)
    K = Ideal(R, [x(R, 1, 1), x(R, 1, 2)])
    assert not regular_sequence_test(K, [x(R, 1, 2) - x(R, 1, 1)])
    with pytest.raises(ValueError):
        regular_sequence_test(I, [Polynomial.zero(R)])


def test_regular_sequence_unit_quotient():
    R = BlockRing((2,))
    I = Ideal(R, [x(R, 1, 1)])
    forms = [x(R, 1, 2) - x(R, 1, 1)]
    # quotient by I + (forms) is the base field after one step, which is
    # still a proper quotient
    assert regular_sequence_test(I, forms)


def test_regular_sequence_properness_needs_no_basis_of_the_sum(monkeypatch):
    R = BlockRing((2, 2))
    forms = gamma_sequence(R)
    unit = Ideal(R, [Polynomial.one(R), x(R, 1, 1)])
    assert not regular_sequence_test(unit, forms)
    assert not regular_sequence_test(unit, [])
    calls = []
    original = Ideal.contains

    def counted(self, f):
        calls.append(f)
        return original(self, f)

    monkeypatch.setattr(Ideal, "contains", counted)
    # I multigraded and every form linear: I + (forms) is homogeneous
    assert regular_sequence_test(Ideal(R, [x(R, 1, 1) * x(R, 2, 1)]), forms)
    assert calls == []
    # an inhomogeneous I still asks whether the sum contains 1
    assert regular_sequence_test(Ideal(R, [x(R, 1, 1) - 1]), [])
    assert calls == [Polynomial.one(R)]


def test_hilbert_series_from_ideal():
    R = BlockRing((2, 2))
    f = x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1)
    num = Ideal(R, [f]).hilbert_series()
    assert num.coeffs == {(0, 0): 1, (1, 1): -1}


def test_hilbert_series_is_read_off_the_cached_basis(R33):
    I = Ideal(R33, [two_minor(R33, (1, 2), (1, 2)),
                    two_minor(R33, (1, 2), (1, 3))])
    I.groebner_basis(lex(R33))
    series = I.hilbert_series()
    assert list(I._gb_cache) == [lex(R33).rows]
    assert I.hilbert_series() is series
    assert series == Ideal(R33, I.gens).hilbert_series()


def test_gb_under_lex(R33):
    f = two_minor(R33, (1, 2), (1, 2))
    G = Ideal(R33, [f]).groebner_basis(lex(R33))
    assert G.order.name == "lex"
    assert G[0].lead_exp(G.order)[R33.var_index(1, 1)] == 1


# -- degree truncation and Hilbert-driven pair skipping -------------------------

def _minimal_generators_by_full_membership(I):
    """Oracle: the greedy loop with one full Groebner basis per generator."""
    kept = sorted(I.gens, key=lambda g: (sum(g.lead_exp()), g.lead_exp()))
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1:]
        if Ideal(I.ring, rest).contains(kept[i]):
            kept.pop(i)
        else:
            i += 1
    return kept


def _with_redundant_generators(I):
    """I with multihomogeneous generators added that already lie in I."""
    extra = [I.gens[0] * Polynomial.monomial(I.ring, I.ring.unit_exp(0))]
    same = [g for g in I.gens[1:] if g.multidegree() == I.gens[0].multidegree()]
    if same:
        extra.append(I.gens[0] + same[0] * 3)
    return Ideal(I.ring, extra + list(I.gens))


@pytest.fixture(scope="module")
def column_graded_3x4():
    return build_column_graded(3, (3, 3, 3, 3))


def test_minimal_generators_match_full_membership_on_pool():
    for I in cs_instance_pool(15, 4):
        for J in (I, _with_redundant_generators(I)):
            assert J.minimal_generators() == \
                _minimal_generators_by_full_membership(J)


def test_minimal_generators_match_full_membership_on_minors(column_graded_3x4):
    A = column_graded_3x4
    for t in (2, 3):
        I = Ideal(A.ring, minors(A, t))
        J = _with_redundant_generators(I)
        for K in (I, J):
            assert K.minimal_generators() == \
                _minimal_generators_by_full_membership(K)
        assert len(J.minimal_generators()) == len(I.gens)


def test_minimal_generators_match_full_membership_mixed_degrees(R33):
    f = two_minor(R33, (1, 2), (1, 2))
    g = two_minor(R33, (1, 2), (1, 3))
    h = two_minor(R33, (2, 3), (2, 3))
    gens = [x(R33, 1, 3) * f + x(R33, 1, 1) * g,       # in (f, g), degree 3
            x(R33, 1, 1) * x(R33, 2, 1) * x(R33, 3, 1),  # not in (f, g, h)
            x(R33, 2, 2) * f, h, g, f,
            x(R33, 1, 2) * x(R33, 2, 3) * h + x(R33, 2, 3) * x(R33, 3, 3) * f]
    I = Ideal(R33, gens)
    mins = I.minimal_generators()
    assert mins == _minimal_generators_by_full_membership(I)
    assert sorted(m.total_degree() for m in mins) == [2, 2, 2, 3]


def test_truncated_basis_decides_membership_up_to_its_degree(column_graded_3x4):
    A = column_graded_3x4
    R = A.ring
    I = Ideal(R, minors(A, 2))
    matrix = R.storage_order.rows
    p = R.characteristic
    full = I.groebner_basis()
    # the reduced basis has elements of degree e_i + e_j + e_k, which only
    # S-pairs of that degree make
    assert {g.total_degree() for g in full} == {2, 3}
    extra = Polynomial.monomial(R, R.unit_exp(0)) ** 4
    gens = [g.terms for g in I.gens] + [extra.terms]
    layout = kernel.layout(matrix, kernel.bits_for(gens))
    packed = [layout.pack(g) for g in gens]
    checked = set()
    for b in ((1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1), (4, 0, 0, 0)):
        def fits(e):
            return all(x <= y for x, y in zip(R.multidegree(e), b))

        basis = _buchberger(packed, layout, p, I.limits,
                            bound=groebner._within(R, b))
        assert all(fits(e) for g, _ in basis for e, _ in layout.unpack(g))
        for g in full:
            if fits(g.lead_exp()):
                checked.add(g.total_degree())
                assert not kernel.normal_form(layout.pack(g.terms), basis,
                                              layout, p)
        # x[1,1]^4 is a generator, of multidegree (4, 0, 0, 0)
        assert bool(kernel.normal_form(layout.pack(extra.terms), basis,
                                       layout, p)) == (b != (4, 0, 0, 0))
    assert checked == {2, 3}


def _count_normal_forms(monkeypatch):
    calls = [0]
    inner = kernel.normal_form

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(kernel, "normal_form", counted)
    return calls


def test_cached_series_skips_pairs_with_same_bases(column_graded_3x4, monkeypatch):
    A = column_graded_3x4
    I = Ideal(A.ring, minors(A, 2))
    I.groebner_basis()
    calls = _count_normal_forms(monkeypatch)
    cached = fresh = 0
    for o in sample_orders(A.ring, 10, seed=1):
        calls[0] = 0
        from_series = I.groebner_basis(o)
        cached += calls[0]
        calls[0] = 0
        assert from_series == Ideal(A.ring, I.gens).groebner_basis(o)
        fresh += calls[0]
    assert cached < fresh


@pytest.mark.parametrize("k", [2, 3])
def test_series_cutoff_at_field_width_steps(k, monkeypatch):
    # pair lcms of these generators reach block degrees 2^k - 1 and 2^k,
    # whose monomials the cutoff packs in fields one bit apart
    R = BlockRing((2, 2))
    degrees = [(2 ** k - 1, 1), (2 ** (k - 1), 1), (1, 2 ** (k - 1))]
    settled = set()
    inner = groebner._SeriesCutoff.settled

    def spy(self, a, basis):
        done = inner(self, a, basis)
        if done:
            settled.add(max(a))
        return done

    monkeypatch.setattr(groebner._SeriesCutoff, "settled", spy)
    for seed in range(4):
        rng = random.Random(seed)
        gens = [random_multihomogeneous_polynomial(R, rng, d) for d in degrees]
        I = Ideal(R, gens)
        I.groebner_basis()
        for o in sample_orders(R, 4, seed=seed):
            assert I.groebner_basis(o) == Ideal(R, gens).groebner_basis(o)
    assert {2 ** k - 1, 2 ** k} <= settled


def test_inhomogeneous_ideal_runs_without_series(R33, monkeypatch):
    f = two_minor(R33, (1, 2), (1, 2)) + x(R33, 3, 1)
    g = x(R33, 1, 1) ** 2 - x(R33, 2, 3) * x(R33, 3, 2)
    I = Ideal(R33, [f, g, two_minor(R33, (1, 3), (2, 3))])
    assert not I.is_multihomogeneous
    I.groebner_basis()  # degrevlex, the first sampled order
    calls = _count_normal_forms(monkeypatch)
    for o in sample_orders(R33, 4, seed=2, include_permutations=False)[1:]:
        calls[0] = 0
        from_cache = I.groebner_basis(o)
        cached = calls[0]
        calls[0] = 0
        assert from_cache == Ideal(R33, I.gens).groebner_basis(o)
        assert cached == calls[0]


@pytest.mark.parametrize("weights, work", [
    (None, [(114, 75)]),
    ((3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8), [(114, 75), (43, 4)]),
])
def test_driver_work_on_two_minors_is_pinned(column_graded_3x4, monkeypatch,
                                             weights, work):
    # pair selection, Gebauer-Moeller pruning and the series cutoff decide
    # how many S-polynomials and normal forms a basis takes
    A = column_graded_3x4
    order = A.ring.storage_order if weights is None else \
        weight_order(A.ring, weights)
    normal_forms = _count_normal_forms(monkeypatch)
    spolys = [0]
    inner = kernel.spoly

    def counted(*args):
        spolys[0] += 1
        return inner(*args)

    monkeypatch.setattr(kernel, "spoly", counted)
    I = Ideal(A.ring, minors(A, 2))
    seen = []
    for o in [order, A.ring.storage_order][:len(work)]:
        normal_forms[0] = spolys[0] = 0
        I.groebner_basis(o)
        seen.append((normal_forms[0], spolys[0]))
    assert seen == work


def _driver_widths(monkeypatch):
    """The field width of every Buchberger run from now on."""
    widths = []
    inner = groebner._buchberger

    def recorded(gens, layout, *args, **kwargs):
        widths.append(layout.bits)
        return inner(gens, layout, *args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    return widths


def test_exponents_past_the_first_width_repack_wider(monkeypatch):
    R = BlockRing((4,))
    v = [x(R, 1, j) for j in range(1, 5)]
    gens = [v[0] - v[1] ** 2, v[1] - v[2] ** 2, v[2] - v[3] ** 2]
    order = lex(R)
    widths = _driver_widths(monkeypatch)
    G = Ideal(R, gens).groebner_basis(order)
    # x[1,4]^8 does not fit the first fields, which hold exponents up to 7
    assert widths == [4, 8]
    assert [kernel.sort_terms(g.terms, order.rows, R.characteristic)
            for g in G] == groebner_basis_oracle([g.terms for g in gens],
                                                 order.rows, R.characteristic)
    assert v[0] - v[3] ** 8 in G.elements


def test_an_overflow_of_fields_outside_the_layout_raises(monkeypatch):
    # the series cutoff packs by fields of its own, sized for the largest
    # entry of a multidegree; sized for half of it, they overflow whatever
    # the layout, so widening the layout must not be the answer
    R = BlockRing((2, 2))
    I = Ideal(R, [x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1),
                  x(R, 1, 1) ** 2 * x(R, 2, 1) - x(R, 1, 2) ** 2 * x(R, 2, 2)])
    I.groebner_basis()
    I.hilbert_series()
    fields = kernel.fields
    monkeypatch.setattr(kernel, "fields", lambda n, top: fields(
        n, top // 2 if n == R.nvars else top))
    with pytest.raises(InternalConsistencyError):
        I.groebner_basis(lex(R))


def test_normal_form_past_the_basis_width_repacks_wider(monkeypatch):
    # under lex, x[1,1]^20 reduces to x[1,2]^100 modulo x[1,1] - x[1,2]^5,
    # far past the fields sized for degree 20, which hold exponents up to 63
    R = BlockRing((2,))
    G = Ideal(R, [x(R, 1, 1) - x(R, 1, 2) ** 5]).groebner_basis(lex(R))
    rows, p = G.order.rows, R.characteristic
    widths = []
    inner = kernel.normal_form

    def recorded(f, basis, layout, *args):
        widths.append(layout.bits)
        return inner(f, basis, layout, *args)

    monkeypatch.setattr(kernel, "normal_form", recorded)
    f = x(R, 1, 1) ** 20
    expect, _ = normal_form_oracle(
        kernel.sort_terms(f.terms, rows, p),
        [kernel.sort_terms(g.terms, rows, p) for g in G], rows, p)
    assert G.normal_form(f).terms == expect == [((0, 100), 1)]
    assert widths == [7, 14]
    # an overflow of fields that do not depend on the width is a bug
    foreign = kernel.fields(1, 3)

    def overflowing(*args):
        raise kernel.FieldOverflow(foreign, "foreign fields")

    monkeypatch.setattr(kernel, "normal_form", overflowing)
    with pytest.raises(InternalConsistencyError):
        G.normal_form(f)


@pytest.mark.parametrize("first", [0, 1])
def test_normal_forms_do_not_depend_on_earlier_queries(first, monkeypatch):
    # x[1,1]^20 overflows the fields sized for its degree and x[1,1]^3 does
    # not; each query packs afresh, so neither answer depends on the other
    R = BlockRing((2,))
    G = Ideal(R, [x(R, 1, 1) - x(R, 1, 2) ** 5]).groebner_basis(lex(R))
    rows, p = G.order.rows, R.characteristic
    widths = []
    inner = kernel.normal_form

    def recorded(f, basis, layout, *args):
        widths.append(layout.bits)
        return inner(f, basis, layout, *args)

    monkeypatch.setattr(kernel, "normal_form", recorded)
    queries = [(x(R, 1, 1) ** 3, [5]), (x(R, 1, 1) ** 20, [7, 14])]
    for f, restarts in queries[first:] + queries[:first]:
        widths.clear()
        expect, _ = normal_form_oracle(
            kernel.sort_terms(f.terms, rows, p),
            [kernel.sort_terms(g.terms, rows, p) for g in G], rows, p)
        assert G.normal_form(f) == Polynomial(R, expect)
        assert widths == restarts


def test_huge_exponent_packs_in_wide_fields():
    R = BlockRing((2,))
    f = x(R, 1, 1) ** 40000
    gens = [f, x(R, 1, 2) * f]
    G = Ideal(R, gens).groebner_basis()
    assert G.elements == (f,)
    assert [g.terms for g in G] == groebner_basis_oracle(
        [g.terms for g in gens], G.order.rows, R.characteristic)
    assert G.contains(x(R, 1, 1) ** 40001) and not G.contains(x(R, 1, 2))


@st.composite
def small_ideals(draw):
    R = BlockRing(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)),
                  draw(st.sampled_from([7, 32003])))
    n = R.nvars
    order = draw(orders(R))
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n),
                               st.integers(1, R.characteristic - 1)),
                     min_size=1, max_size=3)
    gens = [Polynomial(R, t) for t in draw(st.lists(terms, min_size=1,
                                                     max_size=3))]
    return R, order, gens


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_ideals())
def test_packed_driver_matches_tuple_buchberger(case):
    R, order, gens = case
    p = R.characteristic
    try:
        # random lex bases can be huge; compare the ones that stay small
        G = Ideal(R, gens, EngineLimits(max_basis=20, max_terms=200)
                  ).groebner_basis(order)
    except ResourceLimitError:
        assume(False)
    assert [kernel.sort_terms(g.terms, order.rows, p) for g in G] == \
        groebner_basis_oracle([g.terms for g in gens], order.rows, p)


# -- colon and regularity by a linear form in moved coordinates -----------------

def colon_by_elimination(I, f):
    """I : f as (1/f) * (I cap (f)), the extended-ring route."""
    meet = I.intersect(Ideal(I.ring, [f]))
    return Ideal(I.ring, [exact_divide(g, f) for g in meet.gens])


def regular_by_colons(I, forms):
    """The regular-sequence definition, with every colon by elimination."""
    current = I
    for f in forms:
        if not colon_by_elimination(current, f).equals(current):
            return False
        current = current + f
    return not current.contains(Polynomial.one(I.ring))


@st.composite
def graded_colons(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= 6))
    R = BlockRing(sizes)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    I = random_graded_ideal(R, rng, max_gens=3, max_block_degree=2)
    kind = draw(st.sampled_from(["variable", "scaled", "random", "mixed"]))
    vars_ = R.block_vars(draw(st.integers(1, R.v)))
    if kind == "variable":
        v = draw(st.sampled_from(vars_))
        L = Polynomial.monomial(R, R.unit_exp(v))
    elif kind == "scaled":
        # the last support variable's coefficient is not 1
        v = draw(st.sampled_from(vars_))
        L = Polynomial.monomial(R, R.unit_exp(v), draw(st.integers(2, 32002)))
        for u in range(vars_[0], v):
            L = L + Polynomial.monomial(R, R.unit_exp(u), draw(st.integers(0, 3)))
    elif kind == "random":
        L = random_linear_form(R, rng, block=R.var_pair(vars_[0])[0])
    else:
        # a linear form across blocks: not multigraded, still linear
        L = sum((Polynomial.monomial(R, R.unit_exp(v), rng.randrange(1, 32003))
                 for v in rng.sample(range(R.nvars), min(2, R.nvars))),
                Polynomial.zero(R))
    if L.is_multihomogeneous and draw(st.booleans()):
        # L times a generator lies in I, so the colon can grow
        I = Ideal(R, [I.gens[0] * L] + list(I.gens[1:]))
    return I, L


R22 = BlockRing((2, 2))
# the last support variable x[1,2] has coefficient 7
SCALED_COLON = (Ideal(R22, [x(R22, 1, 1) ** 2 * x(R22, 2, 2),
                            x(R22, 1, 2) * x(R22, 2, 1)]),
                x(R22, 1, 1) * 5 + x(R22, 1, 2) * 7)


@settings(max_examples=60, deadline=None)
@given(graded_colons())
@example(SCALED_COLON)
def test_linear_colon_matches_elimination(case):
    I, L = case
    assert I.colon(L).equals(colon_by_elimination(I, L))


@settings(max_examples=60, deadline=None)
@given(graded_colons())
@example(SCALED_COLON)
def test_linear_colon_carries_its_hilbert_series(case):
    # read off the leads of the Bayer-Stillman basis in moved coordinates,
    # which keep the multigrading only for a multigraded form
    I, L = case
    colon = I.colon(L)
    assert not colon._gb_cache
    if not L.is_multihomogeneous:
        assert colon._series is None
        return
    assert colon._series is not None
    assert colon.hilbert_series() == Ideal(I.ring, colon.gens).hilbert_series()

def test_linear_colon_matches_elimination_on_pool():
    rng = random.Random(3)
    for I in cs_instance_pool(6, seed=4):
        R = I.ring
        for L in (x(R, 1, R.block_sizes[0]), random_linear_form(R, rng)):
            assert I.colon(L).equals(colon_by_elimination(I, L))


def test_regular_sequence_test_matches_colons_on_monomial_ideals():
    rng = random.Random(11)
    for _ in range(25):
        R = random_ring(rng, max_vars=6)
        I = ideal_from_monomials(random_monomial_ideal(R, rng))
        forms = gamma_sequence(R) + [random_linear_form(R, rng)]
        for k in range(len(forms) + 1):
            assert (regular_sequence_test(I, forms[:k])
                    == regular_by_colons(I, forms[:k])), (I, forms[:k])


def test_regular_sequence_test_matches_colons_on_pool():
    for I in cs_instance_pool(6, seed=4):
        forms = gamma_sequence(I.ring)
        assert regular_sequence_test(I, forms) == regular_by_colons(I, forms)


def _count_intersections(monkeypatch):
    calls = [0]
    original = Ideal.intersect

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(Ideal, "intersect", counted)
    return calls


def test_linear_colon_of_graded_ideal_skips_intersect(R33, monkeypatch):
    I = Ideal(R33, [two_minor(R33, (1, 2), (1, 2)) * x(R33, 3, 1),
                    two_minor(R33, (1, 3), (2, 3))])
    L = x(R33, 2, 1) * 3 + x(R33, 2, 3) * 5
    forms = gamma_sequence(R33)
    calls = _count_intersections(monkeypatch)
    J = I.colon(L)
    regular = regular_sequence_test(I, forms)
    assert calls[0] == 0
    assert J.equals(colon_by_elimination(I, L))
    assert regular == regular_by_colons(I, forms)


def test_colon_falls_back_to_intersect(R33, monkeypatch):
    calls = _count_intersections(monkeypatch)
    # a cubic form: the README's worked colon example
    I = Ideal(R33, [two_minor(R33, (1, 2), (1, 2))])
    F = (x(R33, 1, 1) * x(R33, 2, 1) * x(R33, 3, 2)
         + x(R33, 1, 3) * x(R33, 2, 3) * x(R33, 3, 3))
    I.colon(F)
    assert calls[0] == 1
    # an inhomogeneous ideal and a linear form
    g = two_minor(R33, (1, 2), (1, 2)) + x(R33, 3, 1)
    K = Ideal(R33, [g * x(R33, 1, 1)])
    assert not K.is_multihomogeneous
    assert K.colon(x(R33, 1, 1)).equals(Ideal(R33, [g]))
    assert calls[0] == 2
    assert not regular_sequence_test(K, [x(R33, 1, 1)])
    assert calls[0] == 3


def test_linear_colon_guard_catches_a_wrong_order(monkeypatch):
    # with x_v first instead of last, a basis element can have x_v in its
    # lead but not in every term; the division must refuse it
    R = BlockRing((3,))
    I = Ideal(R, [x(R, 1, 1) ** 2 + x(R, 1, 2) * x(R, 1, 3)])
    move = groebner._linear_move

    def first_not_last(I, L):
        moved, v, back, _ = move(I, L)
        return moved, v, back, degrevlex(I.ring)

    monkeypatch.setattr(groebner, "_linear_move", first_not_last)
    with pytest.raises(InternalConsistencyError):
        I.colon(x(R, 1, 1))
