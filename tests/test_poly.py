"""Polynomial arithmetic over a block ring."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from multigb.errors import RingMismatchError
from multigb.groebner import exact_divide
from multigb.poly import Polynomial, lead_exponents
from multigb.ring import BlockRing, TermOrder, degrevlex, lex, weight_order
from test_kernel import lead_cases


@pytest.fixture
def R():
    return BlockRing((2, 2))


def x(R, i, j):
    return Polynomial.variable(R, i, j)


def test_normalization_merges_and_drops(R):
    e = R.unit_exp(0)
    f = Polynomial(R, [(e, 1), (e, R.characteristic - 1)])
    assert f.is_zero
    g = Polynomial(R, [(e, 1), (e, 2)])
    assert g.terms == [(e, 3)]


def test_coefficients_reduced_mod_p(R):
    e = R.unit_exp(0)
    f = Polynomial(R, [(e, R.characteristic + 5)])
    assert f.terms == [(e, 5)]
    g = Polynomial(R, [(e, -1)])
    assert g.terms == [(e, R.characteristic - 1)]


def test_negative_exponent_rejected():
    # x[1,1]^-1 * x[1,2] would print as x[1,2], and substitute would never
    # finish walking its exponents down to zero
    R = BlockRing((2,))
    for normalized in (False, True):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(R, [((-1, 1), 1)], _normalized=normalized)


def test_terms_sorted_descending(R):
    f = x(R, 1, 2) + x(R, 1, 1) + 1
    exps = [e for e, _ in f.terms]
    assert exps[0] == R.unit_exp(0)
    assert exps[1] == R.unit_exp(1)
    assert exps[2] == (0, 0, 0, 0)


def test_arithmetic_identities(R):
    f = x(R, 1, 1) + 2 * x(R, 2, 1)
    g = x(R, 1, 2) - x(R, 2, 2)
    h = x(R, 2, 1) * x(R, 1, 1) + 7
    assert f * (g + h) == f * g + f * h
    assert f - f == Polynomial.zero(R)
    assert f * Polynomial.one(R) == f
    assert f * Polynomial.zero(R) == Polynomial.zero(R)
    assert (f + g) * (f - g) == f * f - g * g
    assert -(-f) == f


def normalized(R, terms):
    """The term list of a ``{exponents: coefficient mod p}`` dict with its
    zeros dropped, descending under the storage order."""
    return sorted([(e, c) for e, c in terms.items() if c],
                  key=lambda t: oracles.order_key(R.storage_order, t[0]),
                  reverse=True)


def combination(p, *parts):
    """Sum of ``scale * terms`` over ``(scale, terms)`` pairs of a scalar
    and a term dict, coefficients mod p."""
    out = {}
    for scale, terms in parts:
        for e, c in terms.items():
            out[e] = (out.get(e, 0) + scale * c) % p
    return out


@st.composite
def arithmetic_cases(draw):
    """Polynomials f, g of one ring in characteristic 2, 3 or 32003, where
    g cancels a leading part of f, possibly all of it, and an integer c
    that may be 0 or a multiple of p."""
    p = draw(st.sampled_from([2, 3, 32003]))
    R = BlockRing(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)),
                  p)
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * R.nvars),
                               st.integers(-2 * p, 2 * p)), max_size=6)
    f = Polynomial(R, draw(terms))
    cancelled = f.terms[:draw(st.integers(0, len(f)))]
    g = Polynomial(R, draw(terms) + [(e, -c) for e, c in cancelled])
    c = draw(st.one_of(st.integers(-5, 5),
                       st.integers(-3, 3).map(lambda k: k * p)))
    return f, g, c


S = BlockRing((2, 1), 3)
F = Polynomial(S, [((1, 0, 1), 1), ((0, 1, 0), 2), ((0, 0, 0), 1)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arithmetic_cases())
@example((F, -F, 0))
@example((F, F, 3))
@example((F, Polynomial.zero(S), -6))
def test_arithmetic_matches_term_dicts(case):
    f, g, c = case
    R, p = f.ring, f.ring.characteristic
    fd, gd = dict(f.terms), dict(g.terms)
    one = {(0,) * R.nvars: 1}
    assert (f + g).terms == normalized(R, combination(p, (1, fd), (1, gd)))
    assert (f - g).terms == normalized(R, combination(p, (1, fd), (-1, gd)))
    assert (-f).terms == normalized(R, combination(p, (-1, fd)))
    assert (c * f).terms == (f * c).terms == normalized(
        R, combination(p, (c, fd)))
    assert (c - f).terms == normalized(R, combination(p, (c, one), (-1, fd)))
    assert (f + c).terms == normalized(R, combination(p, (1, fd), (c, one)))
    if g:
        product = {}
        for e, a in fd.items():
            for e2, b in gd.items():
                k = tuple(map(sum, zip(e, e2)))
                product[k] = (product.get(k, 0) + a * b) % p
        assert (f * g).terms == normalized(R, product)
        assert exact_divide(f * g, g).terms == normalized(R, fd)


def test_pow(R):
    f = x(R, 1, 1) + x(R, 1, 2)
    assert f ** 0 == Polynomial.one(R)
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1


def test_multidegree(R):
    f = x(R, 1, 1) * x(R, 2, 1) + x(R, 1, 2) * x(R, 2, 2)
    assert f.is_multihomogeneous
    assert f.multidegree() == (1, 1)
    g = x(R, 1, 1) + x(R, 2, 1)
    assert not g.is_multihomogeneous
    assert g.multidegree() is None
    assert Polynomial.zero(R).multidegree() is None
    assert f.total_degree() == 2


def test_substitute(R):
    # x[1,1] -> x[1,1] + x[1,2] sends x[1,1]^2 to the expanded square
    f = x(R, 1, 1) ** 2
    img = f.substitute({0: x(R, 1, 1) + x(R, 1, 2)})
    expect = x(R, 1, 1) ** 2 + 2 * x(R, 1, 1) * x(R, 1, 2) + x(R, 1, 2) ** 2
    assert img == expect


def test_monic_and_lead(R):
    f = 5 * x(R, 1, 1) + 3
    m = f.monic()
    assert m.lead_coeff() == 1
    assert (5 * m - f).is_zero or 5 * m == f


def test_lead_under_non_storage_order(R):
    # deg x^2 vs x*y: lex picks the pure power of the first variable
    f = x(R, 1, 2) * x(R, 2, 1) * x(R, 2, 2) + x(R, 1, 1)
    assert f.lead_exp() != f.lead_exp(lex(R))
    assert f.lead_exp(lex(R)) == R.unit_exp(0)


def test_str_round_trip_via_parser(R):
    from test_script import parsed_poly
    f = x(R, 1, 1) * x(R, 2, 2) - 3 * x(R, 1, 2) ** 2 + 1
    assert parsed_poly(str(f), R) == f


def test_mixed_ring_rejected():
    A = BlockRing((2,))
    B = BlockRing((3,))
    with pytest.raises(Exception):
        Polynomial.variable(A, 1, 1) + Polynomial.variable(B, 1, 1)


@st.composite
def polys_and_orders(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    R = BlockRing(sizes)
    n = R.nvars
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.lists(st.tuples(exps, st.integers(1, 100)),
                          min_size=1, max_size=12))
    f = Polynomial(R, terms)
    prio = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["lex", "degrevlex", "weight", "elim"]))
    if kind == "lex":
        order = lex(R, prio)
    elif kind == "degrevlex":
        order = degrevlex(R, prio)
    elif kind == "weight":
        order = weight_order(R, draw(st.lists(st.integers(1, 5),
                                              min_size=n, max_size=n)))
    else:
        front = draw(st.sets(st.integers(0, n - 1), min_size=1))
        # front variables first, then degrevlex under the drawn priority
        indicator = tuple(int(k in front) for k in range(n))
        order = TermOrder("elim", (indicator,) + degrevlex(R, prio).rows)
    return f, order


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys_and_orders())
def test_lead_term_is_max_of_order_keys(case):
    f, order = case
    assert f.lead_term(order) == max(
        f.terms, key=lambda t: oracles.order_key(order, t[0]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lead_cases())
def test_lead_exponents_equal_lead_exp_under_every_order(case):
    polys, orders = case
    assert lead_exponents(polys, orders) == oracles.lead_exponents(
        polys, orders) == [[f.lead_exp(o) for f in polys] for o in orders]


def test_lead_exponents_edge_cases(R):
    f = x(R, 1, 1) + x(R, 2, 1)
    assert lead_exponents([f], []) == []
    assert lead_exponents([], [lex(R), degrevlex(R)]) == [[], []]
    with pytest.raises(ValueError, match="zero polynomial"):
        lead_exponents([f, Polynomial.zero(R)], [lex(R)])


@st.composite
def sparse_exps(draw, n, top, max_vars):
    """An exponent vector with entries up to ``top`` on at most
    ``max_vars`` of the ``n`` variables."""
    exp = [0] * n
    for v in draw(st.lists(st.integers(0, n - 1), max_size=max_vars)):
        exp[v] = draw(st.integers(1, top))
    return tuple(exp)


@st.composite
def substitutions(draw):
    """A polynomial (possibly zero, exponents up to 6) and images for a
    subset of its ring's variables: linear forms, non-linear polynomials
    and constants; the other variables stay unmapped.  Terms and images
    are sparse, which keeps the expansions small."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    R = BlockRing(sizes, draw(st.sampled_from([7, 101, 32003])))
    n = R.nvars
    coeffs = st.integers(1, 100)
    f = Polynomial(R, draw(st.lists(
        st.tuples(sparse_exps(n, 6, 3), coeffs), max_size=6)))
    images = {}
    for v in draw(st.sets(st.integers(0, n - 1))):
        kind = draw(st.sampled_from(["linear", "nonlinear", "constant"]))
        if kind == "constant":
            images[v] = Polynomial.constant(R, draw(st.integers(0, 100)))
        elif kind == "linear":
            images[v] = Polynomial(R, draw(st.lists(
                st.tuples(sparse_exps(n, 1, 1), coeffs), max_size=3)))
        else:
            images[v] = Polynomial(R, draw(st.lists(
                st.tuples(sparse_exps(n, 2, 2), coeffs), max_size=3)))
    return f, images


@settings(max_examples=200, deadline=None, derandomize=True)
@given(substitutions())
# exponents that fill the bit field: one bit less overflows
@example((Polynomial(BlockRing((1,)), [((4,), 1)]), {}))
@example((Polynomial(BlockRing((2,)), [((3, 0), 1)]),
          {0: Polynomial(BlockRing((2,)), [((1, 0), 1), ((0, 1), 1)])}))
# a constant: the images are packed all the same
@example((Polynomial(BlockRing((2,)), [((0, 0), 3)]),
          {0: Polynomial(BlockRing((2,)), [((1, 1), 1), ((0, 1), 1)])}))
def test_substitute_matches_polynomial_arithmetic(case):
    f, images = case
    assert f.substitute(images) == oracles.substitute(f, images)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(substitutions(), st.data())
def test_substitute_rejects_image_in_another_ring(case, data):
    f, images = case
    other = BlockRing(f.ring.block_sizes + (1,), f.ring.characteristic)
    v = data.draw(st.integers(0, f.ring.nvars - 1))
    images[v] = Polynomial.variable(other, 1, 1)
    with pytest.raises(RingMismatchError):
        f.substitute(images)


@pytest.mark.parametrize("key", [-1, 9])
def test_substitute_rejects_keys_outside_the_ring(key):
    # -1 once wrapped to no variable and 9 was ignored: both answered f
    R = BlockRing((2, 2))
    f = Polynomial.variable(R, 1, 1) * Polynomial.variable(R, 2, 2)
    g = Polynomial.variable(R, 1, 2)
    with pytest.raises(RingMismatchError, match="not in the ring"):
        f.substitute({key: g})
    with pytest.raises(RingMismatchError):
        f.substitute({0: g, -1: g, 9: g})
