"""Packed kernel: field widths, field and layout arithmetic, s-polynomials
and multivariate division against the tuple-term oracles."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from multigb import kernel
from multigb.csideals import sample_orders
from multigb.errors import ResourceLimitError
from multigb.poly import Polynomial
from multigb.ring import (BlockRing, TermOrder, degrevlex, elimination_order,
                          exp_divides, lex, weight_order)
from oracles import exp_lcm, order_key


@st.composite
def orders(draw, R):
    """Lex, degrevlex, a weight order or an elimination order of R."""
    n = R.nvars
    kind = draw(st.sampled_from(["lex", "degrevlex", "weight", "elimination"]))
    if kind == "lex":
        return lex(R)
    if kind == "degrevlex":
        return degrevlex(R)
    if kind == "weight":
        return weight_order(R, draw(st.lists(st.integers(1, 1000),
                                             min_size=n, max_size=n)))
    front = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return elimination_order(n, front)


@st.composite
def packed_cases(draw):
    """A ring, an order, a layout of 2..5-bit fields, and a strategy for
    term lists whose exponents fill the fields, often to the top value."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    R = BlockRing(sizes, draw(st.sampled_from([7, 32003])))
    order = draw(orders(R))
    layout = kernel.layout(order.rows, draw(st.integers(2, 5)))
    top = layout.field_max - 1
    exponent = st.one_of(st.integers(0, top), st.just(top), st.just(0))
    terms = st.lists(st.tuples(st.tuples(*[exponent] * R.nvars),
                               st.integers(1, R.characteristic - 1)),
                     max_size=5)
    return R, order, layout, terms


@st.composite
def first_row_orders(draw, R, wide):
    """An order of R whose first row ties many terms: lex or degrevlex
    under a drawn priority, an elimination order, a weight order, or a
    drawn first row with 0 entries above degrevlex, in a hand-built order
    that may also hold a negative entry.  Entries reach 3, or 2^20 when
    ``wide``."""
    n = R.nvars
    top = 2 ** 20 if wide else 3
    kind = draw(st.sampled_from(["lex", "degrevlex", "elimination", "weight",
                                 "zeros", "signed"]))
    if kind in ("lex", "degrevlex"):
        return (lex if kind == "lex" else degrevlex)(
            R, draw(st.permutations(range(n))))
    if kind == "elimination":
        return elimination_order(n, draw(st.sets(st.integers(0, n - 1),
                                                 min_size=1)))
    first = draw(st.lists(st.integers(1 if kind == "weight" else 0, top),
                          min_size=n, max_size=n))
    if kind == "weight":
        return weight_order(R, first)
    if kind == "signed":
        first[draw(st.integers(0, n - 1))] = -draw(st.integers(1, top))
    return TermOrder(kind, (tuple(first),) + degrevlex(R).rows)


@st.composite
def lead_cases(draw):
    """Nonzero polynomials of up to 12 terms, a single-term one and a
    constant among them, and ``first_row_orders``, sometimes beside 202
    sampled orders.  A wide case draws exponents up to 2^17 and entries up
    to 2^20: its scores need lanes wider than 16 bits; else exponents
    reach 1 or 3."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    R = BlockRing(sizes)
    wide = draw(st.booleans())
    top = 2 ** 17 if wide else draw(st.sampled_from([1, 3]))
    exps = st.tuples(*[st.integers(0, top)] * R.nvars)
    coeffs = st.integers(1, 100)
    polys = [Polynomial(R, terms) for terms in draw(st.lists(
        st.lists(st.tuples(exps, coeffs), min_size=1, max_size=12),
        max_size=4))]
    polys.append(Polynomial.monomial(R, draw(exps), draw(coeffs)))
    polys.append(Polynomial.constant(R, draw(coeffs)))
    orders = draw(st.lists(first_row_orders(R, wide), min_size=1,
                           max_size=8))
    if draw(st.booleans()):
        orders += sample_orders(R, 200, seed=draw(st.integers(0, 99)),
                                include_permutations=False)
    return draw(st.permutations(polys)), draw(st.permutations(orders))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lead_cases())
def test_row_leads_match_scoring_row_by_row(case):
    polys, orders = case
    terms = [f.terms for f in polys]
    rows = [o.rows[0] for o in orders]
    assert kernel.row_leads(terms, rows) == oracles.row_leads(terms, rows)


def test_row_leads_edge_cases():
    # ties and negative rows read 0; a single term is its own lead
    f = [((2, 0), 1), ((1, 1), 1), ((0, 2), 1)]
    rows = [(1, 0), (0, 1), (1, 1), (2, -1), (0, 0)]
    assert kernel.row_leads([f, [((0, 0), 1)]], rows) == [
        (1, 3, 0, 0, 0), (1, 1, 1, 0, 1)]
    # scores of 0 and 1, but lanes wide enough for indices up to 12
    linear = [(tuple(int(k == v) for k in range(12)), 1) for v in range(12)]
    units = [row for row, _ in linear]
    assert kernel.row_leads([linear], units) == [tuple(range(1, 13))]
    assert kernel.row_leads([f], []) == [()]
    assert kernel.row_leads([], rows) == []


def test_layout_packs_and_unpacks_exponents():
    layout = kernel.layout(lex(3).rows, 3)
    assert layout.field_max == 4
    f = [((3, 0, 1), 5), ((0, 3, 3), 2)]
    assert layout.unpack(oracles.pack(layout, f)) == f
    with pytest.raises(kernel.FieldOverflow):
        oracles.pack(layout, [((4, 0, 0), 1)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_layout_arithmetic_matches_exponent_tuples(data):
    R, order, layout, _ = data.draw(packed_cases())
    top = layout.field_max - 1
    exps = st.tuples(*[st.integers(0, top)] * R.nvars)
    a, b = data.draw(exps), data.draw(exps)
    (ka, ea, _), (kb, eb, _) = oracles.pack(layout, [(a, 1), (b, 1)])
    guard = layout.guard
    assert (((ea | guard) - eb) & guard == guard) == exp_divides(b, a)
    assert layout.exponents(layout.lcm(ea, eb)) == exp_lcm(a, b)
    assert (layout.lcm(ea, eb) == ea + eb) == \
        (not any(x and y for x, y in zip(a, b)))
    assert (ka > kb) == (order_key(order, a) > order_key(order, b))
    assert (ka == kb) == (a == b)
    if max(x + y for x, y in zip(a, b)) <= top:
        product = tuple(x + y for x, y in zip(a, b))
        assert (ka + kb, ea + eb) == \
            tuple(oracles.pack(layout, [(product, 1)])[0][:2])


@pytest.mark.parametrize("top", [0, 1] + [2 ** k - 1 for k in range(2, 7)]
                         + [2 ** k for k in range(1, 7)])
def test_fields_are_the_narrowest_that_hold_top(top):
    fields = kernel.fields(3, top)
    assert fields is kernel.fields(3, top)
    assert fields.exponents(fields.monomial((top, 0, top))) == (top, 0, top)
    with pytest.raises(kernel.FieldOverflow):
        fields.monomial((0, fields.field_max, 0))
    if fields.bits > 1:
        narrower = kernel.Fields(3, fields.bits - 1)
        with pytest.raises(kernel.FieldOverflow):
            narrower.monomial((top, 0, 0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_fields_arithmetic_matches_exponent_tuples(data):
    n = data.draw(st.integers(1, 6))
    top = data.draw(st.one_of(st.sampled_from([0, 1, 3, 4, 7, 8, 15, 16]),
                              st.integers(0, 100)))
    fields = kernel.fields(n, top)
    a = data.draw(st.tuples(*[st.integers(0, top)] * n))
    # b divides a about half the time
    b = data.draw(st.one_of(
        st.tuples(*[st.integers(0, top)] * n),
        st.tuples(*[st.integers(0, x) for x in a])))
    ea, eb = fields.monomial(a), fields.monomial(b)
    assert fields.exponents(ea) == a and fields.exponents(eb) == b
    assert fields.exponents(fields.lcm(ea, eb)) == exp_lcm(a, b)
    guard = fields.guard
    divides = ((ea | guard) - eb) & guard == guard
    assert divides == exp_divides(b, a)
    # kernel.minimal meets every divisor first in ascending order
    assert not divides or eb <= ea


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_normal_form_matches_tuple_oracle(data):
    R, order, layout, terms = data.draw(packed_cases())
    p = R.characteristic
    f = kernel.sort_terms(data.draw(terms), order.rows, p)
    basis = [g for g in (kernel.sort_terms(t, order.rows, p)
                         for t in data.draw(st.lists(terms, max_size=4))) if g]
    expected, top = oracles.normal_form(f, basis, order.rows, p,
                                        layout.field_max)
    packed = [oracles.pack(layout, g) for g in basis]
    if top >= layout.field_max:
        # some created term outgrows its field: the guard must catch it
        with pytest.raises(kernel.FieldOverflow):
            kernel.normal_form(oracles.pack(layout, f), packed, layout, p)
    else:
        assert layout.unpack(kernel.normal_form(
            oracles.pack(layout, f), packed, layout, p)) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_spoly_matches_tuple_oracle(data):
    R, order, layout, terms = data.draw(packed_cases())
    p = R.characteristic
    f, g = (kernel.sort_terms(data.draw(terms), order.rows, p)
            for _ in range(2))
    assume(f and g)
    lcm = exp_lcm(f[0][0], g[0][0])
    top = max(max(x + y - z for x, y, z in zip(e, lcm, h[0][0]))
              for h in (f, g) for e, _ in h)
    f_packed, g_packed = (oracles.pack(layout, h) for h in (f, g))
    # the lcm and its key as a pair holds them
    packed_lcm = layout.lcm(f_packed[0][1], g_packed[0][1])
    pair = packed_lcm, layout.key(lcm)
    if top >= layout.field_max:
        with pytest.raises(kernel.FieldOverflow):
            kernel.spoly(f_packed, g_packed, *pair, layout, p)
    else:
        assert layout.unpack(kernel.spoly(f_packed, g_packed, *pair, layout,
                                          p)) == \
            oracles.spoly(f, g, order.rows, p)


def test_guard_catches_a_tail_term_that_overflows():
    # x0 - x1^3 under lex: reducing x0^3 makes x1^9, past 3-bit fields
    layout = kernel.layout(lex(2).rows, 4)
    p = 32003
    g = [((1, 0), 1), ((0, 3), p - 1)]
    f = oracles.pack(layout, [((3, 0), 1)])
    with pytest.raises(kernel.FieldOverflow):
        kernel.normal_form(f, [oracles.pack(layout, g)], layout, p)
    wide = kernel.layout(lex(2).rows, 8)
    assert wide.unpack(kernel.normal_form(
        oracles.pack(wide, [((3, 0), 1)]), [oracles.pack(wide, g)], wide, p)) \
        == [((0, 9), 1)]


@pytest.mark.parametrize("overflowing", ["f", "g"])
def test_guard_catches_an_spoly_tail_term_that_overflows(overflowing):
    # x0 + x1^7 and x0*x1 + x1^2 under lex: the S-polynomial shifts the
    # first by x1, making x1^8, past 3-bit fields, and leaves the second's
    # tail x1^2 as it is
    p = 32003
    f, g = [((1, 0), 1), ((0, 7), 1)], [((1, 1), 1), ((0, 2), 1)]
    if overflowing == "g":
        f, g = g, f
    lcm = (1, 1)
    narrow = kernel.layout(lex(2).rows, 4)
    with pytest.raises(kernel.FieldOverflow):
        kernel.spoly(oracles.pack(narrow, f), oracles.pack(narrow, g),
                     narrow.monomial(lcm), narrow.key(lcm), narrow, p)
    wide = kernel.layout(lex(2).rows, 8)
    assert wide.unpack(kernel.spoly(oracles.pack(wide, f),
                                    oracles.pack(wide, g), wide.monomial(lcm),
                                    wide.key(lcm), wide, p)) == \
        oracles.spoly(f, g, lex(2).rows, p)


def test_normal_form_caps_the_terms_to_reduce_plus_the_output():
    # under lex mod 7, x0 - x1 - x2 reduces x0 to x1 + x2
    p = 7
    layout = kernel.layout(lex(3).rows, 4)
    x0, x1, x2 = ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)
    g = [x0, ((0, 1, 0), 6), ((0, 0, 1), 6)]

    def reduce(f, h, cap):
        return layout.unpack(kernel.normal_form(
            oracles.pack(layout, f), [oracles.pack(layout, h)], layout, p,
            cap))

    # x0 leaves two terms to reduce
    with pytest.raises(ResourceLimitError):
        reduce([x0], g, 1)
    assert reduce([x0], g, 2) == [x1, x2]
    # x0 - x1: the tail's x1 cancels it, leaving x2 alone
    assert reduce([x0, ((0, 1, 0), 6)], g, 1) == [x2]
    # x0 + x1 modulo x1 - x2: the output x0 counts beside x2
    h = [x1, ((0, 0, 1), 6)]
    with pytest.raises(ResourceLimitError):
        reduce([x0, x1], h, 1)
    assert reduce([x0, x1], h, 2) == [x0, x2]
