"""Packed kernel: field widths, field and layout arithmetic, s-polynomials
and multivariate division against the tuple-term oracles."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from multigb import kernel
from multigb.ring import (BlockRing, degrevlex, elimination_order, exp_divides,
                          lex, weight_order)
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


def test_layout_packs_and_unpacks_exponents():
    layout = kernel.layout(lex(3).rows, 3)
    assert layout.field_max == 4
    f = [((3, 0, 1), 5), ((0, 3, 3), 2)]
    assert layout.unpack(layout.pack(f)) == f
    with pytest.raises(kernel.FieldOverflow):
        layout.pack([((4, 0, 0), 1)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_layout_arithmetic_matches_exponent_tuples(data):
    R, order, layout, _ = data.draw(packed_cases())
    top = layout.field_max - 1
    exps = st.tuples(*[st.integers(0, top)] * R.nvars)
    a, b = data.draw(exps), data.draw(exps)
    (ka, ea, _), (kb, eb, _) = layout.pack([(a, 1), (b, 1)])
    guard = layout.guard
    assert (((ea | guard) - eb) & guard == guard) == exp_divides(b, a)
    assert layout.exponents(layout.lcm(ea, eb)) == exp_lcm(a, b)
    assert (layout.lcm(ea, eb) == ea + eb) == \
        (not any(x and y for x, y in zip(a, b)))
    assert (ka > kb) == (order_key(order, a) > order_key(order, b))
    assert (ka == kb) == (a == b)
    if max(x + y for x, y in zip(a, b)) <= top:
        product = tuple(x + y for x, y in zip(a, b))
        assert (ka + kb, ea + eb) == tuple(layout.pack([(product, 1)])[0][:2])


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


@settings(max_examples=300, deadline=None)
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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normal_form_matches_tuple_oracle(data):
    R, order, layout, terms = data.draw(packed_cases())
    p = R.characteristic
    f = kernel.sort_terms(data.draw(terms), order.rows, p)
    basis = [g for g in (kernel.sort_terms(t, order.rows, p)
                         for t in data.draw(st.lists(terms, max_size=4))) if g]
    expected, top = oracles.normal_form(f, basis, order.rows, p,
                                        layout.field_max)
    packed = [layout.element(layout.pack(g)) for g in basis]
    if top >= layout.field_max:
        # some created term outgrows its field: the guard must catch it
        with pytest.raises(kernel.FieldOverflow):
            kernel.normal_form(layout.pack(f), packed, layout, p)
    else:
        assert layout.unpack(kernel.normal_form(layout.pack(f), packed,
                                                layout, p)) == expected


@settings(max_examples=300, deadline=None)
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
    f_packed, g_packed = (layout.element(layout.pack(h)) for h in (f, g))
    if top >= layout.field_max:
        with pytest.raises(kernel.FieldOverflow):
            kernel.spoly(f_packed, g_packed, layout, p)
    else:
        assert layout.unpack(kernel.spoly(f_packed, g_packed, layout, p)) == \
            oracles.spoly(f, g, order.rows, p)


def test_guard_catches_a_tail_term_that_overflows():
    # x0 - x1^3 under lex: reducing x0^3 makes x1^9, past 3-bit fields
    layout = kernel.layout(lex(2).rows, 4)
    p = 32003
    g = [((1, 0), 1), ((0, 3), p - 1)]
    f = layout.pack([((3, 0), 1)])
    with pytest.raises(kernel.FieldOverflow):
        kernel.normal_form(f, [layout.element(layout.pack(g))], layout, p)
    wide = kernel.layout(lex(2).rows, 8)
    assert wide.unpack(kernel.normal_form(
        wide.pack([((3, 0), 1)]), [wide.element(wide.pack(g))], wide, p)) \
        == [((0, 9), 1)]
