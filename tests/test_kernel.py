"""Polynomial kernel: multivariate division."""

from hypothesis import given, settings
from hypothesis import strategies as st

from multigb import kernel
from multigb.ring import BlockRing, degrevlex, exp_divides, lex


def normal_form_oracle(f, basis, matrix, p):
    """Reference for ``kernel.normal_form``: each term is tested against the
    basis leads in order with ``exp_divides`` on whole exponent vectors."""
    if not f or not basis:
        return list(f)
    leads = [g[0] for g in basis]
    work = list(f)
    pos = 0
    out = []
    while pos < len(work):
        exp, coeff = work[pos]
        hit = -1
        for idx, (lexp, _) in enumerate(leads):
            if exp_divides(lexp, exp):
                hit = idx
                break
        if hit < 0:
            out.append((exp, coeff))
            pos += 1
            continue
        g = basis[hit]
        glead, glc = g[0]
        shift = tuple(a - b for a, b in zip(exp, glead))
        factor = (coeff * pow(glc, p - 2, p)) % p
        tail = kernel.poly_mul_term(g[1:], shift, p - factor, p)
        work = kernel.poly_add(work[pos + 1:], tail, matrix, p)
        pos = 0
    return out


@st.composite
def divisions(draw):
    """A term list and a basis of nonzero term lists, sorted under lex or
    degrevlex; leads may be constants, repeat or divide each other."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    R = BlockRing(sizes, draw(st.sampled_from([7, 32003])))
    n = R.nvars
    order = draw(st.sampled_from([lex(R), degrevlex(R)]))
    p = R.characteristic
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n),
                               st.integers(1, p - 1)), max_size=6)
    f = kernel.sort_terms(draw(terms), order.rows, p)
    basis = [g for g in (kernel.sort_terms(t, order.rows, p)
                         for t in draw(st.lists(terms, max_size=4))) if g]
    return f, basis, order.rows, p


@settings(max_examples=300, deadline=None)
@given(divisions())
def test_normal_form_matches_whole_vector_scan(case):
    f, basis, matrix, p = case
    assert (kernel.normal_form(f, basis, matrix, p)
            == normal_form_oracle(f, basis, matrix, p))
