"""Polynomial kernel.

This module implements the hot inner loops of the Groebner engine: term
sorting, merge-based arithmetic, s-polynomials and multivariate division.

Data conventions:

* a monomial is a tuple of non-negative int exponents,
* a polynomial is a list of ``(exponents, coefficient)`` pairs with
  coefficients in ``1..p-1``, strictly decreasing under the order matrix,
* an order is a tuple of int row vectors; monomials compare by the
  lexicographic order of their matrix-vector products.
"""

from functools import lru_cache

from multigb.errors import ResourceLimitError

IMPLEMENTATION = "pure"


@lru_cache(maxsize=1 << 18)
def order_key(matrix, exp):
    """Sort key of an exponent vector under an order matrix."""
    return tuple(sum(r * e for r, e in zip(row, exp)) for row in matrix)


def sort_terms(terms, matrix, p):
    """Collect duplicates mod p, drop zeros, sort strictly descending."""
    acc = {}
    for exp, coeff in terms:
        acc[exp] = (acc.get(exp, 0) + coeff) % p
    return sorted(
        ((e, c) for e, c in acc.items() if c),
        key=lambda t: order_key(matrix, t[0]),
        reverse=True,
    )


def poly_neg(f, p):
    return [(e, p - c) for e, c in f]


def poly_scale(f, c, p):
    c %= p
    if c == 0:
        return []
    return [(e, (k * c) % p) for e, k in f]


def poly_mul_term(f, shift, c, p):
    """Multiply by a single term; preserves sortedness (orders are multiplicative)."""
    c %= p
    if c == 0:
        return []
    return [
        (tuple(a + b for a, b in zip(e, shift)), (k * c) % p)
        for e, k in f
    ]


def poly_add(f, g, matrix, p):
    """Sum of two sorted term lists."""
    out = []
    i = j = 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        ef, cf = f[i]
        eg, cg = g[j]
        if ef == eg:
            c = (cf + cg) % p
            if c:
                out.append((ef, c))
            i += 1
            j += 1
        elif order_key(matrix, ef) > order_key(matrix, eg):
            out.append(f[i])
            i += 1
        else:
            out.append(g[j])
            j += 1
    out.extend(f[i:])
    out.extend(g[j:])
    return out


def poly_sub(f, g, matrix, p):
    return poly_add(f, poly_neg(g, p), matrix, p)


def poly_mul(f, g, matrix, p):
    acc = {}
    for ef, cf in f:
        for eg, cg in g:
            e = tuple(a + b for a, b in zip(ef, eg))
            acc[e] = (acc.get(e, 0) + cf * cg) % p
    return sorted(
        ((e, c) for e, c in acc.items() if c),
        key=lambda t: order_key(matrix, t[0]),
        reverse=True,
    )


def spoly(f, g, matrix, p):
    """S-polynomial of two nonzero sorted polynomials (leads cancel)."""
    ef, cf = f[0]
    eg, cg = g[0]
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    sf = poly_mul_term(f, tuple(l - a for l, a in zip(lcm, ef)), pow(cf, p - 2, p), p)
    sg = poly_mul_term(g, tuple(l - a for l, a in zip(lcm, eg)), pow(cg, p - 2, p), p)
    return poly_sub(sf, sg, matrix, p)


def normal_form(f, basis, matrix, p, max_terms=0):
    """Fully reduce ``f`` modulo a list of nonzero sorted polynomials.

    Returns the unique remainder none of whose terms is divisible by a
    lead term of ``basis`` (unique given the basis and its element order;
    canonical when ``basis`` is a Groebner basis).  A positive
    ``max_terms`` aborts runaway intermediate growth.
    """
    if not f or not basis:
        return list(f)
    # a lead divides a term iff the term is at least as large on each
    # variable of the lead's support; leads use few of the variables
    supports = [[(v, e) for v, e in enumerate(g[0][0]) if e] for g in basis]
    work = list(f)
    pos = 0
    out = []
    while pos < len(work):
        exp, coeff = work[pos]
        hit = -1
        for idx, support in enumerate(supports):
            for v, e in support:
                if exp[v] < e:
                    break
            else:
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
        # work[pos] cancels against factor * x^shift * lead(g)
        tail = poly_mul_term(g[1:], shift, p - factor, p)
        work = poly_add(work[pos + 1:], tail, matrix, p)
        pos = 0
        if max_terms and len(work) + len(out) > max_terms:
            raise ResourceLimitError(
                f"reduction exceeded {max_terms} terms")
    return out
