"""Polynomial kernel.

This module implements the hot inner loops of the Groebner engine: term
sorting and products of tuple polynomials for ``Polynomial`` (terms are
summed in a dict, then sorted, so a sum of polynomials is ``sort_terms``
of their joined term lists), merge-based s-polynomials and multivariate
division on packed terms for the Buchberger loop, the minimal elements of
packed monomials under divisibility (``minimal``), and the expansion of a
substitution of variables (``expand``) on packed monomials for
``Polynomial.substitute``.

Data conventions:

* a monomial is a tuple of non-negative int exponents; a polynomial is a
  list of ``(exponents, coefficient)`` pairs with coefficients in
  ``1..p-1``, strictly decreasing under an order matrix;
* an order is a tuple of int row vectors of a term order (M·e determines
  e); monomials compare by the lexicographic order of their matrix-vector
  products;
* a packed term is ``(K, E, c)``: E is a packed monomial (``Fields``) and
  K the order key, one int that compares as M·e does (see ``Layout``).
  A packed polynomial is a list of packed terms strictly decreasing in K.
  Polynomials are packed once when a computation starts and unpacked once
  when it ends;
* ``normal_form`` and ``spoly`` take basis elements ``(terms, ceiling)``:
  a packed polynomial and the fieldwise maximum of its exponents
  (``Layout.ceiling``), which bounds every term a shift of it creates.
"""

from functools import lru_cache
from operator import lshift, mul

from multigb.errors import ResourceLimitError

IMPLEMENTATION = "pure"


def _sorted(acc, matrix):
    """The nonzero ``(exponents, coefficient)`` items of ``acc`` strictly
    descending, keyed by the one-int order key of ``Layout``."""
    kept = [(e, c) for e, c in acc.items() if c]
    if len(kept) < 2:
        return kept
    cols = layout(matrix, fields(1, max(map(max, acc))).bits).cols
    return sorted(kept, key=lambda t: sum(map(mul, t[0], cols)), reverse=True)


def sort_terms(terms, matrix, p):
    """Collect duplicates mod p, drop zeros, sort strictly descending."""
    acc = {}
    for exp, coeff in terms:
        acc[exp] = (acc.get(exp, 0) + coeff) % p
    return _sorted(acc, matrix)


def poly_mul(f, g, matrix, p):
    acc = {}
    for ef, cf in f:
        for eg, cg in g:
            e = tuple(a + b for a, b in zip(ef, eg))
            acc[e] = (acc.get(e, 0) + cf * cg) % p
    return _sorted(acc, matrix)


# -- packed terms ---------------------------------------------------------------

class FieldOverflow(ArithmeticError):
    """A packed exponent outgrew a bit field of ``fields``: repack wider
    and restart."""

    def __init__(self, fields, message):
        super().__init__(message)
        self.fields = fields


def bits_for(polys):
    """Field width for packing tuple polynomials: fields hold twice their
    largest total degree, so exponents may grow before a repack."""
    top = max((sum(e) for f in polys for e, _ in f), default=0)
    return fields(1, 2 * top).bits


@lru_cache(maxsize=1024)
def fields(n, top):
    """The narrowest ``Fields`` of n variables holding 0..top, built once."""
    return Fields(n, top.bit_length() + 1)


@lru_cache(maxsize=1024)
def layout(matrix, bits):
    """The ``Layout`` of an order matrix and field width, built once."""
    return Layout(matrix, bits)


class Fields:
    """The one packing of exponent vectors into ints (packed monomials).

    Variable k owns bits ``k*bits .. k*bits + bits - 1`` of a packed
    monomial; the top bit of each field is a guard, so a field holds
    0 .. field_max - 1 with ``field_max = 2^(bits-1)``.  ``units[k]`` is
    the packed variable k.  For packed monomials a, b with clear guards
    (``guard`` masks the guard bits):

    * b divides a iff ``((a | guard) - b) & guard == guard``: each field
      borrows from its own guard bit only, and keeps it iff a_k >= b_k.
      So a divisor is never larger than its multiple.  ``minimal``,
      ``normal_form`` and the chain criterion of ``groebner._gm_update``
      inline this test with ``guard`` read into a local;
    * lcm(a, b): ``d = ((a | guard) - b) & guard`` marks the fields where
      a_k >= b_k, ``m = d - (d >> (bits - 1))`` widens each mark to its
      field's value bits, and the lcm is ``(a & m) | (b & ~m)``;
    * a and b are coprime iff lcm(a, b) == a + b (the gcd is a + b - lcm);
    * the product is a + b; a sum field reaches its guard bit exactly when
      it overflows, and ``normal_form`` and ``spoly`` raise
      ``FieldOverflow`` before such a term is used.
    """

    __slots__ = ("bits", "field_max", "guard", "shifts", "units")

    def __init__(self, n, bits):
        self.bits = bits
        self.field_max = 1 << (bits - 1)
        self.shifts = tuple(bits * k for k in range(n))
        self.units = tuple(1 << s for s in self.shifts)
        self.guard = self.field_max * sum(self.units)

    def monomial(self, exp):
        """The packed monomial of an exponent tuple."""
        if max(exp) >= self.field_max:
            raise FieldOverflow(self, f"exponent {max(exp)} needs more "
                                      f"than {self.bits - 1} bits")
        return sum(map(lshift, exp, self.shifts))

    def exponents(self, e):
        """The exponent tuple of a packed monomial."""
        mask = self.field_max - 1
        return tuple([(e >> s) & mask for s in self.shifts])

    def lcm(self, a, b):
        d = ((a | self.guard) - b) & self.guard
        m = d - (d >> (self.bits - 1))
        return (a & m) | (b & ~m)


def minimal(packed, guard):
    """The minimal elements of packed monomials under divisibility, in
    ascending order, each once; one ascending pass meets every divisor
    first."""
    out = []
    for b in sorted(set(packed)):
        b_guarded = b | guard
        for a in out:
            if (b_guarded - a) & guard == guard:
                break
        else:
            out.append(b)
    return out


class Layout(Fields):
    """``Fields`` with the order key of one order matrix, and term packing.

    The order key is additive: K(e) = sum_k e_k * C_k with
    C_k = sum_i M[i][k] * 2^s_i.  Row i of M·e is digit i of K in signed
    mixed radix; digit i is ``widths[i]`` bits wide, enough for the row's
    value on any monomial whose fields fit, and s_i is the total width of
    the rows after it.  So K(a) < K(b) exactly when M·a < M·b
    lexicographically, and K(a*b) = K(a) + K(b).
    """

    __slots__ = ("cols",)

    def __init__(self, matrix, bits):
        n = len(matrix[0])
        super().__init__(n, bits)
        top = self.field_max - 1
        widths = [(sum(abs(x) for x in row) * top).bit_length() + 1
                  for row in matrix]
        offsets = [sum(widths[i + 1:]) for i in range(len(matrix))]
        self.cols = tuple(sum(row[k] << s for row, s in zip(matrix, offsets))
                          for k in range(n))

    def key(self, exp):
        """Order key of an exponent tuple."""
        return sum(map(mul, exp, self.cols))

    def pack(self, f):
        """Packed terms of a tuple polynomial sorted under the matrix."""
        cols, monomial = self.cols, self.monomial
        return [(sum(map(mul, e, cols)), monomial(e), c) for e, c in f]

    def unpack(self, f):
        """The tuple polynomial of packed terms."""
        return [(self.exponents(e), c) for _, e, c in f]

    def ceiling(self, f):
        """Fieldwise maximum of the exponents of packed terms."""
        top = 0
        for _, e, _ in f:
            top = self.lcm(top, e)
        return top

    def element(self, f):
        """The basis element ``(terms, ceiling)`` of packed terms."""
        return f, self.ceiling(f)


def expand(f, images, p):
    """The tuple polynomial f with each variable v replaced by
    ``images[v]``, as a dict from packed monomial to coefficient in 1..p-1.

    ``images[v]`` lists the ``(packed monomial, coefficient)`` terms of the
    image of variable v, packed by ``Fields`` that hold every product
    formed.  The image of a monomial m is the image of m / x_v times the
    image of x_v, x_v the last variable of m; images of monomials are
    memoized across the terms of f.
    """
    memo = {(0,) * len(images): {0: 1}}

    def image_of(m):
        # walk down to a memoized divisor, then multiply back up
        chain = []
        while m not in memo:
            v = max(k for k, e in enumerate(m) if e)
            chain.append((m, v))
            m = m[:v] + (m[v] - 1,) + m[v + 1:]
        image = memo[m]
        for m, v in reversed(chain):
            acc = {}
            for b, cb in images[v]:
                for a, ca in image.items():
                    k = a + b
                    acc[k] = acc.get(k, 0) + ca * cb
            image = memo[m] = {k: c % p for k, c in acc.items() if c % p}
        return image

    total = {}
    for exp, coeff in f:
        for k, c in image_of(exp).items():
            total[k] = total.get(k, 0) + coeff * c
    return {k: c % p for k, c in total.items() if c % p}


def _overflow(layout):
    return FieldOverflow(layout,
                         f"a product outgrew {layout.bits - 1}-bit exponents")


def _merge(f, g, p):
    """Sum of two packed polynomials."""
    if not f:
        return g
    if not g:
        return f
    out = []
    append = out.append
    i = j = 0
    nf, ng = len(f), len(g)
    a, b = f[0], g[0]
    ka, kb = a[0], b[0]
    while True:
        if ka > kb:
            append(a)
            i += 1
            if i == nf:
                break
            a = f[i]
            ka = a[0]
        elif ka < kb:
            append(b)
            j += 1
            if j == ng:
                break
            b = g[j]
            kb = b[0]
        else:
            c = (a[2] + b[2]) % p
            if c:
                append((ka, a[1], c))
            i += 1
            j += 1
            if i == nf or j == ng:
                break
            a, b = f[i], g[j]
            ka, kb = a[0], b[0]
    out += f[i:]
    out += g[j:]
    return out


def spoly(f, g, layout, p):
    """S-polynomial of two basis elements (leads cancel)."""
    (ft, fceil), (gt, gceil) = f, g
    fk, fe, fc = ft[0]
    gk, ge, gc = gt[0]
    lcm = layout.lcm(fe, ge)
    sf, sg = lcm - fe, lcm - ge
    if (fceil + sf) & layout.guard or (gceil + sg) & layout.guard:
        raise _overflow(layout)
    lk = layout.key(layout.exponents(lcm))
    kf, kg = lk - fk, lk - gk
    cf = pow(fc, p - 2, p)
    cg = p - pow(gc, p - 2, p)
    return _merge([(k + kf, e + sf, c * cf % p) for k, e, c in ft[1:]],
                  [(k + kg, e + sg, c * cg % p) for k, e, c in gt[1:]], p)


def normal_form(f, basis, layout, p, max_terms=0):
    """Fully reduce packed ``f`` modulo a list of basis elements.

    Returns the unique remainder none of whose terms is divisible by a
    lead term of ``basis`` (unique given the basis and its element order;
    canonical when ``basis`` is a Groebner basis).  Each step reduces the
    largest reducible term by the first element whose lead divides it.  A
    positive ``max_terms`` aborts runaway intermediate growth.
    """
    if not f or not basis:
        return list(f)
    guard = layout.guard
    leads = [g[0][1] for g, _ in basis]
    work = f
    pos = 0
    out = []
    while pos < len(work):
        term = work[pos]
        e = term[1] | guard
        for idx, lead in enumerate(leads):
            if (e - lead) & guard == guard:
                break
        else:
            out.append(term)
            pos += 1
            continue
        g, ceiling = basis[idx]
        gk, ge, gc = g[0]
        k, e, c = term
        shift = e - ge
        if (ceiling + shift) & guard:
            raise _overflow(layout)
        sk = k - gk
        # term cancels against factor * x^shift * lead(g)
        factor = p - (c if gc == 1 else c * pow(gc, p - 2, p) % p)
        tail = [(tk + sk, te + shift, tc * factor % p) for tk, te, tc in g[1:]]
        work = _merge(work[pos + 1:], tail, p)
        pos = 0
        if max_terms and len(work) + len(out) > max_terms:
            raise ResourceLimitError(
                f"reduction exceeded {max_terms} terms")
    return out
