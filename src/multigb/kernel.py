"""Polynomial kernel.

This module implements the hot inner loops of the Groebner engine: term
sorting and products of tuple polynomials for ``Polynomial``,
s-polynomials and multivariate division on packed terms for the Buchberger
loop, the minimal elements of packed monomials under divisibility
(``minimal``), the expansion of a substitution of variables (``expand``)
on packed monomials for ``Polynomial.substitute``, and the top-scoring
term of each polynomial under many order rows at once (``row_leads``) for
``poly.lead_exponents``.  Terms
are added one way throughout: summed in a dict keyed by monomial or order
key (a sum of tuple polynomials is ``sort_terms`` of their joined term
lists); ``normal_form`` also keeps a heap of its keys, to take the largest
term still to reduce.

Data conventions:

* a monomial is a tuple of non-negative int exponents; a polynomial is a
  list of ``(exponents, coefficient)`` pairs with coefficients in
  ``1..p-1``, strictly decreasing under an order matrix;
* an order is a tuple of int row vectors of a term order (M·e determines
  e); monomials compare by the lexicographic order of their matrix-vector
  products;
* a packed term is ``(K, E, c)``: E is a packed monomial (``Fields``) and
  K the order key, one int that compares as M·e does (see ``Layout``).
  A packed polynomial is a list of packed terms strictly decreasing in K;
  a basis element is one.  Polynomials are packed once when a computation
  starts and unpacked once when it ends.
"""

from functools import lru_cache, reduce
from heapq import heappop, heappush
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
      ``normal_form`` and the chain criterion of ``groebner._walk``
      inline this test with ``guard`` read into a local;
    * lcm(a, b): ``d = ((a | guard) - b) & guard`` marks the fields where
      a_k >= b_k, ``m = d - (d >> (bits - 1))`` widens each mark to its
      field's value bits, and the lcm is ``(a & m) | (b & ~m)``;
      ``groebner._walk`` inlines it;
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


def row_leads(polys, rows):
    """For each nonzero tuple polynomial of ``polys``, a tuple with one
    entry per row of ``rows`` (int vectors): 1 + the index of the one term
    e with the largest ``row·e``, or 0 when several terms reach it, or the
    row has a negative entry.

    All rows are scored at once, in the lanes of one ``Fields`` with one
    field per row: column v packs variable v's entry of every row, and a
    term's packed score is the sum of its exponents times the columns.
    The lane-wise maximum is the packed lcm of the scores.  The guard-bit
    zero test of (maximum - score) marks, in each lane, the terms that
    reach the maximum; their count and the sum of their 1-based indices
    are summed lane-wise, and a lane of count 1 holds the index.  A lane
    holds every score, count and index sum, so no lane carries into the
    next.  A row with a negative entry is scored as the zero row, and its
    lane reads 0."""
    if not rows or not polys:
        return [() for _ in polys]
    scored = [min(row) >= 0 for row in rows]
    rows = [row if ok else (0,) * len(row) for row, ok in zip(rows, scored)]
    degree = max(1, max(sum(e) for f in polys for e, _ in f))
    most = max(map(len, polys))
    top = max(max(map(max, rows)) * degree, most * (most + 1) // 2)
    lanes = fields(len(rows), top)
    columns = [lanes.monomial(column) for column in zip(*rows)]
    guard, low = lanes.guard, lanes.bits - 1
    ones = sum(lanes.units)
    scored_guard = sum(u for u, ok in zip(lanes.units, scored) if ok) << low
    out = []
    for f in polys:
        scores = [sum(map(mul, e, columns)) for e, _ in f]
        best = reduce(lanes.lcm, scores)
        count = indices = 0
        for index, s in enumerate(scores, 1):
            # a zero lane of best - s borrows its guard bit away
            hit = (guard ^ ((best - s | guard) - ones) & guard) >> low
            count += hit
            indices += index * hit
        once = scored_guard ^ ((count - ones | guard) - ones) & scored_guard
        out.append(lanes.exponents(indices & once - (once >> low)))
    return out


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
    """``Fields`` with the order key of one order matrix.

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

    def unpack(self, f):
        """The tuple polynomial of packed terms."""
        return [(self.exponents(e), c) for _, e, c in f]


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


def spoly(f, g, lcm, key, layout, p):
    """S-polynomial of two packed polynomials (leads cancel), given the
    packed lcm of their leads and its order key, which the pair already
    holds.  The shifted tails are summed in a dict by order key."""
    fk, fe, fc = f[0]
    gk, ge, gc = g[0]
    terms = {}
    made = 0
    for h, shift, sk, factor in ((f, lcm - fe, key - fk, pow(fc, p - 2, p)),
                                 (g, lcm - ge, key - gk,
                                  p - pow(gc, p - 2, p))):
        for k, e, c in h[1:]:
            k += sk
            e += shift
            # every term made counts, even one that cancels: the key of an
            # overflowed monomial may equal another term's
            made |= e
            t = terms.get(k)
            terms[k] = k, e, (c * factor if t is None
                              else t[2] + c * factor) % p
    if made & layout.guard:
        raise _overflow(layout)
    return sorted([t for t in terms.values() if t[2]], reverse=True)


def normal_form(f, basis, layout, p, max_terms=0):
    """Fully reduce packed ``f`` modulo a list of packed polynomials.

    Returns the unique remainder none of whose terms is divisible by a
    lead term of ``basis`` (unique given the basis and its element order;
    canonical when ``basis`` is a Groebner basis).  Each step reduces the
    largest reducible term by the first element whose lead divides it.
    The terms still to reduce are summed in a dict by order key, beside a
    heap of their negated keys; the key of a term that cancels stays in
    the heap and is skipped when it comes to the top.  A positive
    ``max_terms`` aborts runaway intermediate growth: more terms to reduce
    and output than that.
    """
    if not f or not basis:
        return list(f)
    guard = layout.guard
    leads = [g[0][1] for g in basis]
    terms = {t[0]: t for t in f}
    heap = [-k for k in terms]  # f descends, so this is a heap
    out = []
    while heap:
        term = terms.pop(-heappop(heap), None)
        if term is None:
            continue
        k, e, c = term
        e_guarded = e | guard
        for idx, lead in enumerate(leads):
            if (e_guarded - lead) & guard == guard:
                break
        else:
            out.append(term)
            continue
        g = basis[idx]
        gk, ge, gc = g[0]
        shift, sk = e - ge, k - gk
        # term cancels against factor * x^shift * lead(g); every term
        # made is smaller
        factor = p - (c if gc == 1 else c * pow(gc, p - 2, p) % p)
        made = 0
        for tk, te, tc in g[1:]:
            tk += sk
            te += shift
            made |= te
            t = terms.get(tk)
            if t is None:
                terms[tk] = tk, te, tc * factor % p
                heappush(heap, -tk)
            else:
                tc = (t[2] + tc * factor) % p
                if tc:
                    terms[tk] = tk, te, tc
                else:
                    del terms[tk]
        if made & guard:
            raise _overflow(layout)
        if max_terms and len(terms) + len(out) > max_terms:
            raise ResourceLimitError(
                f"reduction exceeded {max_terms} terms")
    return out
