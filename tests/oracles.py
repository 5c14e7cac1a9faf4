"""Brute-force reference implementations the tests compare the library with.

Each one is exponential or otherwise slow, and shares no logic with the
library code it checks.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import Sequence

from multigb import kernel
from multigb.errors import (HypothesisNotSatisfiedError, NotSquarefreeError,
                            RingMismatchError)
from multigb.gin import BorelElement
from multigb.groebner import (Ideal, project_out_variable,
                              ring_without_variable)
from multigb.monomials import (HilbertNumerator, MonomialIdeal,
                               is_radical_monomial, support)
from multigb.poly import Polynomial
from multigb.ring import BlockRing, TermOrder, degrevlex, exp_divides


def order_key(order: TermOrder, exp: tuple) -> tuple:
    """The order matrix times ``exp``; monomials compare by these vectors
    lexicographically.  The reference for the kernel's packed order keys."""
    return tuple(sum(map(mul, row, exp)) for row in order.rows)


def degrevlex_blocks_reversed(ring: BlockRing) -> TermOrder:
    """Degrevlex with the blocks visited last-to-first; still respects the
    within-block convention.  An order other than the storage order for
    the tests to run under."""
    prio = []
    for block in range(ring.v, 0, -1):
        prio.extend(ring.block_vars(block))
    return TermOrder("degrevlex[blocks reversed]",
                     degrevlex(ring, tuple(prio)).rows)


def exp_lcm(a: tuple, b: tuple) -> tuple:
    """Fieldwise maximum of two exponent tuples; the reference for the
    packed lcm of ``kernel.Fields``."""
    return tuple(max(x, y) for x, y in zip(a, b))


def substitute(f: Polynomial, images: dict) -> Polynomial:
    """Reference for ``Polynomial.substitute``: a sum over the terms of f of
    products of powers of the images, in whole-``Polynomial`` arithmetic."""
    ring = f.ring
    cache: dict = {}

    def var_power(v: int, e: int) -> Polynomial:
        key = (v, e)
        if key not in cache:
            base = images.get(v)
            if base is None:
                cache[key] = Polynomial.monomial(ring, ring.unit_exp(v, e))
            else:
                if base.ring != ring:
                    raise RingMismatchError("substitution image in a different ring")
                cache[key] = base ** e
        return cache[key]

    total = Polynomial.zero(ring)
    for exp, coeff in f.terms:
        part = Polynomial.constant(ring, coeff)
        for v, e in enumerate(exp):
            if e:
                part = part * var_power(v, e)
        total = total + part
    return total


def apply_change(g: BorelElement, I: Ideal) -> Ideal:
    """The ideal g(I), every variable replaced by its image under the Borel
    element g in whole-``Polynomial`` arithmetic; the reference for the
    packed gin trial."""
    ring = I.ring
    images = {}
    for var in range(ring.nvars):
        block, j = ring.var_pair(var)
        mat = g.blocks[block - 1]
        images[var] = sum((Polynomial.variable(ring, block, k) * mat[k - 1][j - 1]
                           for k in range(1, j + 1)), Polynomial.zero(ring))
    return Ideal(ring, [substitute(f, images) for f in I.gens], I.limits)


def quotient_by_linear_form(I: Ideal, L: Polynomial) -> tuple:
    """(I + (L))/(L) in S/(L), identified with the ring that drops x_v, the
    highest variable of the multigraded linear form L: x_v is replaced by
    the combination of L's other variables that L = 0 makes it.  Returns
    (the ideal in the smaller ring, v); the reference for the quotient
    series that ``closure_suite`` derives."""
    deg = L.multidegree()
    if L.is_zero or deg is None or sum(deg) != 1:
        raise HypothesisNotSatisfiedError(
            "expected a nonzero multigraded linear form")
    ring = I.ring
    p = ring.characteristic
    v = max(L.support_vars())
    small = ring_without_variable(ring, v)
    c = next(c for e, c in L.terms if e[v])
    x_v = Polynomial.monomial(ring, ring.unit_exp(v))
    image = (x_v * c - L) * pow(c, p - 2, p)
    return Ideal(small, [project_out_variable(g.substitute({v: image}),
                                              small, v)
                         for g in I.gens], I.limits), v


def determinant_leibniz(rows: list) -> Polynomial:
    """Permutation-sum determinant, the independent oracle."""
    n = len(rows)
    ring = rows[0][0].ring
    total = Polynomial.zero(ring)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a, b in itertools.combinations(range(n), 2)
                         if perm[a] > perm[b])
        prod = Polynomial.one(ring)
        for i in range(n):
            prod = prod * rows[i][perm[i]]
            if prod.is_zero:
                break
        total = total - prod if inversions % 2 else total + prod
    return total


def intersect_monomial(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Pairwise-lcm rule; independent oracle for the engine's intersect."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    return MonomialIdeal(I.ring, [exp_lcm(a, b) for a in I.gens for b in J.gens])


def alexander_dual_bruteforce(I: MonomialIdeal) -> MonomialIdeal:
    """Oracle: generators of the dual are the minimal transversals of the
    generator supports.  Exponential."""
    if not is_radical_monomial(I):
        raise NotSquarefreeError("Alexander dual requires squarefree generators")
    if I.is_zero or I.is_unit:
        raise HypothesisNotSatisfiedError(
            "Alexander dual requires a nonzero proper ideal")
    ring = I.ring
    supports = [set(support(g)) for g in I.gens]
    universe = sorted(set().union(*supports))
    transversals = []
    for mask in range(1, 1 << len(universe)):
        subset = {universe[k] for k in range(len(universe)) if mask >> k & 1}
        if all(subset & s for s in supports):
            transversals.append(subset)
    minimal = [s for s in transversals
               if not any(t < s for t in transversals)]
    gens = []
    for s in minimal:
        e = [0] * ring.nvars
        for v in s:
            e[v] = 1
        gens.append(tuple(e))
    return MonomialIdeal(ring, gens)


def hilbert_numerator_inclusion_exclusion(I: MonomialIdeal) -> HilbertNumerator:
    """Oracle: K(S/I) = sum over generator subsets of (-1)^|T| y^{deg lcm(T)}.
    Exponential."""
    ring = I.ring
    v = ring.v
    out = HilbertNumerator(v, {})
    gens = I.gens
    for mask in range(1 << len(gens)):
        chosen = [gens[k] for k in range(len(gens)) if mask >> k & 1]
        lcm = (0,) * ring.nvars
        for g in chosen:
            lcm = exp_lcm(lcm, g)
        sign = -1 if len(chosen) % 2 else 1
        out = out + HilbertNumerator.monomial(v, ring.multidegree(lcm), sign)
    return out


def hilbert_numerator_packed(I: MonomialIdeal) -> HilbertNumerator:
    """Oracle: Bigatti's pivot recursion on I itself, not its polarization.

    Monomials are packed by ``kernel.Fields`` with one exponent field per
    variable; supports compare as guard-bit masks.  Groups of disjoint
    support multiply; a group that does not split is split at the variable
    x most of its generators hold (the first on ties):
    K(S/I) = y^{deg x} * K(S/(I:x)) + K(S/(I+(x))), where the colon
    subtracts x from every generator that holds it."""
    ring = I.ring
    n, v = ring.nvars, ring.v
    if not I.gens:
        return HilbertNumerator.one(v)
    lcm = tuple(map(max, zip(*I.gens)))
    fields = kernel.fields(n, max(lcm))
    guard, units, exponents = fields.guard, fields.units, fields.exponents
    holds = [u * fields.field_max for u in units]  # guard bit of each field
    below_guard = guard - sum(units)  # g + below_guard sets g's support guards
    ydegrees = kernel.fields(v, max(ring.multidegree(lcm)))
    ydeg = [ydegrees.units[ring.var_pair(k)[0] - 1] for k in range(n)]

    def rec(gens: tuple) -> dict:
        masks = [(g + below_guard) & guard for g in gens]
        groups = []  # [support mask, generators] of disjoint supports
        for g, m in zip(gens, masks):
            joined = [m, [g]]
            apart = []
            for group in groups:
                if group[0] & m:
                    joined[0] |= group[0]
                    joined[1] += group[1]
                else:
                    apart.append(group)
            apart.append(joined)
            groups = apart
        if len(gens) == 1:
            g = gens[0]
            return {0: 1, sum(map(mul, exponents(g), ydeg)): -1} if g else {}
        if len(groups) > 1:
            out = {0: 1}
            for _, members in groups:
                prod: dict = {}
                for b, d in rec(tuple(sorted(members))).items():
                    for a, c in out.items():
                        prod[a + b] = prod.get(a + b, 0) + c * d
                out = {a: c for a, c in prod.items() if c}
            return out
        counts = [sum([1 for m in masks if m & h]) for h in holds]
        pivot = counts.index(max(counts))
        x, hold = units[pivot], holds[pivot]
        colon = [g - x if m & hold else g for g, m in zip(gens, masks)]
        plus = [g for g, m in zip(gens, masks) if not m & hold]
        plus.append(x)
        out = dict(rec(tuple(sorted(plus))))
        shift = ydeg[pivot]
        for a, c in rec(tuple(kernel.minimal(colon, guard))).items():
            out[a + shift] = out.get(a + shift, 0) + c
        return {a: c for a, c in out.items() if c}

    return HilbertNumerator(v, {
        ydegrees.exponents(a): c
        for a, c in rec(tuple(sorted(map(fields.monomial, I.gens)))).items()})


def graded_dimension(I: MonomialIdeal, a: Sequence[int]) -> int:
    """Brute-force dim (S/I)_a: count standard monomials of multidegree a."""
    return sum(1 for exp in I.ring.monomials_of_multidegree(tuple(a))
               if not I.contains_monomial(exp))


# -- the Buchberger kernel on exponent tuples --------------------------------

def _times_term(f, shift, c, p):
    """The tuple polynomial f times c * x^shift, c a unit mod p; a term
    order is multiplicative, so the terms stay sorted."""
    return [(tuple(a + b for a, b in zip(e, shift)), k * c % p)
            for e, k in f]


def normal_form(f, basis, matrix, p, limit=None):
    """Tuple-term reference for ``kernel.normal_form``: the largest term
    divisible by a basis lead is reduced by the first such element, leads
    tested with ``exp_divides`` on whole exponent vectors.  Returns the
    remainder and the largest exponent any term created on the way had;
    the remainder is None when that exponent reached ``limit``, where the
    reduction stops."""
    leads = [g[0][0] for g in basis]
    work = list(f)
    top = max((max(e) for e, _ in work), default=0)
    out = []
    while work:
        exp, coeff = work[0]
        hit = next((g for g, lead in zip(basis, leads)
                    if exp_divides(lead, exp)), None)
        if hit is None:
            out.append(work.pop(0))
            continue
        glead, glc = hit[0]
        shift = tuple(a - b for a, b in zip(exp, glead))
        factor = (coeff * pow(glc, p - 2, p)) % p
        tail = _times_term(hit[1:], shift, p - factor, p)
        top = max([top] + [max(e) for e, _ in tail])
        if limit is not None and top >= limit:
            return None, top
        work = kernel.sort_terms(work[1:] + tail, matrix, p)
    return out, top


def spoly(f, g, matrix, p):
    """Tuple-term reference for ``kernel.spoly``."""
    ef, cf = f[0]
    eg, cg = g[0]
    lcm = exp_lcm(ef, eg)
    sf = _times_term(f, tuple(l - a for l, a in zip(lcm, ef)),
                     pow(cf, p - 2, p), p)
    sg = _times_term(g, tuple(l - a for l, a in zip(lcm, eg)),
                     p - pow(cg, p - 2, p), p)
    return kernel.sort_terms(sf + sg, matrix, p)


def groebner_basis(gens, matrix, p):
    """Reduced Groebner basis of tuple term lists by Buchberger's algorithm,
    as monic term lists sorted under ``matrix``, largest lead first.  Pairs
    go by lowest lcm degree; only pairs with coprime leads are skipped."""
    basis = [g for g in (kernel.sort_terms(list(g), matrix, p) for g in gens)
             if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = min(pairs, key=lambda ij: sum(exp_lcm(basis[ij[0]][0][0],
                                                     basis[ij[1]][0][0])))
        pairs.remove((i, j))
        if not any(a and b for a, b in zip(basis[i][0][0], basis[j][0][0])):
            continue
        r, _ = normal_form(spoly(basis[i], basis[j], matrix, p), basis,
                           matrix, p)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    minimal = [g for i, g in enumerate(basis)
               if not any(exp_divides(h[0][0], g[0][0])
                          and (h[0][0] != g[0][0] or j < i)
                          for j, h in enumerate(basis) if j != i)]
    reduced = []
    for i, g in enumerate(minimal):
        r, _ = normal_form(g, minimal[:i] + minimal[i + 1:], matrix, p)
        inv = pow(r[0][1], p - 2, p)
        reduced.append([(e, c * inv % p) for e, c in r])
    return sorted(reduced, key=lambda g: [sum(map(mul, row, g[0][0]))
                                          for row in matrix], reverse=True)
