"""Brute-force reference implementations the tests compare the library with,
and the random instances only the tests draw.

Each reference is exponential or otherwise slow, and shares no logic with
the library code it checks.
"""

from __future__ import annotations

import functools
import itertools
import random
from operator import add, mul
from typing import Sequence

from multigb import kernel
from multigb.csideals import (PERMUTATION_FAMILY_CAP,
                              _block_respecting_priorities)
from multigb.errors import (HypothesisNotSatisfiedError, NotSquarefreeError,
                            ResourceLimitError, RingMismatchError)
from multigb.gin import BorelElement
from multigb.groebner import (Ideal, project_out_variable,
                              ring_without_variable)
from multigb.monomials import (HilbertNumerator, MonomialIdeal,
                               hilbert_numerator, is_radical_monomial,
                               support)
from multigb.poly import Polynomial
from multigb.ring import (BlockRing, TermOrder, degrevlex, exp_divides, lex,
                          weight_order)
from multigb.script import ScriptError, Token


def order_key(order: TermOrder, exp: tuple) -> tuple:
    """The order matrix times ``exp``; monomials compare by these vectors
    lexicographically.  The reference for the kernel's packed order keys."""
    return tuple(sum(map(mul, row, exp)) for row in order.rows)


def lead_exponents(polys: Sequence[Polynomial],
                   orders: Sequence[TermOrder]) -> list:
    """Reference for ``poly.lead_exponents``: every term scored under the
    first rows of all orders in a list of ints, one per order; a unique top
    score marks the lead, and a tie falls back to ``lead_exp``."""
    if not orders:
        return []
    columns = list(zip(*(o.rows[0] for o in orders)))
    zeros = [0] * len(orders)
    out = [[] for _ in orders]
    for p in polys:
        terms = p.terms
        if not terms:
            raise ValueError("zero polynomial has no lead term")
        per_term = []
        for exp, _ in terms:
            scores = zeros
            for v, e in enumerate(exp):
                if e:
                    column = columns[v]
                    if e > 1:
                        column = [e * c for c in column]
                    scores = list(map(add, scores, column))
            per_term.append(scores)
        for leads, o, scores in zip(out, orders, zip(*per_term)):
            best = max(scores)
            leads.append(terms[scores.index(best)][0]
                         if scores.count(best) == 1 else p.lead_exp(o))
    return out


def row_leads(polys: Sequence[list], rows: Sequence[tuple]) -> list:
    """Reference for ``kernel.row_leads``: each row scored term by term."""
    out = []
    for f in polys:
        leads = []
        for row in rows:
            scores = [sum(map(mul, row, e)) for e, _ in f]
            best = max(scores)
            unique = min(row) >= 0 and scores.count(best) == 1
            leads.append(scores.index(best) + 1 if unique else 0)
        out.append(tuple(leads))
    return out


def by_order(exps, matrix: tuple) -> list:
    """Reference for ``groebner._by_order``: exponent tuples sorted
    descending by the order key of the narrowest ``kernel.layout`` holding
    their largest entry."""
    exps = list(exps)
    top = max((max(e) for e in exps), default=0)
    key = kernel.layout(matrix, kernel.fields(1, top).bits).key
    return sorted(exps, key=key, reverse=True)


def sample_orders(ring: BlockRing, n_weight: int, seed: int = 0,
                  include_permutations: bool = True) -> list:
    """Reference for ``csideals.sample_orders``: the lex and degrevlex
    family as the library lists it, then every drawn weight vector built
    into a ``weight_order`` and kept when its rows are new."""
    orders = []
    if include_permutations and ring.nvars <= 8:
        for prio in _block_respecting_priorities(ring):
            orders.append(lex(ring, prio))
            orders.append(degrevlex(ring, prio))
            if len(orders) >= PERMUTATION_FAMILY_CAP:
                break
    else:
        orders.append(degrevlex(ring))
        orders.append(lex(ring))
    rng = random.Random(seed)
    seen = {o.rows for o in orders}
    added = 0
    while added < n_weight:
        w = tuple(rng.randrange(1, 1001) for _ in range(ring.nvars))
        o = weight_order(ring, w)
        if o.rows in seen:
            continue
        seen.add(o.rows)
        orders.append(o)
        added += 1
    return orders


def sampled_records(I: Ideal, orders: Sequence[TermOrder],
                    leads) -> list:
    """Reference for ``csideals._sampled_records``: each distinct lead set
    builds its lead ideal and compares its own numerator with I's."""
    series = I.hilbert_series() if I.is_multihomogeneous else None
    ideals: dict = {}  # (lead ideal, certified) by lead set
    out = []
    for o, exps in zip(orders, leads):
        lead_set = frozenset(exps)
        hit = ideals.get(lead_set)
        if hit is None:
            lead_ideal = MonomialIdeal(I.ring, exps)
            hit = ideals[lead_set] = (
                lead_ideal, series is not None
                and hilbert_numerator(lead_ideal) == series)
        lead_ideal, certified = hit
        if certified:
            lead_exps = by_order(lead_ideal.gens, o.rows)
            degrees = [I.ring.multidegree(e) for e in lead_exps]
        else:
            gb = I.groebner_basis(o)
            lead_exps = gb.lead_exponents()
            degrees = [g.multidegree() for g in gb]
        out.append((lead_ideal, {"order": o.name, "lead_exps": lead_exps,
                                 "gb_multidegrees": degrees}, certified))
    return out


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
                base = Polynomial.monomial(ring, ring.unit_exp(v))
            elif base.ring != ring:
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


def coordinate_section(I: Ideal, var: int) -> Ideal:
    """I cap K[all variables but ``var``], as an ideal of the ring without
    ``var``: the elements of I's elimination basis free of ``var``.  The
    reference for the section series that ``closure_suite`` reads off I's
    elimination leads; the section has no model, so its series comes from
    a basis of its own."""
    small = ring_without_variable(I.ring, var)
    return Ideal(small, [project_out_variable(g, small, var)
                         for g in I.eliminate({var}).gens], I.limits)


def gamma_sequence(ring: BlockRing) -> list:
    """The linear forms x[i,j] - x[i,1] for j >= 2, block by block.

    A proper monomial ideal I is in the first-variables family exactly
    when ``regular_sequence_test(I, gamma_sequence(ring))`` holds; the
    reference for ``is_csstar``, which decides by the series alone."""
    out = []
    for block in range(1, ring.v + 1):
        first = Polynomial.variable(ring, block, 1)
        for j in range(2, ring.block_sizes[block - 1] + 1):
            out.append(Polynomial.variable(ring, block, j) - first)
    return out


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


def determinant_cofactor(rows: list) -> Polynomial:
    """Cofactor expansion along the first row, through ``Polynomial``
    arithmetic; the reference for ``determinantal.minors``."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    total = Polynomial.zero(ring)
    for j, f in enumerate(rows[0]):
        if f.is_zero:
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = f * determinant_cofactor(sub)
        total = total - term if j % 2 else total + term
    return total


def minors(A, t: int, determinant=determinant_cofactor) -> list:
    """The nonzero t-minors of the graded matrix A, one ``determinant`` per
    row and column subset, in lexicographic row/column-subset order."""
    m, n = A.shape
    out = []
    for rows in itertools.combinations(range(m), t):
        for cols in itertools.combinations(range(n), t):
            d = determinant([[A.entries[i][j] for j in cols] for i in rows])
            if not d.is_zero:
                out.append(d)
    return out


def cycle_binomials(X) -> list:
    """The binomials of the even cycles of K_{m,n} on a matrix X of
    distinct variables: a 2k-cycle through rows r_1..r_k and columns
    c_1..c_k gives x[r_1 c_1]...x[r_k c_k] - x[r_2 c_1]...x[r_1 c_k].

    I_2(X) is the toric ideal of K_{m,n}, whose matrix is unimodular, so
    its universal Groebner basis is its set of circuits (Sturmfels,
    *Groebner Bases and Convex Polytopes*, ch. 4 and 8), and the circuits
    of a graph's toric ideal are its even cycles (Villarreal 1995).  There
    are C(m,k) C(n,k) k! (k-1)! / 2 cycles of length 2k."""
    m, n = X.shape
    out: dict = {}
    for k in range(2, min(m, n) + 1):
        for rows in itertools.permutations(range(m), k):
            if rows[0] != min(rows):
                continue
            for cols in itertools.permutations(range(n), k):
                a, b = (
                    functools.reduce(mul, (X.entries[r][c]
                                           for r, c in zip(rs, cols)))
                    for rs in (rows, rows[1:] + rows[:1]))
                # the reversed cycle gives the same two monomials
                out.setdefault(frozenset((a.terms[0][0], b.terms[0][0])),
                               a - b)
    return list(out.values())


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
        out = out + HilbertNumerator(v, {ring.multidegree(lcm): sign})
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


def pack(layout: kernel.Layout, f: list) -> list:
    """The packed terms ``(order key, packed monomial, coefficient)`` of a
    tuple polynomial, term by term, as ``groebner._packed_run`` packs the
    inputs of a run."""
    return [(layout.key(e), layout.monomial(e), c) for e, c in f]


def min_scan_buchberger(gens, layout, p, limits, series=None, bound=None):
    """Reference Buchberger run on packed generators, independent of
    ``groebner._walk``: the generators are reduced in the order given, then
    every pending pair is kept in a dict and the next one picked by a
    ``min`` scan over (total degree, order key, lcm, multidegree), ties
    going to the pair first in the dict, which is the pair made first.  The
    Gebauer-Moeller criteria are applied on exponent tuples: the chain
    rule, one pair per minimal lcm, made in increasing packed value, and
    none for coprime leads.  With ``series`` (multihomogeneous generators),
    a pair is skipped when the leads of the basis already cover its
    multidegree (``series.missing`` is 0).  With ``bound``, the truncation
    ``groebner._within(ring, b)``, generators and pairs outside b are
    dropped.  Returns the unreduced basis in insertion order; a resource
    abort carries the basis size, the pending pairs and the degree
    reached."""
    basis, pairs = [], {}
    multidegree = bound
    if series is not None and bound is None:
        multidegree = series.ring.multidegree
    degree = 0

    def settled(a):
        ring = series.ring
        leads = [layout.exponents(g[0][1]) for g in basis]
        return series.missing(a, [(e, ring.multidegree(e))
                                  for e in leads]) == 0

    def grow(r):
        inv = pow(r[0][2], p - 2, p)
        f = [(k, e, c * inv % p) for k, e, c in r]
        lf = f[0][1]
        leads = [g[0][1] for g in basis]
        lcms = [layout.lcm(a, lf) for a in leads]
        ef = layout.exponents(lf)
        for (i, j), value in list(pairs.items()):
            gamma = value[2]
            if (exp_divides(ef, layout.exponents(gamma))
                    and gamma != lcms[i] and gamma != lcms[j]):
                del pairs[(i, j)]
        candidates = sorted(set(lcms))
        for gamma in candidates:
            exp = layout.exponents(gamma)
            if any(other != gamma and exp_divides(layout.exponents(other), exp)
                   for other in candidates):
                continue
            group = [i for i, c in enumerate(lcms) if c == gamma]
            if any(gamma == leads[i] + lf for i in group):
                continue
            a = multidegree(exp) if multidegree is not None else None
            if multidegree is not None and a is None:
                continue
            pairs[(group[0], len(basis))] = (sum(exp), layout.key(exp), gamma,
                                             a)
        basis.append(f)
        if len(basis) > limits.max_basis:
            raise ResourceLimitError("basis too large")

    try:
        for g in gens:
            if not g:
                continue
            lead = layout.exponents(g[0][1])
            degree = sum(lead)
            if bound is not None and bound(lead) is None:
                continue
            r = kernel.normal_form(g, basis, layout, p, limits.max_terms)
            if r:
                grow(r)
        while pairs:
            i, j = min(pairs, key=pairs.__getitem__)
            degree, key, gamma, a = pairs.pop((i, j))
            if series is not None and settled(a):
                continue
            s = kernel.spoly(basis[i], basis[j], gamma, key, layout, p)
            r = kernel.normal_form(s, basis, layout, p, limits.max_terms)
            if r:
                if len(r) > limits.max_terms:
                    raise ResourceLimitError("element too large")
                grow(r)
    except ResourceLimitError as e:
        raise ResourceLimitError(str(e), basis_size=len(basis),
                                 pending_pairs=len(pairs),
                                 degree=degree) from None
    return basis


def reduce_by_all_others(basis, layout, p):
    """Reference for the final pass of ``groebner._walk``: of a packed
    Groebner basis with distinct leads, the elements whose leads no other
    lead divides, each reduced modulo all the other kept elements and made
    monic, sorted by lead, largest first."""
    leads = [layout.exponents(g[0][1]) for g in basis]
    keep = [g for g, a in zip(basis, leads)
            if not any(b != a and exp_divides(b, a) for b in leads)]
    reduced = []
    for i, g in enumerate(keep):
        r = kernel.normal_form(g, keep[:i] + keep[i + 1:], layout, p)
        inv = pow(r[0][2], p - 2, p)
        reduced.append([(k, e, c * inv % p) for k, e, c in r])
    return sorted(reduced, key=lambda g: g[0][0], reverse=True)


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


def tokenize(text: str) -> list:
    """The script tokenizer as two passes: a character loop that keeps
    newlines as NEWLINE tokens, then a pass that tracks bracket depth and
    turns a newline or ';' at depth zero into END.  A comment does not
    advance the column, so an END after one carries its first column.  The
    reference for ``script.tokenize`` on characters whose ``isdigit()``
    equals their ``isdecimal()``."""
    raw = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            raw.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            raw.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            raw.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        if ch in "=[]{}(),;*+-^:":
            raw.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise ScriptError(f"unexpected character {ch!r}", line, col)

    out = []
    depth = 0
    for tok in raw:
        if tok.kind == "SYM" and tok.text in "([{":
            depth += 1
        elif tok.kind == "SYM" and tok.text in ")]}":
            depth = max(0, depth - 1)
        if tok.kind == "NEWLINE":
            if depth == 0:
                out.append(Token("END", ";", tok.line, tok.col))
            continue
        if tok.kind == "SYM" and tok.text == ";" and depth == 0:
            out.append(Token("END", ";", tok.line, tok.col))
            continue
        out.append(tok)
    last_line = raw[-1].line if raw else 1
    out.append(Token("EOF", "", last_line, 0))
    return out


# -- random instances only the tests draw ------------------------------------



def random_monomial_exp(ring: BlockRing, rng: random.Random,
                        max_block_degree: int = 2) -> tuple:
    """A random nonconstant exponent tuple with each block degree bounded."""
    while True:
        exp = [0] * ring.nvars
        for block in range(1, ring.v + 1):
            for _ in range(rng.randint(0, max_block_degree)):
                exp[rng.choice(ring.block_vars(block))] += 1
        if any(exp):
            return tuple(exp)


def random_monomial_ideal(ring: BlockRing, rng: random.Random,
                          max_gens: int = 4,
                          max_block_degree: int = 2) -> MonomialIdeal:
    """A random nonzero proper monomial ideal."""
    gens = [random_monomial_exp(ring, rng, max_block_degree)
            for _ in range(rng.randint(1, max_gens))]
    return MonomialIdeal(ring, gens)


def random_squarefree_exp(ring: BlockRing, rng: random.Random) -> tuple:
    while True:
        exp = tuple(rng.randint(0, 1) for _ in range(ring.nvars))
        if any(exp):
            return exp


def random_squarefree_ideal(ring: BlockRing, rng: random.Random,
                            max_gens: int = 4) -> MonomialIdeal:
    gens = [random_squarefree_exp(ring, rng)
            for _ in range(rng.randint(1, max_gens))]
    return MonomialIdeal(ring, gens)


def random_monomial_of_multidegree(ring: BlockRing, rng: random.Random,
                                   degree: Sequence[int]) -> tuple:
    exp = [0] * ring.nvars
    for block, d in enumerate(degree, start=1):
        for _ in range(d):
            exp[rng.choice(ring.block_vars(block))] += 1
    return tuple(exp)


def random_multihomogeneous_polynomial(ring: BlockRing, rng: random.Random,
                                       degree: Sequence[int],
                                       max_terms: int = 3) -> Polynomial:
    """A random nonzero multihomogeneous polynomial of the given degree."""
    p = ring.characteristic
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exp = random_monomial_of_multidegree(ring, rng, degree)
            terms[exp] = (terms.get(exp, 0) + rng.randrange(1, p)) % p
        terms = [(e, c) for e, c in terms.items() if c]
        if terms:
            return Polynomial(ring, terms)


def random_graded_ideal(ring: BlockRing, rng: random.Random,
                        max_gens: int = 3, max_block_degree: int = 2,
                        max_terms: int = 3) -> Ideal:
    """A random multihomogeneous ideal with small nonzero degrees."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        while True:
            degree = tuple(rng.randint(0, max_block_degree)
                           for _ in range(ring.v))
            if any(degree):
                break
        gens.append(random_multihomogeneous_polynomial(
            ring, rng, degree, max_terms))
    return Ideal(ring, gens)
