"""Brute-force reference implementations the tests compare the library with.

Each one is exponential or otherwise slow, and shares no logic with the
library code it checks.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from multigb.errors import (HypothesisNotSatisfiedError, NotSquarefreeError,
                            RingMismatchError)
from multigb.monomials import (HilbertNumerator, MonomialIdeal,
                               is_radical_monomial, support)
from multigb.poly import Polynomial
from multigb.ring import exp_lcm


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


def graded_dimension(I: MonomialIdeal, a: Sequence[int]) -> int:
    """Brute-force dim (S/I)_a: count standard monomials of multidegree a."""
    return sum(1 for exp in I.ring.monomials_of_multidegree(tuple(a))
               if not I.contains_monomial(exp))
