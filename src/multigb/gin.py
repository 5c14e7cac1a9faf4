"""Multigraded generic initial ideals via random Borel coordinate changes.

A Borel element is one upper-triangular invertible matrix per block.  It
acts by sending each variable into the span of the earlier-or-equal
variables of its block, so lead terms drift toward the first variable,
matching the convention that x[i,1] is the largest variable of block i.
The gin is computed as in(b(I)) for several random b; agreement across
trials is the (probabilistic) genericity certificate.

The Borel-fixed ideals are exactly the possible gins (Galligo,
Bayer-Stillman): a Borel-fixed monomial ideal I has b(I) = I for every
Borel element b, so it is its own gin under every order, in every
characteristic.  ``gin`` returns such an input at once, with no trials and
no seeds; its verdict is deterministic.  Every other input runs the trials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from multigb import groebner
from multigb.errors import InconclusiveError, InternalConsistencyError
from multigb.groebner import Ideal
from multigb.monomials import MonomialIdeal, hilbert_numerator, is_borel_fixed
from multigb.poly import Polynomial
from multigb.ring import BlockRing, TermOrder

SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class BorelElement:
    """Per block, an upper-triangular invertible matrix over F_p.

    ``blocks[i][k][j]`` (0-based, k <= j) is the coefficient of x[i+1,k+1]
    in the image of x[i+1,j+1].
    """
    ring: BlockRing
    blocks: tuple


def random_borel(ring: BlockRing, seed: int) -> BorelElement:
    """Deterministic-per-seed Borel element: diagonal uniform in F_p minus
    zero, strictly-upper entries uniform in F_p."""
    rng = random.Random(seed)
    p = ring.characteristic
    blocks = []
    for n in ring.block_sizes:
        mat = [[0] * n for _ in range(n)]
        for k in range(n):
            for j in range(k, n):
                mat[k][j] = rng.randrange(1, p) if k == j else rng.randrange(p)
        blocks.append(tuple(tuple(row) for row in mat))
    return BorelElement(ring, tuple(blocks))


def _variable_images(g: BorelElement, variables) -> dict:
    """Term lists ``[(exponents, coefficient)]`` of the images under ``g``
    of the given flat variable indices."""
    ring = g.ring
    images = {}
    for var in variables:
        block, j = ring.var_pair(var)
        mat = g.blocks[block - 1]
        images[var] = [(ring.unit_exp(ring.var_index(block, k)),
                        mat[k - 1][j - 1])
                       for k in range(1, j + 1) if mat[k - 1][j - 1]]
    return images


def _trial(g: BorelElement, I: Ideal, order: TermOrder) -> MonomialIdeal:
    """in(g(I)) under ``order``: the generators are moved by
    ``Polynomial.substitute``, their reduced basis is computed by
    ``groebner._reduced_basis_raw``, and the initial ideal is read off its
    leads.  g(I) has the Hilbert series of I, so the run skips pairs by I's
    cutoff (``Ideal._series_cutoff``) once I has a model or a basis
    cached."""
    ring = I.ring
    images = {v: Polynomial(ring, terms) for v, terms in _variable_images(
        g, set().union(*(f.support_vars() for f in I.gens))).items()}
    basis = groebner._reduced_basis_raw(
        [f.substitute(images).terms for f in I.gens], order.rows,
        ring.characteristic, I.limits, I._series_cutoff())
    return MonomialIdeal(ring, [f[0][0] for f in basis], _minimal=True)


@dataclass(frozen=True)
class GinReport:
    """Outcome of a gin computation.

    ``trials`` is 0, ``seeds`` empty and the one candidate the input when
    the input is a Borel-fixed monomial ideal, which is its own gin.
    """
    result: MonomialIdeal | None
    candidates: tuple
    trials: int
    agreement: bool
    seeds: tuple
    order: TermOrder

    def require(self) -> MonomialIdeal:
        if not self.agreement or self.result is None:
            raise InconclusiveError(
                f"gin trials disagreed under {self.order} (seeds {self.seeds})")
        return self.result


def gin(I: Ideal, order: TermOrder | None = None, trials: int = 3,
        seed: int = 0) -> GinReport:
    """in(b(I)) over ``trials`` random Borel elements; agreement required for
    a definitive result.  An agreeing result must be Borel fixed, and must
    have the series of I's cutoff when the trials had one to skip pairs by.

    A Borel-fixed monomial ideal is returned as its own gin without trials.
    """
    if trials < 1:
        raise ValueError(f"gin needs trials >= 1, got {trials}")
    ring = I.ring
    order = order or ring.storage_order
    if not order.respects_block_convention(ring):
        raise ValueError(
            "gin needs an order with x[i,j] > x[i,k] for j < k in every block")
    if I.is_monomial:
        M = I.monomial_ideal()
        if is_borel_fixed(M):
            return GinReport(result=M, candidates=(M,), trials=0,
                             agreement=True, seeds=(), order=order)
    seeds = tuple(seed * SEED_STRIDE + k for k in range(trials))
    candidates = tuple(_trial(random_borel(ring, s), I, order)
                       for s in seeds)
    agreement = all(c == candidates[0] for c in candidates[1:])
    result = candidates[0] if agreement else None
    # a pair skipped by the series cutoff can only leave a candidate too
    # small, which its series shows
    cutoff = I._series_cutoff()
    if (agreement and cutoff is not None
            and hilbert_numerator(result) != cutoff.series):
        raise InternalConsistencyError(
            "agreeing gin candidate does not have the ideal's Hilbert "
            "series; the engine is wrong")
    if agreement and not is_borel_fixed(result):
        raise InternalConsistencyError(
            "agreeing gin candidate is not Borel fixed; the randomness was "
            "degenerate or the engine is wrong")
    return GinReport(result=result, candidates=candidates, trials=trials,
                     agreement=agreement, seeds=seeds, order=order)

