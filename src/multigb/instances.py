"""Deterministic random instance generators for the verification suites.

Everything is driven by a caller-supplied ``random.Random`` or seed, so any
sampled counterexample can be replayed from the recorded seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from multigb.csideals import is_cs, is_csstar
from multigb.determinantal import build_column_graded, build_row_graded, minors
from multigb.groebner import Ideal, ideal_from_monomials
from multigb.monomials import MonomialIdeal
from multigb.poly import Polynomial
from multigb.ring import DEFAULT_CHARACTERISTIC, BlockRing


def random_ring(rng: random.Random, max_blocks: int = 3,
                max_block_size: int = 3, max_vars: int = 8,
                characteristic: int = DEFAULT_CHARACTERISTIC) -> BlockRing:
    while True:
        v = rng.randint(1, max_blocks)
        sizes = tuple(rng.randint(1, max_block_size) for _ in range(v))
        if sum(sizes) <= max_vars:
            return BlockRing(sizes, characteristic)


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


def random_linear_form(ring: BlockRing, rng: random.Random,
                       block: int | None = None) -> Polynomial:
    """A random nonzero linear form in one block's variables."""
    if block is None:
        block = rng.randint(1, ring.v)
    p = ring.characteristic
    while True:
        terms = [(ring.unit_exp(v), rng.randrange(p))
                 for v in ring.block_vars(block)]
        terms = [(e, c) for e, c in terms if c]
        if terms:
            return Polynomial(ring, terms)


def strongly_stable_closure(ring: BlockRing, exps: Sequence[tuple]) -> MonomialIdeal:
    """Close generators under single exchanges toward earlier block positions
    and minimalize; the result is strongly stable."""
    todo = set(exps)
    seen = set()
    while todo:
        e = todo.pop()
        if e in seen:
            continue
        seen.add(e)
        for var, power in enumerate(e):
            if not power:
                continue
            block, pos = ring.var_pair(var)
            for k in range(1, pos):
                swapped = list(e)
                swapped[var] -= 1
                swapped[ring.var_index(block, k)] += 1
                swapped = tuple(swapped)
                if swapped not in seen:
                    todo.add(swapped)
    return MonomialIdeal(ring, sorted(seen))


def random_borel_fixed_squarefree(ring: BlockRing, rng: random.Random,
                                  max_gens: int = 3) -> MonomialIdeal:
    """A random squarefree strongly stable ideal: transversal generators
    (at most one variable per block) closed under exchanges."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exp = [0] * ring.nvars
        blocks = [b for b in range(1, ring.v + 1) if rng.random() < 0.7]
        if not blocks:
            blocks = [rng.randint(1, ring.v)]
        for b in blocks:
            exp[rng.choice(ring.block_vars(b))] = 1
        gens.append(tuple(exp))
    return strongly_stable_closure(ring, gens)


def random_first_variables_ideal(ring: BlockRing, rng: random.Random,
                                 max_gens: int = 3,
                                 max_block_degree: int = 2) -> MonomialIdeal:
    """A random monomial ideal supported on the first variable of each block."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exp = [0] * ring.nvars
        for block in range(1, ring.v + 1):
            exp[ring.var_index(block, 1)] = rng.randint(0, max_block_degree)
        if any(exp):
            gens.append(tuple(exp))
    if not gens:
        gens = [tuple(ring.unit_exp(ring.var_index(1, 1)))]
    return MonomialIdeal(ring, gens)


def _random_determinantal(rng: random.Random,
                          characteristic: int = DEFAULT_CHARACTERISTIC):
    """A random small graded matrix and its maximal- and 2-minor ideals."""
    grading = rng.choice(["column", "row"])
    if grading == "column":
        m = rng.randint(2, 3)
        v = m + 1
        sizes = tuple(rng.randint(2, 3) for _ in range(v))
        A = build_column_graded(m, sizes, seed=rng.randrange(2 ** 31),
                                characteristic=characteristic)
    else:
        v = rng.randint(2, 3)
        n = v + 1
        sizes = tuple(rng.randint(2, 3) for _ in range(v))
        A = build_row_graded(n, sizes, seed=rng.randrange(2 ** 31),
                             characteristic=characteristic)
    t = rng.choice([2, A.nrows])
    return A, Ideal(A.ring, minors(A, t))


def cs_instance_pool(count: int, seed: int = 0,
                     characteristic: int = DEFAULT_CHARACTERISTIC) -> list:
    """Verified radical-gin ideals: sampled initial ideals of random
    determinantal instances alternating with random squarefree strongly
    stable ideals.  Candidates failing verification are skipped."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        if len(pool) % 2 == 0:
            A, I = _random_determinantal(rng, characteristic)
            candidate = ideal_from_monomials(I.initial_ideal(A.ring.storage_order))
        else:
            ring = random_ring(rng, max_blocks=3, max_block_size=3, max_vars=7,
                               characteristic=characteristic)
            candidate = ideal_from_monomials(
                random_borel_fixed_squarefree(ring, rng))
        if candidate.is_zero_ideal or candidate.is_unit_ideal:
            continue
        # this draw once seeded the gin trials of the membership test; it
        # stays so that each seed still builds the same pool
        rng.randrange(2 ** 31)
        if is_cs(candidate).is_yes:
            pool.append(candidate)
    return pool


def csstar_instance_pool(count: int, seed: int = 0,
                         characteristic: int = DEFAULT_CHARACTERISTIC) -> list:
    """Verified first-variables ideals: maximal-minor ideals of random
    column-graded matrices alternating with random monomial ideals supported
    on first block variables."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        if len(pool) % 2 == 0:
            m = rng.randint(2, 3)
            sizes = tuple(rng.randint(2, 3) for _ in range(m + 1))
            A = build_column_graded(m, sizes, seed=rng.randrange(2 ** 31),
                                    characteristic=characteristic)
            candidate = Ideal(A.ring, minors(A, m))
        else:
            ring = random_ring(rng, max_blocks=3, max_block_size=3, max_vars=7,
                               characteristic=characteristic)
            candidate = ideal_from_monomials(
                random_first_variables_ideal(ring, rng))
        if candidate.is_zero_ideal or candidate.is_unit_ideal:
            continue
        rng.randrange(2 ** 31)  # kept, as in cs_instance_pool
        if is_csstar(candidate).is_yes:
            pool.append(candidate)
    return pool
