"""Deterministic random inputs of the benchmark: the two verified instance
pools, what they draw from, and random linear forms.

Everything is driven by a caller-supplied ``random.Random`` or seed, so any
sampled counterexample can be replayed from the recorded seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from multigb.csideals import is_cs, is_csstar
from multigb.determinantal import build_column_graded, build_row_graded, minors
from multigb.errors import InternalConsistencyError
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


# a pool gives up after this many candidates per member asked for
DRAWS_PER_MEMBER = 10


def _verified_pool(name: str, count: int, seed: int, draw, member) -> list:
    """``count`` candidates ``draw(rng, k)`` (k the members found so far)
    that ``member`` answers "yes" for; zero and unit ideals are skipped.
    Raises ``InternalConsistencyError`` after DRAWS_PER_MEMBER * count
    candidates, since a membership test that never answers "yes" is wrong."""
    rng = random.Random(seed)
    pool: list = []
    for _ in range(DRAWS_PER_MEMBER * count):
        if len(pool) == count:
            break
        candidate = draw(rng, len(pool))
        if candidate.is_zero_ideal or candidate.is_unit_ideal:
            continue
        # this draw once seeded the gin trials of the membership test; it
        # stays so that each seed still builds the same pool
        rng.randrange(2 ** 31)
        if member(candidate).is_yes:
            pool.append(candidate)
    if len(pool) < count:
        raise InternalConsistencyError(
            f"{name}(seed={seed}) found {len(pool)} of {count} members in "
            f"{DRAWS_PER_MEMBER * count} candidates")
    return pool


def cs_instance_pool(count: int, seed: int = 0,
                     characteristic: int = DEFAULT_CHARACTERISTIC) -> list:
    """Verified radical-gin ideals: sampled initial ideals of random
    determinantal instances alternating with random squarefree strongly
    stable ideals.  Candidates failing verification are skipped."""
    def draw(rng: random.Random, k: int) -> Ideal:
        if k % 2 == 0:
            A, I = _random_determinantal(rng, characteristic)
            return ideal_from_monomials(I.initial_ideal(A.ring.storage_order))
        ring = random_ring(rng, max_blocks=3, max_block_size=3, max_vars=7,
                           characteristic=characteristic)
        return ideal_from_monomials(random_borel_fixed_squarefree(ring, rng))

    return _verified_pool("cs_instance_pool", count, seed, draw, is_cs)


def csstar_instance_pool(count: int, seed: int = 0,
                         characteristic: int = DEFAULT_CHARACTERISTIC) -> list:
    """Verified first-variables ideals: maximal-minor ideals of random
    column-graded matrices alternating with random monomial ideals supported
    on first block variables."""
    def draw(rng: random.Random, k: int) -> Ideal:
        if k % 2 == 0:
            m = rng.randint(2, 3)
            sizes = tuple(rng.randint(2, 3) for _ in range(m + 1))
            A = build_column_graded(m, sizes, seed=rng.randrange(2 ** 31),
                                    characteristic=characteristic)
            return Ideal(A.ring, minors(A, m))
        ring = random_ring(rng, max_blocks=3, max_block_size=3, max_vars=7,
                           characteristic=characteristic)
        return ideal_from_monomials(random_first_variables_ideal(ring, rng))

    return _verified_pool("csstar_instance_pool", count, seed, draw, is_csstar)
