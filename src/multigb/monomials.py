"""Combinatorics of monomial ideals in a block-graded ring.

Monomials are exponent tuples (the kernel convention).  A MonomialIdeal
stores the unique minimal generating antichain.  Minimalization and
``alexander_dual`` run on ints packed by ``kernel.Fields``, so a
divisibility test is one subtraction.  ``hilbert_numerator`` runs on the
polarization of an ideal, squarefree monomials packed one bit per
position by ``kernel.Fields``, so a support test is one AND.  Beyond
that packing nothing comes from the Groebner engine; everything here is
exact combinatorics and serves as an independent oracle for it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

from multigb import kernel
from multigb.errors import (HypothesisNotSatisfiedError, NotSquarefreeError,
                            PolarizationCapacityError, RingMismatchError)
from multigb.ring import BlockRing, exp_divides


def _minimal_antichain(exps: Iterable[tuple]) -> list:
    """Drop duplicates and anything divisible by another element."""
    exps = list(exps)
    if not exps:
        return []
    fields = kernel.fields(len(exps[0]), max(map(max, exps)))
    back = {fields.monomial(e): e for e in exps}
    return [back[b] for b in kernel.minimal(back, fields.guard)]


class MonomialIdeal:
    """A monomial ideal, kept as its minimal generators, sorted.

    ``gens`` are converted to int tuples, validated against the ring and
    minimalized.  ``_minimal=True`` is for internal callers only: it takes
    ``gens`` as they are, int tuples of the ring's length, nonnegative and
    pairwise non-dividing, and only sorts them."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: BlockRing, gens: Iterable[tuple], *, _minimal: bool = False):
        if not _minimal:
            gens = [tuple(map(int, e)) for e in gens]
            for e in gens:
                if len(e) != ring.nvars:
                    raise RingMismatchError("exponent length does not match ring")
                if min(e) < 0:
                    raise ValueError("negative exponent")
            gens = _minimal_antichain(gens)
        self.ring = ring
        self.gens = tuple(sorted(gens))

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.ring == other.ring
                and self.gens == other.gens)

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def contains_monomial(self, exp: tuple) -> bool:
        return any(exp_divides(g, exp) for g in self.gens)

    def generator_strings(self) -> list:
        return [self.ring.monomial_str(g) for g in self.gens]

    def __repr__(self):
        inside = ", ".join(self.generator_strings()) if self.gens else "0"
        return f"MonomialIdeal({inside})"

    def max_total_degree(self) -> int:
        return max((sum(g) for g in self.gens), default=0)


def colon_monomial(I: MonomialIdeal, exp: tuple) -> MonomialIdeal:
    """I : x^exp, by the elementwise rule m -> m / gcd(m, x^exp)."""
    gens = [tuple(g - min(g, e) for g, e in zip(m, exp)) for m in I.gens]
    return MonomialIdeal(I.ring, gens)


def sum_monomial(I: MonomialIdeal, extra: Iterable[tuple]) -> MonomialIdeal:
    return MonomialIdeal(I.ring, list(I.gens) + list(extra))


def support(exp: tuple) -> tuple:
    return tuple(v for v, e in enumerate(exp) if e)


def is_radical_monomial(I: MonomialIdeal) -> bool:
    """A monomial ideal is radical iff its minimal generators are squarefree."""
    return all(all(e <= 1 for e in g) for g in I.gens)


def is_extended_from_first_variables(I: MonomialIdeal) -> bool:
    """True iff every generator only involves the first variable of each block."""
    firsts = {I.ring.var_index(i, 1) for i in range(1, I.ring.v + 1)}
    return all(set(support(g)) <= firsts for g in I.gens)


def _exchanges_stay(I: MonomialIdeal, sizes) -> bool:
    """Whether x_{ik}^d * (u / x_{ij}^d) stays in I for every generator u,
    every x_{ij} dividing u, every k < j and every d in ``sizes(c)``, c the
    exponent of x_{ij} in u."""
    ring = I.ring
    for u in I.gens:
        for var, c in enumerate(u):
            if c == 0:
                continue
            block, pos = ring.var_pair(var)
            ds = sizes(c)
            for k in range(1, pos):
                w = ring.var_index(block, k)
                for d in ds:
                    moved = list(u)
                    moved[var] -= d
                    moved[w] += d
                    if not I.contains_monomial(tuple(moved)):
                        return False
    return True


def is_strongly_stable(I: MonomialIdeal) -> bool:
    """Single-exchange condition: x_{ik} * (u / x_{ij}) stays in I for k < j."""
    return _exchanges_stay(I, lambda c: (1,))


def is_borel_fixed(I: MonomialIdeal) -> bool:
    """Exchange condition with binomial coefficients taken mod the ring's
    characteristic: the exchange of d of the c factors x_{ij} of u is
    tried for every d with comb(c, d) nonzero mod p."""
    p = I.ring.characteristic
    return _exchanges_stay(I, lambda c: [d for d in range(1, c + 1)
                                         if math.comb(c, d) % p])


def regularity_strongly_stable(I: MonomialIdeal) -> int:
    """Castelnuovo-Mumford regularity of a strongly stable ideal: the max
    total degree of its minimal generators."""
    if not is_strongly_stable(I):
        raise HypothesisNotSatisfiedError("ideal is not strongly stable")
    if I.is_zero:
        raise HypothesisNotSatisfiedError("regularity of the zero ideal is undefined")
    return I.max_total_degree()


# -- Alexander duality ---------------------------------------------------------

def alexander_dual(I: MonomialIdeal) -> MonomialIdeal:
    """Dual of a squarefree ideal: intersection of the support primes of the
    generators, expanded with interleaved minimalization."""
    if not is_radical_monomial(I):
        raise NotSquarefreeError("Alexander dual requires squarefree generators")
    if I.is_zero or I.is_unit:
        raise HypothesisNotSatisfiedError(
            "Alexander dual requires a nonzero proper ideal")
    fields = kernel.fields(I.ring.nvars, 1)
    current = None
    for g in I.gens:
        prime = [fields.units[v] for v in support(g)]
        if current is None:
            current = prime
        else:
            current = kernel.minimal([fields.lcm(a, b) for a in current
                                     for b in prime], fields.guard)
    return MonomialIdeal(I.ring, map(fields.exponents, current),
                         _minimal=True)


# -- polarization --------------------------------------------------------------

def polarize(I: MonomialIdeal) -> MonomialIdeal:
    """Expand each power x^c into a product of c distinct variables.

    The first factor is the variable itself; the remaining c-1 occurrences
    map to reserved positions of the same block, allocated bottom-up among
    positions untouched by the generators.  The slot map is shared by all
    generators, as the standard polarization requires.
    """
    ring = I.ring
    used = [set() for _ in range(ring.v)]
    occ_needed: dict = {}
    for g in I.gens:
        for var, e in enumerate(g):
            if e:
                block, pos = ring.var_pair(var)
                used[block - 1].add(pos)
                if e > 1:
                    occ_needed[var] = max(occ_needed.get(var, 1), e)
    slot: dict = {}
    for block in range(1, ring.v + 1):
        free = [pos for pos in range(1, ring.block_sizes[block - 1] + 1)
                if pos not in used[block - 1]]
        demands = [(var, occ)
                   for var in sorted(v for v in ring.block_vars(block)
                                     if v in occ_needed)
                   for occ in range(2, occ_needed[var] + 1)]
        if len(demands) > len(free):
            raise PolarizationCapacityError(
                f"block {block} lacks {len(demands) - len(free)} free "
                f"positions for polarization")
        for (var, occ), pos in zip(demands, free):
            slot[(var, occ)] = ring.var_index(block, pos)
    gens = []
    for g in I.gens:
        e = [0] * ring.nvars
        for var, c in enumerate(g):
            if c:
                e[var] = 1
                for occ in range(2, c + 1):
                    e[slot[(var, occ)]] = 1
        gens.append(tuple(e))
    return MonomialIdeal(ring, gens)


# -- Hilbert numerators ----------------------------------------------------------

class HilbertNumerator:
    """Integer polynomial in y_1..y_v: the numerator of a multigraded Hilbert
    series over the implied denominator prod (1 - y_i)^{n_i}."""

    __slots__ = ("v", "coeffs")

    def __init__(self, v: int, coeffs: dict):
        self.v = v
        self.coeffs = {tuple(a): int(c) for a, c in coeffs.items() if c}

    @classmethod
    def one(cls, v: int) -> "HilbertNumerator":
        return cls(v, {(0,) * v: 1})

    def __eq__(self, other):
        return (isinstance(other, HilbertNumerator) and self.v == other.v
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.v, frozenset(self.coeffs.items())))

    def __add__(self, other):
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return HilbertNumerator(self.v, out)

    def __sub__(self, other):
        return self + HilbertNumerator(
            other.v, {a: -c for a, c in other.coeffs.items()})

    def times_y(self, block: int) -> "HilbertNumerator":
        """The numerator times y_block (0-based block)."""
        return HilbertNumerator(self.v, {
            a[:block] + (a[block] + 1,) + a[block + 1:]: c
            for a, c in self.coeffs.items()})

    def over_y(self, block: int) -> "HilbertNumerator":
        """The exact quotient by y_block (0-based block), which must divide
        every term."""
        if any(a[block] == 0 for a in self.coeffs):
            raise ValueError(f"{self} is not divisible by y{block + 1}")
        return HilbertNumerator(self.v, {
            a[:block] + (a[block] - 1,) + a[block + 1:]: c
            for a, c in self.coeffs.items()})

    def over_one_minus_y(self, block: int) -> "HilbertNumerator":
        """The exact quotient by 1 - y_block (0-based block): prefix sums
        along that coordinate, which must end at 0."""
        lines: dict = {}
        for a, c in self.coeffs.items():
            rest = a[:block] + a[block + 1:]
            lines.setdefault(rest, {})[a[block]] = c
        out = {}
        for rest, line in lines.items():
            total = 0
            for t in range(max(line) + 1):
                total += line.get(t, 0)
                out[rest[:block] + (t,) + rest[block:]] = total
            if total:
                raise ValueError(
                    f"{self} is not divisible by 1 - y{block + 1}")
        return HilbertNumerator(self.v, out)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        def mono(a):
            parts = [f"y{i + 1}" if e == 1 else f"y{i + 1}^{e}"
                     for i, e in enumerate(a) if e]
            return "*".join(parts)
        chunks = []
        for a in sorted(self.coeffs, key=lambda t: (sum(t), t)):
            c = self.coeffs[a]
            m = mono(a)
            body = str(abs(c)) if not m else (m if abs(c) == 1 else f"{abs(c)}*{m}")
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"HilbertNumerator({self})"


@lru_cache(maxsize=1024)
def _polarization(widths: tuple) -> tuple:
    """The polarization layout when block b has ``widths[b]`` positions, as
    (prefix, guard, ydegrees, ydeg).

    Positions are numbered block by block.  A polarized monomial is a 0/1
    vector over the positions, packed by ``kernel.fields(positions, 1)``
    (``guard`` is its guard mask), so it is its own support; ``prefix[i]``
    is the packed product of the first i positions.  Each position takes
    its block's degree (``ydeg``: the packed y-degree of each packed
    position), and ``ydegrees`` packs y-degrees up to those of the product
    of all positions.  Built once per key; ``ydeg`` is only read."""
    blocks = [b for b, width in enumerate(widths) for _ in range(width)]
    fields = kernel.fields(len(blocks), 1)
    ydegrees = kernel.fields(len(widths), max(widths))
    ydeg = dict(zip(fields.units, map(ydegrees.units.__getitem__, blocks)))
    return (0, *accumulate(fields.units)), fields.guard, ydegrees, ydeg


def _polarized(ring: BlockRing, exps: list) -> tuple:
    """(widths, guard, {packed polarized exponent: exponent}) for the
    nonempty valid exponents ``exps``: ``widths`` is the number of
    positions of each block, and ``guard`` the guard mask of their packing
    (``_polarization``).

    Variable k owns one position per occurrence, up to its top exponent
    in ``exps``, so its positions start at s, the number of occurrences of
    the variables before it, and x_k^e polarizes to the product of
    positions s .. s + e - 1: prefix[s + e] / prefix[s]."""
    top = tuple(map(max, zip(*exps)))
    widths, end = [], 0
    for n in ring.block_sizes:
        widths.append(sum(top[end:end + n]))
        end += n
    prefix, guard, _, _ = _polarization(tuple(widths))
    starts = (0, *accumulate(top))
    return tuple(widths), guard, {
        sum([prefix[s + c] - prefix[s] for s, c in zip(starts, e) if c]): e
        for e in exps}


def _numerator_key(ring: BlockRing, exps: Iterable[tuple]) -> tuple:
    """(key, minimal) for the ideal that the exponents ``exps`` generate:
    ``minimal`` lists its minimal generators, and ``key`` is everything
    ``_numerator`` reads, (the number of positions of each block, the
    sorted packed polarized minimal generators; ``_polarized``).  Equal
    keys give equal numerators.  The key keeps the block of each position
    but not its variable, so ideals that differ by moving the variables
    they use inside a block, keeping their order, share one.

    Rejects the exponents that ``MonomialIdeal`` rejects.  Polarization
    preserves divisibility, so the packed polarized exponents are
    minimalized; when that drops one, the minimal generators are keyed
    again, as a dropped multiple may have held a variable's top power."""
    exps = list(exps)
    if not exps:
        return ((0,) * ring.v, ()), []
    if set(map(len, exps)) != {ring.nvars}:
        raise RingMismatchError("exponent length does not match ring")
    if min(map(min, exps)) < 0:
        raise ValueError("negative exponent")
    widths, guard, back = _polarized(ring, exps)
    gens = kernel.minimal(back, guard)
    if len(gens) < len(back):
        return _numerator_key(ring, [back[g] for g in gens])
    return (widths, tuple(gens)), [back[g] for g in gens]


def _ideal_key(I: MonomialIdeal) -> tuple:
    """The numerator key of I, equal to ``_numerator_key(I.ring, I.gens)[0]``
    without its checks: I's generators are valid and minimal, and
    polarization keeps divisibility both ways, so their packed
    polarizations are minimal and distinct already."""
    if not I.gens:
        return (0,) * I.ring.v, ()
    widths, _, back = _polarized(I.ring, I.gens)
    return widths, tuple(sorted(back))


def hilbert_numerator(I: MonomialIdeal) -> HilbertNumerator:
    """K-polynomial of S/I (Bigatti; Bayer-Stillman), computed from I's
    numerator key (``_ideal_key``, ``_numerator``)."""
    return _numerator(_ideal_key(I))


def _numerator(key: tuple) -> HilbertNumerator:
    """K-polynomial of S/I from I's key (``_numerator_key``).

    The recursion (``_pivot``) runs on the polarization of I
    (``_polarization``): each new variable takes the degree of the
    variable it splits off, which keeps the multigraded K-polynomial
    (Miller-Sturmfels, ch. 3), and every generator is squarefree.
    Numerators are ``{packed y-degree: coefficient}``, the y-degrees
    packed by ``kernel.Fields`` of one field per block, sized by the block
    degrees of the lcm of all generators, which bound every term the
    recursion makes.  The recursion memoizes each sub-ideal's numerator in
    a dict local to this call, which no function closes over, so it is
    freed when the call returns.
    """
    widths, gens = key
    if not gens:
        return HilbertNumerator.one(len(widths))
    _, guard, ydegrees, ydeg = _polarization(widths)
    return HilbertNumerator(len(widths), {
        ydegrees.exponents(a): c
        for a, c in _pivot(gens, {}, guard, ydeg).items()})


def _pivot(gens: tuple, memo: dict, guard: int, ydeg: dict) -> dict:
    """K-polynomial of S/I for I generated by the sorted packed squarefree
    monomials ``gens`` (``_numerator``), memoized in ``memo``.

    Generators that fall into groups of pairwise disjoint support give the
    product of the groups' K-polynomials.  A group that does not split is
    split at the pivot variable x that most of its generators hold (the
    lowest such position on ties), by Bigatti's step
    K(S/I) = y^{deg x} * K(S/(I:x)) + K(S/(I+(x))).  x is coprime to the
    generators that lack it, which generate I', so
    K(S/(I+(x))) = (1 - y^{deg x}) * K(S/I'), with K(S/I') = 1 when every
    generator holds x.

    A packed squarefree monomial is its own support: g holds x iff
    ``g & x``, the colon takes g to ``g & ~x`` and is minimalized
    (``kernel.minimal``), and I' keeps every generator without x.  A
    memoized numerator is shared, so it is never mutated.
    """
    out = memo.get(gens)
    if out is not None:
        return out
    groups = []  # [support, generators] of disjoint supports
    for g in gens:
        joined = [g, [g]]
        apart = []
        for group in groups:
            if group[0] & g:
                joined[0] |= group[0]
                joined[1] += group[1]
            else:
                apart.append(group)
        apart.append(joined)
        groups = apart
    if len(gens) == 1:
        g, degree = gens[0], 0
        while g:  # the y-degree of g, one position at a time
            x = g & -g
            degree += ydeg[x]
            g ^= x
        out = {0: 1, degree: -1} if gens[0] else {}
    elif len(groups) > 1:
        out = {0: 1}
        for _, members in groups:
            prod: dict = {}
            for b, d in _pivot(tuple(sorted(members)), memo, guard,
                               ydeg).items():
                for a, c in out.items():
                    prod[a + b] = prod.get(a + b, 0) + c * d
            out = {a: c for a, c in prod.items() if c}
    else:
        counts: dict = {}  # how many generators hold each position
        for g in gens:
            while g:
                y = g & -g
                counts[y] = counts.get(y, 0) + 1
                g ^= y
        most = max(counts.values())
        x = min([y for y, c in counts.items() if c == most])
        rest = tuple([g for g in gens if not g & x])
        below = _pivot(rest, memo, guard, ydeg) if rest else {0: 1}
        shift, off = ydeg[x], ~x
        out = dict(below)
        for a, c in below.items():
            out[a + shift] = out.get(a + shift, 0) - c
        colon = tuple(kernel.minimal([g & off for g in gens], guard))
        for a, c in _pivot(colon, memo, guard, ydeg).items():
            out[a + shift] = out.get(a + shift, 0) + c
        out = {a: c for a, c in out.items() if c}
    memo[gens] = out
    return out


def ambient_dimension(ring: BlockRing, a: Sequence[int]) -> int:
    """dim of the degree-a component of the full ring."""
    if any(x < 0 for x in a):
        return 0
    dim = 1
    for deg, size in zip(a, ring.block_sizes):
        dim *= math.comb(deg + size - 1, size - 1)
    return dim


def quotient_dimension_from_numerator(num: HilbertNumerator, ring: BlockRing,
                                      a: Sequence[int]) -> int:
    """dim (S/I)_a read off the K-polynomial."""
    a = tuple(a)
    return sum(c * ambient_dimension(ring, tuple(x - y for x, y in zip(a, b)))
               for b, c in num.coeffs.items())
