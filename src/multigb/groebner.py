"""Buchberger engine and the ideal operations built on it.

The driver keeps the Gebauer-Moeller pair bookkeeping and the normal
selection strategy in Python; truncated runs that know the ideal's
Hilbert series instead count the leads each multidegree needs
(``_truncated_walk``).  Per-term arithmetic lives in the kernel, on terms
packed once per run (``kernel.Layout``).
All computations are deterministic: the reduced Groebner basis of an
ideal under an order is unique, so caches and cross-checks can compare
results structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import count
from operator import le, mul
from typing import Callable, Iterable, Sequence

from multigb import kernel
from multigb.errors import (HypothesisNotSatisfiedError,
                            InternalConsistencyError, ResourceLimitError,
                            RingMismatchError)
from multigb.monomials import (HilbertNumerator, MonomialIdeal,
                               ambient_dimension, hilbert_numerator,
                               quotient_dimension_from_numerator)
from multigb.poly import Polynomial
from multigb.ring import (BlockRing, TermOrder, degrevlex, elimination_order,
                          exp_divides)


@dataclass(frozen=True)
class EngineLimits:
    """Caps that turn runaway computations into clean aborts.

    ``max_basis`` caps the working basis of a Buchberger run, whose
    non-minimal and unreduced elements stay until the final pass (so a run
    can abort on an ideal whose reduced basis fits the cap), and the
    elements of a truncated walk; for a monomial ideal, which runs no
    Buchberger, it caps the minimal generators.
    ``max_terms`` caps the terms of a reduction in progress and of each
    element that enters the working basis, a generator that no reduction
    step touched included.
    """
    max_basis: int = 5000
    max_terms: int = 100_000


DEFAULT_LIMITS = EngineLimits()


def _monic(f: list, p: int) -> list:
    c = f[0][2]
    if c == 1:
        return f
    inv = pow(c, p - 2, p)
    return [(k, e, d * inv % p) for k, e, d in f]


def _gm_update(basis: list, pairs: dict, heap: list, f: list,
               layout: kernel.Layout, lcm_data: Callable, seq) -> None:
    """Add the element ``f`` to the basis, pruning S-pairs by the
    Gebauer-Moeller criteria (lcm chain rule, duplicate-lcm collapse,
    coprime leads).

    ``pairs`` maps the creation number of each pending pair to ``(i, j,
    lcm, multidegree)``, and ``heap`` holds ``(total degree, order key,
    lcm, creation number)`` of every pair made, pending or not: a pair the
    chain rule drops leaves ``pairs`` only, and ``_buchberger`` skips its
    heap entry when it surfaces.  Once dropped entries outnumber pending
    ones, the heap is rebuilt from the pending ones.  ``seq`` numbers the
    new pairs.  Leads and lcms are packed monomials; the lcms with each
    basis lead are computed inline (``kernel.Fields``), and only the minimal
    ones (``kernel.minimal``) make pairs, in increasing packed value.
    ``lcm_data`` gives a pair's total degree, exponents and multidegree
    (see ``_lcm_data``); a pair whose lcm it maps to None (outside a bound,
    ``_within``) is never made: the criteria drop a pair only on account of
    pairs whose lcms divide its own, and every multiple of an lcm outside a
    multidegree bound is outside it too.
    """
    m = len(basis)
    guard, shift = layout.guard, layout.bits - 1
    lf = f[0][1]
    leads = [g[0][1] for g in basis]
    lcms = []
    for a in leads:
        d = ((a | guard) - lf) & guard
        d -= d >> shift
        lcms.append(a & d | lf & ~d)

    for s in [s for s, (i, j, gamma, _) in pairs.items()
              if ((gamma | guard) - lf) & guard == guard
              and gamma != lcms[i] and gamma != lcms[j]]:
        del pairs[s]

    by_lcm: dict = {}
    for i, gamma in enumerate(lcms):
        by_lcm.setdefault(gamma, []).append(i)
    key = layout.key
    for gamma in kernel.minimal(by_lcm, guard):
        group = by_lcm[gamma]
        if any(gamma == leads[i] + lf for i in group):
            continue
        data = lcm_data(gamma)
        if data is None:
            continue
        degree, exp, a = data
        s = next(seq)
        pairs[s] = group[0], m, gamma, a
        heappush(heap, (degree, key(exp), gamma, s))

    basis.append(f)
    if len(heap) > 2 * len(pairs):
        heap[:] = [entry for entry in heap if entry[3] in pairs]
        heapify(heap)


def _lcm_data(fields: kernel.Fields, multidegree: Callable | None) -> Callable:
    """The function mapping a packed monomial to its total degree,
    exponents and ``multidegree`` (``()`` without one), or to None when
    ``multidegree`` maps it to None.  No order decides them, only the field
    width, so runs on the same generators under different orders can share
    one memoized copy (``_Shared``).  To keep that copy small, exponents
    that fit a byte are kept as ``bytes`` and equal multidegrees as one
    tuple."""
    exponents = fields.exponents
    small = fields.field_max <= 256
    multidegrees: dict = {}

    def data(m: int) -> tuple | None:
        exp = exponents(m)
        a = multidegree(exp) if multidegree is not None else ()
        if a is None:
            return None
        return (sum(exp), bytes(exp) if small else exp,
                multidegrees.setdefault(a, a))

    return data


class _Shared:
    """What runs of ``_packed_run`` on the same generators share under
    different orders, since no order decides it: the distinct exponents of
    their terms (``exponents``), each term as the position of its exponent
    there and its coefficient (``terms``), the width ``kernel.bits_for``
    gives the generators and, for each width a run tries, the packed
    monomial of each distinct exponent (``monomials``) and the memoized
    ``_lcm_data`` of the bound (``lcm_data``), which ``_truncated_walk``
    reads.  A batch of runs keeps one in a local, so it dies with the
    batch."""

    def __init__(self, multidegree: Callable | None = None):
        self.multidegree = multidegree
        self.bits: int | None = None
        self.exponents: list = []
        self.terms: list = []
        self.monomials: dict = {}  # width -> packed monomial of each exponent
        self._memos: dict = {}  # width -> memoized _lcm_data

    def lcm_data(self, layout: kernel.Layout) -> Callable:
        data = self._memos.get(layout.bits)
        if data is None:
            data = self._memos[layout.bits] = cache(
                _lcm_data(layout, self.multidegree))
        return data


class _SeriesCutoff:
    """Decides when the Hilbert series of a multihomogeneous ideal I proves
    that every S-polynomial of a multidegree reduces to zero, and how many
    leads a basis still needs in a multidegree (Traverso).

    in(G) is inside in(I), so the monomials of degree a in in(G) are at
    most dim I_a; once the two counts agree, in(G)_a = in(I)_a and a
    degree-a element of I has no nonzero normal form modulo G.  The
    monomials of in(G)_a are packed by the ``kernel.fields`` holding the
    largest entry of a.  ``settled`` collects them incrementally, each lead
    multiplied out once per degree, when the degree is next checked;
    ``missing`` counts them once, for a walk that visits each degree once
    (``_truncated_walk``).  ``dims`` memoizes dim I_a and ``monomials``
    the packed monomials of each degree b, by ``(b, fields)``; no order
    decides them, so one cutoff serves sequential runs under any order,
    each begun by ``start``.
    """

    def __init__(self, ring: BlockRing, series: HilbertNumerator):
        self.ring = ring
        self.series = series
        self.dims: dict = {}
        self.monomials: dict = {}
        self.start(None)

    def start(self, layout: kernel.Layout | None) -> None:
        """Begin a run on basis elements packed by ``layout``."""
        self.layout = layout
        self.full: set = set()
        self.leads: list = []  # (exponents, multidegree) of basis[k]'s lead
        self.degrees: dict = {}  # a -> [leads seen, in(G)_a, kernel.Fields]

    def dim(self, a: tuple) -> int:
        """dim I_a."""
        d = self.dims.get(a)
        if d is None:
            d = self.dims[a] = ambient_dimension(self.ring, a) - \
                quotient_dimension_from_numerator(self.series, self.ring, a)
        return d

    def _cover(self, covered: set, fields: kernel.Fields, a: tuple,
               leads: Iterable[tuple]) -> None:
        """Add to ``covered`` the degree-a monomials, packed by ``fields``,
        that ``leads`` ((exponents, multidegree) pairs) divide."""
        ring = self.ring
        for lead, degree in leads:
            b = tuple(x - y for x, y in zip(a, degree))
            if min(b) < 0:
                continue
            monomials = self.monomials.get((b, fields))
            if monomials is None:
                monomials = self.monomials[(b, fields)] = list(map(
                    fields.monomial, ring.monomials_of_multidegree(b)))
            covered.update(map(fields.monomial(lead).__add__, monomials))

    def missing(self, a: tuple, leads: Sequence[tuple]) -> int:
        """How many leads of multidegree a a basis needs beside ``leads``
        ((exponents, multidegree) pairs): dim I_a minus the degree-a
        monomials they divide."""
        covered: set = set()
        self._cover(covered, kernel.fields(self.ring.nvars, max(a)), a, leads)
        return self.dim(a) - len(covered)

    def settled(self, a: tuple, basis: list) -> bool:
        """Whether the leads of ``basis`` settle multidegree ``a``, which is
        not in ``full`` (the multidegrees settled already)."""
        ring, layout = self.ring, self.layout
        state = self.degrees.get(a)
        if state is None:
            state = self.degrees[a] = [0, set(),
                                       kernel.fields(ring.nvars, max(a))]
        seen, covered, fields = state
        if seen == len(basis):
            return False
        for g in basis[len(self.leads):]:
            lead = layout.exponents(g[0][1])
            self.leads.append((lead, ring.multidegree(lead)))
        self._cover(covered, fields, a, self.leads[seen:])
        state[0] = len(basis)
        if len(covered) == self.dim(a):
            self.full.add(a)
            del self.degrees[a]
            return True
        return False


def _packed_run(polys: Sequence[list], matrix: tuple, run,
                shared: _Shared | None = None):
    """``run(layout, packed)``: ``packed`` holds the normalized term lists
    ``polys``, packed and sorted under the layout of ``matrix`` with fields
    ``kernel.bits_for(polys)`` wide.  When the inputs or the run outgrow
    those fields, it repacks and restarts with fields twice as wide.  An
    overflow of any other fields is a bug, not a reason to widen.  Order
    keys and packed monomials are computed once per distinct exponent of
    the terms.  With ``shared``, kept by the caller across runs on the same
    ``polys`` under other orders, the distinct exponents, the width and
    each width's packed monomials are computed once, and each run only
    computes its order keys and sorts.  Every packed run enters here, so
    only this function packs a run's inputs."""
    if shared is None:
        shared = _Shared()
    if shared.bits is None:
        shared.bits = kernel.bits_for(polys)
        index: dict = {}
        shared.terms = [[(index.setdefault(e, len(index)), c) for e, c in f]
                        for f in polys]
        shared.exponents = list(index)
    bits = shared.bits
    while True:
        layout = kernel.layout(matrix, bits)
        try:
            monomials = shared.monomials.get(bits)
            if monomials is None:
                monomials = shared.monomials[bits] = list(
                    map(layout.monomial, shared.exponents))
            keys = list(map(layout.key, shared.exponents))
            return run(layout, [
                sorted([(keys[i], monomials[i], c) for i, c in f],
                       reverse=True) for f in shared.terms])
        except kernel.FieldOverflow as e:
            if e.fields is not layout:
                raise InternalConsistencyError(
                    f"packed exponents outgrew fields that do not depend on "
                    f"the run's width: {e}") from e
            bits = shared.bits = bits * 2


def _within(ring: BlockRing, b: Sequence[int]) -> Callable:
    """The truncation at b: the multidegree of an exponent tuple when it is
    <= b coordinatewise, else None."""
    b = tuple(b)

    def multidegree(exp: tuple) -> tuple | None:
        a = ring.multidegree(exp)
        return a if all(map(le, a, b)) else None

    return multidegree


def _buchberger(gens: Sequence[list], layout: kernel.Layout, p: int,
                limits: EngineLimits, series: _SeriesCutoff | None = None,
                bound: Callable | None = None) -> list:
    """Reduced Groebner basis of packed generators, as packed polynomials
    sorted by lead.

    Pairs are selected by lowest lcm total degree, then by order, then by
    creation, from a heap (``_gm_update``); the S-polynomial gets the lcm
    and order key the pair holds.  With ``series`` (multihomogeneous
    generators only), pairs of a multidegree it settles are skipped.  With
    ``bound``, the truncation ``_within(ring, b)`` at a multidegree b
    (multihomogeneous generators only), generators of multidegree not <= b
    are dropped and pairs whose lcm is not <= b are never made: the result
    is the b-truncated, unreduced Groebner basis, enough to decide
    membership in multidegrees <= b (``Ideal.minimal_generators``).  Its
    leads generate in(I) in every multidegree <= b, the ideal that the
    leads ``_truncated_walk`` counts off the series minimally generate.
    A resource abort reports the basis size, pending pairs and the lcm
    degree reached.
    """
    basis: list = []
    pairs: dict = {}
    heap: list = []
    seq = count()
    degree = 0
    guard = layout.guard
    multidegree = bound  # of each pair's lcm, read by the bound and series
    if series is not None:
        series.start(layout)
        if bound is None:
            multidegree = series.ring.multidegree
    lcm_data = _lcm_data(layout, multidegree)

    def grow(r: list) -> None:
        if len(r) > limits.max_terms:
            raise ResourceLimitError(
                f"element exceeded {limits.max_terms} terms")
        _gm_update(basis, pairs, heap, _monic(r, p), layout, lcm_data, seq)
        if len(basis) > limits.max_basis:
            raise ResourceLimitError(
                f"basis exceeded {limits.max_basis} elements")

    try:
        for g in gens:
            data = lcm_data(g[0][1])
            if data is None:
                continue
            degree = data[0]
            r = kernel.normal_form(g, basis, layout, p, limits.max_terms) if basis else g
            if r:
                grow(r)

        while pairs:
            entry = heappop(heap)
            pair = pairs.pop(entry[3], None)
            if pair is None:
                continue
            degree, key, gamma, _ = entry
            i, j, _, a = pair
            if series is not None and (a in series.full
                                       or series.settled(a, basis)):
                continue
            s = kernel.spoly(basis[i], basis[j], gamma, key, layout, p)
            r = kernel.normal_form(s, basis, layout, p, limits.max_terms)
            if r:
                grow(r)
        if bound is not None:
            return basis

        # minimal heads (distinct, since every element enters fully reduced
        # and monic), then tail reduction by ascending lead: only smaller
        # leads divide a tail term, and their elements are reduced already
        heads = set(kernel.minimal([g[0][1] for g in basis], guard))
        reduced: list = []
        for g in sorted((g for g in basis if g[0][1] in heads),
                        key=lambda g: g[0][0]):
            reduced.append(kernel.normal_form(g, reduced, layout, p,
                                              limits.max_terms))
    except ResourceLimitError as e:
        raise ResourceLimitError(str(e), basis_size=len(basis),
                                 pending_pairs=len(pairs),
                                 degree=degree) from None
    return reduced[::-1]


def _truncated_walk(gens: Sequence[list], layout: kernel.Layout, p: int,
                    limits: EngineLimits, series: _SeriesCutoff,
                    lcm_data: Callable) -> list:
    """Lead exponents of a b-truncated Groebner basis of the packed
    generators of a multihomogeneous ideal I, counted off I's Hilbert
    series (Traverso): the minimal generators of in(I) of multidegree <= b,
    in the order they are found.  ``lcm_data`` is ``_lcm_data`` of the
    truncation ``_within(ring, b)``.

    Each generator, and each S-pair when its second element enters, is
    filed under its multidegree, a pair's being that of the lcm of its
    leads; coprime pairs and anything outside the bound are dropped.  The
    walk visits only the multidegrees filed, by increasing total degree; a
    pair's lcm lies strictly above both its elements, so nothing is filed
    under a degree already visited.  At a, I_a needs ``series.missing``
    leads beside those of the elements of multidegree <= a, which are the
    only ones that reduce degree-a polynomials.  Every generator filed
    there is reduced modulo them, then the pairs, each S-polynomial
    getting its order key only now, until none are missing.  A nonzero
    remainder has a lead no earlier lead divides, so it adds exactly one
    monomial to in(G)_a, and enters.  By Buchberger's criterion the
    elements generate in(I) in every multidegree <= b, and no lead divides
    another.  A count that is negative, met before a generator enters, or
    left unmet by the pairs of its degree means that the series is not
    I's, and raises ``InternalConsistencyError``.  A resource abort, as in
    ``_buchberger``, reports the basis size, the pairs filed and not yet
    tried, and the total degree reached.
    """
    guard, shift = layout.guard, layout.bits - 1
    levels: dict = {}  # total degree -> {multidegree: (generators, pairs)}
    basis: list = []  # monic elements, in the order they enter
    heads: list = []  # the packed lead of each element
    leads: list = []  # (exponents, multidegree) of each element's lead
    degree = pending = 0  # pending: pairs filed and not yet tried

    def filed(data: tuple) -> tuple:
        # the generators and pairs filed under the multidegree of data
        return levels.setdefault(data[0], {}).setdefault(data[2], ([], []))

    def enter(r: list, a: tuple) -> list:
        nonlocal pending
        if len(r) > limits.max_terms:
            raise ResourceLimitError(
                f"element exceeded {limits.max_terms} terms")
        f = _monic(r, p)
        lf = f[0][1]
        m = len(basis)
        for i, lg in enumerate(heads):
            d = ((lg | guard) - lf) & guard
            d -= d >> shift
            gamma = lg & d | lf & ~d
            if gamma != lg + lf:
                data = lcm_data(gamma)
                if data is not None:
                    filed(data)[1].append((i, m, gamma, data[1]))
                    pending += 1
        basis.append(f)
        heads.append(lf)
        leads.append((layout.exponents(lf), a))
        if len(basis) > limits.max_basis:
            raise ResourceLimitError(
                f"basis exceeded {limits.max_basis} elements")
        return f

    for g in gens:
        data = lcm_data(g[0][1])
        if data is not None:
            filed(data)[0].append(g)
    try:
        while levels:
            degree = min(levels)
            for a, (generators, pairs) in levels.pop(degree).items():
                below = [k for k, (_, c) in enumerate(leads)
                         if all(map(le, c, a))]
                reducers = [basis[k] for k in below]
                missing = series.missing(a, [leads[k] for k in below])
                if missing < 0:
                    raise InternalConsistencyError(
                        f"the leads cover more of degree {a} than the "
                        f"ideal's Hilbert series allows")
                for g in generators:
                    r = kernel.normal_form(g, reducers, layout, p,
                                           limits.max_terms) if reducers else g
                    if r:
                        if not missing:
                            raise InternalConsistencyError(
                                f"a generator of degree {a} adds a lead "
                                f"the ideal's Hilbert series has no room for")
                        reducers.append(enter(r, a))
                        missing -= 1
                tried = 0
                for i, j, gamma, exp in pairs:
                    if not missing:
                        break
                    tried += 1
                    pending -= 1
                    s = kernel.spoly(basis[i], basis[j], gamma,
                                     layout.key(exp), layout, p)
                    r = kernel.normal_form(s, reducers, layout, p,
                                           limits.max_terms)
                    if r:
                        reducers.append(enter(r, a))
                        missing -= 1
                pending -= len(pairs) - tried
                if missing:
                    raise InternalConsistencyError(
                        f"the S-pairs of degree {a} reduce to fewer leads "
                        f"than the ideal's Hilbert series needs")
    except ResourceLimitError as e:
        raise ResourceLimitError(str(e), basis_size=len(basis),
                                 pending_pairs=pending,
                                 degree=degree) from None
    return [exp for exp, _ in leads]


def _by_order(exps: Iterable[tuple], matrix: tuple) -> list:
    """Exponent tuples sorted descending under ``matrix``, as
    ``_buchberger`` sorts the leads of a reduced basis.  The first row
    decides when no two exponents tie on it; else they are sorted by the
    order key of the narrowest ``kernel.layout`` holding their largest
    entry."""
    exps = list(exps)
    scores = [sum(map(mul, matrix[0], e)) for e in exps]
    if len(set(scores)) == len(scores):
        return [e for _, e in sorted(zip(scores, exps), reverse=True)]
    top = max(map(max, exps))
    key = kernel.layout(matrix, kernel.fields(1, top).bits).key
    return sorted(exps, key=key, reverse=True)


def _reduced_basis_raw(gens: Sequence[list], matrix: tuple, p: int,
                       limits: EngineLimits,
                       series: _SeriesCutoff | None = None) -> list:
    """``_buchberger`` on normalized term lists (``Polynomial.terms``):
    packed and sorted under ``matrix`` on entry, the basis unpacked on exit
    as term lists sorted under ``matrix``."""
    return _packed_run(gens, matrix, lambda layout, packed: [
        layout.unpack(g) for g in _buchberger(packed, layout, p, limits,
                                              series)])


class GroebnerBasis:
    """Reduced Groebner basis under a fixed term order."""

    __slots__ = ("ring", "order", "elements", "_limits")

    def __init__(self, ring: BlockRing, order: TermOrder,
                 elements: Sequence[Polynomial], limits: EngineLimits = DEFAULT_LIMITS):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        self._limits = limits

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis) and self.ring == other.ring
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.ring, self.elements))

    def lead_exponents(self) -> list:
        return [g.lead_exp(self.order) for g in self.elements]

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        p = self.ring.characteristic
        return Polynomial(self.ring, _packed_run(
            [f.terms, *(g.terms for g in self.elements)], self.order.rows,
            lambda layout, packed: layout.unpack(kernel.normal_form(
                packed[0], packed[1:], layout, p, self._limits.max_terms))))

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def __repr__(self):
        return f"GroebnerBasis({self.order}, {list(self.elements)})"


class Ideal:
    """An ideal with cached reduced Groebner bases keyed by order matrix."""

    def __init__(self, ring: BlockRing, gens: Iterable[Polynomial],
                 limits: EngineLimits | None = None):
        self.ring = ring
        cleaned = []
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator lives in a different ring")
            if not g.is_zero:
                cleaned.append(g)
        self.gens = tuple(cleaned)
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self._gb_cache: dict = {}
        self._model: MonomialIdeal | None = None  # see ideal_with_series_of
        self._cutoff: _SeriesCutoff | None = None

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    @property
    def is_multihomogeneous(self) -> bool:
        return all(g.is_multihomogeneous for g in self.gens)

    @property
    def is_monomial(self) -> bool:
        return all(g.is_monomial for g in self.gens)

    def groebner_basis(self, order: TermOrder | None = None) -> GroebnerBasis:
        order = order or self.ring.storage_order
        key = order.rows
        hit = self._gb_cache.get(key)
        if hit is not None:
            return hit
        if self.is_monomial:
            # the monic minimal generators of a monomial ideal are its
            # reduced basis under every order (Cox-Little-O'Shea, ch. 2 §7)
            gens = self.monomial_ideal().gens
            if len(gens) > self.limits.max_basis:
                raise ResourceLimitError(
                    f"basis exceeded {self.limits.max_basis} elements",
                    basis_size=len(gens), pending_pairs=0,
                    degree=max(map(sum, gens)))
            elements = [Polynomial.monomial(self.ring, e)
                        for e in _by_order(gens, key)]
        else:
            raw = _reduced_basis_raw([g.terms for g in self.gens], key,
                                     self.ring.characteristic, self.limits,
                                     series=self._series_cutoff())
            elements = [Polynomial(self.ring, g) for g in raw]
        gb = GroebnerBasis(self.ring, order, elements, self.limits)
        return self._gb_cache.setdefault(key, gb)

    def _series_cutoff(self) -> _SeriesCutoff | None:
        """The ideal's one cutoff, shared by its runs and its gin trials
        (moved ideals have its series) and read by gin's guard; None until
        the ideal has a model (``ideal_with_series_of``, or a series asked
        for) or a cached basis, and for an ideal that is not
        multihomogeneous."""
        if self._cutoff is None and (self._model is not None or (
                self._gb_cache and self.is_multihomogeneous)):
            self.hilbert_series()
        return self._cutoff

    def _truncated_leads(self, orders: Iterable[TermOrder],
                         b: Sequence[int]):
        """Lazily, for each of ``orders``, the minimal generators of in(I) of
        multidegree <= b (multihomogeneous ideals only), which
        ``_truncated_walk`` counts off the ideal's Hilbert series, computed
        before the first run when the ideal has none yet: they generate
        in(I) in every multidegree <= b.  The runs share one ``_Shared``,
        which dies with the generator."""
        p = self.ring.characteristic
        shared = _Shared(_within(self.ring, b))
        gens = [g.terms for g in self.gens]
        self.hilbert_series()
        series = self._cutoff
        for order in orders:

            def leads(layout, packed):
                return _truncated_walk(packed, layout, p, self.limits, series,
                                       shared.lcm_data(layout))

            yield _packed_run(gens, order.rows, leads, shared)

    def initial_ideal(self, order: TermOrder | None = None) -> MonomialIdeal:
        gb = self.groebner_basis(order)
        return MonomialIdeal(self.ring, gb.lead_exponents(), _minimal=True)

    def contains(self, f: Polynomial) -> bool:
        return self.groebner_basis().contains(f)

    def equals(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")
        return (self.groebner_basis().elements
                == other.groebner_basis().elements)

    @property
    def is_unit_ideal(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant and not gb[0].is_zero

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = Ideal(self.ring, [other], self.limits)
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")
        return Ideal(self.ring, self.gens + other.gens, self.limits)

    # -- derived constructions ---------------------------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        """I cap J: eliminate t from t*I + (1-t)*J in an extended ring, then
        drop the t coordinate.

        The auxiliary variable is appended as a one-variable block; the
        extension is internal plumbing and never surfaces in results.
        """
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")
        ring = self.ring
        if self.is_zero_ideal or other.is_zero_ideal:
            return Ideal(ring, [], self.limits)
        ext = BlockRing(ring.block_sizes + (1,), ring.characteristic)
        t_var = ext.nvars - 1

        def lift(f: Polynomial) -> Polynomial:
            return Polynomial(ext, [(e + (0,), c) for e, c in f.terms])

        t = Polynomial.monomial(ext, ext.unit_exp(t_var))
        one_minus_t = Polynomial.one(ext) - t
        gens = [t * lift(f) for f in self.gens]
        gens += [one_minus_t * lift(g) for g in other.gens]
        meet = Ideal(ext, gens, self.limits).eliminate({t_var})
        return Ideal(ring, [project_out_variable(g, ring, t_var)
                            for g in meet.gens], self.limits)

    def eliminate(self, front: Iterable[int]) -> "Ideal":
        """Generators of I cap K[variables outside ``front``] (same ring)."""
        front = frozenset(front)
        order = elimination_order(self.ring.nvars, front)
        kept = [g for g in self.groebner_basis(order)
                if not (g.support_vars() & front)]
        return Ideal(self.ring, kept, self.limits)

    def colon(self, f: Polynomial) -> "Ideal":
        """I : f.

        For I multihomogeneous (hence homogeneous) and f a linear form,
        one Groebner basis G of the moved ideal, in coordinates where f is
        the variable x_v, under degrevlex with x_v last (Bayer-Stillman):
        {g / x_v if x_v divides in(g), else g : g in G} is a basis of the
        moved I : x_v, mapped back with x_v -> f.  When f is multigraded,
        the change of coordinates stays in one block and keeps the
        multigrading, so the monomial ideal of these leads is the colon's
        model (``ideal_with_series_of``), which gives it its Hilbert series
        when first asked for.  Any other input takes (1/f) * (I cap (f)),
        the intersection by elimination.
        """
        if f.is_zero:
            raise ValueError("colon by zero")
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        if _is_linear_form(f) and self.is_multihomogeneous:
            moved, v, back, order = _linear_move(self, f)
            gens, leads = [], []
            for g in moved.groebner_basis(order):
                lead = g.lead_exp(order)
                if lead[v]:
                    # g is homogeneous and x_v is last in revlex, so x_v
                    # divides in(g) only if it divides every term
                    terms = [(e[:v] + (e[v] - 1,) + e[v + 1:], c)
                             for e, c in g.terms]
                    if any(e[v] < 0 for e, _ in terms):
                        raise InternalConsistencyError(
                            "x_v divides the lead of a basis element but "
                            "not the element")
                    g = Polynomial(self.ring, terms, _normalized=True)
                    lead = lead[:v] + (lead[v] - 1,) + lead[v + 1:]
                leads.append(lead)
                gens.append(g.substitute(back))
            if f.is_multihomogeneous:
                return ideal_with_series_of(MonomialIdeal(self.ring, leads),
                                            gens, self.limits)
            return Ideal(self.ring, gens, self.limits)
        meet = self.intersect(Ideal(self.ring, [f], self.limits))
        return Ideal(self.ring, [exact_divide(g, f) for g in meet.gens],
                     self.limits)

    def hilbert_series(self) -> HilbertNumerator:
        """K-polynomial of S/I, computed once and kept by the ideal's series
        cutoff, which this alone creates.  It is the numerator of the
        ideal's model, a monomial ideal in the ideal's ring with its series:
        the one an ``ideal_with_series_of`` construction gave it (a colon or
        a minor ideal under its rank check), which runs no Buchberger for
        it, or else in(I).  S/in(I) has the same series under every order
        (Macaulay), so the first cached basis serves, or a storage-order
        basis when none is cached."""
        if self._cutoff is None:
            if not self.is_multihomogeneous:
                raise HypothesisNotSatisfiedError(
                    "Hilbert series needs multigraded generators")
            if self._model is None:
                order = next((gb.order for gb in self._gb_cache.values()),
                             None)
                self._model = self.initial_ideal(order)
            self._cutoff = _SeriesCutoff(self.ring,
                                         hilbert_numerator(self._model))
        return self._cutoff.series

    def minimal_generators(self) -> list:
        """Irredundant subset of the (multihomogeneous) generators; for graded
        ideals irredundant means minimal."""
        if not self.is_multihomogeneous:
            raise HypothesisNotSatisfiedError(
                "minimal generators need multigraded input")
        gens = sorted(self.gens, key=lambda g: (sum(g.lead_exp()), g.lead_exp()))
        kept = list(gens)
        matrix = self.ring.storage_order.rows
        p = self.ring.characteristic
        limits = self.limits
        i = 0
        while i < len(kept):
            # a generator of multidegree a lies in the ideal of the others
            # iff it reduces to zero modulo their a-truncated Groebner basis
            f = kept[i]
            raws = [g.terms for g in [f] + kept[:i] + kept[i + 1:]]

            def reduces_to_zero(layout, packed,
                                bound=_within(self.ring, f.multidegree())):
                basis = _buchberger(packed[1:], layout, p, limits, bound=bound)
                return not kernel.normal_form(packed[0], basis, layout, p,
                                              limits.max_terms)

            if _packed_run(raws, matrix, reduces_to_zero):
                kept.pop(i)
            else:
                i += 1
        return kept

    def monomial_ideal(self) -> MonomialIdeal:
        """The ideal as a MonomialIdeal; requires monomial generators."""
        if not self.is_monomial:
            raise HypothesisNotSatisfiedError("generators are not monomials")
        return MonomialIdeal(self.ring, [g.lead_exp() for g in self.gens])


def ideal_with_series_of(model: MonomialIdeal, gens: Iterable[Polynomial],
                         limits: EngineLimits | None = None) -> Ideal:
    """The ideal of ``gens`` in ``model``'s ring, for a caller that has
    proved that S/I has the Hilbert series of S/``model``: ``model`` is an
    initial ideal of I (Macaulay), or of an ideal that a change of
    coordinates inside each block takes I to, which keeps the multigraded
    K-polynomial.  The ideal keeps ``model`` and reads its series off it
    when first asked for (``Ideal.hilbert_series``); its runs skip S-pairs
    by that series from the first basis on (``Ideal._series_cutoff``)."""
    I = Ideal(model.ring, gens, limits)
    I._model = model
    return I


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient g / f when f divides g exactly."""
    if f.is_zero:
        raise ValueError("exact division by zero")
    ring = g.ring
    p = ring.characteristic
    flead, flc = f.lead_term()
    inv = pow(flc, p - 2, p)
    quotient = Polynomial.zero(ring)
    while g:
        lead, lc = g.lead_term()
        if not exp_divides(flead, lead):
            raise InternalConsistencyError(
                "exact division left a nonzero remainder")
        q = Polynomial.monomial(ring, tuple(a - b for a, b in zip(lead, flead)),
                                lc * inv)
        quotient += q
        g -= q * f
    return quotient


def ideal_from_monomials(M: MonomialIdeal, limits: EngineLimits = DEFAULT_LIMITS) -> Ideal:
    return Ideal(M.ring, [Polynomial.monomial(M.ring, e) for e in M.gens], limits)


def regular_sequence_test(I: Ideal, forms: Sequence[Polynomial]) -> bool:
    """True iff the forms are a regular sequence on S/I, in the given order:
    each f is a nonzerodivisor modulo J = I + earlier forms, and the final
    sum I + (forms) is a proper ideal.

    For J multihomogeneous and f a linear form, f is regular on S/J exactly
    when no lead of J's basis in moved coordinates, where f is x_v, under
    degrevlex with x_v last, uses x_v (Bayer-Stillman): no colon is taken.
    Any other f is tested as J : f == J.  For I multihomogeneous and linear
    forms, the sum is homogeneous: proper exactly when no generator of I is
    a constant.  Any other sum is proper when it does not contain 1.
    """
    current = I
    for f in forms:
        if f.is_zero:
            raise ValueError("regular sequence test with a zero form")
        if _is_linear_form(f) and current.is_multihomogeneous:
            moved, v, _, order = _linear_move(current, f)
            regular = not any(e[v] for e in
                              moved.groebner_basis(order).lead_exponents())
        else:
            regular = current.colon(f).equals(current)
        if not regular:
            return False
        current = current + f
    if I.is_multihomogeneous and all(_is_linear_form(f) for f in forms):
        return not any(g.is_constant for g in I.gens)
    return not current.contains(Polynomial.one(I.ring))


# -- ring surgery (linear forms, coordinate subrings) -------------------------

def _is_linear_form(L: Polynomial) -> bool:
    """Nonzero, every term of total degree 1 (no constant term)."""
    return not L.is_zero and all(sum(e) == 1 for e, _ in L.terms)


def _linear_move(I: Ideal, L: Polynomial) -> tuple:
    """Coordinates in which the linear form L is a variable.

    With v the highest variable L uses and c its coefficient, the
    substitution phi: x_v -> (x_v - (L - c*x_v)) / c sends L to x_v.
    Returns (phi(I), v, the inverse images {v: L}, degrevlex with x_v
    last).
    """
    ring = I.ring
    p = ring.characteristic
    v = max(L.support_vars())
    c = next(c for e, c in L.terms if e[v])
    x_v = Polynomial.monomial(ring, ring.unit_exp(v))
    image = (x_v - (L - x_v * c)) * pow(c, p - 2, p)
    moved = Ideal(ring, [g.substitute({v: image}) for g in I.gens], I.limits)
    order = degrevlex(ring, [k for k in range(ring.nvars) if k != v] + [v])
    return moved, v, {v: L}, order


def _graded_linear_block(L: Polynomial) -> int:
    """1-based block of a Z^v-graded linear form; raises otherwise."""
    deg = L.multidegree()
    if L.is_zero or deg is None or sum(deg) != 1:
        raise HypothesisNotSatisfiedError(
            "expected a nonzero multigraded linear form")
    return deg.index(1) + 1


def ring_without_variable(ring: BlockRing, var: int) -> BlockRing:
    block, _ = ring.var_pair(var)
    if ring.block_sizes[block - 1] == 1:
        raise HypothesisNotSatisfiedError(
            "cannot drop the only variable of a block")
    sizes = list(ring.block_sizes)
    sizes[block - 1] -= 1
    return BlockRing(sizes, ring.characteristic)


def project_out_variable(f: Polynomial, small: BlockRing, var: int) -> Polynomial:
    """Reinterpret a polynomial not involving ``var`` in the smaller ring."""
    terms = []
    for e, c in f.terms:
        if e[var]:
            raise InternalConsistencyError("polynomial still involves the variable")
        terms.append((e[:var] + e[var + 1:], c))
    return Polynomial(small, terms)

