"""Buchberger engine and the ideal operations built on it.

The driver keeps the Gebauer-Moeller pair bookkeeping and the normal
selection strategy in Python; per-term arithmetic lives in the kernel, on
terms packed once per run (``kernel.Layout``).
All computations are deterministic: the reduced Groebner basis of an
ideal under an order is unique, so caches and cross-checks can compare
results structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
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
    """Caps that turn runaway computations into clean aborts."""
    max_basis: int = 5000
    max_terms: int = 100_000


DEFAULT_LIMITS = EngineLimits()


def _monic(f: list, p: int) -> list:
    c = f[0][2]
    if c == 1:
        return f
    inv = pow(c, p - 2, p)
    return [(k, e, d * inv % p) for k, e, d in f]


def _gm_update(basis: list, pairs: dict, f: tuple, layout: kernel.Layout,
               multidegree: Callable | None = None) -> None:
    """Add the element ``f`` to the basis, pruning S-pairs by the
    Gebauer-Moeller criteria (lcm chain rule, duplicate-lcm collapse,
    coprime leads).

    ``pairs`` maps ``(i, j)`` to ``(total degree, order key, lcm,
    multidegree)`` of the pair's lcm, computed once when the pair is made;
    the multidegree is ``multidegree`` of the lcm's exponents, or None
    without it.  Leads and lcms are packed monomials; only the minimal
    candidate lcms (``kernel.minimal``) make pairs, in increasing packed
    value.  A pair whose lcm ``multidegree`` maps to None (outside
    a bound, ``_within``) is never made: the criteria drop a pair only on
    account of pairs whose lcms divide its own, and every multiple of an
    lcm outside a multidegree bound is outside it too.
    """
    m = len(basis)
    guard, lcm = layout.guard, layout.lcm
    lf = f[0][0][1]
    leads = [g[0][0][1] for g in basis]
    lcms = [lcm(a, lf) for a in leads]

    survivors = {}
    for (i, j), key in pairs.items():
        gamma = key[2]
        if (((gamma | guard) - lf) & guard == guard
                and gamma != lcms[i] and gamma != lcms[j]):
            continue
        survivors[(i, j)] = key

    by_lcm: dict = {}
    for i, gamma in enumerate(lcms):
        by_lcm.setdefault(gamma, []).append(i)
    for gamma in kernel.minimal(by_lcm, guard):
        group = by_lcm[gamma]
        if any(gamma == leads[i] + lf for i in group):
            continue
        exp = layout.exponents(gamma)
        a = None
        if multidegree is not None:
            a = multidegree(exp)
            if a is None:
                continue
        survivors[(group[0], m)] = sum(exp), layout.key(exp), gamma, a

    basis.append(f)
    pairs.clear()
    pairs.update(survivors)


class _SeriesCutoff:
    """Decides when the Hilbert series of a multihomogeneous ideal I proves
    that every S-polynomial of a multidegree reduces to zero (Traverso).

    in(G) is inside in(I), so the monomials of degree a outside in(G) are
    at least dim (S/I)_a; once the two counts agree, in(G)_a = in(I)_a and
    a degree-a element of I has no nonzero normal form modulo G.  The
    monomials of in(G)_a are collected incrementally, packed by the
    ``kernel.fields`` holding the largest entry of a: each lead is
    multiplied out once per degree, when the degree is next checked.
    ``dims`` memoizes dim (S/I)_a and ``monomials`` the packed monomials of
    each degree b, by ``(b, fields)``; both may be shared by runs on ideals
    with the series of I, under any order.
    """

    def __init__(self, ring: BlockRing, series: HilbertNumerator, dims: dict,
                 monomials: dict):
        self.ring = ring
        self.series = series
        self.dims = dims
        self.monomials = monomials
        self.start(None)

    def start(self, layout: kernel.Layout | None) -> None:
        """Begin a run on basis elements packed by ``layout``."""
        self.layout = layout
        self.full: set = set()
        self.leads: list = []  # (exponents, multidegree) of basis[k]'s lead
        self.degrees: dict = {}  # a -> [leads seen, in(G)_a, kernel.Fields]

    def settled(self, a: tuple, basis: list) -> bool:
        """Whether the leads of ``basis`` settle multidegree ``a``."""
        ring, layout = self.ring, self.layout
        if a in self.full:
            return True
        state = self.degrees.get(a)
        if state is None:
            state = self.degrees[a] = [0, set(),
                                       kernel.fields(ring.nvars, max(a))]
        seen, covered, fields = state
        if seen == len(basis):
            return False
        for g in basis[len(self.leads):]:
            lead = layout.exponents(g[0][0][1])
            self.leads.append((lead, ring.multidegree(lead)))
        for lead, degree in self.leads[seen:]:
            b = tuple(x - y for x, y in zip(a, degree))
            if min(b) < 0:
                continue
            monomials = self.monomials.get((b, fields))
            if monomials is None:
                monomials = self.monomials[(b, fields)] = [
                    fields.monomial(m) for m in ring.monomials_of_multidegree(b)]
            covered.update(map(fields.monomial(lead).__add__, monomials))
        state[0] = len(basis)
        if a not in self.dims:
            self.dims[a] = quotient_dimension_from_numerator(self.series, ring, a)
        if ambient_dimension(ring, a) - len(covered) == self.dims[a]:
            self.full.add(a)
            del self.degrees[a]
            return True
        return False


def _packed_run(polys: Sequence[list], matrix: tuple, run):
    """``run(layout, packed)``: ``packed`` holds the normalized term lists
    ``polys``, packed and sorted under the layout of ``matrix`` with fields
    ``kernel.bits_for(polys)`` wide.  When the inputs or the run outgrow
    those fields, it repacks and restarts with fields twice as wide.  An
    overflow of any other fields is a bug, not a reason to widen.  Every
    packed run enters here, so only this function packs a run's inputs."""
    bits = kernel.bits_for(polys)
    while True:
        layout = kernel.layout(matrix, bits)
        try:
            return run(layout, [sorted(layout.pack(f), reverse=True)
                                for f in polys])
        except kernel.FieldOverflow as e:
            if e.fields is not layout:
                raise InternalConsistencyError(
                    f"packed exponents outgrew fields that do not depend on "
                    f"the run's width: {e}") from e
            bits *= 2


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
    """Reduced Groebner basis of packed generators, as basis elements
    ``(terms, ceiling)`` sorted by lead.

    Pairs are selected by lowest lcm total degree, then by order.  With
    ``series`` (multihomogeneous generators only), pairs of a multidegree
    it settles are skipped.  With ``bound``, the truncation
    ``_within(ring, b)`` at a multidegree b (multihomogeneous generators
    only), generators of multidegree not <= b are dropped and pairs whose
    lcm is not <= b are never made: the result is the b-truncated,
    unreduced Groebner basis, enough to decide membership in multidegrees
    <= b, and its leads generate in(I) whenever the reduced basis of I
    fits b.  A resource abort reports the basis size, pending pairs and the
    lcm degree reached.
    """
    basis: list = []
    pairs: dict = {}
    degree = 0
    guard = layout.guard
    multidegree = bound  # of each pair's lcm, read by the bound and series
    if series is not None:
        series.start(layout)
        if bound is None:
            multidegree = series.ring.multidegree

    def grow(r: list) -> None:
        _gm_update(basis, pairs, layout.element(_monic(r, p)), layout,
                   multidegree)
        if len(basis) > limits.max_basis:
            raise ResourceLimitError(
                f"basis exceeded {limits.max_basis} elements")

    try:
        for g in gens:
            if not g:
                continue
            lead = layout.exponents(g[0][1])
            degree = sum(lead)
            if bound is not None and bound(lead) is None:
                continue
            r = kernel.normal_form(g, basis, layout, p, limits.max_terms) if basis else g
            if r:
                grow(r)

        while pairs:
            best = min(pairs, key=pairs.__getitem__)
            degree, _, _, a = pairs.pop(best)
            if series is not None and series.settled(a, basis):
                continue
            s = kernel.spoly(basis[best[0]], basis[best[1]], layout, p)
            r = kernel.normal_form(s, basis, layout, p, limits.max_terms)
            if r:
                if len(r) > limits.max_terms:
                    raise ResourceLimitError(
                        f"element exceeded {limits.max_terms} terms")
                grow(r)
        if bound is not None:
            return basis

        # minimal heads, then full tail reduction; the leads are distinct,
        # since every element enters fully reduced
        heads = set(kernel.minimal([g[0][0][1] for g in basis], guard))
        keep = [g for g in basis if g[0][0][1] in heads]
        reduced = []
        for i, (g, _) in enumerate(keep):
            others = keep[:i] + keep[i + 1:]
            r = kernel.normal_form(g, others, layout, p, limits.max_terms)
            reduced.append(layout.element(_monic(r, p)))
    except ResourceLimitError as e:
        if e.basis_size is not None:
            raise
        raise ResourceLimitError(str(e), basis_size=len(basis),
                                 pending_pairs=len(pairs),
                                 degree=degree) from None
    reduced.sort(key=lambda g: g[0][0][0], reverse=True)
    return reduced


def _reduced_basis_raw(gens: Sequence[list], matrix: tuple, p: int,
                       limits: EngineLimits,
                       series: _SeriesCutoff | None = None) -> list:
    """``_buchberger`` on normalized term lists (``Polynomial.terms``):
    packed and sorted under ``matrix`` on entry, the basis unpacked on exit
    as term lists sorted under ``matrix``."""
    return _packed_run(gens, matrix, lambda layout, packed: [
        layout.unpack(g) for g, _ in _buchberger(packed, layout, p, limits,
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
                packed[0], [layout.element(g) for g in packed[1:]], layout, p,
                self._limits.max_terms))))

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
        self._series: HilbertNumerator | None = None
        self._dims: dict = {}  # dim (S/I)_a by multidegree a
        self._monomials: dict = {}  # packed monomials by (degree, fields)

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
        p = self.ring.characteristic
        raw = _reduced_basis_raw([g.terms for g in self.gens], order.rows, p,
                                 self.limits, series=self._series_cutoff())
        gb = GroebnerBasis(self.ring, order,
                           [Polynomial(self.ring, g) for g in raw], self.limits)
        return self._gb_cache.setdefault(key, gb)

    def _series_cutoff(self) -> _SeriesCutoff | None:
        """Pair skipping by the Hilbert series, read off a basis already
        cached under some order; None before the first basis or for an
        ideal that is not multihomogeneous."""
        if self._series is None and not (self._gb_cache
                                         and self.is_multihomogeneous):
            return None
        return _SeriesCutoff(self.ring, self.hilbert_series(), self._dims,
                             self._monomials)

    def _truncated_leads(self, order: TermOrder, b: Sequence[int]) -> list:
        """Lead exponents of the b-truncated basis under ``order``
        (multihomogeneous ideals only), with the series cutoff on once a
        basis is cached: they generate in(I) in every multidegree <= b."""
        p = self.ring.characteristic
        series, bound = self._series_cutoff(), _within(self.ring, b)

        def leads(layout, packed):
            return [layout.exponents(g[0][1]) for g, _ in _buchberger(
                packed, layout, p, self.limits, series, bound)]

        return _packed_run([g.terms for g in self.gens], order.rows, leads)

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
        multigrading, so these leads give the colon its Hilbert series.
        Any other input takes (1/f) * (I cap (f)), the intersection by
        elimination.
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
            colon = Ideal(self.ring, gens, self.limits)
            if f.is_multihomogeneous:
                colon._series = hilbert_numerator(
                    MonomialIdeal(self.ring, leads))
            return colon
        meet = self.intersect(Ideal(self.ring, [f], self.limits))
        return Ideal(self.ring, [exact_divide(g, f) for g in meet.gens],
                     self.limits)

    def hilbert_series(self) -> HilbertNumerator:
        """K-polynomial of S/I, computed once and cached.  S/in(I) has the
        same series under every order (Macaulay), so it is read off the first
        cached basis, or a storage-order basis when none is cached."""
        if self._series is None:
            if not self.is_multihomogeneous:
                raise HypothesisNotSatisfiedError(
                    "Hilbert series needs multigraded generators")
            order = next((gb.order for gb in self._gb_cache.values()), None)
            self._series = hilbert_numerator(self.initial_ideal(order))
        return self._series

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
    if not 0 <= var < ring.nvars:
        raise RingMismatchError(f"variable {var} is not in the ring")
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


def coordinate_section(I: Ideal, var: int) -> Ideal:
    """I cap K[all variables but ``var``], as an ideal of the smaller
    ring.

    The kept elements of the elimination basis are a basis of the section
    under the order they inherit, so for I multihomogeneous their leads,
    without the ``var`` coordinate, give the section its Hilbert series
    (Macaulay), as the colon's leads give the colon its series."""
    small = ring_without_variable(I.ring, var)
    section = I.eliminate({var})
    out = Ideal(small, [project_out_variable(g, small, var)
                        for g in section.gens], I.limits)
    if I.is_multihomogeneous:
        order = elimination_order(I.ring.nvars, {var})
        leads = [g.lead_exp(order) for g in section.gens]
        out._series = hilbert_numerator(MonomialIdeal(
            small, [e[:var] + e[var + 1:] for e in leads]))
    return out
