"""Groebner engine and the ideal operations built on it.

One driver, ``_walk``, runs every basis.  It files the generators and
S-pairs of a run by sugar and by multidegree (by sugar alone when the
input has no multigrading) and visits them in that order.  A run that
knows the ideal's Hilbert series counts the leads each multidegree needs
(Traverso); any other drops pairs by Buchberger's chain criterion.
Per-term arithmetic lives in the kernel, on terms packed once per run
(``kernel.Layout``).
All computations are deterministic: the reduced Groebner basis of an
ideal under an order is unique, so caches and cross-checks can compare
results structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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

    ``max_basis`` caps the elements a run enters, in every run.  A run on
    multihomogeneous input enters only leads no other lead divides, so
    there it caps the reduced basis; on other input a run can enter an
    element whose lead a later lead divides, and so abort on an ideal whose
    reduced basis fits the cap.  For a monomial ideal, which runs no
    engine, it caps the minimal generators.
    ``max_terms`` caps the terms of a reduction in progress and of each
    element that enters a run, a generator that no reduction step touched
    included.
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


def _unkeyed(exp: tuple) -> tuple:
    """The key of every monomial of a run on input with no multigrading."""
    return ()


def _lcm_data(fields: kernel.Fields, key: Callable) -> Callable:
    """The function mapping a packed monomial to its total degree,
    exponents and ``key``, or to None when ``key`` maps it to None.  The
    key is a multidegree, ``()`` (``_unkeyed``) or a truncation
    (``_within``).  No order decides them, only the field width, so runs
    on the same generators under different orders can share one memoized
    copy (``_Shared``).  To keep that copy small, exponents that fit a byte
    are kept as ``bytes`` and equal keys as one tuple."""
    exponents = fields.exponents
    small = fields.field_max <= 256
    keys: dict = {}

    def data(m: int) -> tuple | None:
        exp = exponents(m)
        a = key(exp)
        if a is None:
            return None
        return sum(exp), bytes(exp) if small else exp, keys.setdefault(a, a)

    return data


class _Shared:
    """What runs of ``_packed_run`` on the same generators share under
    different orders, since no order decides it: the distinct exponents of
    their terms (``exponents``), each term as the position of its exponent
    there and its coefficient (``terms``), the width ``kernel.bits_for``
    gives the generators and, for each width a run tries, the packed
    monomial of each distinct exponent (``monomials``) and the memoized
    ``_lcm_data`` of the bound (``lcm_data``), which ``_walk`` reads.  A
    batch of runs keeps one in a local, so it dies with the batch."""

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
    """How many leads a basis of a multihomogeneous ideal I still needs in
    a multidegree, counted off I's Hilbert series (Traverso).

    in(G) is inside in(I), so the monomials of degree a in in(G) are at
    most dim I_a; once the two counts agree, in(G)_a = in(I)_a and a
    degree-a element of I has no nonzero normal form modulo G.
    ``missing`` packs the monomials of in(G)_a by the ``kernel.fields``
    holding the largest entry of a, once per visit of a (``_walk``).
    ``dims`` memoizes dim I_a and ``monomials`` the packed monomials of
    each degree b, by ``(b, fields)``; no order decides them, so one cutoff
    serves sequential runs under any order.
    """

    def __init__(self, ring: BlockRing, series: HilbertNumerator):
        self.ring = ring
        self.series = series
        self.dims: dict = {}
        self.monomials: dict = {}

    def missing(self, a: tuple, leads: Sequence[tuple]) -> int:
        """How many leads of multidegree a a basis needs beside ``leads``
        ((exponents, multidegree) pairs): dim I_a minus the degree-a
        monomials they divide."""
        ring = self.ring
        fields = kernel.fields(ring.nvars, max(a))
        covered: set = set()
        for lead, degree in leads:
            b = tuple(x - y for x, y in zip(a, degree))
            if min(b) < 0:
                continue
            monomials = self.monomials.get((b, fields))
            if monomials is None:
                monomials = self.monomials[(b, fields)] = list(map(
                    fields.monomial, ring.monomials_of_multidegree(b)))
            covered.update(map(fields.monomial(lead).__add__, monomials))
        dim = self.dims.get(a)
        if dim is None:
            dim = self.dims[a] = ambient_dimension(ring, a) - \
                quotient_dimension_from_numerator(self.series, ring, a)
        return dim - len(covered)


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


def _walk(gens: Sequence[list], layout: kernel.Layout, p: int,
          limits: EngineLimits, lcm_data: Callable,
          series: _SeriesCutoff | None = None, reduced: bool = True) -> list:
    """A Groebner basis of packed generators, by one walk over the sugar
    degrees (Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar cube,
    please", ISSAC 1991).

    ``lcm_data`` is ``_lcm_data`` of the key a monomial is filed under: its
    multidegree for multihomogeneous generators, ``()`` for any others, or
    the truncation ``_within(ring, b)`` at a multidegree b, which drops the
    generators and pairs outside b.  Each generator is filed under its
    sugar, its largest term degree, and the key of its lead; each S-pair,
    when its second element enters, under its sugar, max(s_i - deg lead_i,
    s_j - deg lead_j) + deg lcm, and the key of the lcm of its leads.
    Coprime pairs are dropped.  The walk visits the keys filed by
    increasing sugar, and at a key a it reduces modulo the elements of key
    <= a, all of them under ``()``.  An element that enters there has key
    a and the sugar visited.  For homogeneous input the sugar is the total
    degree, and a pair's lcm lies strictly above both its elements, so no
    key is filed again once visited.

    Without ``series``, every generator and pair filed is reduced, unless
    Buchberger's chain criterion drops the pair (i, j): the lead of an
    element k other than i and j divides their lcm, and neither (i, k) nor
    (j, k) is still pending.  It holds under any selection order.  With
    ``series``, the Hilbert series of a multihomogeneous ideal I, I_a needs
    ``series.missing`` leads beside those of the elements of key <= a.
    The generators filed at a are reduced, then its pairs, each
    S-polynomial getting its order key only now, until none are missing.
    A nonzero remainder has a lead no earlier lead divides, so it adds
    exactly one monomial to in(G)_a, and enters.  A count that is negative,
    met before a generator enters, or left unmet by the pairs of its degree
    means that the series is not I's, and raises
    ``InternalConsistencyError``.

    With ``reduced``, the result is the reduced basis, largest lead first:
    the elements whose leads are minimal (distinct, since each entered
    reduced), by ascending lead, each reduced modulo the smaller ones
    already reduced, since only smaller leads divide a tail term.  Without
    it, the result is the elements in the order they entered.  Under a
    bound b they are a b-truncated Groebner basis, which decides membership
    in multidegrees <= b; with ``series`` too, their leads are the minimal
    generators of in(I) of multidegree <= b.  A resource abort reports the
    elements entered, the pairs filed and not yet tried, and the sugar
    degree reached.
    """
    guard, shift = layout.guard, layout.bits - 1
    levels: dict = {}  # sugar -> {key: (generators, pairs)}
    basis: list = []  # monic elements, in the order they enter
    heads: list = []  # the packed lead of each element
    leads: list = []  # (exponents, key) of each element's lead
    excess: list = []  # each element's sugar minus its lead's degree
    pending: set = set()  # (i, j) of the pairs filed and not yet tried
    degree = 0  # the sugar visited

    def filed(sugar: int, a: tuple) -> tuple:
        # the generators and pairs filed under sugar and key a
        return levels.setdefault(sugar, {}).setdefault(a, ([], []))

    def enter(r: list, a: tuple) -> list:
        if len(r) > limits.max_terms:
            raise ResourceLimitError(
                f"element exceeded {limits.max_terms} terms")
        f = _monic(r, p)
        lf = f[0][1]
        lead = layout.exponents(lf)
        t = degree - sum(lead)
        m = len(basis)
        for i, lg in enumerate(heads):
            d = ((lg | guard) - lf) & guard
            d -= d >> shift
            gamma = lg & d | lf & ~d
            if gamma != lg + lf:
                data = lcm_data(gamma)
                if data is not None:
                    filed(max(excess[i], t) + data[0], data[2])[1].append(
                        (i, m, gamma, data[1]))
                    pending.add((i, m))
        basis.append(f)
        heads.append(lf)
        leads.append((lead, a))
        excess.append(t)
        if len(basis) > limits.max_basis:
            raise ResourceLimitError(
                f"basis exceeded {limits.max_basis} elements")
        return f

    def chained(i: int, j: int, gamma: int) -> bool:
        gamma |= guard
        return any((gamma - h) & guard == guard and k != i and k != j
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k, h in enumerate(heads))

    for g in gens:
        data = lcm_data(g[0][1])
        if data is not None:
            # the terms of a generator filed by multidegree share its degree
            sugar = data[0] if data[2] else max(
                sum(layout.exponents(e)) for _, e, _ in g)
            filed(sugar, data[2])[0].append(g)
    try:
        while levels:
            degree = min(levels)
            for a, (generators, pairs) in levels.pop(degree).items():
                below = [k for k, (_, c) in enumerate(leads)
                         if all(map(le, c, a))]
                reducers = [basis[k] for k in below]
                missing = None
                if series is not None:
                    missing = series.missing(a, [leads[k] for k in below])
                    if missing < 0:
                        raise InternalConsistencyError(
                            f"the leads cover more of degree {a} than the "
                            f"ideal's Hilbert series allows")
                for g in generators:
                    r = kernel.normal_form(g, reducers, layout, p,
                                           limits.max_terms) if reducers else g
                    if r:
                        if missing == 0:
                            raise InternalConsistencyError(
                                f"a generator of degree {a} adds a lead "
                                f"the ideal's Hilbert series has no room for")
                        reducers.append(enter(r, a))
                        if missing:
                            missing -= 1
                for i, j, gamma, exp in pairs:
                    pending.discard((i, j))
                    if missing == 0 or missing is None and chained(i, j,
                                                                   gamma):
                        continue
                    s = kernel.spoly(basis[i], basis[j], gamma,
                                     layout.key(exp), layout, p)
                    r = kernel.normal_form(s, reducers, layout, p,
                                           limits.max_terms)
                    if r:
                        reducers.append(enter(r, a))
                        if missing:
                            missing -= 1
                if missing:
                    raise InternalConsistencyError(
                        f"the S-pairs of degree {a} reduce to fewer leads "
                        f"than the ideal's Hilbert series needs")
        if not reduced:
            return basis
        minimal = set(kernel.minimal(heads, guard))
        out: list = []
        for g in sorted((g for g in basis if g[0][1] in minimal),
                        key=lambda g: g[0][0]):
            out.append(kernel.normal_form(g, out, layout, p,
                                          limits.max_terms))
    except ResourceLimitError as e:
        raise ResourceLimitError(str(e), basis_size=len(basis),
                                 pending_pairs=len(pending),
                                 degree=degree) from None
    return out[::-1]


def _by_order(exps: Iterable[tuple], matrix: tuple) -> list:
    """Exponent tuples sorted descending under ``matrix``, as a full run of
    ``_walk`` sorts the leads of a reduced basis.  The first row decides
    when no two exponents tie on it; else they are sorted by the order key
    of the narrowest ``kernel.layout`` holding their largest entry."""
    exps = list(exps)
    scores = [sum(map(mul, matrix[0], e)) for e in exps]
    if len(set(scores)) == len(scores):
        return [e for _, e in sorted(zip(scores, exps), reverse=True)]
    top = max(map(max, exps))
    key = kernel.layout(matrix, kernel.fields(1, top).bits).key
    return sorted(exps, key=key, reverse=True)


def _reduced_basis_raw(gens: Sequence[list], matrix: tuple,
                       I: "Ideal") -> list:
    """The reduced basis of normalized term lists (``Polynomial.terms``)
    that generate I, or the image of I under a change of coordinates inside
    each block, which keeps I's multigrading and Hilbert series: a full run
    of ``_walk`` under I's limits, filing by multidegree when I is
    multihomogeneous, with I's series cutoff (``Ideal._series_cutoff``).
    The terms are packed and sorted under ``matrix`` on entry, and the
    basis unpacked on exit as term lists sorted under ``matrix``."""
    p, limits = I.ring.characteristic, I.limits
    key = I.ring.multidegree if I.is_multihomogeneous else _unkeyed
    series = I._series_cutoff()
    return _packed_run(gens, matrix, lambda layout, packed: [
        layout.unpack(g) for g in _walk(packed, layout, p, limits,
                                        _lcm_data(layout, key), series)])


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
            raw = _reduced_basis_raw([g.terms for g in self.gens], key, self)
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
        multidegree <= b (multihomogeneous ideals only), which ``_walk``
        counts off the ideal's Hilbert series, computed before the first
        run when the ideal has none yet: they generate in(I) in every
        multidegree <= b.  The runs share one ``_Shared``, which dies with
        the generator."""
        p = self.ring.characteristic
        shared = _Shared(_within(self.ring, b))
        gens = [g.terms for g in self.gens]
        self.hilbert_series()
        series = self._cutoff
        for order in orders:

            def leads(layout, packed):
                return [layout.exponents(g[0][1]) for g in _walk(
                    packed, layout, p, self.limits, shared.lcm_data(layout),
                    series, reduced=False)]

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
                basis = _walk(packed[1:], layout, p, limits,
                              _lcm_data(layout, bound), reduced=False)
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

