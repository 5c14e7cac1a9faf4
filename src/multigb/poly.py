"""Immutable multivariate polynomials over a block-graded ring.

Term lists follow the kernel convention: ``[(exponent tuple, coeff), ...]``
with coefficients in ``1..p-1`` and terms strictly descending under the
ring's storage order.  The zero polynomial has an empty term list.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Mapping, Sequence

from multigb import kernel
from multigb.errors import RingMismatchError
from multigb.ring import BlockRing, TermOrder


class Polynomial:
    __slots__ = ("ring", "_terms")

    def __init__(self, ring: BlockRing, terms: Iterable[tuple], *, _normalized: bool = False):
        self.ring = ring
        if _normalized:
            self._terms = list(terms)
        else:
            self._terms = kernel.sort_terms(
                list(terms), ring.storage_order.rows, ring.characteristic)
        for exp, _ in self._terms:
            if len(exp) != ring.nvars:
                raise RingMismatchError("exponent length does not match ring")
            if min(exp) < 0:
                raise ValueError("negative exponent")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ring: BlockRing) -> "Polynomial":
        return cls(ring, [], _normalized=True)

    @classmethod
    def constant(cls, ring: BlockRing, c: int) -> "Polynomial":
        c %= ring.characteristic
        if c == 0:
            return cls.zero(ring)
        return cls(ring, [((0,) * ring.nvars, c)], _normalized=True)

    @classmethod
    def one(cls, ring: BlockRing) -> "Polynomial":
        return cls.constant(ring, 1)

    @classmethod
    def monomial(cls, ring: BlockRing, exp: tuple, coeff: int = 1) -> "Polynomial":
        coeff %= ring.characteristic
        if coeff == 0:
            return cls.zero(ring)
        return cls(ring, [(tuple(exp), coeff)], _normalized=True)

    @classmethod
    def variable(cls, ring: BlockRing, block: int, pos: int) -> "Polynomial":
        return cls.monomial(ring, ring.unit_exp(ring.var_index(block, pos)))

    # -- basic queries ----------------------------------------------------------

    @property
    def terms(self) -> list:
        return list(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and not any(self._terms[0][0]))

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == Polynomial.constant(self.ring, other)
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.ring, tuple(self._terms)))

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(exp) for exp, _ in self._terms)

    def multidegree(self) -> tuple | None:
        """Common multidegree of all terms, or None if inhomogeneous/zero."""
        if not self._terms:
            return None
        degs = {self.ring.multidegree(exp) for exp, _ in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    @property
    def is_multihomogeneous(self) -> bool:
        return self.is_zero or self.multidegree() is not None

    def support_vars(self) -> set:
        """Flat indices of variables appearing in some term."""
        out = set()
        for exp, _ in self._terms:
            for v, e in enumerate(exp):
                if e:
                    out.add(v)
        return out

    # -- leading data under an arbitrary order ---------------------------------

    def lead_term(self, order: TermOrder | None = None) -> tuple:
        if not self._terms:
            raise ValueError("zero polynomial has no lead term")
        if order is None or order.rows == self.ring.storage_order.rows:
            return self._terms[0]
        # The lexicographic max of the order keys, one matrix row at a time:
        # only the terms tied on every earlier row are scored on the next.
        terms = self._terms
        for row in order.rows:
            if len(terms) == 1:
                break
            scores = [sum(map(mul, row, exp)) for exp, _ in terms]
            best = max(scores)
            terms = [t for t, s in zip(terms, scores) if s == best]
        return terms[0]

    def lead_exp(self, order: TermOrder | None = None) -> tuple:
        return self.lead_term(order)[0]

    def lead_coeff(self, order: TermOrder | None = None) -> int:
        return self.lead_term(order)[1]

    def monic(self, order: TermOrder | None = None) -> "Polynomial":
        if not self._terms:
            return self
        c = self.lead_coeff(order)
        if c == 1:
            return self
        inv = pow(c, self.ring.characteristic - 2, self.ring.characteristic)
        return self * inv

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError("polynomials live in different rings")
            return other
        if isinstance(other, int):
            return Polynomial.constant(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        raw = kernel.sort_terms(self._terms + other._terms,
                                self.ring.storage_order.rows, self.ring.characteristic)
        return Polynomial(self.ring, raw, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.characteristic
        return Polynomial(self.ring, [(e, p - c) for e, c in self._terms],
                          _normalized=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.ring.characteristic
            c = other % p
            terms = [(e, k * c % p) for e, k in self._terms] if c else []
            return Polynomial(self.ring, terms, _normalized=True)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        raw = kernel.poly_mul(self._terms, other._terms,
                              self.ring.storage_order.rows, self.ring.characteristic)
        return Polynomial(self.ring, raw, _normalized=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def substitute(self, images: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Replace each flat variable index in ``images`` by its image.

        Every key must be a variable of this polynomial's ring, and every
        image must live in it (else ``RingMismatchError``).  The expansion is
        ``kernel.expand`` on exponents packed by ``kernel.fields`` holding
        max(deg(self), 1) times the largest degree of an image, which
        bounds every exponent of the images and of the result, so no field
        overflows; the terms of the result are sorted once.
        """
        ring = self.ring
        for v, image in images.items():
            ring.check_var(v)
            if image.ring != ring:
                raise RingMismatchError("substitution image in a different ring")
        if not self._terms:
            return self
        top = max(self.total_degree(), 1) * max(
            [1] + [g.total_degree() for g in images.values()])
        fields = kernel.fields(ring.nvars, top)
        var_images = [[(fields.units[v], 1)] if v not in images
                      else [(fields.monomial(exp), c)
                            for exp, c in images[v]._terms]
                      for v in range(ring.nvars)]
        total = kernel.expand(self._terms, var_images, ring.characteristic)
        return Polynomial(ring, [(fields.exponents(k), c)
                                 for k, c in total.items()])

    # -- printing ---------------------------------------------------------------

    def _balanced(self, c: int) -> int:
        p = self.ring.characteristic
        return c - p if c > p // 2 else c

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for exp, coeff in self._terms:
            c = self._balanced(coeff)
            mono = self.ring.monomial_str(exp)
            if not any(exp):
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Polynomial({self})"


def lead_exponents(polys: Sequence[Polynomial],
                   orders: Sequence[TermOrder]) -> list:
    """The lead exponents of ``polys`` under each of ``orders``, one list
    per order: ``[p.lead_exp(o) for p in polys]`` for every o.

    A matrix order compares the first row first, so a term with the only
    top first-row score is the lead.  ``kernel.row_leads`` scores every
    term under the first rows of all orders at once; a tie, or a first row
    with a negative entry, falls back to ``lead_exp`` for that order."""
    if any(p.is_zero for p in polys):
        raise ValueError("zero polynomial has no lead term")
    firsts = kernel.row_leads([p._terms for p in polys],
                              [o.rows[0] for o in orders])
    per_poly = [[p._terms[k - 1][0] if k else p.lead_exp(o)
                 for k, o in zip(ks, orders)]
                for p, ks in zip(polys, firsts)]
    if not per_poly:
        return [[] for _ in orders]
    return [list(leads) for leads in zip(*per_poly)]
