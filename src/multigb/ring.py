"""Block-graded polynomial rings, multidegrees and term orders.

A ring has ``v`` blocks of variables; the variable ``x[i,j]`` (block ``i``,
position ``j``, both 1-based) carries multidegree ``e_i``.  Monomials are
plain tuples of exponents over the flat variable list, ordered block 1
first, and within each block by position.  Term orders are represented by
integer matrices: monomials compare by the lexicographic order of their
matrix-vector products, which covers lex, degrevlex, weight orders and
elimination orders uniformly.

The standing convention is that within each block ``x[i,j] > x[i,k]`` for
``j < k``; orders violating it are allowed but flagged unrestricted and are
only used where the theory does not need the convention (universal Groebner
sampling, elimination internals).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from multigb.errors import RingMismatchError

DEFAULT_CHARACTERISTIC = 32003


# Miller-Rabin with the first 13 primes as bases decides every n below
# _PRIME_TEST_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


@lru_cache
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above the bound where
    its bases are proven to decide.  Cached, as rings of one characteristic
    are built over and over."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"characteristic {n} is too large: primality is "
                         f"decided only below {_PRIME_TEST_BOUND}")
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0  # n - 1 = d * 2**s with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(pow(a, d, n) == 1
               or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _PRIME_BASES)


# -- exponent-vector helpers -------------------------------------------------

def exp_divides(a: tuple, b: tuple) -> bool:
    """True when monomial ``a`` divides ``b``."""
    return all(x <= y for x, y in zip(a, b))


class BlockRing:
    """A polynomial ring over F_p with a block grading."""

    __slots__ = ("block_sizes", "characteristic", "v", "nvars",
                 "_block_ranges", "_var_pairs", "__dict__")

    def __init__(self, block_sizes: Sequence[int], characteristic: int = DEFAULT_CHARACTERISTIC):
        sizes = tuple(int(n) for n in block_sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("need at least one block, every block nonempty")
        if not _is_prime(characteristic):
            raise ValueError(f"characteristic must be prime, got {characteristic}")
        self.block_sizes = sizes
        self.characteristic = characteristic
        self.v = len(sizes)
        self.nvars = sum(sizes)
        self._block_ranges = tuple(
            (sum(sizes[:i]), sum(sizes[:i + 1])) for i in range(len(sizes)))
        self._var_pairs = tuple((i + 1, j + 1) for i, n in enumerate(sizes)
                                for j in range(n))

    def __eq__(self, other):
        return (isinstance(other, BlockRing)
                and self.block_sizes == other.block_sizes
                and self.characteristic == other.characteristic)

    def __hash__(self):
        return hash((self.block_sizes, self.characteristic))

    def __repr__(self):
        return f"BlockRing(blocks={list(self.block_sizes)}, char={self.characteristic})"

    def var_index(self, block: int, pos: int) -> int:
        """Flat index of ``x[block,pos]`` (both 1-based)."""
        if not 1 <= block <= self.v:
            raise RingMismatchError(f"block {block} out of range 1..{self.v}")
        if not 1 <= pos <= self.block_sizes[block - 1]:
            raise RingMismatchError(
                f"position {pos} out of range 1..{self.block_sizes[block - 1]} in block {block}")
        return sum(self.block_sizes[:block - 1]) + pos - 1

    def check_var(self, var: int) -> int:
        """A flat variable index of the ring, or ``RingMismatchError``."""
        if not 0 <= var < self.nvars:
            raise RingMismatchError(
                f"variable {var} is not in the ring, 0..{self.nvars - 1}")
        return var

    def var_pair(self, var: int) -> tuple:
        """(block, pos), 1-based, of a flat variable index."""
        return self._var_pairs[self.check_var(var)]

    def var_label(self, var: int) -> str:
        i, j = self.var_pair(var)
        return f"x[{i},{j}]"

    def monomial_str(self, exp: tuple) -> str:
        """``x[1,1]^2*x[2,3]``-style text of an exponent tuple; "1" for 1."""
        parts = []
        for v, e in enumerate(exp):
            if e == 1:
                parts.append(self.var_label(v))
            elif e > 1:
                parts.append(f"{self.var_label(v)}^{e}")
        return "*".join(parts) or "1"

    def block_vars(self, block: int) -> range:
        """Flat indices of the variables in a 1-based block."""
        if not 1 <= block <= self.v:
            raise RingMismatchError(f"block {block} out of range 1..{self.v}")
        start = sum(self.block_sizes[:block - 1])
        return range(start, start + self.block_sizes[block - 1])

    def unit_exp(self, var: int) -> tuple:
        e = [0] * self.nvars
        e[self.check_var(var)] = 1
        return tuple(e)

    def multidegree(self, exp: tuple) -> tuple:
        """Blockwise degree vector of an exponent tuple."""
        if len(exp) != self.nvars:
            raise RingMismatchError("exponent length does not match ring")
        return tuple([sum(exp[a:b]) for a, b in self._block_ranges])

    def unit_degree(self, block: int) -> tuple:
        """The multidegree e_block (1-based block)."""
        if not 1 <= block <= self.v:
            raise RingMismatchError(f"block {block} out of range 1..{self.v}")
        deg = [0] * self.v
        deg[block - 1] = 1
        return tuple(deg)

    @cached_property
    def storage_order(self) -> "TermOrder":
        """Canonical order used to store polynomial term lists."""
        return degrevlex(self)

    def monomials_of_multidegree(self, degree: Sequence[int]) -> Iterable[tuple]:
        """All exponent tuples with the given multidegree."""
        if len(degree) != self.v:
            raise RingMismatchError("degree length does not match block count")

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest

        def rec(block):
            if block == self.v:
                yield ()
                return
            for tail in rec(block + 1):
                for head in compositions(degree[block], self.block_sizes[block]):
                    yield head + tail

        for exp in rec(0):
            yield exp


# -- term orders --------------------------------------------------------------

@dataclass(frozen=True)
class TermOrder:
    """A term order given by an integer matrix (rows compared in turn)."""

    name: str
    rows: tuple

    @property
    def nvars(self) -> int:
        return len(self.rows[0])

    def respects_block_convention(self, ring: BlockRing) -> bool:
        """True when x[i,j] > x[i,k] for j < k within every block."""
        if ring.nvars != self.nvars:
            raise RingMismatchError("order and ring have different variable counts")
        columns = list(zip(*self.rows))  # the key of x_a is column a
        for block in range(1, ring.v + 1):
            vars_ = ring.block_vars(block)
            if any(columns[a] <= columns[b] for a, b in zip(vars_, vars_[1:])):
                return False
        return True

    def __str__(self):
        return self.name


def _natural_priority(n: int, priority=None) -> tuple:
    if priority is None:
        return tuple(range(n))
    priority = tuple(priority)
    if sorted(priority) != list(range(n)):
        raise ValueError("priority must be a permutation of the variable indices")
    return priority


def lex(ring_or_n, priority=None) -> TermOrder:
    """Lexicographic order; ``priority`` lists variables most significant first."""
    n = ring_or_n.nvars if isinstance(ring_or_n, BlockRing) else int(ring_or_n)
    prio = _natural_priority(n, priority)
    rows = tuple(tuple(1 if k == v else 0 for k in range(n)) for v in prio)
    name = "lex" if priority is None else f"lex{list(prio)}"
    return TermOrder(name, rows)


def degrevlex(ring_or_n, priority=None) -> TermOrder:
    """Degree reverse lexicographic order with an optional variable priority."""
    n = ring_or_n.nvars if isinstance(ring_or_n, BlockRing) else int(ring_or_n)
    prio = _natural_priority(n, priority)
    rows = [tuple([1] * n)]
    for v in reversed(prio[1:]):
        rows.append(tuple(-1 if k == v else 0 for k in range(n)))
    name = "degrevlex" if priority is None else f"degrevlex{list(prio)}"
    return TermOrder(name, tuple(rows))


@lru_cache(maxsize=64)
def _degrevlex_rows(n: int) -> tuple:
    """The rows of ``degrevlex(n)``, the tie-break of weight and
    elimination orders, built once per n."""
    return degrevlex(n).rows


def weight_order(ring_or_n, weights: Sequence[int]) -> TermOrder:
    """Weight vector order with degrevlex ties."""
    n = ring_or_n.nvars if isinstance(ring_or_n, BlockRing) else int(ring_or_n)
    w = tuple(int(x) for x in weights)
    if len(w) != n:
        raise ValueError("weight vector length does not match variable count")
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    return TermOrder(f"weight{list(w)}+degrevlex", (w,) + _degrevlex_rows(n))


def elimination_order(n: int, front: Iterable[int]) -> TermOrder:
    """Order eliminating the ``front`` variables (any monomial touching them
    beats any monomial that does not), degrevlex within."""
    front = frozenset(front)
    if not front:
        raise ValueError("front variable set is empty")
    if not front <= frozenset(range(n)):
        raise ValueError(f"front variables must lie in 0..{n - 1}")
    indicator = tuple(1 if k in front else 0 for k in range(n))
    return TermOrder(f"elim{sorted(front)}+degrevlex",
                     (indicator,) + _degrevlex_rows(n))
