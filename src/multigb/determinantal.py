"""Row-graded and column-graded matrices of multigraded linear forms, minor
ideals, and the verification suite over their determinantal theorems.

A matrix is column-graded when column j is filled with linear forms in the
block-j variables (so every nonzero entry has multidegree e_j), row-graded
when row i draws from block i.  Generic instances are built as A_j x_j with
random full-rank coefficient matrices over F_p.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from multigb import kernel
from multigb.csideals import degree_bound_check, is_cs, is_csstar, ugb_check
from multigb.errors import HypothesisNotSatisfiedError
from multigb.groebner import (DEFAULT_LIMITS, EngineLimits, Ideal,
                              ideal_with_series_of)
from multigb.monomials import MonomialIdeal, regularity_strongly_stable
from multigb.poly import Polynomial
from multigb.ring import DEFAULT_CHARACTERISTIC, BlockRing


@dataclass(frozen=True)
class GradedMatrix:
    """Matrix of linear forms graded by columns or by rows."""
    ring: BlockRing
    entries: tuple
    grading: str  # "column" | "row"

    def __post_init__(self):
        if self.grading not in ("column", "row"):
            raise ValueError(f"unknown grading {self.grading!r}")
        rows = tuple(tuple(r) for r in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged matrix")
        m = len(rows)
        if self.grading == "column" and n > self.ring.v:
            raise ValueError(f"column-graded needs at most v={self.ring.v} columns")
        if self.grading == "row" and m > self.ring.v:
            raise ValueError(f"row-graded needs at most v={self.ring.v} rows")
        for i, row in enumerate(rows):
            for j, f in enumerate(row):
                if f.ring != self.ring:
                    raise ValueError("entry from a different ring")
                if f.is_zero:
                    continue
                block = j + 1 if self.grading == "column" else i + 1
                if f.multidegree() != self.ring.unit_degree(block):
                    raise ValueError(
                        f"entry ({i + 1},{j + 1}) must be zero or linear of "
                        f"block-{block} degree")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def entry_strings(self) -> list:
        return [[str(f) for f in row] for row in self.entries]


def _rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _random_full_rank(rng: random.Random, nrows: int, ncols: int, p: int) -> tuple:
    while True:
        mat = tuple(tuple(rng.randrange(p) for _ in range(ncols))
                    for _ in range(nrows))
        if _rank_mod_p(mat, p) == min(nrows, ncols):
            return mat


def _linear_form(ring: BlockRing, block: int, coeffs: Sequence[int]) -> Polynomial:
    p = ring.characteristic
    terms = []
    for k, c in enumerate(coeffs):
        c %= p
        if c:
            terms.append((ring.unit_exp(ring.var_index(block, k + 1)), c))
    return Polynomial(ring, terms)


def _build_graded(k: int, block_sizes: Sequence[int], seed: int,
                  characteristic: int, grading: str,
                  coefficient_matrices: Sequence | None = None) -> GradedMatrix:
    """Block j contributes the k linear forms A_j x_j, for a k x n_j
    coefficient matrix A_j (random full-rank from the seed when not
    given); they fill column j of a column-graded matrix, row j of a
    row-graded one."""
    ring = BlockRing(tuple(block_sizes), characteristic)
    if coefficient_matrices is None:
        rng = random.Random(seed)
        coefficient_matrices = [
            _random_full_rank(rng, k, nj, ring.characteristic)
            for nj in ring.block_sizes]
    forms = [[_linear_form(ring, j + 1, A[i]) for i in range(k)]
             for j, A in enumerate(coefficient_matrices)]
    rows = forms if grading == "row" else list(zip(*forms))
    return GradedMatrix(ring, rows, grading)


def build_column_graded(m: int, block_sizes: Sequence[int], seed: int = 0,
                        characteristic: int = DEFAULT_CHARACTERISTIC) -> GradedMatrix:
    """m x v matrix whose column j is A_j x_j for a random full-rank
    m x n_j coefficient matrix A_j from the seed."""
    return _build_graded(m, block_sizes, seed, characteristic, "column")


def build_row_graded(n: int, block_sizes: Sequence[int], seed: int = 0,
                     characteristic: int = DEFAULT_CHARACTERISTIC) -> GradedMatrix:
    """v x n matrix whose row i consists of n linear forms in the block-i
    variables, with full-rank n x n_i coefficient matrices."""
    return _build_graded(n, block_sizes, seed, characteristic, "row")


def variable_matrix(m: int, n: int, grading: str = "row",
                    characteristic: int = DEFAULT_CHARACTERISTIC) -> GradedMatrix:
    """The m x n matrix of distinct variables, row-graded with deg = e_row
    (block sizes n) or column-graded with deg = e_column (block sizes m):
    identity coefficient matrices, so entry (i, j) is x[i,j] row-graded
    and x[j,i] column-graded."""
    k, v = (n, m) if grading == "row" else (m, n)
    identity = [[int(a == b) for b in range(k)] for a in range(k)]
    return _build_graded(k, (k,) * v, 0, characteristic, grading,
                         [identity] * v)


def minors(A: GradedMatrix, t: int) -> list:
    """All t x t minors in lexicographic row/column-subset order, zero
    determinants discarded.

    One Laplace expansion serves them all.  For a row subset r_1 < ... <
    r_k, the k-minors on those rows over every k-column subset are
    expanded along row r_1 from the (k-1)-minors on r_2, ..., r_k, which
    are kept by row subset, so each sub-minor is expanded once.  Terms are
    summed in dicts keyed by monomials packed by ``kernel.fields`` (no
    exponent of a t-minor exceeds t), and each minor becomes one
    ``Polynomial``."""
    m, n = A.shape
    if not 1 <= t <= min(m, n):
        raise ValueError(f"minor size {t} out of range for shape {m}x{n}")
    ring = A.ring
    p = ring.characteristic
    fields = kernel.fields(ring.nvars, t)
    packed = [[[(fields.monomial(e), c) for e, c in f.terms] for f in row]
              for row in A.entries]
    tables: dict = {}  # row subset -> {column subset: {monomial: coeff}}
    out = []
    for rows in itertools.combinations(range(m), t):
        dets = _minor_table(rows, tables, packed, n, p)
        for cols in itertools.combinations(range(n), t):
            det = dets.get(cols)
            if det:
                out.append(Polynomial(ring, [(fields.exponents(e), c)
                                             for e, c in det.items()]))
    return out


def _minor_table(rows: tuple, tables: dict, packed: list, n: int,
                 p: int) -> dict:
    """{column subset: {packed monomial: coefficient}} for the nonzero
    len(rows)-minors on ``rows`` of the packed n-column matrix ``packed``
    mod p (``minors``), memoized in ``tables`` by row subset.  The memo is
    the caller's local, which no function closes over, so it is freed when
    the caller returns."""
    out = tables.get(rows)
    if out is not None:
        return out
    top = packed[rows[0]]
    if len(rows) == 1:
        out = {(j,): dict(f) for j, f in enumerate(top) if f}
    else:
        below = _minor_table(rows[1:], tables, packed, n, p)
        out = {}
        for cols in itertools.combinations(range(n), len(rows)):
            acc: dict = {}
            for k, j in enumerate(cols):
                sub = below.get(cols[:k] + cols[k + 1:], {})
                for a, ca in top[j]:
                    ca = p - ca if k & 1 else ca
                    for b, cb in sub.items():
                        acc[a + b] = acc.get(a + b, 0) + ca * cb
            det = {e: c % p for e, c in acc.items() if c % p}
            if det:
                out[cols] = det
    tables[rows] = out
    return out


def _generic_shape(A: GradedMatrix) -> bool:
    """Whether a change of coordinates inside each block takes A to the
    generic matrix ``variable_matrix(m, n, A.grading)`` plus free
    variables: the entries of each column (each row, when row-graded) are
    linearly independent forms of its block, checked exactly by the rank
    of their coefficient vectors mod p.  A zero entry has the zero vector,
    so it fails the check."""
    ring = A.ring
    lines = zip(*A.entries) if A.grading == "column" else A.entries
    for block, forms in enumerate(lines, 1):
        first = ring.var_index(block, 1)
        rows = []
        for f in forms:
            row = [0] * ring.block_sizes[block - 1]
            for e, c in f.terms:
                row[e.index(1) - first] = c
            rows.append(row)
        if _rank_mod_p(rows, ring.characteristic) < len(forms):
            return False
    return True


def minor_ideal(A: GradedMatrix, t: int,
                limits: EngineLimits = DEFAULT_LIMITS) -> Ideal:
    """The ideal of the t-minors of A (``minors(A, t)``), built with
    ``limits``.

    When ``_generic_shape`` holds, a change of coordinates inside each
    block takes A to the generic matrix X of its shape and grading plus
    free variables, and neither changes the multigraded K-polynomial
    (Bruns-Vetter, Determinantal Rings, LNM 1327).  The t-minors of X are
    a Groebner basis under a diagonal order, one that makes each minor's
    main diagonal its lead (Sturmfels, Math. Z. 205, 1990), so the main
    diagonals generate in(I_t(X)).  They are written straight into A's
    ring, where entry (i, j) of X is x[j, i] when column-graded and x[i, j]
    when row-graded (``_generic_shape`` makes these variables exist), and
    that monomial ideal is the ideal's model
    (``groebner.ideal_with_series_of``): the ideal runs no Buchberger for
    its series, and its first basis already skips S-pairs by it.
    Otherwise its series comes from its own basis."""
    gens = minors(A, t)
    if not _generic_shape(A):
        return Ideal(A.ring, gens, limits)
    ring = A.ring
    m, n = A.shape
    diagonals = []
    for rows in itertools.combinations(range(m), t):
        for cols in itertools.combinations(range(n), t):
            e = [0] * ring.nvars
            for i, j in zip(rows, cols):
                block, k = (j, i) if A.grading == "column" else (i, j)
                e[ring.var_index(block + 1, k + 1)] = 1
            diagonals.append(tuple(e))
    return ideal_with_series_of(MonomialIdeal(ring, diagonals), gens, limits)


def verify_main_theorem(A: GradedMatrix, n_orders: int = 25, seed: int = 0,
                        limits: EngineLimits = DEFAULT_LIMITS) -> dict:
    """Check the determinantal claims on one instance and return a transcript.

    Items: sampled initial ideals of the maximal-minor ideal are squarefree
    and its generators have total degree m (read off the maximal minors:
    every entry is zero or a linear form, so a nonzero minor is a form of
    degree m, and an ideal generated in one degree has all its minimal
    generators there); the maximal minors are a sampled universal GB
    (column case) or every sampled GB element has multidegree (1,...,1)
    (row case); sampled initial ideals of the 2-minor ideal are squarefree
    and its sampled GB degrees are bounded by (1,...,1); both ideals pass
    the radical-gin test, the column-case maximal-minor ideal passes the
    first-variables test; and the gin of the maximal-minor ideal has
    regularity exactly m.  Both ideals are built by ``minor_ideal`` with
    ``limits``, so when each column (row) of A holds independent forms of
    its block, their series, which certifies sampled orders and decides
    the gin items, is that of the generic matrix's minors.
    """
    ring = A.ring
    m, n = A.shape
    if m > n:
        raise HypothesisNotSatisfiedError(
            "maximal-minor items need at least as many columns as rows")
    I_max = minor_ideal(A, m, limits)
    maximal = list(I_max.gens)
    items = {}

    if A.grading == "column":
        ugb = ugb_check(maximal, I_max, n_orders=n_orders, seed=seed,
                        include_permutations=False)
        items["maximal_minors_universal_basis"] = {
            "passed": ugb.passed, "orders": ugb.orders_tested,
            "failures": ugb.failures, "note": ugb.note}
        records_max = ugb.records
    else:
        target = (1,) * ring.v
        ok, details = degree_bound_check(
            I_max, target, n_orders=n_orders, seed=seed, mode="eq")
        items["maximal_minors_degree_profile"] = {
            "passed": ok, "mode": "eq", "bound": target,
            "orders": len(details["records"]),
            "violations": details["violations"]}
        records_max = details["records"]

    squarefree_max = all(max(e) <= 1 for rec in records_max
                         for e in rec["lead_exps"])
    items["maximal_minors_initials_squarefree"] = {
        "passed": squarefree_max, "orders": len(records_max)}
    gens_degree = all(g.total_degree() == m for g in maximal)
    items["maximal_minors_generator_degree"] = {
        "passed": gens_degree, "expected_total_degree": m}

    if min(m, n) >= 2:
        I_two = minor_ideal(A, 2, limits)
        bound = (1,) * ring.v
        ok2, details2 = degree_bound_check(
            I_two, bound, n_orders=n_orders, seed=seed + 1, mode="le")
        squarefree_two = all(max(e) <= 1 for rec in details2["records"]
                             for e in rec["lead_exps"])
        items["two_minors_initials_squarefree"] = {
            "passed": squarefree_two, "orders": len(details2["records"])}
        items["two_minors_degree_bound"] = {
            "passed": ok2, "mode": "le", "bound": bound,
            "violations": details2["violations"]}
    else:
        I_two = None
        items["two_minors_initials_squarefree"] = {"passed": True,
                                                   "skipped": True}
        items["two_minors_degree_bound"] = {"passed": True, "skipped": True}

    rep_max = is_cs(I_max)
    items["maximal_minors_radical_gin"] = {
        "passed": rep_max.is_yes, "verdict": rep_max.verdict}
    if I_two is not None:
        rep_two = is_cs(I_two)
        items["two_minors_radical_gin"] = {
            "passed": rep_two.is_yes, "verdict": rep_two.verdict}
    if A.grading == "column":
        rep_star = is_csstar(I_max)
        items["maximal_minors_first_variables"] = {
            "passed": rep_star.is_yes, "verdict": rep_star.verdict}

    if rep_max.is_yes:
        try:
            reg = regularity_strongly_stable(rep_max.gin_result)
            items["gin_regularity"] = {
                "passed": reg == m, "value": reg, "expected": m}
        except HypothesisNotSatisfiedError as e:
            items["gin_regularity"] = {"passed": False, "error": str(e)}
    else:
        items["gin_regularity"] = {
            "passed": False,
            "error": f"radical-gin verdict {rep_max.verdict!r}: the "
                     f"maximal minors have no radical gin to measure"}

    return {
        "shape": (m, n),
        "grading": A.grading,
        "block_sizes": ring.block_sizes,
        "characteristic": ring.characteristic,
        "orders": n_orders,
        "seed": seed,
        "items": items,
        "passed": all(item["passed"] for item in items.values()),
    }
