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

from multigb.csideals import degree_bound_check, is_cs, is_csstar, ugb_check
from multigb.errors import HypothesisNotSatisfiedError
from multigb.groebner import Ideal
from multigb.monomials import regularity_strongly_stable
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
                if f.ring is not self.ring:
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

    def entry(self, i: int, j: int) -> Polynomial:
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

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
                  characteristic: int, coefficient_matrices: Sequence | None,
                  grading: str) -> GradedMatrix:
    """Block j contributes the k linear forms A_j x_j, for a k x n_j
    coefficient matrix A_j (random full-rank from the seed when not
    supplied); they fill column j of a column-graded matrix, row j of a
    row-graded one."""
    ring = BlockRing(tuple(block_sizes), characteristic)
    if coefficient_matrices is None:
        rng = random.Random(seed)
        coefficient_matrices = [
            _random_full_rank(rng, k, nj, ring.characteristic)
            for nj in ring.block_sizes]
    if len(coefficient_matrices) != ring.v:
        raise ValueError(f"need {ring.v} coefficient matrices")
    for j, (A, nj) in enumerate(zip(coefficient_matrices, ring.block_sizes)):
        if len(A) != k or any(len(row) != nj for row in A):
            raise ValueError(f"coefficient matrix {j + 1} must be {k}x{nj}")
    forms = [[_linear_form(ring, j + 1, A[i]) for i in range(k)]
             for j, A in enumerate(coefficient_matrices)]
    rows = forms if grading == "row" else list(zip(*forms))
    return GradedMatrix(ring, rows, grading)


def build_column_graded(m: int, block_sizes: Sequence[int], seed: int = 0,
                        characteristic: int = DEFAULT_CHARACTERISTIC,
                        coefficient_matrices: Sequence | None = None) -> GradedMatrix:
    """m x v matrix whose column j is A_j x_j for an m x n_j coefficient
    matrix A_j (random full-rank from the seed when not supplied)."""
    return _build_graded(m, block_sizes, seed, characteristic,
                         coefficient_matrices, "column")


def build_row_graded(n: int, block_sizes: Sequence[int], seed: int = 0,
                     characteristic: int = DEFAULT_CHARACTERISTIC,
                     coefficient_matrices: Sequence | None = None) -> GradedMatrix:
    """v x n matrix whose row i consists of n linear forms in the block-i
    variables, with full-rank n x n_i coefficient matrices."""
    return _build_graded(n, block_sizes, seed, characteristic,
                         coefficient_matrices, "row")


def variable_matrix(m: int, n: int, grading: str = "row",
                    characteristic: int = DEFAULT_CHARACTERISTIC) -> GradedMatrix:
    """The m x n matrix of distinct variables, row-graded with deg = e_row
    (block sizes n) or column-graded with deg = e_column (block sizes m)."""
    if grading == "row":
        ring = BlockRing((n,) * m, characteristic)
        rows = [[Polynomial.variable(ring, i + 1, j + 1) for j in range(n)]
                for i in range(m)]
    elif grading == "column":
        ring = BlockRing((m,) * n, characteristic)
        rows = [[Polynomial.variable(ring, j + 1, i + 1) for j in range(n)]
                for i in range(m)]
    else:
        raise ValueError(f"unknown grading {grading!r}")
    return GradedMatrix(ring, rows, grading)


def _determinant(rows: list) -> Polynomial:
    """Cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    total = Polynomial.zero(ring)
    for j, f in enumerate(rows[0]):
        if f.is_zero:
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = f * _determinant(sub)
        total = total - term if j % 2 else total + term
    return total


def minors(A: GradedMatrix, t: int) -> list:
    """All t x t minors in lexicographic row/column-subset order, zero
    determinants discarded."""
    m, n = A.shape
    if not 1 <= t <= min(m, n):
        raise ValueError(f"minor size {t} out of range for shape {m}x{n}")
    out = []
    for rows in itertools.combinations(range(m), t):
        for cols in itertools.combinations(range(n), t):
            d = _determinant([[A.entries[i][j] for j in cols] for i in rows])
            if not d.is_zero:
                out.append(d)
    return out


def verify_main_theorem(A: GradedMatrix, n_orders: int = 25,
                        seed: int = 0) -> dict:
    """Check the determinantal claims on one instance and return a transcript.

    Items: sampled initial ideals of the maximal-minor ideal are squarefree
    and its generators have total degree m; the maximal minors are a sampled
    universal GB (column case) or every sampled GB element has multidegree
    (1,...,1) (row case); sampled initial ideals of the 2-minor ideal are
    squarefree and its sampled GB degrees are bounded by (1,...,1); both
    ideals pass the radical-gin test, the column-case maximal-minor ideal
    passes the first-variables test; and the gin of the maximal-minor ideal
    has regularity exactly m.
    """
    ring = A.ring
    m, n = A.shape
    if m > n:
        raise HypothesisNotSatisfiedError(
            "maximal-minor items need at least as many columns as rows")
    maximal = minors(A, m)
    I_max = Ideal(ring, maximal)
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
    gens_degree = all(g.total_degree() == m for g in I_max.minimal_generators())
    items["maximal_minors_generator_degree"] = {
        "passed": gens_degree, "expected_total_degree": m}

    if min(m, n) >= 2:
        I_two = Ideal(ring, minors(A, 2))
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
