"""Graded matrices of linear forms and their minor ideals."""

import itertools

import pytest

from multigb import determinantal
from multigb.csideals import MembershipReport
from multigb.determinantal import (GradedMatrix, _rank_mod_p,
                                   build_column_graded, build_row_graded,
                                   minors, variable_matrix,
                                   verify_main_theorem)
from multigb.errors import HypothesisNotSatisfiedError, ResourceLimitError
from multigb.groebner import EngineLimits, Ideal
from multigb.poly import Polynomial
from multigb.ring import BlockRing
from oracles import determinant_leibniz


def x(R, i, j):
    return Polynomial.variable(R, i, j)


def test_rank_mod_p():
    assert _rank_mod_p([[1, 0], [0, 1]], 7) == 2
    assert _rank_mod_p([[1, 2], [2, 4]], 7) == 1
    assert _rank_mod_p([[7, 0], [0, 7]], 7) == 0
    assert _rank_mod_p([[1, 2, 3]], 7) == 1


def test_column_graded_shape_and_degrees():
    A = build_column_graded(3, (2, 3), seed=1)
    assert A.shape == (3, 2)
    assert A.grading == "column"
    assert A.ring.block_sizes == (2, 3)
    for i in range(1, 4):
        for j in range(1, 3):
            f = A.entry(i, j)
            assert f.is_zero or f.multidegree() == A.ring.unit_degree(j)


def test_column_graded_deterministic_per_seed():
    A = build_column_graded(2, (2, 2), seed=4)
    B = build_column_graded(2, (2, 2), seed=4)
    assert A.entries == B.entries
    C = build_column_graded(2, (2, 2), seed=5)
    assert A.entries != C.entries


def test_column_graded_explicit_coefficients():
    # identity coefficient matrices give back the first variables
    coeffs = [((1, 0), (0, 1)), ((1, 0), (0, 1))]
    A = build_column_graded(2, (2, 2), coefficient_matrices=coeffs)
    R = A.ring
    assert A.entry(1, 1) == x(R, 1, 1)
    assert A.entry(2, 1) == x(R, 1, 2)
    assert A.entry(1, 2) == x(R, 2, 1)
    assert A.entry(2, 2) == x(R, 2, 2)


def test_row_graded_shape_and_degrees():
    A = build_row_graded(4, (2, 3), seed=2)
    assert A.shape == (2, 4)
    assert A.grading == "row"
    for i in range(1, 3):
        for j in range(1, 5):
            f = A.entry(i, j)
            assert f.is_zero or f.multidegree() == A.ring.unit_degree(i)


def test_variable_matrix_row():
    A = variable_matrix(2, 3, grading="row")
    assert A.ring.block_sizes == (3, 3)
    assert A.entry(1, 2) == x(A.ring, 1, 2)
    assert A.entry(2, 3) == x(A.ring, 2, 3)


def test_variable_matrix_column():
    A = variable_matrix(2, 3, grading="column")
    assert A.ring.block_sizes == (2, 2, 2)
    # entry (i, j) is the i-th variable of block j
    assert A.entry(1, 2) == x(A.ring, 2, 1)
    assert A.entry(2, 3) == x(A.ring, 3, 2)


def test_graded_matrix_validation():
    R = BlockRing((2, 2))
    with pytest.raises(ValueError):
        GradedMatrix(R, [[x(R, 1, 1)]], "diagonal")
    with pytest.raises(ValueError):
        GradedMatrix(R, [], "row")
    with pytest.raises(ValueError):
        GradedMatrix(R, [[x(R, 1, 1)], [x(R, 2, 1), x(R, 2, 2)]], "row")
    # wrong block for the grading
    with pytest.raises(ValueError):
        GradedMatrix(R, [[x(R, 2, 1)]], "column")
    # non-linear entry
    with pytest.raises(ValueError):
        GradedMatrix(R, [[x(R, 1, 1) * x(R, 1, 2)]], "column")
    # too many columns for the block count
    with pytest.raises(ValueError):
        GradedMatrix(R, [[x(R, 1, 1), x(R, 2, 1), x(R, 2, 2)]], "column")
    # zero entries are always allowed
    A = GradedMatrix(R, [[Polynomial.zero(R), x(R, 2, 1)]], "column")
    assert A.shape == (1, 2)


def test_minors_of_variable_matrix():
    A = variable_matrix(3, 3, grading="row")
    R = A.ring
    assert len(minors(A, 1)) == 9
    two = minors(A, 2)
    assert len(two) == 9
    f = two[0]
    assert f == x(R, 1, 1) * x(R, 2, 2) - x(R, 1, 2) * x(R, 2, 1)
    (det,) = minors(A, 3)
    assert det.total_degree() == 3
    assert det.multidegree() == (1, 1, 1)
    with pytest.raises(ValueError):
        minors(A, 0)
    with pytest.raises(ValueError):
        minors(A, 4)


def test_minors_discard_zero_determinants():
    R = BlockRing((2, 2))
    z = Polynomial.zero(R)
    A = GradedMatrix(R, [[x(R, 1, 1), z], [x(R, 1, 2), z]], "column")
    assert minors(A, 2) == []
    assert len(minors(A, 1)) == 2


def test_minor_multidegrees():
    # column-graded: each t-minor is multihomogeneous with degree the
    # indicator of its column subset
    A = build_column_graded(3, (2, 2, 2), seed=3)
    for t in (1, 2, 3):
        for f in minors(A, t):
            d = f.multidegree()
            assert d is not None
            assert sum(d) == t
            assert max(d) == 1
    # row-graded by rows
    B = build_row_graded(3, (2, 2), seed=3)
    for f in minors(B, 2):
        assert f.multidegree() == (1, 1)


def _leibniz_minors(A, t):
    """minors(A, t) computed by the permutation-sum oracle."""
    m, n = A.shape
    out = []
    for rows in itertools.combinations(range(m), t):
        for cols in itertools.combinations(range(n), t):
            d = determinant_leibniz([[A.entries[i][j] for j in cols]
                                     for i in rows])
            if not d.is_zero:
                out.append(d)
    return out


def test_cofactor_matches_leibniz():
    for shape, grading in (((2, 2), "row"), ((3, 3), "row"), ((3, 3), "column")):
        A = variable_matrix(*shape, grading=grading)
        for t in range(1, shape[0] + 1):
            assert minors(A, t) == _leibniz_minors(A, t)
    B = build_column_graded(4, (2, 2, 2, 2), seed=8)
    assert minors(B, 4) == _leibniz_minors(B, 4)


def test_ideal_of_minors_limits():
    A = variable_matrix(3, 3, grading="row")
    I = Ideal(A.ring, minors(A, 2))
    assert len(I.gens) == 9
    J = Ideal(A.ring, minors(A, 2), EngineLimits(max_basis=2))
    with pytest.raises(ResourceLimitError):
        J.groebner_basis()


def test_verify_main_theorem_column():
    A = build_column_graded(2, (2, 2, 2), seed=12)
    out = verify_main_theorem(A, n_orders=8, seed=3)
    assert out["grading"] == "column"
    assert out["shape"] == (2, 3)
    items = out["items"]
    assert items["maximal_minors_universal_basis"]["passed"]
    assert items["maximal_minors_initials_squarefree"]["passed"]
    assert items["maximal_minors_generator_degree"]["passed"]
    assert items["two_minors_initials_squarefree"]["passed"]
    assert items["two_minors_degree_bound"]["passed"]
    assert items["maximal_minors_radical_gin"]["passed"]
    assert items["two_minors_radical_gin"]["passed"]
    assert items["maximal_minors_first_variables"]["passed"]
    assert items["gin_regularity"]["value"] == 2
    assert out["passed"]


def test_verify_main_theorem_row():
    A = build_row_graded(4, (3, 3), seed=21)
    out = verify_main_theorem(A, n_orders=8, seed=5)
    assert out["grading"] == "row"
    assert out["shape"] == (2, 4)
    items = out["items"]
    assert items["maximal_minors_degree_profile"]["passed"]
    assert "maximal_minors_universal_basis" not in items
    assert "maximal_minors_first_variables" not in items
    assert items["gin_regularity"]["value"] == 2
    assert out["passed"]


def test_verify_main_theorem_regularity_needs_a_radical_gin(monkeypatch):
    # a radical-gin "no" leaves no gin to measure, and the item says why
    monkeypatch.setattr(determinantal, "is_cs", lambda I: MembershipReport(
        "no", "radical-gin", "forced", {}))
    out = verify_main_theorem(build_column_graded(2, (2, 2, 2), seed=12),
                              n_orders=2, seed=3)
    item = out["items"]["gin_regularity"]
    assert not item["passed"] and "radical-gin verdict 'no'" in item["error"]
    assert not out["passed"]

def test_verify_main_theorem_rejects_tall_matrix():
    A = build_column_graded(3, (2, 2), seed=2)
    with pytest.raises(HypothesisNotSatisfiedError):
        verify_main_theorem(A)


def test_verify_main_theorem_single_row():
    A = build_column_graded(1, (2, 2), seed=6)
    out = verify_main_theorem(A, n_orders=4, seed=1)
    assert out["items"]["two_minors_degree_bound"].get("skipped")
    assert out["passed"]
