"""Graded matrices of linear forms and their minor ideals."""

import gc
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from multigb import determinantal, groebner
from multigb.csideals import MembershipReport, sample_orders, ugb_check
from multigb.determinantal import (GradedMatrix, _rank_mod_p,
                                   build_column_graded, build_row_graded,
                                   minor_ideal, minors, variable_matrix,
                                   verify_main_theorem)
from multigb.errors import (HypothesisNotSatisfiedError, ResourceLimitError,
                            RingMismatchError)
from multigb.groebner import EngineLimits, Ideal, ideal_with_series_of
from multigb.monomials import (MonomialIdeal, _numerator, _numerator_key,
                               quotient_dimension_from_numerator)
from multigb.poly import Polynomial
from multigb.ring import BlockRing, lex
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
    for row in A.entries:
        for j, f in enumerate(row, start=1):
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
    A = determinantal._build_graded(2, (2, 2), 0, 32003, "column", coeffs)
    R = A.ring
    assert A.entries[0][0] == x(R, 1, 1)
    assert A.entries[1][0] == x(R, 1, 2)
    assert A.entries[0][1] == x(R, 2, 1)
    assert A.entries[1][1] == x(R, 2, 2)


def test_row_graded_shape_and_degrees():
    A = build_row_graded(4, (2, 3), seed=2)
    assert A.shape == (2, 4)
    assert A.grading == "row"
    for i, row in enumerate(A.entries, start=1):
        for f in row:
            assert f.is_zero or f.multidegree() == A.ring.unit_degree(i)


def test_variable_matrix_row():
    A = variable_matrix(2, 3, grading="row")
    assert A.ring.block_sizes == (3, 3)
    assert A.entries[0][1] == x(A.ring, 1, 2)
    assert A.entries[1][2] == x(A.ring, 2, 3)


def test_variable_matrix_column():
    A = variable_matrix(2, 3, grading="column")
    assert A.ring.block_sizes == (2, 2, 2)
    # entry (i, j) is the i-th variable of block j
    assert A.entries[0][1] == x(A.ring, 2, 1)
    assert A.entries[1][2] == x(A.ring, 3, 2)


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


def test_graded_matrix_compares_entry_rings_by_equality():
    R = BlockRing((2, 2))
    # an equal ring built separately is the same ring
    twin = BlockRing((2, 2))
    A = GradedMatrix(R, [[x(twin, 1, 1), x(twin, 2, 1)]], "column")
    assert A.shape == (1, 2)
    for other in (BlockRing((2, 3)), BlockRing((2, 2), characteristic=3)):
        with pytest.raises(ValueError, match="different ring"):
            GradedMatrix(R, [[x(other, 1, 1)]], "column")


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
    return oracles.minors(A, t, determinant_leibniz)


def test_cofactor_matches_leibniz():
    for shape, grading in (((2, 2), "row"), ((3, 3), "row"), ((3, 3), "column")):
        A = variable_matrix(*shape, grading=grading)
        for t in range(1, shape[0] + 1):
            assert minors(A, t) == _leibniz_minors(A, t)
            assert oracles.minors(A, t) == _leibniz_minors(A, t)
    B = build_column_graded(4, (2, 2, 2, 2), seed=8)
    assert minors(B, 4) == _leibniz_minors(B, 4)


@st.composite
def graded_matrices(draw):
    """A row- or column-graded matrix of up to 4 x 5 linear forms over
    F_7 (small, so that minors often cancel), some entries zero."""
    grading = draw(st.sampled_from(["column", "row"]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    lines = n if grading == "column" else m
    sizes = draw(st.lists(st.integers(1, 3), min_size=lines,
                          max_size=lines))
    R = BlockRing(sizes, 7)
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            block = j + 1 if grading == "column" else i + 1
            coeffs = draw(st.lists(st.integers(0, 6), min_size=sizes[block - 1],
                                   max_size=sizes[block - 1]))
            row.append(sum((c * x(R, block, k + 1)
                            for k, c in enumerate(coeffs)),
                           Polynomial.zero(R)))
        rows.append(row)
    return GradedMatrix(R, rows, grading)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graded_matrices())
def test_minors_match_the_cofactor_oracle(A):
    # the shared expansion gives every minor the cofactor expansion gives,
    # term for term, in the same order
    for t in range(1, min(A.shape) + 1):
        assert ([f.terms for f in minors(A, t)]
                == [f.terms for f in oracles.minors(A, t)])


@pytest.mark.parametrize("grading", ["column", "row"])
def test_minors_match_the_cofactor_oracle_on_generic_instances(grading):
    build = build_column_graded if grading == "column" else build_row_graded
    A = build(3, (3, 4, 3, 5), seed=2)
    for t in range(1, min(A.shape) + 1):
        got, want = minors(A, t), oracles.minors(A, t)
        assert len(got) == len(want) > 0
        assert [f.terms for f in got] == [f.terms for f in want]


def test_minors_of_a_rank_one_matrix_are_all_zero():
    # rows 2 and 3 are multiples of row 1, so every minor of size 2 or 3
    # vanishes; the 1-minors are the nonzero entries
    R = BlockRing((2, 2, 2))
    first = [x(R, 1, 1) + x(R, 1, 2), x(R, 2, 1), 3 * x(R, 3, 2)]
    A = GradedMatrix(R, [first, [2 * f for f in first],
                         [5 * f for f in first]], "column")
    assert minors(A, 2) == oracles.minors(A, 2) == []
    assert minors(A, 3) == oracles.minors(A, 3) == []
    assert minors(A, 1) == oracles.minors(A, 1)
    assert len(minors(A, 1)) == 9


def left_for_the_collector(call) -> int:
    """The objects that ``call()`` leaves in reference cycles, counted by
    a collection with the collector paused until then."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_minors_and_numerators_leave_nothing_growing_to_the_collector():
    # a memo that a recursive closure holds waits for a full collection;
    # what one minors or one numerator call leaves must not grow with its
    # input (the 2-minor lead keys of generic column 2x3 .. 4x5)
    left = []
    for m, n in ((2, 3), (3, 4), (4, 5)):
        A = variable_matrix(m, n, grading="column")
        lead = Ideal(A.ring, minors(A, 2)).initial_ideal(lex(A.ring))
        key = _numerator_key(A.ring, lead.gens)[0]
        left.append((left_for_the_collector(lambda: _numerator(key)),
                     left_for_the_collector(lambda: minors(A, 2))))
    assert left[0] == left[1] == left[2]


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

@pytest.mark.parametrize("A", [build_column_graded(2, (2, 2, 2), seed=12),
                               build_row_graded(3, (2, 2), seed=4)],
                         ids=["column", "row"])
def test_verify_main_theorem_reads_generator_degree_off_the_minors(
        monkeypatch, A):
    # the maximal minors are forms of degree m, so the item needs no
    # minimal-generator pass and agrees with one
    m = A.shape[0]
    expected = all(g.total_degree() == m for g in
                   Ideal(A.ring, minors(A, m)).minimal_generators())
    calls = []
    original = Ideal.minimal_generators
    monkeypatch.setattr(Ideal, "minimal_generators",
                        lambda self: calls.append(self) or original(self))
    out = verify_main_theorem(A, n_orders=3, seed=2)
    assert calls == []
    assert out["items"]["maximal_minors_generator_degree"] == {
        "passed": expected, "expected_total_degree": m}


def test_verify_main_theorem_rejects_tall_matrix():
    A = build_column_graded(3, (2, 2), seed=2)
    with pytest.raises(HypothesisNotSatisfiedError):
        verify_main_theorem(A)


def test_verify_main_theorem_single_row():
    A = build_column_graded(1, (2, 2), seed=6)
    out = verify_main_theorem(A, n_orders=4, seed=1)
    assert out["items"]["two_minors_degree_bound"].get("skipped")
    assert out["passed"]


# -- the series of a minor ideal read off the generic matrix -------------------

SERIES_SHAPES = [
    build_column_graded(2, (2, 2, 2), seed=1),
    build_column_graded(3, (3, 5, 3, 5), seed=2),
    build_column_graded(4, (4, 4, 4, 4, 4), seed=3),
    build_column_graded(3, (3, 3, 3, 3, 3, 3), seed=4),
    build_row_graded(3, (3, 4), seed=5),
    build_row_graded(4, (4, 5, 4), seed=6),
]


@pytest.mark.parametrize("A", SERIES_SHAPES,
                         ids=lambda A: f"{A.grading}-{A.nrows}x{A.ncols}-"
                                       f"{'.'.join(map(str, A.ring.block_sizes))}")
def test_minor_ideal_takes_the_generic_series(A):
    # the rank check holds, and the series read off the generic matrix is
    # the one the engine computes from A's own minors
    assert determinantal._generic_shape(A)
    for t in sorted({2, A.nrows}):
        I = minor_ideal(A, t)
        assert I._model is not None
        assert list(I.gens) == minors(A, t)
        assert I.hilbert_series() == Ideal(A.ring, minors(A, t)).hilbert_series()


@pytest.mark.parametrize("grading", ["column", "row"])
def test_diagonals_give_the_series_of_the_generic_minors(grading):
    # the main diagonals generate the initial ideal of the generic t-minors
    # under a diagonal order, so they share the engine's series for every t
    for m, n in ((1, 3), (2, 2), (2, 4), (3, 3), (3, 4), (4, 2)):
        X = variable_matrix(m, n, grading)
        for t in range(1, min(m, n) + 1):
            I = minor_ideal(X, t)
            assert I._model is not None
            assert I.hilbert_series() == Ideal(X.ring,
                                               minors(X, t)).hilbert_series()


SEGRE_SHAPES = ((2, 3), (2, 4), (2, 6), (3, 3), (3, 4), (3, 5), (3, 6))


# column-graded 3 x 6 would read 4096 degrees off a numerator of 636 terms
@pytest.mark.parametrize("grading, top, shapes", [
    ("column", 3, SEGRE_SHAPES[:-1]), ("row", 2, SEGRE_SHAPES)],
    ids=["column", "row"])
def test_two_minors_of_the_generic_matrix_have_the_segre_series(
        grading, top, shapes):
    # rank-one matrices u w^T: S/I_2 is the Segre product, whose degree-a
    # part has the dimension of the degree-|a| forms in the k coordinates
    # of the vector spread along each block (k = m when column-graded,
    # n when row-graded), an oracle outside the engine and the diagonals
    for m, n in shapes:
        X = variable_matrix(m, n, grading)
        k = m if grading == "column" else n
        I = minor_ideal(X, 2)
        assert I._model is not None
        series = I.hilbert_series()
        for a in itertools.product(range(top + 1), repeat=X.ring.v):
            d = sum(a)
            assert quotient_dimension_from_numerator(series, X.ring, a) == \
                math.comb(k + d - 1, d), (m, n, a)


# the number of even cycles of K_{m,n}: C(m,k) C(n,k) k! (k-1)! / 2 of
# length 2k, summed over k
CYCLE_COUNTS = {(2, 4): 6, (3, 3): 15, (3, 4): 42, (4, 4): 204}


def test_cycle_binomials_count_the_even_cycles():
    for (m, n), count in CYCLE_COUNTS.items():
        assert count == sum(
            math.comb(m, k) * math.comb(n, k) * math.factorial(k)
            * math.factorial(k - 1) // 2 for k in range(2, min(m, n) + 1))
        assert len(oracles.cycle_binomials(variable_matrix(m, n))) == count


@pytest.mark.parametrize("grading", ["column", "row"])
def test_cycle_binomials_are_a_universal_basis_of_the_two_minors(grading):
    # the circuits of the unimodular toric ideal I_2(X) are its universal
    # basis: the series certifies every sampled order, and the membership
    # test of ugb_check reduces each binomial to zero by a basis of I_2(X)
    for m, n in CYCLE_COUNTS:
        X = variable_matrix(m, n, grading)
        report = ugb_check(oracles.cycle_binomials(X), minor_ideal(X, 2),
                           n_orders=50, seed=0, include_permutations=False)
        assert report.passed
        assert report.certified == report.orders_tested == 52, (m, n)


@pytest.mark.parametrize("grading", ["column", "row"])
def test_two_minors_alone_miss_the_six_cycles(grading):
    # on 3 x 3 the 2-minors (the 4-cycles) leave 8 of 52 orders uncertified,
    # and each lead they miss is the lead of a 6-cycle binomial
    X = variable_matrix(3, 3, grading)
    report = ugb_check(minors(X, 2), minor_ideal(X, 2), n_orders=50, seed=0,
                       include_permutations=False)
    assert report.certified == 44
    assert len({f["order"] for f in report.failures}) == 8
    orders = {o.name: o for o in sample_orders(X.ring, 50, seed=0,
                                               include_permutations=False)}
    six = [c for c in oracles.cycle_binomials(X) if c.total_degree() == 3]
    for f in report.failures:
        assert f["lead"] in {X.ring.monomial_str(c.lead_exp(orders[f["order"]]))
                             for c in six}


def _in_larger_ring(A, extra):
    """A's entries in a ring with the extra blocks ``extra`` at the end,
    which no column (row) of A uses."""
    R = BlockRing(A.ring.block_sizes + extra, A.ring.characteristic)
    pad = (0,) * sum(extra)
    rows = [[Polynomial(R, [(e + pad, c) for e, c in f.terms]) for f in row]
            for row in A.entries]
    return GradedMatrix(R, rows, A.grading)


@pytest.mark.parametrize("A", [
    _in_larger_ring(build_column_graded(2, (2, 3, 2), seed=7), (2,)),
    _in_larger_ring(build_row_graded(3, (3, 3), seed=8), (1, 2)),
], ids=["column", "row"])
def test_unused_blocks_are_free_variables(A):
    # the diagonals are written in A's ring and use no variable of a block
    # that no column (row) uses, and their series is that of A's minors
    v = A.ring.v
    used = A.ncols if A.grading == "column" else A.nrows
    unused = range(A.ring.var_index(used + 1, 1), A.ring.nvars)
    for t in (1, 2):
        I = minor_ideal(A, t)
        assert I._model is not None and I._model.ring == A.ring
        assert not any(e[k] for e in I._model.gens for k in unused)
        series = I.hilbert_series()
        assert series.v == v
        assert series == Ideal(A.ring, minors(A, t)).hilbert_series()


def _with_entry(A, i, j, f):
    rows = [list(row) for row in A.entries]
    rows[i][j] = f
    return GradedMatrix(A.ring, rows, A.grading)


def _dependent_column():
    # column 2's third entry is the sum of its first two
    A = build_column_graded(3, (3, 4, 3), seed=9)
    return _with_entry(A, 2, 1, A.entries[0][1] + A.entries[1][1])


@pytest.mark.parametrize("A", [
    _dependent_column(),
    _with_entry(build_column_graded(2, (2, 2, 2), seed=10), 1, 2,
                Polynomial.zero(BlockRing((2, 2, 2)))),
    build_row_graded(4, (3, 3, 3), seed=0),
], ids=["dependent-column", "zero-entry", "main-theorem-row"])
def test_minor_ideal_falls_back_when_the_rank_check_fails(A):
    # the main_theorem row instance has four entries in three variables per
    # row; each of these ideals computes its series from its own basis
    assert not determinantal._generic_shape(A)
    for t in sorted({2, A.nrows}):
        I = minor_ideal(A, t)
        assert I._model is None
        assert list(I.gens) == minors(A, t)
        assert I.hilbert_series() == Ideal(A.ring, minors(A, t)).hilbert_series()


def test_generic_series_runs_no_buchberger(monkeypatch):
    # the series is read off the diagonal initial ideal of the generic
    # matrix, a monomial ideal: no basis is computed for it, of A's minors
    # or of the generic matrix's
    runs = []
    original = groebner._reduced_basis_raw
    monkeypatch.setattr(groebner, "_reduced_basis_raw",
                        lambda gens, *rest, **kw: runs.append(gens)
                        or original(gens, *rest, **kw))
    A = build_column_graded(3, (3, 5, 3, 5), seed=2)
    I = minor_ideal(A, 2)
    series = I.hilbert_series()
    assert runs == []
    assert Ideal(A.ring, minors(A, 2)).hilbert_series() == series
    assert runs == [[f.terms for f in I.gens]]


def test_first_basis_of_a_minor_ideal_uses_the_cutoff(monkeypatch):
    # the model comes with the ideal, so its first basis skips S-pairs by
    # the series though nobody asked for it, and equals the basis the
    # engine computes without a cutoff
    checks = []
    settled = groebner._SeriesCutoff.settled
    monkeypatch.setattr(groebner._SeriesCutoff, "settled",
                        lambda self, a, basis: checks.append(a)
                        or settled(self, a, basis))
    A = build_column_graded(3, (3, 4, 3, 4), seed=2)
    I = minor_ideal(A, 2)
    assert I._cutoff is None
    gb = I.groebner_basis()
    assert checks
    assert gb == Ideal(A.ring, minors(A, 2)).groebner_basis()


def test_ideal_with_series_of_checks_the_model_ring():
    # the ideal lives in the model's ring, so a generator from any other
    # ring, one of another characteristic included, is rejected
    model = MonomialIdeal(BlockRing((2, 2)), [])
    for ring in (BlockRing((2,)), BlockRing((1, 2)), BlockRing((2, 2, 1)),
                 BlockRing((2, 2), characteristic=7)):
        with pytest.raises(RingMismatchError):
            ideal_with_series_of(model, [x(ring, 1, 1)])
