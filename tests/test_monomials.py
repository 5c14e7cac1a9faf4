"""Monomial-ideal combinatorics: duals, polarization, Hilbert numerators."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigb.errors import (HypothesisNotSatisfiedError, NotSquarefreeError,
                            PolarizationCapacityError, RingMismatchError)
from multigb.monomials import (HilbertNumerator, MonomialIdeal, alexander_dual,
                               _ideal_key, _numerator, _numerator_key,
                               ambient_dimension,
                               colon_monomial,
                               hilbert_numerator, is_borel_fixed,
                               is_extended_from_first_variables,
                               is_radical_monomial, is_strongly_stable,
                               polarize,
                               quotient_dimension_from_numerator,
                               regularity_strongly_stable, sum_monomial,
                               support)
from multigb.ring import BlockRing, exp_divides
from oracles import (alexander_dual_bruteforce, graded_dimension,
                     hilbert_numerator_inclusion_exclusion,
                     hilbert_numerator_packed, intersect_monomial)


def M(R, *gens):
    return MonomialIdeal(R, gens)


def test_minimal_antichain():
    R = BlockRing((3,))
    I = M(R, (1, 1, 0), (1, 1, 1), (2, 1, 0), (1, 1, 0))
    assert I.gens == ((1, 1, 0),)
    assert I.contains_monomial((1, 2, 3))
    assert not I.contains_monomial((0, 5, 5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_minimal_generators_match_divisibility(data):
    n = data.draw(st.integers(1, 5))
    top = data.draw(st.sampled_from([1, 2, 3, 4, 7, 8]))
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, top)] * n),
                              max_size=8))
    expected = sorted({g for g in gens
                       if not any(h != g and exp_divides(h, g) for h in gens)})
    assert list(MonomialIdeal(BlockRing((n,)), gens).gens) == expected


def test_colon_and_sum_and_intersect():
    R = BlockRing((2, 2))
    I = M(R, (1, 0, 2, 0), (0, 1, 0, 1))
    assert colon_monomial(I, (0, 0, 1, 0)).gens == ((0, 1, 0, 1), (1, 0, 1, 0))
    assert sum_monomial(I, [(1, 0, 0, 0)]).gens == ((0, 1, 0, 1), (1, 0, 0, 0))
    J = M(R, (0, 0, 1, 0))
    K = intersect_monomial(I, J)
    assert K.gens == ((0, 1, 1, 1), (1, 0, 2, 0))


def test_predicates():
    R = BlockRing((2, 2))
    assert is_radical_monomial(M(R, (1, 0, 1, 0)))
    assert not is_radical_monomial(M(R, (2, 0, 0, 0)))
    assert is_extended_from_first_variables(M(R, (1, 0, 1, 0), (2, 0, 0, 0)))
    assert not is_extended_from_first_variables(M(R, (0, 1, 0, 0)))
    assert support((0, 2, 0, 1)) == (1, 3)


def test_strongly_stable():
    R = BlockRing((3,))
    # (x1^2, x1x2, x2^2) is strongly stable; (x2) alone is not
    assert is_strongly_stable(M(R, (2, 0, 0), (1, 1, 0), (0, 2, 0)))
    assert not is_strongly_stable(M(R, (0, 1, 0)))
    # per-block condition in a product ring
    R2 = BlockRing((2, 2))
    assert is_strongly_stable(M(R2, (1, 0, 1, 0)))
    assert not is_strongly_stable(M(R2, (1, 0, 0, 1)))


def test_borel_fixed_char_dependence():
    # (x2^2, x1^2) with the exchange x2^2 -> x1x2 missing: Borel-fixed in
    # characteristic 2 (binomial 2 choose 1 vanishes) but not strongly stable
    R = BlockRing((2,), characteristic=2)
    I = M(R, (0, 2), (2, 0))
    assert is_borel_fixed(I)
    assert not is_strongly_stable(I)
    R32003 = BlockRing((2,), characteristic=32003)
    assert not is_borel_fixed(M(R32003, (0, 2), (2, 0)))
    # strongly stable always implies Borel-fixed
    J = M(R, (0, 2), (1, 1), (2, 0))
    assert is_strongly_stable(J)
    assert is_borel_fixed(J)
    assert is_borel_fixed(M(R32003, (0, 2), (1, 1), (2, 0)))


def test_regularity_strongly_stable():
    R = BlockRing((3,))
    I = M(R, (2, 0, 0), (1, 1, 0), (0, 2, 0))
    assert regularity_strongly_stable(I) == 2
    J = M(R, (1, 0, 0))
    assert regularity_strongly_stable(J) == 1
    with pytest.raises(HypothesisNotSatisfiedError):
        regularity_strongly_stable(M(R, (0, 1, 0)))
    with pytest.raises(HypothesisNotSatisfiedError):
        regularity_strongly_stable(M(R))


def test_alexander_dual_frozen_pair():
    # in K[x,y] with two singleton blocks: dual of (xy) is (x) cap (y)'s
    # transversal ideal (x, y), and dual of (x, y) is (xy)
    R = BlockRing((1, 1))
    I = M(R, (1, 1))
    D = alexander_dual(I)
    assert D.gens == ((0, 1), (1, 0))
    assert alexander_dual(D) == I


def test_alexander_dual_against_bruteforce():
    rng = random.Random(11)
    for _ in range(40):
        v = rng.randrange(1, 4)
        sizes = tuple(rng.randrange(1, 4) for _ in range(v))
        R = BlockRing(sizes)
        if R.nvars < 2:
            continue
        gens = []
        for _ in range(rng.randrange(1, 5)):
            e = [0] * R.nvars
            for var in rng.sample(range(R.nvars), rng.randrange(1, min(4, R.nvars + 1))):
                e[var] = 1
            gens.append(tuple(e))
        I = MonomialIdeal(R, gens)
        if I.is_zero or I.is_unit:
            continue
        D = alexander_dual(I)
        assert D == alexander_dual_bruteforce(I)
        assert alexander_dual(D) == I


def test_alexander_dual_errors():
    R = BlockRing((2,))
    with pytest.raises(NotSquarefreeError):
        alexander_dual(M(R, (2, 0)))
    with pytest.raises(HypothesisNotSatisfiedError):
        alexander_dual(M(R))
    with pytest.raises(HypothesisNotSatisfiedError):
        alexander_dual(M(R, (0, 0)))


def test_polarize_within_block():
    # (x1^2, x1x2) in a 3-variable block: the second occurrence of x1 takes
    # the free position 3, giving (x1x3, x1x2)
    R = BlockRing((3,))
    I = M(R, (2, 0, 0), (1, 1, 0))
    P = polarize(I)
    assert P.gens == ((1, 0, 1), (1, 1, 0))
    assert is_radical_monomial(P)


def test_polarize_capacity_error():
    R = BlockRing((2,))
    with pytest.raises(PolarizationCapacityError):
        polarize(M(R, (2, 0), (1, 1)))


def test_polarize_extended_from_first_variables():
    # (x11^2, x11*x21) over blocks (3, 2) polarizes to (x11x12, x11x21)
    R = BlockRing((3, 2))
    I = M(R, (2, 0, 0, 0, 0), (1, 0, 0, 1, 0))
    P = polarize(I)
    assert P.gens == ((1, 0, 0, 1, 0), (1, 1, 0, 0, 0))


def test_polarize_preserves_squarefree_input():
    R = BlockRing((2, 2))
    I = M(R, (1, 0, 1, 0), (0, 1, 0, 1))
    assert polarize(I) == I


def test_polarize_hilbert_consistency():
    # polarization preserves the numerator up to the degree identification:
    # here both blocks stay, so total-degree specializations agree
    R = BlockRing((4,))
    I = M(R, (2, 0, 0, 0), (1, 1, 0, 0))
    P = polarize(I)
    nI = hilbert_numerator(I)
    nP = hilbert_numerator(P)
    # same total-degree generating function: compare coefficient sums by degree
    def by_total(num):
        out = {}
        for a, c in num.coeffs.items():
            out[sum(a)] = out.get(sum(a), 0) + c
        return {k: v for k, v in out.items() if v}
    assert by_total(nI) == by_total(nP)


def test_numerator_keys_keep_field_widths_and_blocks_apart():
    # the key holds the number of polarized positions of each block, and
    # each pair differs in it: (x[1,1]x[1,3]) and (x[1,1]x[1,2]^2) polarize
    # to two and three positions; (x[2,1]) and (x[1,1]x[1,2], x[2,1]) to
    # (0, 1) and (2, 1) positions per block; the last two to (2, 2) and
    # (1, 3).  Each key gives its own ideal's numerator.
    pairs = [(M(BlockRing((3,)), (1, 0, 1)), M(BlockRing((3,)), (1, 2, 0))),
             (M(BlockRing((2, 1)), (0, 0, 1)),
              M(BlockRing((2, 1)), (1, 1, 0), (0, 0, 1))),
             (M(BlockRing((2, 1)), (1, 1, 0), (0, 0, 2)),
              M(BlockRing((1, 2)), (1, 1, 0), (0, 0, 2)))]
    widths = [((2,), (3,)), ((0, 1), (2, 1)), ((2, 2), (1, 3))]
    for pair, expected in zip(pairs, widths):
        keys = [_numerator_key(J.ring, J.gens)[0] for J in pair]
        assert tuple(key[0] for key in keys) == expected
        for J, key in zip(pair, keys):
            assert _numerator(key) == hilbert_numerator_inclusion_exclusion(J)


def test_hilbert_numerator_frozen():
    # leads of (x11x22 - x12x21, x13x21) under the default order:
    # numerator 1 - 2 y1 y2 + y1^2 y2^2
    R = BlockRing((3, 3))
    x = R.var_index
    gens = []
    e = [0] * 6
    e[x(1, 2)] = 1
    e[x(2, 1)] = 1
    gens.append(tuple(e))
    e = [0] * 6
    e[x(1, 3)] = 1
    e[x(2, 1)] = 1
    gens.append(tuple(e))
    e = [0] * 6
    e[x(1, 1)] = 1
    e[x(1, 3)] = 1
    e[x(2, 2)] = 1
    gens.append(tuple(e))
    num = hilbert_numerator(M(R, *gens))
    assert num.coeffs == {(0, 0): 1, (1, 1): -2, (2, 2): 1}


def test_hilbert_numerator_against_inclusion_exclusion():
    rng = random.Random(23)
    for _ in range(40):
        v = rng.randrange(1, 4)
        sizes = tuple(rng.randrange(1, 4) for _ in range(v))
        R = BlockRing(sizes)
        gens = [tuple(rng.randrange(3) for _ in range(R.nvars))
                for _ in range(rng.randrange(0, 5))]
        gens = [g for g in gens if any(g)]
        I = MonomialIdeal(R, gens)
        assert hilbert_numerator(I) == hilbert_numerator_inclusion_exclusion(I)


@st.composite
def numerator_cases(draw):
    """A monomial ideal in 1..3 blocks: the zero or the unit ideal, or
    generators whose largest exponent sits on either side of a field-width
    boundary (2^k - 1 or 2^k), either in two groups of disjoint support or
    all holding one variable, so that they do not split."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    R = BlockRing(sizes)
    n = R.nvars
    kind = draw(st.sampled_from(["zero", "unit", "split", "joined"]))
    if kind == "zero":
        return MonomialIdeal(R, []), kind
    if kind == "unit":
        return MonomialIdeal(R, [(0,) * n]), kind
    k = draw(st.integers(1, 3))
    top = draw(st.sampled_from([(1 << k) - 1, 1 << k]))
    exponent = st.one_of(st.integers(0, top), st.just(top), st.just(0))
    if kind == "split":
        if n < 2:
            R = BlockRing(sizes + [1])
            n = R.nvars
        cut = draw(st.integers(1, n - 1))
        order = draw(st.permutations(range(n)))
        parts = [order[:cut], order[cut:]]
    else:
        parts = [range(n)]
    gens = []
    for part in parts:
        for _ in range(draw(st.integers(1, 6 // len(parts)))):
            e = [0] * n
            for var in part:
                e[var] = draw(exponent)
            if not any(e):
                e[part[0]] = 1
            gens.append(e)
    if kind == "joined":
        for e in gens:
            e[0] = max(e[0], 1)
    gens[0][next(v for v in range(n) if gens[0][v])] = top
    return MonomialIdeal(R, [tuple(e) for e in gens]), kind


@settings(max_examples=300, deadline=None, derandomize=True)
@given(numerator_cases())
def test_hilbert_numerator_matches_inclusion_exclusion(case):
    I, kind = case
    num = hilbert_numerator(I)
    assert num == hilbert_numerator_inclusion_exclusion(I)
    if kind == "zero":
        assert num == HilbertNumerator.one(I.ring.v)
    if kind == "unit":
        assert num.is_zero


@st.composite
def polarization_cases(draw):
    """A monomial ideal in 2..4 blocks of 1 or 2 variables, exponents up to
    3: the zero or the unit ideal, a pure power, or random generators, one
    of them squarefree and one not when the kind is "mixed"."""
    R = BlockRing(draw(st.lists(st.integers(1, 2), min_size=2, max_size=4)))
    n = R.nvars
    kind = draw(st.sampled_from(["zero", "unit", "power", "mixed", "random"]))
    if kind == "zero":
        return MonomialIdeal(R, [])
    if kind == "unit":
        return MonomialIdeal(R, [(0,) * n])
    if kind == "power":
        var, c = draw(st.integers(0, n - 1)), draw(st.integers(1, 3))
        return MonomialIdeal(R, [tuple(c if k == var else 0
                                       for k in range(n))])
    exponents = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    gens = draw(st.lists(exponents.filter(any), min_size=1, max_size=5))
    if kind == "mixed":
        squarefree = draw(st.lists(st.integers(0, 1), min_size=n,
                                   max_size=n).filter(any))
        powered = draw(exponents.filter(lambda e: max(e) >= 2))
        gens += [squarefree, powered]
    return MonomialIdeal(R, [tuple(g) for g in gens])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polarization_cases())
def test_polarized_numerator_matches_the_unpolarized_recursion(I):
    # the polarized recursion gives the numerator of the recursion on I's
    # own exponents, and it counts standard monomials degree by degree
    num = hilbert_numerator(I)
    assert num == hilbert_numerator_packed(I)
    top = I.ring.multidegree(tuple(map(max, zip(*I.gens)))) if I.gens \
        else (0,) * I.ring.v
    for a in itertools.product(*(range(min(d, 2) + 1) for d in top)):
        assert quotient_dimension_from_numerator(num, I.ring, a) == \
            graded_dimension(I, a)


@st.composite
def lead_lists(draw):
    """Exponent lists in 1..3 blocks of 1 or 2 variables, exponents up to 3,
    with duplicates and multiples allowed; the same list with the
    variables renamed inside each block; and the same list with the
    variables it uses moved inside each block, keeping their order."""
    R = BlockRing(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * R.nvars),
                         max_size=5))
    used = {v for e in exps for v, c in enumerate(e) if c}
    renamed, moved = {}, {}  # the variable each variable goes to
    for b in range(1, R.v + 1):
        block = list(R.block_vars(b))
        renamed.update(zip(block, draw(st.permutations(block))))
        mine = [v for v in block if v in used]
        to = sorted(draw(st.permutations(block))[:len(mine)])
        moved.update(zip(mine, to))

    def rename(to: dict) -> list:
        out = []
        for e in exps:
            f = [0] * R.nvars
            for v, c in enumerate(e):
                if c:
                    f[to[v]] = c
            out.append(tuple(f))
        return out

    return R, exps, rename(renamed), rename(moved)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lead_lists())
def test_numerator_key_is_the_memo_key_of_the_lead_ideal(case):
    # the key is the one csideals._sampled_records memoizes a lead set's
    # verdict under, with the lead ideal's minimal generators, and its
    # numerator is the lead ideal's; renaming variables inside a block
    # keeps the numerator, and keeps the key too when the used variables
    # keep their order
    R, exps, renamed, moved = case
    J = MonomialIdeal(R, exps)
    key, minimal = _numerator_key(R, exps)
    assert sorted(minimal) == list(J.gens)
    num = _numerator(key)
    assert num == hilbert_numerator(J) == \
        hilbert_numerator_inclusion_exclusion(J)
    if not J.gens:
        assert key == ((0,) * R.v, ())
    assert hilbert_numerator(MonomialIdeal(R, renamed)) == num
    assert _numerator_key(R, moved)[0] == key


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_ideal_key_is_the_validating_key(data):
    # hilbert_numerator keys a MonomialIdeal's minimal generators as they
    # are; that key is the one _numerator_key finds after validating and
    # minimalizing them, squarefree or not
    R = BlockRing(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                     max_size=3)))
    top = data.draw(st.sampled_from([1, 3]))
    I = MonomialIdeal(R, data.draw(st.lists(
        st.tuples(*[st.integers(0, top)] * R.nvars), max_size=6)))
    assert _ideal_key(I) == _numerator_key(R, I.gens)[0]


def test_numerator_key_packs_again_without_a_dropped_power():
    # x^3 is a multiple of x and the top power drops with it, so the key
    # is that of (x), as hilbert_numerator packs it
    R = BlockRing((2, 1))
    key, minimal = _numerator_key(R, [(3, 0, 1), (1, 0, 0), (1, 0, 0)])
    assert minimal == [(1, 0, 0)]
    assert key == _numerator_key(R, [(1, 0, 0)])[0]


def test_numerator_key_rejects_what_a_monomial_ideal_rejects():
    R = BlockRing((2, 2))
    with pytest.raises(RingMismatchError, match="exponent length"):
        _numerator_key(R, [(1, 0, 1)])
    with pytest.raises(ValueError, match="negative exponent"):
        _numerator_key(R, [(1, 0, -1, 0)])


def test_hilbert_numerator_shared_variable_with_disjoint_exponent_bits():
    # x1*x2 and x1^2*x3 share x1, with exponents 1 and 2 that have no bit
    # in common: their supports meet, so the numerator does not factor as
    # (1 - y^2)(1 - y^3); the lcm x1^2*x2*x3 gives 1 - y^2 - y^3 + y^4
    R = BlockRing((3,))
    I = M(R, (1, 1, 0), (2, 0, 1))
    assert hilbert_numerator(I).coeffs == {(0,): 1, (2,): -1, (3,): -1,
                                           (4,): 1}
    # the same in two blocks, beside a third generator of disjoint support
    R = BlockRing((2, 2, 1))
    I = M(R, (1, 1, 0, 0, 0), (2, 0, 1, 0, 0), (0, 0, 0, 3, 1))
    assert hilbert_numerator(I) == hilbert_numerator_inclusion_exclusion(I)
    assert hilbert_numerator(I).coeffs == {
        (0, 0, 0): 1, (2, 0, 0): -1, (2, 1, 0): -1, (3, 1, 0): 1,
        (0, 3, 1): -1, (2, 3, 1): 1, (2, 4, 1): 1, (3, 4, 1): -1}


def test_numerator_counts_standard_monomials():
    rng = random.Random(31)
    for _ in range(15):
        R = BlockRing((2, 2))
        gens = [tuple(rng.randrange(3) for _ in range(4))
                for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if any(g)]
        I = MonomialIdeal(R, gens)
        num = hilbert_numerator(I)
        for a in ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)):
            assert quotient_dimension_from_numerator(num, R, a) == \
                graded_dimension(I, a)


def test_ambient_dimension():
    R = BlockRing((2, 3))
    assert ambient_dimension(R, (0, 0)) == 1
    assert ambient_dimension(R, (1, 0)) == 2
    assert ambient_dimension(R, (1, 1)) == 6
    assert ambient_dimension(R, (2, 2)) == 18
    assert ambient_dimension(R, (-1, 0)) == 0


def test_numerator_of_zero_and_principal():
    R = BlockRing((2, 2))
    assert hilbert_numerator(M(R)) == HilbertNumerator.one(2)
    num = hilbert_numerator(M(R, (1, 0, 1, 0)))
    assert num.coeffs == {(0, 0): 1, (1, 1): -1}


def test_numerator_arithmetic_in_one_coordinate():
    # (1 - y2) * (1 + 2*y1*y2 - y2^2), in two coordinates
    q = HilbertNumerator(2, {(0, 0): 1, (1, 1): 2, (0, 2): -1})
    one = HilbertNumerator.one(2)
    p = q - q.times_y(1)
    assert p == HilbertNumerator(2, {(0, 0): 1, (1, 1): 2, (0, 2): -1,
                                     (0, 1): -1, (1, 2): -2, (0, 3): 1})
    assert p.over_one_minus_y(1) == q
    assert (one - one).is_zero
    assert HilbertNumerator(2, {}).over_one_minus_y(0).is_zero
    with pytest.raises(ValueError, match="not divisible"):
        q.over_one_minus_y(0)
    assert q.times_y(0).over_y(0) == q
    assert HilbertNumerator(2, {}).over_y(1).is_zero
    with pytest.raises(ValueError, match="not divisible by y2"):
        q.over_y(1)
