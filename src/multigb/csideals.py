"""Membership tests and verification suites for the two Cartwright-Sturmfels
families of multigraded ideals.

An ideal I is in the radical-gin family when some radical Borel-fixed
ideal has I's multigraded Hilbert series, and in the first-variables
family when some Borel-fixed ideal generated by monomials in the x[i,1]
has it (Conca-De Negri-Gorla, arXiv:1608.08942, after Cartwright-
Sturmfels, IMRN 2010).  ``is_cs`` and ``is_csstar`` read that ideal J off
``I.hilbert_series()``: each inverts a Hilbert function in v variables that
must take only the values 0 and 1.  The theorem they rest on is uniqueness:
among Borel-fixed ideals, such a J is the only one with its multigraded
Hilbert series.  gin(I) is Borel-fixed with I's series, so a "yes" gives
gin(I) = J, and a "no" means gin(I) is not in the family.  Verdicts are
deterministic in every characteristic and cite the criterion that decided
them; the randomized ``gin`` and ``stable_gin`` serve as their test oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Sequence

from multigb import kernel
from multigb.errors import (HypothesisNotSatisfiedError,
                            InternalConsistencyError, NotSquarefreeError)
from multigb.gin import GinReport, gin
from multigb.groebner import (Ideal, ideal_from_monomials,
                              quotient_by_linear_form, coordinate_section,
                              regular_sequence_test, _graded_linear_block)
from multigb.monomials import (HilbertNumerator, MonomialIdeal,
                               alexander_dual, hilbert_numerator,
                               is_radical_monomial, polarize)
from multigb.poly import Polynomial
from multigb.ring import BlockRing, TermOrder, degrevlex, lex, weight_order


@dataclass
class MembershipReport:
    """Verdict of a family-membership test, with its audit trail."""
    verdict: str                      # "yes" | "no"
    family: str                       # "radical-gin" | "first-variables-gin"
    criterion: str
    evidence: dict
    gin_result: MonomialIdeal | None = None

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


@dataclass
class UGBReport:
    """Sampled universal-Groebner-basis evidence (a pass is not a proof)."""
    orders_tested: int
    order_names: list
    failures: list
    degree_profile: list
    records: list
    note: str = "sampled, not certified"
    certified: int = 0    # orders settled by the Hilbert series, not Buchberger

    @property
    def passed(self) -> bool:
        return not self.failures


# -- order sampling -----------------------------------------------------------

PERMUTATION_FAMILY_CAP = 1024


def _block_respecting_priorities(ring: BlockRing):
    """Variable priorities that keep every block contiguous."""
    per_block = [list(itertools.permutations(ring.block_vars(b)))
                 for b in range(1, ring.v + 1)]
    for block_seq in itertools.permutations(range(ring.v)):
        for choice in itertools.product(*(per_block[b] for b in block_seq)):
            prio = []
            for chunk in choice:
                prio.extend(chunk)
            yield tuple(prio)


def sample_orders(ring: BlockRing, n_weight: int, seed: int = 0,
                  include_permutations: bool = True) -> list:
    """Deterministic order sample: lex and degrevlex over the block-respecting
    variable permutations (when the ring has at most 8 variables), followed by
    ``n_weight`` distinct random positive weight orders with degrevlex ties
    (weights 1..1000, so at most 1000^nvars of them exist)."""
    if not 0 <= n_weight <= 1000 ** ring.nvars:
        raise ValueError(f"n_weight must be in 0..1000^{ring.nvars}, the "
                         f"number of weight vectors with entries 1..1000; "
                         f"got {n_weight}")
    orders = []
    if include_permutations and ring.nvars <= 8:
        for prio in _block_respecting_priorities(ring):
            orders.append(lex(ring, prio))
            orders.append(degrevlex(ring, prio))
            if len(orders) >= PERMUTATION_FAMILY_CAP:
                break
    else:
        orders.append(degrevlex(ring))
        orders.append(lex(ring))
    rng = random.Random(seed)
    seen = {o.rows for o in orders}
    added = 0
    while added < n_weight:
        w = tuple(rng.randrange(1, 1001) for _ in range(ring.nvars))
        o = weight_order(ring, w)
        if o.rows in seen:
            continue
        seen.add(o.rows)
        orders.append(o)
        added += 1
    return orders


def gamma_sequence(ring: BlockRing) -> list:
    """The linear forms x[i,j] - x[i,1] for j >= 2, block by block."""
    out = []
    for block in range(1, ring.v + 1):
        first = Polynomial.variable(ring, block, 1)
        for j in range(2, ring.block_sizes[block - 1] + 1):
            out.append(Polynomial.variable(ring, block, j) - first)
    return out


STABLE_GIN_ATTEMPTS = 3


def stable_gin(I: Ideal, order: TermOrder | None = None, trials: int = 3,
               seed: int = 0) -> GinReport:
    """gin with up to STABLE_GIN_ATTEMPTS fresh-seed runs on trial
    disagreement.

    Each underlying run reports disagreement honestly; retrying with new
    randomness is the documented caller-side remedy.  The returned report
    is the first agreeing one (its seeds identify the run), else the last.
    """
    last = None
    for attempt in range(STABLE_GIN_ATTEMPTS):
        rep = gin(I, order, trials=trials, seed=seed + 97 * attempt)
        if rep.agreement:
            return rep
        last = rep
    return last


# -- membership ----------------------------------------------------------------

def _box(series: HilbertNumerator) -> tuple:
    """The coefficients of ``series`` as a flat list over the box of its
    degrees (last coordinate fastest), with the box's sides and strides."""
    degrees = series.coeffs or {(0,) * series.v: 0}
    dims = tuple(max(a[i] for a in degrees) + 1 for i in range(series.v))
    strides = tuple(math.prod(dims[i + 1:]) for i in range(series.v))
    values = [0] * math.prod(dims)
    for a, c in series.coeffs.items():
        values[sum(map(operator.mul, a, strides))] = c
    return values, dims, strides


def _along_axes(values: list, dims: tuple, transform) -> None:
    """Replace each line of the box along one axis by ``transform(line)``,
    one axis after another."""
    stride = len(values)
    for n in dims:
        span, stride = stride, stride // n
        for start in range(0, len(values), span):
            for k in range(start, start + stride):
                values[k:k + span:stride] = transform(values[k:k + span:stride])


def _at_one_minus(line: list) -> list:
    """Coefficients in z of the polynomial with coefficients ``line`` in y,
    at y = 1 - z."""
    return [(-1) ** j * sum(math.comb(b, j) * c
                            for b, c in enumerate(line[j:], j))
            for j in range(len(line))]


def _staircase(h: list, dims: tuple, strides: tuple) -> tuple:
    """(the minimal zeros of h, "") when h, given on the box of its
    degrees, is the Hilbert function of k[z]/M for a monomial ideal M:
    it takes only the values 0 and 1 and its zeros are closed upwards
    (beyond the box, h repeats its values at the box's faces).  The minimal
    zeros generate M.  Otherwise (None, the reason h is not)."""
    if not set(h) <= {0, 1}:
        return None, (f"the Hilbert function to invert takes the value "
                      f"{next(x for x in h if x not in (0, 1))}")
    minimal = []
    for k, a in enumerate(itertools.product(*map(range, dims))):
        if h[k]:
            continue
        if any(x + 1 < n and h[k + s] for x, n, s in zip(a, dims, strides)):
            return None, ("the zeros of the Hilbert function to invert are "
                          "not closed upwards")
        if all(x == 0 or h[k - s] for x, s in zip(a, strides)):
            minimal.append(a)
    return minimal, ""


def _radical_model(ring: BlockRing, series: HilbertNumerator) -> tuple:
    """(J, "") for the radical Borel-fixed ideal J with Hilbert numerator
    ``series``, or (None, the reason there is none).

    J is the intersection of primes P_k = (x[i,1..k_i] : i) over an
    antichain of k <= (n_1..n_v), and inclusion-exclusion gives
    K(S/J; y) = 1 - K(k[z]/M; 1 - y) for M = (z^k).  So h, the Hilbert
    function of k[z]/M, is the prefix sum of N(z) = 1 - series(1 - z), and
    M's generators are its minimal zeros.
    """
    values, dims, strides = _box(series)
    _along_axes(values, dims,
                lambda line: list(itertools.accumulate(_at_one_minus(line))))
    ks, reason = _staircase([1 - x for x in values], dims, strides)
    if ks is None:
        return None, reason
    if any(x > n for k in ks for x, n in zip(k, ring.block_sizes)):
        return None, "a component would need more variables than a block has"
    if not ks:  # no component: J is the unit ideal
        J = MonomialIdeal(ring, [(0,) * ring.nvars])
    elif not any(ks[0]):  # the component P_0 = 0
        J = MonomialIdeal(ring, [])
    else:
        # the dual of the ideal of the prod_i x[i,1..k_i] is the meet of the P_k
        J = alexander_dual(MonomialIdeal(ring, [
            tuple(int(pos <= k[block - 1])
                  for block, pos in map(ring.var_pair, range(ring.nvars)))
            for k in ks]))
    return _checked(J, series)


def _first_variables_model(ring: BlockRing,
                           series: HilbertNumerator) -> tuple:
    """(J, "") for the ideal J generated by monomials in the x[i,1] with
    Hilbert numerator ``series``, or (None, the reason there is none).

    J = J0*S with J0 in k[x[1,1]..x[v,1]], and K(S/J) = K(k[t]/J0), so h,
    the Hilbert function of k[t]/J0, is the prefix sum of the series, and
    J0's generators are its minimal zeros."""
    values, dims, strides = _box(series)
    _along_axes(values, dims, lambda line: list(itertools.accumulate(line)))
    zeros, reason = _staircase(values, dims, strides)
    if zeros is None:
        return None, reason
    return _checked(MonomialIdeal(ring, [
        tuple(a[block - 1] if pos == 1 else 0
              for block, pos in map(ring.var_pair, range(ring.nvars)))
        for a in zeros]), series)


def _checked(J: MonomialIdeal, series: HilbertNumerator) -> tuple:
    """(J, "") when J has the Hilbert numerator ``series``, which the
    construction promises; else (None, the reason)."""
    if hilbert_numerator(J) != series:
        return None, "the ideal read off the series has another series"
    return J, ""


def is_cs(I: Ideal) -> MembershipReport:
    """Radical-gin membership, decided by I's multigraded Hilbert series.

    "yes" when a radical Borel-fixed ideal J has I's series; then
    gin(I) = J, by uniqueness (Conca-De Negri-Gorla): among Borel-fixed
    ideals, a radical one is the only one with its multigraded Hilbert
    series.  "no" needs no theorem: gin(I) is Borel-fixed with I's series,
    so a radical gin(I) would be such a J.  The verdict is deterministic.
    I must be multigraded (else ``HypothesisNotSatisfiedError``).
    """
    J, reason = _radical_model(I.ring, I.hilbert_series())
    if J is None:
        return MembershipReport(
            "no", "radical-gin",
            f"no radical Borel-fixed ideal has the Hilbert series: {reason}",
            {})
    return MembershipReport(
        "yes", "radical-gin",
        "a radical Borel-fixed ideal has the Hilbert series; it is the gin",
        {"gin_generators": J.generator_strings()}, gin_result=J)


def is_csstar(I: Ideal) -> MembershipReport:
    """First-variables-gin membership, decided by I's multigraded Hilbert
    series; monomial inputs are cross-checked with the linear-section
    regular-sequence criterion, and the two must agree.

    "yes" when an ideal J generated by monomials in the x[i,1] has I's
    series; such a J is Borel-fixed, and gin(I) = J by uniqueness
    (Conca-De Negri-Gorla): no other Borel-fixed ideal has its multigraded
    Hilbert series.  "no" needs no theorem, as for ``is_cs``.  I must be
    multigraded (else ``HypothesisNotSatisfiedError``).
    """
    J, reason = _first_variables_model(I.ring, I.hilbert_series())
    evidence = {} if J is None else {"gin_generators": J.generator_strings()}
    if I.is_monomial:
        # the unit ideal is generated in the first variables, while gamma
        # cannot be regular on S/S, whose sum is not proper
        reg = I.is_unit_ideal or regular_sequence_test(I, gamma_sequence(I.ring))
        evidence["regular_sequence_test"] = reg
        if reg != (J is not None):
            raise InternalConsistencyError(
                f"first-variables test ({J is not None}) and regular-sequence "
                f"test ({reg}) disagree on a monomial ideal")
    if J is None:
        return MembershipReport(
            "no", "first-variables-gin",
            f"no ideal generated in the first block variables has the "
            f"Hilbert series: {reason}", evidence)
    return MembershipReport(
        "yes", "first-variables-gin",
        "an ideal generated in the first block variables has the Hilbert "
        "series; it is the gin", evidence, gin_result=J)


def csstar_canonical_C(I: Ideal) -> MonomialIdeal:
    """The unique Borel fixed ideal with I's Hilbert series, for ideals in the
    first-variables family: the ideal ``is_csstar`` reads off the series."""
    rep = is_csstar(I)
    if not rep.is_yes:
        raise HypothesisNotSatisfiedError(
            f"canonical monomial model needs a first-variables ideal "
            f"(verdict: {rep.verdict})")
    return rep.gin_result


def check_incomparable_degrees(I: Ideal) -> bool:
    """True iff the multidegrees of a minimal generating set form an
    antichain under coordinatewise comparison (repeats are comparable)."""
    degs = [g.multidegree() for g in I.minimal_generators()]
    for a, b in itertools.combinations(degs, 2):
        if all(x <= y for x, y in zip(a, b)) or all(y <= x for x, y in zip(a, b)):
            return False
    return True


# -- duality -------------------------------------------------------------------

def verify_dual_theorem(I: MonomialIdeal) -> dict:
    """Check the duality biconditional on a squarefree ideal, and the gin
    identity gin(I)* = pol(gin(I*)) when the radical-gin side holds."""
    if not is_radical_monomial(I):
        raise NotSquarefreeError("the duality check needs a squarefree ideal")
    rep_cs = is_cs(ideal_from_monomials(I))
    dual = alexander_dual(I)
    rep_star = is_csstar(ideal_from_monomials(dual))
    biconditional = rep_cs.is_yes == rep_star.is_yes
    transcript = {
        "ideal": I.generator_strings(),
        "dual": dual.generator_strings(),
        "cs_verdict": rep_cs.verdict,
        "dual_csstar_verdict": rep_star.verdict,
        "biconditional": biconditional,
        "identity_checked": False,
        "identity_holds": None,
        "passed": biconditional,
    }
    if rep_cs.is_yes:
        gin_I = rep_cs.gin_result
        gin_dual = rep_star.gin_result
        lhs = alexander_dual(gin_I)
        rhs = polarize(gin_dual)
        transcript.update({
            "identity_checked": True,
            "gin": gin_I.generator_strings(),
            "gin_dualized": lhs.generator_strings(),
            "dual_gin": gin_dual.generator_strings(),
            "dual_gin_polarized": rhs.generator_strings(),
            "identity_holds": lhs == rhs,
            "passed": biconditional and lhs == rhs,
        })
    return transcript


# -- closure operations ----------------------------------------------------------

def closure_suite(I: Ideal, L: Polynomial, seed: int = 0) -> dict:
    """Apply the closure operations applicable to I's family with the linear
    form L and assert the predicted membership of every result.

    Items: (1) quotient by L in S/(L) stays first-variables; (2) colon
    stays first-variables; (3) intersection with (L) stays first-variables;
    (4) colon stays radical-gin; (5) sum stays radical-gin, and so does its
    quotient in S/(L); (6) a coordinate subring section stays radical-gin.

    The colon carries its series from its Bayer-Stillman basis, and the
    sum, intersection and quotients take theirs from identities, with L of
    degree e_b: K(S/(I+L)) = K(S/I) - y_b K(S/(I:L)), as multiplication
    by L embeds S/(I:L), shifted by e_b, in S/I with cokernel S/(I+L);
    K(S/L(I:L)) = 1 - y_b (1 - K(S/(I:L))); and the quotient's numerator is
    K(S/(I+L)) / (1 - y_b), as its ring has one variable of block b fewer.
    No Groebner basis is run for their series.

    Every verdict is deterministic, so ``seed`` is not read; it stays for
    the closure workload of ``perfbench``, which passes it.
    """
    ring = I.ring
    b = _graded_linear_block(L) - 1  # rejects zero and non-linear forms
    in_cs, in_star = is_cs(I).is_yes, is_csstar(I).is_yes
    if not (in_cs or in_star):
        raise HypothesisNotSatisfiedError(
            "hypothesis not satisfied: the ideal is in neither family")

    checks = []

    def record(item: int, description: str, verdict: str | None,
               applicable: bool = True, detail: str = "") -> None:
        checks.append({"item": item, "description": description,
                       "applicable": applicable, "verdict": verdict,
                       "detail": detail})

    def quotient_check(item: int, source: Ideal, family, label: str) -> None:
        try:
            J, _, var = quotient_by_linear_form(source, L)
        except HypothesisNotSatisfiedError as e:
            record(item, label, None, applicable=False, detail=str(e))
            return
        J._series = quotient_series
        record(item, label, family(J).verdict,
               detail=f"dropped {ring.var_label(var)}")

    # I : L serves items 2 and 4, and item 3 as I cap (L) = L * (I : L),
    # which holds in a domain
    colon = I.colon(L)
    plus = I + L
    plus._series = I.hilbert_series() - colon.hilbert_series().times_y(b)
    quotient_series = plus._series.over_one_minus_y(b)
    if in_star:
        quotient_check(1, I, is_csstar,
                       "quotient by the form stays first-variables")
        record(2, "colon by the form stays first-variables",
               is_csstar(colon).verdict)
        meet = Ideal(ring, [L * g for g in colon.gens], I.limits)
        one = HilbertNumerator.one(ring.v)
        meet._series = one - (one - colon.hilbert_series()).times_y(b)
        record(3, "intersection with the form stays first-variables",
               is_csstar(meet).verdict)
    if in_cs:
        record(4, "colon by the form stays radical-gin", is_cs(colon).verdict)
        record(5, "sum with the form stays radical-gin", is_cs(plus).verdict)
        quotient_check(5, I, is_cs, "quotient by the form stays radical-gin")
        try:
            section, _ = coordinate_section(I, max(L.support_vars()))
            record(6, "coordinate subring section stays radical-gin",
                   is_cs(section).verdict,
                   detail=f"dropped {ring.var_label(max(L.support_vars()))}")
        except HypothesisNotSatisfiedError as e:
            record(6, "coordinate subring section stays radical-gin", None,
                   applicable=False, detail=str(e))

    passed = all(c["verdict"] == "yes" for c in checks if c["applicable"])
    return {
        "form": str(L),
        "families": {"radical-gin": in_cs, "first-variables-gin": in_star},
        "checks": checks,
        "passed": passed,
    }


# -- universal Groebner sampling --------------------------------------------------

def ugb_check(candidates: Sequence[Polynomial], I: Ideal, n_orders: int = 200,
              seed: int = 0, include_permutations: bool = True) -> UGBReport:
    """Sampled universal-GB check: under every sampled order, the candidate
    lead terms must generate the initial ideal of I.

    An order whose candidate lead terms have I's Hilbert series is settled
    without a Groebner basis; any other order, and every order when I is not
    multigraded, runs Buchberger, which also names a missing lead term."""
    ring = I.ring
    candidates = [c for c in candidates if not c.is_zero]
    if not candidates:
        raise HypothesisNotSatisfiedError("no nonzero candidates")
    if not all(I.contains(c) for c in candidates):
        raise HypothesisNotSatisfiedError("a candidate lies outside the ideal")
    # a generator of I that is itself a candidate lies in their ideal
    named = set(candidates)
    others = [g for g in I.gens if g not in named]
    if others:
        generated = Ideal(ring, candidates, I.limits)
        if not all(generated.contains(g) for g in others):
            raise HypothesisNotSatisfiedError(
                "candidates do not generate the ideal")
    orders = sample_orders(ring, n_orders, seed=seed,
                           include_permutations=include_permutations)
    # The candidates lie in I, so their lead terms generate a subideal of
    # in_o(I); for multigraded I the two are equal exactly when their
    # Hilbert series are (Macaulay).  Buchberger runs only where they differ.
    series = I.hilbert_series() if I.is_multihomogeneous else None
    numerators: dict = {}
    failures = []
    records = []
    certified = 0
    for o in orders:
        cand_leads = MonomialIdeal(ring, [c.lead_exp(o) for c in candidates])
        record = _certified_record(o, cand_leads, series, numerators)
        if record is not None:
            certified += 1
        else:
            gb = I.groebner_basis(o)
            record = _basis_record(o, gb)
            for e in record["lead_exps"]:
                if not cand_leads.contains_monomial(e):
                    failures.append({"order": o.name,
                                     "lead": ring.monomial_str(e)})
        records.append(record)
    return UGBReport(
        orders_tested=len(orders),
        order_names=[o.name for o in orders],
        failures=failures,
        # an inhomogeneous candidate has multidegree None; it sorts last
        degree_profile=sorted((c.multidegree() for c in candidates),
                              key=lambda d: (d is None, d or ())),
        records=records,
        certified=certified,
    )


def degree_bound_check(I: Ideal, bound: Sequence[int], n_orders: int = 20,
                       seed: int = 0, mode: str = "le") -> tuple:
    """Degrees of sampled reduced-GB elements (and of the minimal generators)
    against a multidegree bound.

    mode "le" checks coordinatewise <= bound; mode "eq" checks equality,
    which is the reading used for maximal minors in the row-graded case.
    For multigraded I, an order is certified without a reduced basis when
    the leads of its basis truncated at the bound have I's Hilbert series:
    then every reduced element fits the bound.  Any other order, and every
    order when I is not multigraded, runs Buchberger in full.
    Returns (ok, details).
    """
    if mode not in ("le", "eq"):
        raise ValueError("mode must be 'le' or 'eq'")
    bound = tuple(bound)
    if len(bound) != I.ring.v:
        raise ValueError(f"bound needs {I.ring.v} entries, got {len(bound)}")

    def fits(deg: tuple) -> bool:
        if mode == "eq":
            return deg == bound
        return all(x <= y for x, y in zip(deg, bound))

    violations = []
    for g in I.minimal_generators():
        if not fits(g.multidegree()):
            violations.append({"where": "minimal generator",
                               "degree": g.multidegree()})
    orders = sample_orders(I.ring, n_orders, seed=seed,
                           include_permutations=False)
    # A reduced element of a multihomogeneous I has its lead's multidegree.
    # When the leads of the basis truncated at the bound have I's series,
    # they generate in_o(I), so they are the leads of the reduced basis.
    series = I.hilbert_series() if I.is_multihomogeneous else None
    numerators: dict = {}
    records = []
    for o in orders:
        record = None
        if series is not None:
            leads = MonomialIdeal(I.ring, I._truncated_leads(o, bound))
            record = _certified_record(o, leads, series, numerators)
        if record is None:
            record = _basis_record(o, I.groebner_basis(o))
        records.append(record)
        for d in record["gb_multidegrees"]:
            if not fits(d):
                violations.append({"where": o.name, "degree": d})
    ok = not violations
    return ok, {"mode": mode, "bound": bound, "orders": [o.name for o in orders],
                "violations": violations, "records": records}


def _basis_record(order: TermOrder, gb) -> dict:
    """The record of ``order``: leads and multidegrees of its reduced
    basis."""
    return {"order": order.name, "lead_exps": gb.lead_exponents(),
            "gb_multidegrees": [g.multidegree() for g in gb]}


def _certified_record(order: TermOrder, leads: MonomialIdeal,
                      series, numerators: dict) -> dict | None:
    """The record of ``order`` read off ``leads``, lead terms of elements of
    a multigraded I, when they have I's Hilbert series ``series`` (Macaulay:
    then they generate in_order(I), so they are the leads of its reduced
    basis, sorted as the basis is); None when they do not, or when
    ``series`` is None.  ``numerators`` memoizes numerators by lead set."""
    if series is None:
        return None
    numerator = numerators.get(leads)
    if numerator is None:
        numerator = numerators[leads] = hilbert_numerator(leads)
    if numerator != series:
        return None
    top = max((max(e) for e in leads.gens), default=0)
    key = kernel.layout(order.rows, kernel.fields(1, top).bits).key
    lead_exps = sorted(leads.gens, key=key, reverse=True)
    return {"order": order.name, "lead_exps": lead_exps,
            "gb_multidegrees": [leads.ring.multidegree(e) for e in lead_exps]}
