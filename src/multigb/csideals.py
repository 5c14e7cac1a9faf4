"""Membership tests and verification suites for the two ideal families with
order-independent generic initial ideals.

The first family consists of multigraded ideals whose gin is radical; the
second of ideals whose gin is generated by monomials in the first variable
of each block.  Verdicts are evidence-graded: yes/no cite the decisive
criterion and the orders and seeds used; inconclusive only arises from gin
trial disagreement, which callers may retry with fresh seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from multigb import kernel
from multigb.errors import (HypothesisNotSatisfiedError, InconclusiveError,
                            InternalConsistencyError, NotSquarefreeError)
from multigb.gin import GinReport, gin
from multigb.groebner import (Ideal, ideal_from_monomials,
                              quotient_by_linear_form, coordinate_section,
                              regular_sequence_test, _graded_linear_block)
from multigb.monomials import (MonomialIdeal, alexander_dual,
                               hilbert_numerator,
                               is_extended_from_first_variables,
                               is_radical_monomial, polarize)
from multigb.poly import Polynomial
from multigb.ring import (BlockRing, TermOrder, degrevlex,
                          degrevlex_blocks_reversed, lex, weight_order)


@dataclass
class MembershipReport:
    """Verdict of a family-membership test, with its audit trail."""
    verdict: str                      # "yes" | "no" | "inconclusive"
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

def is_cs(I: Ideal, trials: int = 3, seed: int = 0) -> MembershipReport:
    """Radical-gin membership: gin under the default order, cross-checked
    under degrevlex with the block priority reversed."""
    ring = I.ring
    primary = ring.storage_order
    cross = degrevlex_blocks_reversed(ring)
    rep1 = stable_gin(I, primary, trials=trials, seed=seed)
    rep2 = stable_gin(I, cross, trials=trials, seed=seed + 1)
    evidence = {
        "orders": [primary.name, cross.name],
        "seeds": [list(rep1.seeds), list(rep2.seeds)],
        "trials": [rep1.trials, rep2.trials],
    }
    if not rep1.agreement or not rep2.agreement:
        return MembershipReport(
            "inconclusive", "radical-gin",
            "gin trials disagreed; non-generic randomness", evidence)
    rad1 = is_radical_monomial(rep1.result)
    rad2 = is_radical_monomial(rep2.result)
    evidence["gin_generators"] = rep1.result.generator_strings()
    evidence["radical"] = [rad1, rad2]
    if rad1 and rad2:
        verdict, criterion = "yes", "gin is squarefree under both sampled orders"
    elif not rad1 and not rad2:
        verdict, criterion = "no", "gin is not squarefree (one order decides)"
    else:
        verdict, criterion = "inconclusive", (
            "radicality differed across orders, which the theory forbids; "
            "treat the engine run as suspect")
    return MembershipReport(verdict, "radical-gin", criterion, evidence,
                            gin_result=rep1.result)


def is_csstar(I: Ideal, trials: int = 3, seed: int = 0) -> MembershipReport:
    """First-variables-gin membership; monomial inputs are cross-checked with
    the linear-section regular-sequence criterion, and the two must agree."""
    ring = I.ring
    order = ring.storage_order
    rep = stable_gin(I, order, trials=trials, seed=seed)
    evidence = {"orders": [order.name], "seeds": [list(rep.seeds)],
                "trials": [rep.trials]}
    if not rep.agreement:
        return MembershipReport(
            "inconclusive", "first-variables-gin",
            "gin trials disagreed; non-generic randomness", evidence)
    ext = is_extended_from_first_variables(rep.result)
    evidence["gin_generators"] = rep.result.generator_strings()
    evidence["extended_from_first_variables"] = ext
    if I.is_monomial:
        gamma = gamma_sequence(ring)
        # the unit ideal's gin is (1), extended from the first variables,
        # while gamma cannot be regular on S/S, whose sum is not proper
        reg = I.is_unit_ideal or regular_sequence_test(I, gamma)
        evidence["regular_sequence_test"] = reg
        if reg != ext:
            raise InternalConsistencyError(
                f"first-variables-gin test ({ext}) and regular-sequence test "
                f"({reg}) disagree on a monomial ideal")
    verdict = "yes" if ext else "no"
    criterion = ("gin is generated by monomials in the first block variables"
                 if ext else
                 "gin has a generator outside the first block variables")
    return MembershipReport(verdict, "first-variables-gin", criterion,
                            evidence, gin_result=rep.result)


def csstar_canonical_C(I: Ideal, trials: int = 3, seed: int = 0) -> MonomialIdeal:
    """The unique Borel fixed ideal with I's Hilbert series, for ideals in the
    first-variables family: the gin itself."""
    rep = is_csstar(I, trials=trials, seed=seed)
    if rep.verdict != "yes":
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

def verify_dual_theorem(I: MonomialIdeal, trials: int = 3, seed: int = 0) -> dict:
    """Check the duality biconditional on a squarefree ideal, and the gin
    identity gin(I)* = pol(gin(I*)) when the radical-gin side holds."""
    if not is_radical_monomial(I):
        raise NotSquarefreeError("the duality check needs a squarefree ideal")
    Iid = ideal_from_monomials(I)
    rep_cs = is_cs(Iid, trials=trials, seed=seed)
    dual = alexander_dual(I)
    rep_star = is_csstar(ideal_from_monomials(dual), trials=trials, seed=seed + 2)
    if "inconclusive" in (rep_cs.verdict, rep_star.verdict):
        raise InconclusiveError("gin disagreement while checking duality")
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

def closure_suite(I: Ideal, L: Polynomial, trials: int = 3, seed: int = 0) -> dict:
    """Apply the closure operations applicable to I's family with the linear
    form L and assert the predicted membership of every result.

    Items: (1) quotient by L in S/(L) stays first-variables; (2) colon
    stays first-variables; (3) intersection with (L) stays first-variables;
    (4) colon stays radical-gin; (5) sum stays radical-gin, and so does its
    quotient in S/(L); (6) a coordinate subring section stays radical-gin.
    """
    ring = I.ring
    _graded_linear_block(L)  # rejects zero and non-linear forms
    rep_cs = is_cs(I, trials=trials, seed=seed)
    rep_star = is_csstar(I, trials=trials, seed=seed + 3)
    if "inconclusive" in (rep_cs.verdict, rep_star.verdict):
        raise InconclusiveError("gin disagreement while classifying the input")
    in_cs, in_star = rep_cs.is_yes, rep_star.is_yes
    if not (in_cs or in_star):
        raise HypothesisNotSatisfiedError(
            "hypothesis not satisfied: the ideal is in neither family")

    checks = []

    def record(item: int, description: str, verdict: str | None,
               applicable: bool = True, detail: str = "") -> None:
        checks.append({"item": item, "description": description,
                       "applicable": applicable, "verdict": verdict,
                       "detail": detail})

    def quotient_check(item: int, source: Ideal, family, label: str, s: int) -> None:
        try:
            J, _, var = quotient_by_linear_form(source, L)
        except HypothesisNotSatisfiedError as e:
            record(item, label, None, applicable=False, detail=str(e))
            return
        rep = family(J, trials=trials, seed=s)
        record(item, label, rep.verdict,
               detail=f"dropped {ring.var_label(var)}")

    # I : L serves items 2 and 4, and item 3 as I cap (L) = L * (I : L),
    # which holds in a domain
    colon = I.colon(L)
    if in_star:
        quotient_check(1, I, is_csstar,
                       "quotient by the form stays first-variables", seed + 11)
        rep = is_csstar(colon, trials=trials, seed=seed + 12)
        record(2, "colon by the form stays first-variables", rep.verdict)
        meet = Ideal(ring, [L * g for g in colon.gens], I.limits)
        rep = is_csstar(meet, trials=trials, seed=seed + 13)
        record(3, "intersection with the form stays first-variables",
               rep.verdict)
    if in_cs:
        rep = is_cs(colon, trials=trials, seed=seed + 14)
        record(4, "colon by the form stays radical-gin", rep.verdict)
        rep = is_cs(I + L, trials=trials, seed=seed + 15)
        record(5, "sum with the form stays radical-gin", rep.verdict)
        quotient_check(5, I, is_cs,
                       "quotient by the form stays radical-gin", seed + 16)
        try:
            section, _ = coordinate_section(I, max(L.support_vars()))
            rep = is_cs(section, trials=trials, seed=seed + 17)
            record(6, "coordinate subring section stays radical-gin",
                   rep.verdict,
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
