"""Multigraded Groebner engine over prime fields.

Blocks of variables graded by ZZ^v, reduced Groebner bases, generic initial
ideals via random Borel coordinate changes, multigraded Hilbert series,
Alexander duality and polarization, determinantal instance builders, and the
verification suites built on top of them.
"""

from multigb.csideals import (MembershipReport, UGBReport, closure_suite,
                              degree_bound_check, is_cs, is_csstar,
                              sample_orders, stable_gin, ugb_check,
                              verify_dual_theorem)
from multigb.determinantal import (GradedMatrix, build_column_graded,
                                   build_row_graded, minor_ideal, minors,
                                   variable_matrix, verify_main_theorem)
from multigb.errors import (HypothesisNotSatisfiedError, InconclusiveError,
                            InternalConsistencyError, MultigbError,
                            NotSquarefreeError, PolarizationCapacityError,
                            ResourceLimitError, RingMismatchError)
from multigb.gin import BorelElement, GinReport, gin, random_borel
from multigb.groebner import (DEFAULT_LIMITS, EngineLimits, GroebnerBasis,
                              Ideal, exact_divide,
                              ideal_from_monomials, regular_sequence_test)
from multigb.kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from multigb.monomials import (HilbertNumerator, MonomialIdeal,
                               alexander_dual, hilbert_numerator,
                               is_borel_fixed, is_radical_monomial,
                               is_strongly_stable, polarize,
                               regularity_strongly_stable)
from multigb.poly import Polynomial
from multigb.ring import (DEFAULT_CHARACTERISTIC, BlockRing, TermOrder,
                          degrevlex, elimination_order, lex, weight_order)

__version__ = "0.1.0"

__all__ = [
    "BlockRing", "TermOrder", "Polynomial", "Ideal", "GroebnerBasis",
    "MonomialIdeal", "HilbertNumerator", "GradedMatrix", "GinReport",
    "BorelElement", "MembershipReport", "UGBReport", "EngineLimits",
    "DEFAULT_LIMITS", "DEFAULT_CHARACTERISTIC", "KERNEL_IMPLEMENTATION", "lex",
    "degrevlex", "weight_order", "elimination_order", "exact_divide",
    "ideal_from_monomials", "regular_sequence_test",
    "hilbert_numerator", "alexander_dual", "polarize", "is_radical_monomial",
    "is_borel_fixed", "is_strongly_stable", "regularity_strongly_stable",
    "gin", "random_borel", "stable_gin", "is_cs", "is_csstar",
    "verify_dual_theorem", "closure_suite", "ugb_check", "degree_bound_check",
    "sample_orders", "minors", "minor_ideal",
    "build_column_graded", "build_row_graded", "variable_matrix",
    "verify_main_theorem",
    "MultigbError", "RingMismatchError", "ResourceLimitError",
    "NotSquarefreeError", "PolarizationCapacityError",
    "HypothesisNotSatisfiedError", "InconclusiveError",
    "InternalConsistencyError",
]
