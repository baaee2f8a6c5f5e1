"""Kazhdan-Lusztig polynomials and pattern-based lower bounds for
finite Weyl groups.

The package realizes each Weyl group through its reflection
representation over exact rationals, computes Kazhdan-Lusztig
polynomials by the classical recursion, maps group elements into
reflection subgroups by the root-system pattern map, and verifies a
family of lower-bound and equality theorems exhaustively on small
groups.

Quick start::

    from klbounds import get_system, kl_polynomial, main_bound

    W = get_system("A3")
    x = W.parse_element("2143")
    w = W.parse_element("4231")
    print(kl_polynomial(W, x, w))       # 1 + q

See the README for the CLI and the verification suites.
"""

from .errors import (KlboundsError, ParseError, InvalidCartanError,
                     EnumerationCapError, NonParabolicError,
                     HypothesisError)
from .polynomials import IntPolynomial
from .cartan import (CartanDatum, standard_cartan_matrix, parse_type,
                     weyl_group_order)
from .coxeter import (CoxeterSystem, GroupElement, build_system,
                      get_system, parse_element, format_element)
from .kl import kl_polynomial
from .parabolic import (ParabolicSubgroup, parabolic_from_reflections,
                        standard_parabolic, position_subgroup,
                        unsigned_subgroup, parse_subgroup_spec,
                        describe_subgroup, all_parabolic_subgroups,
                        standard_parabolic_subgroups, coset_minimum,
                        phi_root, phi_coset, flatten_element,
                        embed_pattern, flatten_classical,
                        flatten_matches_phi)
from .patterns import (flatten, pattern_witness, contains_pattern,
                       avoids_patterns, is_rationally_smooth_typeA,
                       is_321_hexagon_avoiding, conjecture_p2_patterns)
from .bounds import (BoundReport, CoefficientwiseReport,
                     MonotonicityReport, EqualityResult,
                     maximal_set, main_bound, conjugate_is_standard,
                     coefficientwise_bound, parabolic_equality,
                     monotonicity_bound, brenti_simion)
from .verify import SUITE_NAMES, Verdict, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "KlboundsError", "ParseError", "InvalidCartanError",
    "EnumerationCapError", "NonParabolicError", "HypothesisError",
    "IntPolynomial",
    "CartanDatum", "standard_cartan_matrix", "parse_type",
    "weyl_group_order",
    "CoxeterSystem", "GroupElement", "build_system", "get_system",
    "parse_element", "format_element", "kl_polynomial",
    "ParabolicSubgroup", "parabolic_from_reflections",
    "standard_parabolic", "position_subgroup", "unsigned_subgroup",
    "parse_subgroup_spec", "describe_subgroup",
    "all_parabolic_subgroups", "standard_parabolic_subgroups",
    "coset_minimum", "phi_root", "phi_coset", "flatten_element",
    "embed_pattern", "flatten_classical", "flatten_matches_phi",
    "flatten", "pattern_witness", "contains_pattern", "avoids_patterns",
    "is_rationally_smooth_typeA",
    "is_321_hexagon_avoiding", "conjecture_p2_patterns",
    "BoundReport", "CoefficientwiseReport", "MonotonicityReport",
    "EqualityResult", "maximal_set", "main_bound",
    "conjugate_is_standard", "coefficientwise_bound",
    "parabolic_equality", "monotonicity_bound", "brenti_simion",
    "SUITE_NAMES", "Verdict", "SuiteResult", "run_suite",
]
