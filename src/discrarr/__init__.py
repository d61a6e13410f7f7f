"""Exact-arithmetic toolkit for discriminantal arrangements.

Build arrangements of hyperplanes from rational normal covectors, study
the subspace geometry of their parallel translations, and decide
membership in the rank-drop varieties that separate the generic from the
truly unconstrained arrangements.
"""

from .arrangement import (Arrangement, RetryBudgetExceeded, circuits, delete,
                          from_int_columns, is_generic, load_arrangement,
                          maximal_minor, normal_form, pair_det, permuted,
                          random_generic, restrict, save_arrangement)
from .discriminantal import (DependencySpace, RepresentativeResult,
                             canonical_presentation, circuit_normal,
                             dependency_space, find_representative,
                             has_common_point, intersection_rank)
from .linalg import (FpElement, Matrix, PrimeField, Scalar, det, kernel_basis,
                     parse_scalar, rank, scalar_str, solve)
from .presentations import (BbaVerdict, Presentation, SearchBudgetExceeded,
                            check_bba, degenerate, expected_rank,
                            format_family, is_admissible, ladder, leq,
                            min_expected_rank_above, orbit_canonical,
                            parse_family, permute, presentation, twin_wheel,
                            wheel)
from .svg import render_svg
from .varieties import (AuditReport, EightLineReport, MembershipVerdict,
                        VarietyFamily, WheelLabeling, audit_arrangement,
                        candidate_presentations, crapo_poly, default_r,
                        eight_line_families, eight_line_report,
                        family_by_name, ladder_poly, membership,
                        solve_on_variety, wheel_labeling_of, wheel_poly)

__version__ = "0.1.0"
