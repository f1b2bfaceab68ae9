"""jmult: generalized Hilbert coefficients, j-multiplicity, reduction numbers
and Northcott inequality reports for ideals in polynomial rings and their
quotients over a large prime field, with three cross-validating computational
routes."""

from .ring import (DEFAULT_CHAR, Polynomial, RingContext, check_char,
                   elimination_order, grevlex)
from .groebner import ComputationLimitError, GroebnerBasis, groebner_basis
from .ideals import AlgebraWarning, Ideal, ring_dimension
from .lengths import (INFINITE, ContainmentError, gamma_length,
                      loc_quotient_length, pair_length, truncated_dim)
from .oracle import (MonomialIdeal, OracleError, mon_pair_length,
                     mon_quotient_length, oracle_hilbert_coefficients)
from .hilbert import (FitError, HilbertRecord, binomial, binomial_basis_convert,
                      fit_hilbert_polynomial, graded_torsion_length)
from .reductions import (GeneralReduction, ReductionSearchError,
                         analytic_spread, e_one_bar, fiber_length_sum,
                         fiber_length_term, general_minimal_reduction,
                         j_zero, local_ideal_equal, reduction_number,
                         residual_height_check, sample_general_elements,
                         valabrega_valla_check)
from .omega import (OmegaEvaluator, j_one_depth_formula, j_via_sums,
                    master_identity_check)
from .northcott import (assemble_northcott, minimal_generator_count,
                        northcott_bound)
from .parser import (Options, ProblemError, ProblemSemanticError, ProblemSpec,
                     ProblemSyntaxError, parse_problem, print_problem)
from .runner import Pipeline, emit_report, run_command

__version__ = "0.1.0"
