"""Finite-field exponential sums, a polynomial sieve with exact
per-prime detectors, and sieve-accelerated box counting."""

from .boxes import (BoxHistogram, BoxProblem, SmoothWeight, bound_ratio_scan,
                    box_histogram, complete_sum_g, crt_factor_check, exact_count,
                    exceptional_set, poisson_compare, select_primes, sieve_filtered_count)
from .errors import (BudgetExceeded, InvariantViolation, PolyParseError,
                     PolysieveError)
from .fields import ExtField, mult_char, primes_in
from .polynomials import (MultiPoly, UniPoly, critical_value_poly, parse_multipoly,
                          parse_unipoly)
from .reports import ExperimentReport, emit_report, report_json
from .sieve import (SieveConfig, SievePrimeData, build_prime_data, detector,
                    membership_filter, power_decomposition_check, power_sieve_rhs,
                    sieve_bound_eval)
from .tracefn import (TraceFunction, constant_trace, kloosterman,
                      pullback_power, second_moment)
from .varieties import (UClass, Witness, classify_u, diagonal_u_classes, diagonal_witness_degree,
                        fiber_histogram, smoothness_scan)

__version__ = "0.1.0"
