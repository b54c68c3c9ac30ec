"""Finite-field exponential sums, a polynomial sieve with exact
per-prime detectors, and sieve-accelerated box counting."""

from .boxes import (BoxHistogram, BoxProblem, SmoothWeight, bound_ratio_scan,
                    box_histogram, complete_sum_g, crt_factor_check,
                    discriminant_profile, exact_count, exceptional_set,
                    poisson_compare, select_primes, sieve_filtered_count)
from .errors import (BudgetExceeded, InvariantViolation, PolyParseError,
                     PolysieveError)
from .fields import (ExtField, PrimeField, additive_char, find_primitive_root,
                     mult_char, primes_in)
from .polynomials import (MultiPoly, UniPoly, critical_value_poly,
                          discriminant_uni, parse_multipoly, parse_unipoly,
                          resultant_sylvester, resultant_uni)
from .reports import ExperimentReport, emit_report, report_json
from .sieve import (SieveConfig, SievePrimeData, build_prime_data, detector,
                    integer_preimage_exists, membership_filter,
                    multiplicity_weight, power_decomposition_check,
                    power_sieve_rhs, sieve_bound_eval)
from .tracefn import (TraceFunction, constant_trace, correlation, delta_trace,
                      fourier_transform, kloosterman, pullback_power,
                      pullback_scale, second_moment, te_transform)
from .varieties import (FiberCountRecord, UClass, Witness, classify_u,
                        count_affine_fiber, diagonal_dual_oracle,
                        fiber_histogram, pair_fiber_histogram,
                        singular_fiber_scan, smoothness_scan)

__version__ = "0.1.0"
