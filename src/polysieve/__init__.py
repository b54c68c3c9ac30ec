"""Finite-field exponential sums, a polynomial sieve with exact
per-prime detectors, and sieve-accelerated box counting."""

from importlib import import_module

_EXPORTS = {name: module for module, names in {
    "boxes": "BoxHistogram BoxProblem SmoothWeight bound_ratio_scan box_histogram complete_sum_g "
             "crt_factor_check exact_count exceptional_set poisson_compare select_primes "
             "sieve_filtered_count",
    "errors": "BudgetExceeded InvariantViolation PolyParseError PolysieveError",
    "fields": "ExtField mult_char primes_in",
    "polynomials": "MultiPoly UniPoly critical_value_poly parse_multipoly parse_unipoly",
    "reports": "ExperimentReport emit_report report_json",
    "sieve": "SieveConfig SievePrimeData build_prime_data detector membership_filter "
             "power_decomposition_check power_sieve_rhs sieve_bound_eval",
    "tracefn": "TraceFunction constant_trace kloosterman pullback_power second_moment",
    "varieties": "UClass Witness classify_u diagonal_u_classes diagonal_witness_degree "
                 "fiber_histogram smoothness_scan",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):  # PEP 562: an exported name loads its own module on first use
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
