"""Counting box points x with f(t) = F(x): the full pipeline.

Exact counting over the box value histogram (distinct values of F with
their multiplicities), the sieve prefilter (always exact, rejecting most
values before the exact test), the prime-window selection rule, the
exceptional set, and the growth-rate scan against both the proven and
the classical exponents.
"""

from polysieve import (BoxProblem, bound_ratio_scan, box_histogram,
                       build_prime_data, critical_value_poly, exact_count,
                       exceptional_set, parse_multipoly, parse_unipoly,
                       select_primes, sieve_filtered_count)
from polysieve.fields import prime_factors

f = parse_unipoly("T^2")
F = parse_multipoly("X0^2+X1^2+X2^2")

print("=== exact counts ===")
for B in (1, 5, 10, 20):
    n = exact_count(f, box_histogram(F, B))
    print(f"N(T^2, sum of three squares, B={B:>2}) = {n}")

print("\n=== prime window ===")
problem = BoxProblem(f, F, 100)
sel = select_primes(problem)
print(f"B=100: Q = {sel.q_parameter:.2f}, window {sel.window}")
print(f"selected primes: {sel.primes}")
print(f"good reduction decided exactly (diagonal form): "
      f"{not sel.semi_decided}")

print("\n=== sieve-accelerated counting ===")
data = [build_prime_data(f, p) for p in sel.primes]
hist = box_histogram(F, 100)
rec = sieve_filtered_count(f, hist, data)
print(f"box points: {rec.total_points}, distinct values of F: {len(hist.values)}")
print(f"rejected by residue filters: {rec.rejected_by_sieve} "
      f"({rec.rejection_ratio:.1%})")
print(f"survivors checked exactly: {rec.verified_exactly}; "
      f"final count {rec.count} (= exact count, guaranteed)")

print("\n=== exceptional set ===")
S = exceptional_set(f, data, hist.v_max)
print(f"values hitting many critical residues: {S.tolist()}")
print("R_f(k) = Res_T(f - k, f') explains why S stays tiny: for p prime to d lc(f),")
print("k mod p is a critical value of f exactly when p | R_f(k), and R_f(k) has few")
print("prime factors")
R = critical_value_poly(f)  # the sieve's exceptional sets are its roots mod p
for k in (0, 6, 48):
    r = R.eval(k)
    print(f"  R_f({k}) = {r}, omega = {len(prime_factors(abs(r)))}"
          + ("  <- critical value" if r == 0 else ""))

print("\n=== growth-rate scan ===")
# B = 500 and 2000 fold the value histograms by FFT: the (2B+1)^3 boxes
# (10^9 and 6.4 * 10^10 points) are never built or charged to the budget
scan = bound_ratio_scan(f, F, [10, 20, 40, 80, 500, 2000])
print("B     N         N/B^2.25/log^0.75    N/B^2.5   N/B^2")
for B, count, main, comparison in zip(*scan["table"].values()):
    print(f"{B:<6}{count:<10}{main:<21.4f}{comparison:<10.4f}{count / B**2:.4f}")
print(f"spread of the main ratio: {scan['spread']:.2f} (gate: 10).  Both ratios")
print("keep shrinking while N/B^2 settles near 4.08: the count grows like B^n,")
print("below the proven B^(n+1/(n+2)) bound and the classical B^(n+1/2)")
