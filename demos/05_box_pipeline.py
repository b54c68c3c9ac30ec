"""Counting box points x with f(t) = F(x): the full pipeline.

Exact counting over the box value histogram (distinct values of F with
their multiplicities), the sieve prefilter (always exact, rejecting most
values before the exact test), the prime-window selection rule, the
exceptional set, and the growth-rate scan against both the proven and
the classical exponents.
"""

from polysieve import (BoxProblem, bound_ratio_scan, box_histogram,
                       build_prime_data, discriminant_profile, exact_count,
                       exceptional_set, parse_multipoly, parse_unipoly,
                       select_primes, sieve_filtered_count)

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
print(f"values hitting many critical residues: {sorted(S)}")
print("discriminant profiles explain why S stays tiny:")
for k in (0, 6, 48):
    prof = discriminant_profile(f, k)
    print(f"  disc(T^2 - {k}) = {prof['disc']}, omega = {prof['omega']}"
          + ("  <- critical value" if prof["zero_disc"] else ""))

print("\n=== growth-rate scan ===")
scan = bound_ratio_scan(f, F, [10, 20, 40, 80])
print("B     N        N/B^2.25/log^0.75    N/B^2.5")
for row in scan["rows"]:
    print(f"{row['B']:<6}{row['count']:<9}{row['ratio_main']:<21.4f}"
          f"{row['ratio_comparison']:.4f}")
print(f"spread of the main ratio: {scan['spread']:.2f} (bounded), while")
print("the comparison column keeps shrinking: the count grows slower than")
print("the classical B^(n+1/2) benchmark")
