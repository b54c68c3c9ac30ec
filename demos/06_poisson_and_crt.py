"""Smooth weights, Poisson summation, and CRT factorization of complete sums.

The weighted cross term S(p, q) of the sieve turns, via Poisson
summation, into a lattice sum of complete exponential sums g(u).  Each
g over a product modulus pq splits exactly into a product of per-prime
sums with CRT-adjusted frequencies.
"""

import numpy as np

from polysieve import (ExtField, SmoothWeight, complete_sum_g,
                       crt_factor_check, kloosterman, mult_char,
                       parse_multipoly, poisson_compare)

print("=== the bump weight ===")
W = SmoothWeight(10)
print(f"W(0) = {W.weight_1d(0.0):.6f}  (= e^-1)")
print(f"W at the box edge: {W.weight_1d(10.0)}")
direct = W.weight_1d(np.arange(-10, 11)).sum()  # sum_m w(m/B)
dual = 10 * W.wh(10 * np.arange(-40, 41)).sum()  # sum_u B wh(B u), |u| <= 4 B
print(f"1-d Poisson identity: {direct:.8f} vs {dual:.8f} "
      f"(gap {abs(direct - dual):.2e})")
print("transform decay:", ", ".join(f"wh({x})={W.wh(x):.1e}"
                                    for x in (1, 5, 10)))

print("\n=== complete sums g(u, t) ===")
F = parse_multipoly("X0^2+X1^2+X2^2")
p = 13
t = kloosterman(2, ExtField(p))
for u in ((0, 0, 0), (1, 0, 0), (1, 2, 3)):
    g = complete_sum_g(F, t, u, p)
    print(f"g({u}) = {g:+.3f}, |g|/p^1.5 = {abs(g) / p**1.5:.3f}")

print("\n=== CRT factorization ===")
leg3 = mult_char(ExtField(3), 2, 1)
leg5 = mult_char(ExtField(5), 2, 1)
F2 = parse_multipoly("X0^2+X1^2")
rec = crt_factor_check(F2, (1, 1), 3, 5, leg3, leg5)
print(f"mod-15 sum:      {rec['lhs']:+.6f}")
print(f"product of sums: {rec['rhs']:+.6f}")
print(f"gap: {rec['error']:.2e}")

print("\n=== truncated Poisson against the direct weighted sum ===")
for (pp, qq) in ((3, 5), (5, 7)):
    t_p = mult_char(ExtField(pp), 2, 1)
    t_q = mult_char(ExtField(qq), 2, 1)
    rec = poisson_compare(F, pp, qq, t_p, t_q, B=10, u_cutoff=8)
    print(f"(p, q) = ({pp}, {qq}): direct {rec['direct']:+.4f}, "
          f"poisson {rec['poisson']:+.4f}")
    print(f"   truncation gap {rec['error']:.2e} <= tail bound "
          f"{rec['tail_bound']:.2e}")
print("\nthe tail bound is analytic: kappa-fold integration by parts of")
print("the bump against the oscillation, summed over the missing shell")
