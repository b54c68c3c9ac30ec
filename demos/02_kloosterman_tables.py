"""Hyper-Kloosterman tables as trace functions.

Builds Kl_m as a concrete table, checks the square-root-cancellation
bound and the exact sum identity, and reads the second moments of its
pullbacks by x -> x^d.
"""

import numpy as np

from polysieve import (ExtField, kloosterman, primes_in, pullback_power,
                       second_moment)

print("=== the tables ===")
f13 = ExtField(13)
kl2 = kloosterman(2, f13)
print("Kl_2 on F_13 (all real):")
print(np.round(kl2.values.real, 4))
print(f"Kl_2(0) = {kl2.values[0]} (empty product)")

print("\n=== sup-norm bound ===")
for m in (2, 3, 4):
    peak = max(np.abs(kloosterman(m, ExtField(p)).values).max()
               for p in primes_in(5, 100))
    print(f"max |Kl_{m}| over p <= 100: {peak:.4f}  (bound: {m})")

print("\n=== exact sum identity ===")
for p in (13, 61, 197):
    s = kloosterman(2, ExtField(p)).values.sum()
    print(f"sum Kl_2(a; {p}) = {s.real:+.6f}, -p^-1/2 = {-p**-0.5:+.6f}")

print("\n=== second moments (quasi-orthogonality) ===")
print("p    |Kl_2|^2 mean   after x -> x^2     after x -> x^3")
for p in (13, 37, 97):
    field = ExtField(p)
    t = kloosterman(2, field)
    row = [second_moment(t),
           second_moment(pullback_power(t, 2, field)),
           second_moment(pullback_power(t, 3, field))]
    print(f"{p:<5}" + "".join(f"{v:<17.4f}" for v in row))
print("all tend to 1 at the p^(-1/2) scale: the pulled-back sheets stay")
print("irreducible, which is what the twisted-sum bounds need")
