"""Hyper-Kloosterman tables and the transforms acting on trace functions.

Builds Kl_m as a concrete table, checks the square-root-cancellation
bound and the exact sum identity, and exercises the Fourier and
power-twisted transforms.
"""

import numpy as np

from polysieve import (ExtField, fourier_transform, kloosterman,
                       primes_in, pullback_power, pullback_scale,
                       second_moment, te_transform)

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

print("\n=== Fourier transform, -q^(-1/2) normalization ===")
ft = fourier_transform(kl2, f13)
back = fourier_transform(ft, f13, conjugate=True)
print(f"FT then conjugate-FT returns the table: max gap "
      f"{np.abs(back.values - kl2.values).max():.2e}")
print(f"L2 mass preserved: {np.abs(ft.values).max():.4f} peak after, "
      f"{(np.abs(ft.values)**2).sum():.6f} vs {(np.abs(kl2.values)**2).sum():.6f}")

print("\n=== power-twisted transform ===")
t2 = te_transform(kl2, 2, f13)
t3 = te_transform(kl2, 3, f13)
print(f"value at 0 is e-independent: {t2.values[0]:.6f} vs {t3.values[0]:.6f}")
alpha = 5
lhs = te_transform(pullback_scale(kl2, alpha, f13), 2, f13).values
abar2 = pow(pow(alpha, -1, 13), 2, 13)
rhs = te_transform(kl2, 2, f13).values[(abar2 * np.arange(13)) % 13]
print(f"scaling commutes as a dilation on the other side: gap "
      f"{np.abs(lhs - rhs).max():.2e}")

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
