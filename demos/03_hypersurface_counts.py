"""Point counts on hypersurfaces and tangency classification.

Fiber sizes hover around p^(n-1) with square-root-scale deviations;
hyperplane frequencies split into zero/good/bad against the reduction
of the hypersurface, and for diagonal forms the dual polynomial decides
the split exactly.
"""

import numpy as np

from polysieve import (classify_u, diagonal_u_classes, fiber_histogram,
                       parse_multipoly, smoothness_scan)

F = parse_multipoly("X0^2+X1^2+X2^2")
G = parse_multipoly("X0*X1", n_vars=3)

print("=== fiber counts ===")
count = int(fiber_histogram(parse_multipoly("X0^2+X1^2"), 5)[0])
print(f"|x^2+y^2 = 0 over F_5| = {count} (main term 5, deviation "
      f"{count - 5:+})")

print("\nnormalized deviations |N(a) - p^2| / p for the quadric threefold:")
for p in (13, 53, 97):
    hist = fiber_histogram(F, p)
    devs = np.abs(hist - p * p) / p
    print(f"  p={p}: max {devs.max():.3f}, mean {devs.mean():.3f}")

print("\npair counts respect the marginal identity exactly:")
pair = fiber_histogram(F, 7, G)
single = fiber_histogram(F, 7)
print(f"  sum_b N(a,b) == N(a) for all a: {np.array_equal(pair.sum(1), single)}")

print("\n=== smoothness scans (semi-decisions up to k_max) ===")
print(f"quadric at p=7:   {smoothness_scan(F, 7, k_max=2)}")
print(f"X0^2 (nonreduced): {smoothness_scan(parse_multipoly('X0^2', n_vars=3), 5, k_max=1)}")

print("\n=== frequency classification ===")
for u in ((5, 10, 0), (1, 2, 0), (1, 0, 0)):
    cls = classify_u(F, u, 5, k_max=2)
    extra = f", witness {cls.witness.point} over F_5^{cls.witness.ext_degree}" \
        if cls.witness else ""
    print(f"u = {u}: {cls.kind}{extra}")

print("\nthe dual polynomial agrees (sum u_i^2/c_i = 0 detects tangency):")
agree = 0
total = 0
for p in (5, 7, 11):
    for u0 in range(3):
        for u1 in range(3):
            for u2 in range(3):
                u = (u0, u1, u2)
                if all(c % p == 0 for c in u):
                    continue
                total += 1
                agree += (classify_u(F, u, p, k_max=2).kind
                          == diagonal_u_classes([1, 1, 1], 2, [u], p)[0])
print(f"  {agree}/{total} verdicts match")
