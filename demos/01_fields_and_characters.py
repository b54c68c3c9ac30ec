"""Finite-field contexts and character tables.

Walks through prime and extension fields (one class: F_p is ExtField(p),
the k = 1 case of ExtField(p, k)), discrete logs, additive and
multiplicative characters, and the exact decomposition of the d-th
power indicator into characters.
"""

from polysieve import ExtField, mult_char, power_decomposition_check, primes_in

print("=== prime fields ===")
for p in (5, 7, 13):
    print(f"smallest primitive root mod {p}: {ExtField(p).g}")

f7 = ExtField(7)
print(f"\ndlog table mod 7 (g={f7.g}):",
      {u: int(f7.log_table[u]) for u in range(1, 7)})

print("\n=== additive characters ===")
f13 = ExtField(13)
total = f13.psi_table.sum()
print(f"sum of psi over F_13: {abs(total):.2e} (orthogonality)")

f9 = ExtField(3, 2)
print(f"F_9 built as F_3[T]/{f9.modulus} (coeffs low-to-high)")
print(f"trace table: {list(f9.trace_table)}")
print(f"psi(T) = {f9.psi_table[3]:.3f}  (Tr(T) = 0, so the value is 1)")

print("\n=== multiplicative characters ===")
chi = mult_char(ExtField(5), 4, 1)
print(f"order-4 character mod 5: chi(2) = {chi.values[2]:.3f}, "
      f"chi(4) = {chi.values[4]:.3f}")
print(f"chi(0) = {chi.values[0]} by convention")

print("\n=== the power-sieve identity ===")
print("1_{d-th powers} = (1/d) * sum of the order-d characters, checked")
print("exactly on every unit:")
for d in (2, 3, 4, 5):
    ps = [p for p in primes_in(3, 60) if (p - 1) % d == 0]
    worst = max(power_decomposition_check(d, p) for p in ps)
    print(f"  d={d}: {len(ps)} primes up to 60, max pointwise error {worst:.2e}")
