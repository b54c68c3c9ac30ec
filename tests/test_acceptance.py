"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its headline numbers (run pytest with
-s to see them) and enforces the stated runtime budget.  Tolerances are
pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from polysieve.boxes import (BoxProblem, bound_ratio_scan, box_histogram,
                             complete_sum_g, crt_factor_check,
                             poisson_compare, select_primes,
                             sieve_filtered_count)
from polysieve.fields import cached_field, mult_char, primes_in
from polysieve.polynomials import MultiPoly, parse_multipoly, parse_unipoly
from polysieve.sieve import (SieveConfig, build_prime_data,
                             power_decomposition_check, power_sieve_rhs,
                             sieve_bound_eval)
from polysieve.tracefn import (constant_trace, kloosterman, pullback_power,
                               second_moment)
from polysieve.varieties import classify_u, fiber_histogram

from _oracles import box_count_per_point, diagonal_dual_oracle

F_QUADRIC = parse_multipoly("X0^2+X1^2+X2^2")
F_CUBIC = parse_multipoly("X0^3+X1^3+X2^3")
H_BANK = ["T^2", "T^3", "T^3-3*T", "T^4+T", "2*T^3+1"]


class _Budget:
    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.label} took {self.elapsed:.1f}s, budget {self.seconds}s")
        return False


def test_criterion_01_power_sieve_identity():
    with _Budget(5, "criterion 1") as budget:
        worst = 0.0
        checked = 0
        for p in primes_in(3, 200):
            for d in (2, 3, 4, 5):
                if (p - 1) % d:
                    continue
                worst = max(worst, power_decomposition_check(d, p))
                checked += 1
        assert worst <= 1e-9
    print(f"\nACCEPTANCE 1 PASS: power-sieve identity exact on {checked} "
          f"(d, p) pairs, max error {worst:.2e} <= 1e-9 "
          f"[{budget.elapsed:.1f}s]")


def test_criterion_02_kloosterman_sanity():
    with _Budget(30, "criterion 2") as budget:
        worst_sup = 0.0
        worst_sum = 0.0
        for p in primes_in(2, 200):
            field = cached_field(p)
            for m in (1, 2, 3, 4):
                t = kloosterman(m, field)
                assert t.values[0] == 0
                worst_sup = max(worst_sup, float(np.abs(t.values).max()) - m)
                if m == 2:
                    worst_sum = max(worst_sum,
                                    abs(t.values.sum() - (-(p**-0.5))))
        assert worst_sup <= 1e-9
        assert worst_sum <= 1e-9
    print(f"\nACCEPTANCE 2 PASS: Kl_m(0)=0, sup norms within bounds "
          f"(worst slack {worst_sup:.2e}), sum identity error "
          f"{worst_sum:.2e} <= 1e-9 [{budget.elapsed:.1f}s]")


def _criterion_3_primes():
    return [p for p in primes_in(7, 61) if p % 3 != 0]


def test_criterion_03_untwisted_cubic_sums():
    with _Budget(600, "criterion 3") as budget:
        ratios = {}
        for p in _criterion_3_primes():
            t = kloosterman(2, cached_field(p))
            total = complete_sum_g(F_CUBIC, t, (0, 0, 0), p)
            ratios[p] = abs(total) / p**1.5
        assert max(ratios.values()) <= 10
        ps = sorted(ratios)
        half = (len(ps) + 1) // 2
        bottom = max(ratios[p] for p in ps[:half])
        top = max(ratios[p] for p in ps[half:])
        assert top <= 2 * bottom + 1
    print(f"\nACCEPTANCE 3 PASS: |sum Kl_2(F(x))|/p^1.5 <= "
          f"{max(ratios.values()):.2f} over {len(ps)} primes, "
          f"top-half max {top:.2f} <= 2*{bottom:.2f}+1 [{budget.elapsed:.1f}s]")


def test_criterion_04_twisted_sums_good_vs_bad():
    with _Budget(600, "criterion 4") as budget:
        rng = np.random.default_rng(2024)
        primes = _criterion_3_primes()
        # part 1: twenty random good frequencies on the cubic family
        good_ratios = []
        idx = 0
        while len(good_ratios) < 20:
            p = primes[idx % len(primes)]
            idx += 1
            u = [int(x) for x in rng.integers(0, p, size=3)]
            if all(c % p == 0 for c in u):
                continue
            if classify_u(F_CUBIC, u, p, k_max=2).kind != "good":
                continue
            t = kloosterman(2, cached_field(p))
            good_ratios.append(abs(complete_sum_g(F_CUBIC, t, u, p)) / p**1.5)
        assert max(good_ratios) <= 10
        # part 2: on the quadric family the square-sieve trace function
        # (quadratic character) separates good from tangent frequencies
        sep = {}
        for p in [q for q in primes if q >= 13]:
            leg = mult_char(cached_field(p), 2, 1)
            bad_us = []
            for u0 in range(1, p):
                for u1 in range(p):
                    done = False
                    for u2 in range(p):
                        if (u0 * u0 + u1 * u1 + u2 * u2) % p == 0:
                            bad_us.append((u0, u1, u2))
                            done = True
                            break
                    if done and len(bad_us) >= 4:
                        break
                if len(bad_us) >= 4:
                    break
            assert all(diagonal_dual_oracle([1, 1, 1], 2, u, p).kind == "bad"
                       for u in bad_us)
            bad_max = max(abs(complete_sum_g(F_QUADRIC, leg, u, p)) / p**1.5
                          for u in bad_us)
            good_max = 0.0
            found = 0
            while found < 6:
                u = [int(x) for x in rng.integers(0, p, size=3)]
                if all(c % p == 0 for c in u):
                    continue
                if diagonal_dual_oracle([1, 1, 1], 2, u, p).kind != "good":
                    continue
                found += 1
                good_max = max(good_max,
                               abs(complete_sum_g(F_QUADRIC, leg, u, p)) / p**1.5)
            sep[p] = (good_max, bad_max)
            assert good_max < bad_max, (p, good_max, bad_max)
    worst_gap = min(b / g for g, b in sep.values())
    print(f"\nACCEPTANCE 4 PASS: 20 good-u cubic ratios <= "
          f"{max(good_ratios):.2f}; quadric good<bad at every p >= 13 "
          f"(weakest separation x{worst_gap:.1f}) [{budget.elapsed:.1f}s]")


def test_criterion_05_second_moments():
    with _Budget(60, "criterion 5") as budget:
        worst = 0.0
        for p in primes_in(2, 100):
            field = cached_field(p)
            kl2 = kloosterman(2, field)
            base = abs(second_moment(kl2) - 1)
            assert base <= 3 * p**-0.5
            worst = max(worst, base / (3 * p**-0.5))
            for d in (2, 3):
                err = abs(second_moment(pullback_power(kl2, d, field)) - 1)
                assert err <= 3 * d * p**-0.5, (p, d, err)
                worst = max(worst, err / (3 * d * p**-0.5))
    print(f"\nACCEPTANCE 5 PASS: second moments within tolerance, worst at "
          f"{worst:.0%} of budget [{budget.elapsed:.1f}s]")


def test_criterion_06_point_count_deviations():
    with _Budget(120, "criterion 6") as budget:
        fitted = {}
        for name, F, skip_zero in (("quadric", F_QUADRIC, False),
                                   ("cubic", F_CUBIC, True)):
            C = 0.0
            for p in primes_in(5, 97):
                hist = fiber_histogram(F, p)
                devs = np.abs(hist - p * p)
                if skip_zero:
                    # the zero fiber is the affine cone, whose projective
                    # closure is singular at the apex; outside the
                    # smooth-closure hypothesis, so outside the bound
                    devs = devs[1:]
                C = max(C, float(devs.max()) / p)
            fitted[name] = C
            assert C <= 10, (name, C)
    print(f"\nACCEPTANCE 6 PASS: fitted deviation constants "
          f"{ {k: round(v, 2) for k, v in fitted.items()} } <= 10 "
          f"[{budget.elapsed:.1f}s]")


def test_criterion_07_sieve_soundness():
    with _Budget(600, "criterion 7") as budget:
        # zero false negatives over the full bank
        checked = 0
        for text in H_BANK:
            h = parse_unipoly(text)
            data = []
            for p in primes_in(h.degree + 1, 200):
                try:
                    d = build_prime_data(h, p)
                except ValueError:
                    continue
                if not d.surjective:
                    data.append(d)
            ts = np.arange(-10**4, 10**4 + 1, dtype=np.int64)
            values = h.eval(ts)
            alive = np.ones(len(values), dtype=bool)
            for d in data:
                alive &= d.image[values % d.p]
            assert alive.all(), f"false negative for {text}"
            checked += len(values)
        # exact equality of filtered and brute counts on 12 instances
        instances = [
            ("T^2", F_QUADRIC, 5), ("T^2", F_QUADRIC, 10),
            ("T^2", F_QUADRIC, 40), ("T^2", F_CUBIC, 40),
            ("T^3", F_QUADRIC, 10), ("T^3", F_CUBIC, 20),
            ("T^3-3*T", F_QUADRIC, 10), ("T^3-3*T", F_CUBIC, 15),
            ("T^4+T", F_QUADRIC, 10), ("T^4+T", F_CUBIC, 8),
            ("2*T^3+1", F_QUADRIC, 10), ("2*T^3+1", F_CUBIC, 12),
        ]
        assert len(instances) == 12
        for f_text, F, B in instances:
            f = parse_unipoly(f_text)
            problem = BoxProblem(f, F, B)
            try:
                primes = list(select_primes(problem).primes)
            except ValueError:
                primes = []
            if not primes:
                primes = [p for p in primes_in(f.degree + 1, 50)
                          if not build_prime_data(f, p).surjective][:3]
            data = [build_prime_data(f, p) for p in primes]
            rec = sieve_filtered_count(f, box_histogram(F, B), data)
            assert rec.count == box_count_per_point(
                list(f.coeffs), F.terms, F.n_vars, B), (f_text, F.to_text(), B)
    print(f"\nACCEPTANCE 7 PASS: zero false negatives on {checked} values "
          f"across the bank; filtered = brute on 12 instances "
          f"[{budget.elapsed:.1f}s]")


def test_criterion_08_sieve_inequality():
    with _Budget(60, "criterion 8") as budget:
        runs = []
        # five admissible sequences across the bank
        specs = [
            ("T^2", {k * k: 1.0 for k in range(1, 51)}, primes_in(20, 60)[:8]),
            ("T^3", {k**3: 1.0 for k in range(1, 30)},
             [p for p in primes_in(7, 100) if p % 3 == 1][:6]),
            ("T^3-3*T", {k: 1.0 for k in range(1, 400)},
             primes_in(5, 60)[:8]),
            ("T^2", {k * k: 1.0 / k for k in range(1, 80)},
             primes_in(30, 90)[:10]),
            ("2*T^3+1", {2 * k**3 + 1: 2.0 for k in range(1, 25)},
             [p for p in primes_in(5, 80)][:6]),
        ]
        for text, a, primes in specs:
            h = parse_unipoly(text)
            usable = tuple(p for p in primes if not build_prime_data(h, p).surjective)
            rep = sieve_bound_eval(SieveConfig(h, usable), a)
            assert rep.hypothesis_ok, text
            assert rep.inequality_holds, text
            runs.append(rep)
        # the support-condition failure mode: mass hidden on a value
        # divisible by every sieve prime
        primes = tuple(primes_in(3, 80))[:20]
        m = math.prod(primes)
        bad_seq = {m * m: 1.0}
        h = parse_unipoly("T^2")
        rep = sieve_bound_eval(SieveConfig(h, primes), bad_seq)
        assert not rep.support_condition_ok
        assert rep.v_h == 1.0
        char_rhs = power_sieve_rhs(2, primes, bad_seq)
        assert char_rhs["rhs"] == pytest.approx(1 / len(primes))
        assert 16 * char_rhs["rhs"] < rep.v_h  # character bound fails
        assert rep.inequality_holds            # exact detectors do not
    print(f"\nACCEPTANCE 8 PASS: inequality holds on 5 admissible sequences; "
          f"support-violating sequence defeats the character form "
          f"(V=1 vs rhs={char_rhs['rhs']:.3f}) but not the exact detectors "
          f"[{budget.elapsed:.1f}s]")


def test_criterion_09_crt_and_poisson():
    with _Budget(300, "criterion 9") as budget:
        rng = np.random.default_rng(777)
        ps = primes_in(3, 31)
        worst = 0.0
        for _ in range(50):
            p, q = map(int, rng.choice(ps, size=2, replace=False))
            F = MultiPoly(2, {(2, 0): int(rng.integers(1, 5)),
                              (0, 2): int(rng.integers(1, 5)),
                              (1, 1): int(rng.integers(0, 4))})
            u = [int(x) for x in rng.integers(0, p * q, size=2)]
            t_p = (kloosterman(2, cached_field(p)) if rng.random() < 0.5
                   else mult_char(cached_field(p), 2, 1))
            t_q = mult_char(cached_field(q), 2, 1)
            rec = crt_factor_check(F, u, p, q, t_p, t_q)
            worst = max(worst, rec["rel_error"])
        assert worst <= 1e-6
        poisson_instances = [
            (3, 5, "one"), (3, 5, "leg"), (3, 5, "kl2"),
            (5, 7, "leg"), (5, 7, "kl2"),
        ]
        gaps = []
        for p, q, kind in poisson_instances:
            if kind == "one":
                t_p, t_q = constant_trace(cached_field(p)), \
                    constant_trace(cached_field(q))
            elif kind == "leg":
                t_p = mult_char(cached_field(p), 2, 1)
                t_q = mult_char(cached_field(q), 2, 1)
            else:
                t_p = kloosterman(2, cached_field(p))
                t_q = kloosterman(2, cached_field(q))
            rec = poisson_compare(F_QUADRIC, p, q, t_p, t_q, B=10, u_cutoff=8)
            assert rec["error"] <= rec["tail_bound"] + 1e-6
            gaps.append(rec["error"])
    print(f"\nACCEPTANCE 9 PASS: CRT worst relative error {worst:.2e} <= 1e-6 "
          f"on 50 draws; Poisson gaps within tail bounds on 5 instances "
          f"(max gap {max(gaps):.2e}) [{budget.elapsed:.1f}s]")


def test_criterion_10_box_count_ratio_scan():
    with _Budget(120, "criterion 10") as budget:
        scan = bound_ratio_scan(parse_unipoly("T^2"), F_QUADRIC,
                                [10, 20, 40, 80])
        cols = scan["table"]
        assert scan["spread"] <= 10
        comparison = [r for B, r in zip(cols["B"], cols["ratio_comparison"]) if B >= 20]
        assert all(a >= b - 1e-12 for a, b in zip(comparison, comparison[1:]))
    table = {B: round(r, 3) for B, r in zip(cols["B"], cols["ratio_main"])}
    print(f"\nACCEPTANCE 10 PASS: main ratios {table}, spread "
          f"{scan['spread']:.2f} <= 10; comparison column non-increasing "
          f"from B=20 [{budget.elapsed:.1f}s]")
