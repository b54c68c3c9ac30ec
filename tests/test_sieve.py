import math

import numpy as np
import pytest

from polysieve.fields import PrimeField, mult_char, primes_in
from polysieve.polynomials import parse_unipoly
from polysieve.sieve import (SieveConfig, SievePrimeData, build_prime_data,
                             detector, h_image_table, in_h_image,
                             integer_preimage_exists, membership_filter,
                             multiplicity_weight, power_decomposition_check,
                             power_sieve_rhs, sieve_bound_eval)

H_BANK = ["T^2", "T^3", "T^3-3*T", "T^4+T", "2*T^3+1"]


def good_primes(h, pmax):
    out = []
    for p in primes_in(h.degree + 1, pmax):
        try:
            data = build_prime_data(h, p)
        except ValueError:
            continue
        if not data.surjective:
            out.append((p, data))
    return out


class TestPrimeData:
    def test_square_example(self):
        data = build_prime_data(parse_unipoly("T^2"), 7)
        assert list(np.where(data.image)[0]) == [0, 1, 2, 4]
        assert data.image_size == 4
        assert data.bound_tight  # 4 = 7 - 6/2
        assert set(data.exceptional) == {0}

    def test_cubic_exceptional(self):
        data = build_prime_data(parse_unipoly("T^3-3*T"), 5)
        assert set(data.exceptional) == {2, 3}

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            build_prime_data(parse_unipoly("T^3"), 3)

    def test_direct_construction_rejects_composite_modulus(self):
        # T^2 on Z/9: a self-consistent table that meets every other check
        nu = np.bincount(np.arange(9) ** 2 % 9, minlength=9)
        with pytest.raises(ValueError, match="9 is not prime"):
            SievePrimeData(p=9, d=2, image=nu >= 1, image_size=int((nu >= 1).sum()),
                           exceptional=frozenset({0}), nu=nu)

    def test_image_bound_holds_across_bank(self):
        # |h(F_p)| <= p - (p-1)/d whenever the image is proper
        for text in H_BANK:
            h = parse_unipoly(text)
            for p, data in good_primes(h, 200):
                assert data.image_size <= data.p - (data.p - 1) / data.d

    def test_nu_is_fiber_count(self):
        h = parse_unipoly("T^4+T")
        data = build_prime_data(h, 13)
        for n in range(13):
            assert data.nu[n] == sum(1 for x in range(13)
                                     if h.eval(x) % 13 == n)


class TestDetector:
    def test_spec_values(self):
        data = build_prime_data(parse_unipoly("T^2"), 7)
        assert detector(data, 3) == pytest.approx(-4 / 7)
        assert detector(data, 4) == pytest.approx(3 / 7)
        assert detector(data, 4) >= 6 / 14

    def test_periodic(self):
        data = build_prime_data(parse_unipoly("T^2"), 7)
        for n in range(-10, 10):
            assert detector(data, n) == detector(data, n + 7 * 13)

    def test_range_and_floor_on_image(self):
        for text in H_BANK:
            h = parse_unipoly(text)
            for p, data in good_primes(h, 60):
                for n in range(p):
                    v = detector(data, n)
                    assert -1 < v < 1
                    if data.image[n]:
                        assert v >= (p - 1) / (data.d * p) - 1e-12

    def test_mean_zero(self):
        data = build_prime_data(parse_unipoly("2*T^3+1"), 13)
        total = sum(detector(data, n) for n in range(13))
        assert total == pytest.approx(0.0, abs=1e-12)


class TestPowerDecomposition:
    def test_exactness(self):
        assert power_decomposition_check(2, 5) < 1e-12
        assert power_decomposition_check(3, 7) < 1e-12
        assert power_decomposition_check(4, 13) < 1e-12

    def test_pointwise_values_mod5(self):
        # 2 is a non-residue, 4 a residue mod 5
        f5 = PrimeField(5)
        chi = mult_char(f5, 2, 1)
        assert (1 + chi.values[2]) / 2 == pytest.approx(0.0)
        assert (1 + chi.values[4]) / 2 == pytest.approx(1.0)

    def test_bad_divisor_rejected(self):
        with pytest.raises(ValueError):
            power_decomposition_check(3, 5)

    def test_detector_character_consistency(self):
        # for h = T^d on units: D_p(n) = (1/d) sum_{chi != 1} chi(n) + (1-d)/(dp)
        for d, p in ((2, 13), (3, 13), (4, 17), (5, 11)):
            h = parse_unipoly(f"T^{d}")
            data = build_prime_data(h, p)
            field = PrimeField(p)
            chis = [mult_char(field, d, j) for j in range(1, d)]
            for n in range(1, p):
                char_part = sum(c.values[n] for c in chis) / d
                expected = char_part + (1 - d) / (d * p)
                assert detector(data, n) == pytest.approx(expected.real, abs=1e-9)
                assert abs(expected.imag) < 1e-9


class TestMultiplicityWeight:
    def test_spec_values(self):
        data = build_prime_data(parse_unipoly("T^2"), 5)
        assert multiplicity_weight(data, 4, 0.0) == 0.0
        assert multiplicity_weight(data, 2, 1.0) == -1.0

    def test_single_preimage_gives_alpha(self):
        data = build_prime_data(parse_unipoly("T^2"), 5)
        assert multiplicity_weight(data, 0, 0.25) == 0.25  # nu(0) = 1


class TestMembership:
    def test_spec_examples(self):
        h = parse_unipoly("T^2")
        data = [build_prime_data(h, p) for p in (3, 7)]
        assert membership_filter(data, 10) is False
        assert membership_filter(data, 9) is True
        assert membership_filter(data, 0) is True

    def test_zero_false_negatives_small(self):
        for text in H_BANK:
            h = parse_unipoly(text)
            data = [d for _, d in good_primes(h, 60)]
            ts = np.arange(-500, 501, dtype=np.int64)
            for t in ts:
                n = h.eval(int(t))
                assert membership_filter(data, n), (text, t)

    def test_false_positive_rate_monotone(self):
        h = parse_unipoly("T^2")
        data = [d for _, d in good_primes(h, 200)][:8]
        rng = np.random.default_rng(0)
        candidates = rng.integers(2, 10**7, size=10**5)
        table = h_image_table(h, 10**7)
        nonvalues = candidates[~in_h_image(h, candidates, table)]
        mask1 = data[0].image[nonvalues % data[0].p]
        rate1 = mask1.mean()
        mask8 = np.ones(len(nonvalues), dtype=bool)
        for d in data:
            mask8 &= d.image[nonvalues % d.p]
        rate8 = mask8.mean()
        assert rate8 <= rate1
        assert rate8 < 0.05  # eight primes cut the survivors hard


class TestImageTables:
    def test_squares(self):
        table = h_image_table(parse_unipoly("T^2"), 100)
        assert list(table) == [k * k for k in range(11)]

    def test_matches_direct_scan(self):
        h = parse_unipoly("T^3-3*T")
        table = h_image_table(h, 50)
        direct = sorted(set(h.eval(t) for t in range(-60, 61)
                            if abs(h.eval(t)) <= 50))
        assert list(table) == direct

    def test_preimage_exists_vs_table(self):
        for text in H_BANK:
            h = parse_unipoly(text)
            table = h_image_table(h, 2000)
            for n in range(-2000, 2001, 7):
                assert integer_preimage_exists(h, n) == bool(
                    in_h_image(h, np.array([n]), table)[0])

    def test_preimage_huge_values(self):
        h = parse_unipoly("T^2")
        m = 10**30
        assert integer_preimage_exists(h, m * m)
        assert not integer_preimage_exists(h, m * m + 1)
        h3 = parse_unipoly("T^3-3*T")
        t = 10**12
        assert integer_preimage_exists(h3, t**3 - 3 * t)
        assert not integer_preimage_exists(h3, t**3 - 3 * t + 1)


class TestSieveBound:
    def _square_setup(self):
        h = parse_unipoly("T^2")
        primes = tuple(p for p in primes_in(20, 60))[:8]
        cfg = SieveConfig(h, primes)
        data = [build_prime_data(h, p) for p in primes]
        return h, cfg, data

    def test_square_indicator_sequence(self):
        _, cfg, data = self._square_setup()
        a = {k * k: 1.0 for k in range(1, 51)}
        rep = sieve_bound_eval(cfg, data, a)
        assert rep.hypothesis_ok
        assert rep.s_condition_ok
        assert rep.inequality_holds
        assert rep.v_h == 50.0
        assert rep.diagonal <= rep.P * sum(a.values()) + 1e-9

    def test_nonvalue_support(self):
        _, cfg, data = self._square_setup()
        rep = sieve_bound_eval(cfg, data, {k: 1.0 for k in (2, 3, 5, 7, 10)})
        assert rep.v_h == 0.0
        assert rep.inequality_holds

    def test_negative_weight_rejected(self):
        _, cfg, data = self._square_setup()
        with pytest.raises(ValueError):
            sieve_bound_eval(cfg, data, {4: -1.0})

    def test_surjective_prime_rejected_by_config(self):
        # cubing is onto F_5, so 5 belongs to no sieve prime set for T^3
        with pytest.raises(ValueError):
            SieveConfig(parse_unipoly("T^3"), (7, 5))

    def test_threshold_modes(self):
        h = parse_unipoly("T^2")
        primes = tuple(primes_in(20, 60))[:8]
        lemma = SieveConfig(h, primes).threshold()
        logp = SieveConfig(h, primes, threshold_mode="logp").threshold()
        assert lemma == pytest.approx(len(primes) / 4)
        assert logp == pytest.approx(len(primes) / (4 * math.log(len(primes))))
        assert logp > lemma if math.log(len(primes)) < 1 else logp < lemma

    def test_support_violation_counterexample(self):
        # a concentrated on m^2 with every sieve prime dividing m: the
        # character-form bound collapses to 1/P while the mass stays 1
        primes = tuple(primes_in(3, 80))[:20]
        m = math.prod(primes)
        a = {m * m: 1.0}
        h = parse_unipoly("T^2")
        cfg = SieveConfig(h, primes)
        data = [build_prime_data(h, p) for p in primes]
        rep = sieve_bound_eval(cfg, data, a)
        assert not rep.support_condition_ok
        assert rep.v_h == 1.0
        assert rep.inequality_holds  # exact detectors survive the trap
        rhs = power_sieve_rhs(2, primes, a)
        assert rhs["cross_term"] == pytest.approx(0.0, abs=1e-12)
        assert rhs["rhs"] == pytest.approx(1 / len(primes))
        # even with the explicit (2d)^2 constant the character bound fails
        assert (2 * 2) ** 2 * rhs["rhs"] < rep.v_h

    def test_well_supported_sequence_passes_char_form(self):
        # same machinery on an admissible sequence: bound comfortably true
        primes = tuple(primes_in(3, 40))[:8]
        a = {k * k: 1.0 for k in range(1, 20)}
        rhs = power_sieve_rhs(2, primes, a)
        v = float(len(a))
        assert v <= (2 * 2) ** 2 * rhs["rhs"] + 1e-9
