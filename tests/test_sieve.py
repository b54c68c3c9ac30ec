import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysieve import sieve
from polysieve.boxes import exceptional_set
from polysieve.errors import BudgetExceeded, InvariantViolation
from polysieve.fields import ExtField, mult_char, primes_in
from polysieve.polynomials import UniPoly, critical_value_poly, parse_unipoly
from polysieve.sieve import (SieveConfig, SievePrimeData, build_prime_data,
                             detector, in_h_image, membership_filter,
                             power_decomposition_check, power_sieve_rhs,
                             sieve_bound_eval)

from _oracles import critical_values_by_gcd, integer_preimage_exists, integer_root_of

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


@st.composite
def leading_coefficient_divisible_polys(draw):
    """f of degree 2-5 over Z whose leading coefficient, +-1 or +-2 times 1-3 primes of
    the window (deg f, 200], is not +-1; the other coefficients lie in [-40, 40]."""
    d = draw(st.integers(2, 5))
    window = primes_in(d + 1, 200)
    lc = draw(st.sampled_from([1, -1, 2, -2])) * math.prod(
        draw(st.lists(st.sampled_from(window), min_size=1, max_size=3)))
    return UniPoly(draw(st.lists(st.integers(-40, 40), min_size=d, max_size=d)) + [lc])


def roots_mod(r):
    return np.flatnonzero(r.eval(np.arange(r.ring)) == 0).tolist()


class TestPrimeData:
    @settings(max_examples=30, deadline=None)
    @given(leading_coefficient_divisible_polys())
    @example(UniPoly([9, 2, -1, 3, 7]))  # 7 T^4 + 3 T^3 - T^2 + 2 T + 9: a cubic mod 7
    @example(UniPoly([1, 0, 5, 5 * 11]))  # 55 T^3 + 5 T^2 + 1: a quadric mod 11, linear mod 5
    def test_exceptional_set_is_both_references(self, f):
        # S_{f,p} from R_f mod p (or, where p | lc(f), from f mod p's own critical-value
        # polynomial) against the roots of that polynomial over F_p, and against the s
        # with gcd(f - s, f') != 1 over F_p, found by Euclid's algorithm
        for p in primes_in(f.degree + 1, 200):
            if f.reduce_mod(p).degree < 2:
                with pytest.raises(ValueError, match="degenerates"):
                    build_prime_data(f, p)
                continue
            got = np.flatnonzero(build_prime_data(f, p).exceptional).tolist()
            assert got == roots_mod(critical_value_poly(f.reduce_mod(p), p)), p
            assert got == critical_values_by_gcd(f.coeffs, p), p

    def test_square_example(self):
        data = build_prime_data(parse_unipoly("T^2"), 7)
        assert list(np.where(data.image)[0]) == [0, 1, 2, 4]
        assert data.image_size == 4
        assert data.bound_tight  # 4 = 7 - 6/2
        assert set(np.flatnonzero(data.exceptional)) == {0}

    def test_cubic_exceptional(self):
        data = build_prime_data(parse_unipoly("T^3-3*T"), 5)
        assert set(np.flatnonzero(data.exceptional)) == {2, 3}

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            build_prime_data(parse_unipoly("T^3"), 3)

    def test_direct_construction_rejects_composite_modulus(self):
        # T^2 on Z/9: a self-consistent table that meets every other check
        nu = np.bincount(np.arange(9) ** 2 % 9, minlength=9)
        with pytest.raises(ValueError, match="9 is not prime"):
            SievePrimeData(p=9, d=2, image=nu >= 1, image_size=int((nu >= 1).sum()),
                           exceptional=np.arange(9) == 0, nu=nu)

    def test_exceptional_bitmap_must_cover_F_p(self):
        data = build_prime_data(parse_unipoly("T^2"), 7)
        with pytest.raises(InvariantViolation, match="length p"):
            SievePrimeData(p=7, d=2, image=data.image, image_size=data.image_size,
                           exceptional=data.exceptional[:5], nu=data.nu)

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
        f5 = ExtField(5)
        chi = mult_char(f5, 2, 1)
        assert (1 + chi.values[2]) / 2 == pytest.approx(0.0)
        assert (1 + chi.values[4]) / 2 == pytest.approx(1.0)

    def test_bad_divisor_rejected(self):
        with pytest.raises(ValueError):
            power_decomposition_check(3, 5)

    @pytest.mark.parametrize("d", [0, -2])
    def test_nonpositive_order_rejected_before_any_field(self, d, monkeypatch):
        monkeypatch.setattr("polysieve.sieve.cached_field",
                            lambda *a: pytest.fail("a field was built"))
        with pytest.raises(ValueError, match="at least 1"):
            power_decomposition_check(d, 7)

    @pytest.mark.parametrize("d", [0, -2])
    def test_power_sieve_rhs_refuses_nonpositive_order(self, d, monkeypatch):
        monkeypatch.setattr("polysieve.sieve.cached_field",
                            lambda *a: pytest.fail("a field was built"))
        with pytest.raises(ValueError, match="at least 1"):
            power_sieve_rhs(d, [5, 7], {1: 1.0})

    def test_detector_character_consistency(self):
        # for h = T^d on units: D_p(n) = (1/d) sum_{chi != 1} chi(n) + (1-d)/(dp)
        for d, p in ((2, 13), (3, 13), (4, 17), (5, 11)):
            h = parse_unipoly(f"T^{d}")
            data = build_prime_data(h, p)
            field = ExtField(p)
            chis = [mult_char(field, d, j) for j in range(1, d)]
            for n in range(1, p):
                char_part = sum(c.values[n] for c in chis) / d
                expected = char_part + (1 - d) / (d * p)
                assert detector(data, n) == pytest.approx(expected.real, abs=1e-9)
                assert abs(expected.imag) < 1e-9


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
        nonvalues = candidates[~in_h_image(h, candidates)]
        mask1 = data[0].image[nonvalues % data[0].p]
        rate1 = mask1.mean()
        mask8 = np.ones(len(nonvalues), dtype=bool)
        for d in data:
            mask8 &= d.image[nonvalues % d.p]
        rate8 = mask8.mean()
        assert rate8 <= rate1
        assert rate8 < 0.05  # eight primes cut the survivors hard


# the scalar definitions, one Python int at a time
def _detector_1(data, n):
    return (1.0 if data.image[n % data.p] else 0.0) - data.image_size / data.p


class TestArrayKernels:
    DATA = {text: [d for _, d in good_primes(parse_unipoly(text), 40)] for text in H_BANK}

    @settings(max_examples=60)
    @given(st.sampled_from(H_BANK), st.booleans(),
           st.lists(st.integers(-2**63, 2**63 - 1), max_size=12),
           st.lists(st.integers(-10**40, 10**40), max_size=12))
    def test_array_equals_scalar_definition(self, text, as_int64, small, huge):
        # int64 arrays, and lists holding ints past int64, both go elementwise
        prime_data = self.DATA[text]
        ns = small if as_int64 else small + huge
        arg = np.array(ns, dtype=np.int64) if as_int64 else ns
        for data in prime_data:
            got = detector(data, arg)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == [_detector_1(data, n) for n in ns]
        assert membership_filter(prime_data, arg).tolist() == [
            all(data.image[n % data.p] for data in prime_data) for n in ns]

    def test_scalar_input_gives_a_python_scalar(self):
        data = build_prime_data(parse_unipoly("T^2"), 7)
        assert type(detector(data, 10**30)) is float
        assert membership_filter([data], 10) is False and membership_filter([], 10) is True


def _image_within(h, n_max, budget=10**8):
    """Every n in h(Z) with |n| <= n_max: in_h_image over the full range, one walk."""
    ns = np.arange(-n_max, n_max + 1, dtype=np.int64)
    return ns[in_h_image(h, ns, budget=budget)].tolist()


class TestImageTables:
    def test_squares(self):
        assert _image_within(parse_unipoly("T^2"), 100) == [k * k for k in range(11)]

    @pytest.mark.parametrize("text, n_max, want", [
        ("T^2-7", 10, [-7, -6, -3, 2, 9]),
        ("T^2-1000000000000", 100, [0]),  # h(10^6) = 0, far past the critical radius 3
        ("-T^3+T+1000000", 100, [100]),   # h(100) = 100
    ])
    def test_walk_reaches_past_the_critical_radius(self, text, n_max, want):
        assert _image_within(parse_unipoly(text), n_max) == want

    def test_walk_is_charged_before_it_starts(self, monkeypatch):
        # Fujiwara: every t with |t^2| <= 10^4 has |t| <= ceil(2 sqrt(10^4 / 2)) + 1 = 143
        h = parse_unipoly("T^2")
        with monkeypatch.context() as m:
            m.setattr(type(h), "eval", lambda *a: pytest.fail("walked before the charge"))
            with pytest.raises(BudgetExceeded, match="image walk of 287 points"):
                _image_within(h, 10**4, budget=286)
            with pytest.raises(BudgetExceeded, match="image walk of 287 points"):
                in_h_image(h, np.array([10**4]), budget=286)
        assert _image_within(h, 10**4, budget=287) == [k * k for k in range(101)]

    def test_matches_direct_scan(self):
        h = parse_unipoly("T^3-3*T")
        direct = sorted(set(h.eval(t) for t in range(-60, 61)
                            if abs(h.eval(t)) <= 50))
        assert _image_within(h, 50) == direct

    def test_walk_holds_one_block(self):
        # about 9 10^6 walk points in blocks of 2^20: the whole walk kept as int64 and
        # sorted traced 144.8 MiB.  No square lies in 10^13 + [0, 2000); the appended
        # squares lie in the middle block, and in the second and eighth of the nine
        squares = [0, 25, 3162277**2, 3162277**2 + 1]
        h = parse_unipoly("T^2")
        ns = np.concatenate([10**13 + np.arange(2000), squares]).astype(np.int64)
        tracemalloc.start()
        try:
            got = in_h_image(h, ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert np.flatnonzero(got).tolist() == [2000, 2001, 2002]

    def test_preimage_exists_vs_table(self):
        for text in H_BANK:
            h = parse_unipoly(text)
            ns = range(-2000, 2001, 7)
            assert in_h_image(h, ns).tolist() == [integer_root_of(h, n) is not None for n in ns]

    def test_preimage_huge_values(self):
        h = parse_unipoly("T^2")
        m = 10**30
        assert in_h_image(h, [m * m, m * m + 1]).tolist() == [True, False]
        h3 = parse_unipoly("T^3-3*T")
        t = 10**12
        assert in_h_image(h3, [t**3 - 3 * t, t**3 - 3 * t + 1]).tolist() == [True, False]
        # past a float (10^308): the bisection's bound is an exact integer
        m = 10**400 + 7
        assert in_h_image(h, [m * m, m * m - 1, -m * m]).tolist() == [True, False, False]
        assert in_h_image(h3, [-(m**3 - 3 * m), m**3 - 3 * m - 1]).tolist() == [True, False]

    def test_far_value_found_in_the_zone(self):
        # h = T^2 + 10^19, crit = 3: past int64 every value of h, and h(0), h(2) lie
        # in the zone where no tail bisection reaches them
        h = parse_unipoly("T^2+10000000000000000000")
        assert in_h_image(h, [10**19, h.eval(1) + 1, h.eval(2)]).tolist() == [True, False, True]

    def test_far_values_skip_the_table_walk(self):
        # a table to 10^17 walks about 9 10^8 points; two bisections decide the value
        h = parse_unipoly("T^2")
        rep = sieve_bound_eval(SieveConfig(h, tuple(primes_in(3, 6000))[:8]), {10**17: 1.0})
        assert rep.v_h == 0
        # the zone of T^2 is 7 points, within a budget of 100
        assert in_h_image(h, [10**17, 10**16, 10**16 + 1], budget=100).tolist() \
            == [False, True, False]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=3, max_size=5).filter(lambda c: c[-1] != 0),
           st.lists(st.integers(-10**9, 10**9), max_size=6),
           st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-10**4, 10**4), max_size=6),
           st.lists(st.integers(2**63, 10**40), max_size=6),
           st.lists(st.integers(3 * 10**9, 10**13), max_size=3), st.integers(-1, 1))
    def test_array_membership_equals_the_per_value_search(self, coeffs, small, wide, huge,
                                                          ts, step):
        # h of degree 2-4.  An int64 array is one table walk, here to |n| <= 10^9.  A list
        # mixes values across int64, values past it of either sign, and h(t) + step at
        # large t on both tails (|h(t)| near 9 10^18 or more)
        h = UniPoly(coeffs)
        assert in_h_image(h, np.array(small, dtype=np.int64)).tolist() \
            == [integer_preimage_exists(h, n) for n in small]
        ns = wide + [s * n for n in huge for s in (1, -1)] + [h.eval(s * t) + step
                                                              for t in ts for s in (1, -1)]
        assert in_h_image(h, ns).tolist() == [integer_preimage_exists(h, n) for n in ns]

    def test_preimage_zone_is_one_array_pass(self, monkeypatch):
        # crit = 1 + 10^6: no scalar evaluation inside the zone, only on the tails
        h = parse_unipoly("T^2+1000000*T")
        real = UniPoly.eval

        def scalar_outside_zone(self, x):
            if np.ndim(x) == 0 and abs(int(x)) < 10**6 + 1:
                pytest.fail(f"scalar evaluation at {x} inside the zone")
            return real(self, x)

        monkeypatch.setattr(UniPoly, "eval", scalar_outside_zone)
        ns = [7, real(h, -999_999), real(h, 3 * 10**10), real(h, -3 * 10**10) + 1, 2**70]
        assert in_h_image(h, ns).tolist() == [False, True, True, False, False]

    def test_preimage_zone_is_charged_first(self, monkeypatch):
        # h' = 2T + 10^9, so crit = 1 + 10^9: 2 crit + 1 points pass the default budget 10^8
        monkeypatch.setattr(UniPoly, "eval", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(BudgetExceeded, match="critical zone of 2000000003 points"):
            in_h_image(parse_unipoly("T^2+1000000000*T"), [2**62, -10**30])


class TestSieveBound:
    def _square_setup(self):
        h = parse_unipoly("T^2")
        primes = tuple(p for p in primes_in(20, 60))[:8]
        return h, SieveConfig(h, primes)

    def test_square_indicator_sequence(self):
        _, cfg = self._square_setup()
        a = {k * k: 1.0 for k in range(1, 51)}
        rep = sieve_bound_eval(cfg, a)
        assert rep.hypothesis_ok
        assert rep.s_condition_ok
        assert rep.inequality_holds
        assert rep.v_h == 50.0
        assert rep.diagonal <= rep.P * sum(a.values()) + 1e-9

    def test_nonvalue_support(self):
        _, cfg = self._square_setup()
        rep = sieve_bound_eval(cfg, {k: 1.0 for k in (2, 3, 5, 7, 10)})
        assert rep.v_h == 0.0
        assert rep.inequality_holds

    def test_negative_weight_rejected(self):
        _, cfg = self._square_setup()
        with pytest.raises(ValueError):
            sieve_bound_eval(cfg, {4: -1.0})

    def test_config_keeps_the_data_it_builds(self, monkeypatch):
        # each prime's data is built once, kept, and is what the bound reads
        built = []

        def counting(h, p):
            built.append(p)
            return build(h, p)

        build = sieve.build_prime_data
        monkeypatch.setattr(sieve, "build_prime_data", counting)
        primes = (23, 29, 31, 37)
        cfg = SieveConfig(parse_unipoly("T^2"), primes)
        rep = sieve_bound_eval(cfg, {k * k: 1.0 for k in range(1, 20)})
        assert built == list(primes)
        assert [d.p for d in cfg.prime_data] == list(primes)
        assert rep.P == len(primes) and rep.threshold == len(primes) / 4

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
        # exceptional_set applies the same cutoff, at P = 1 and P = 8: S_{T^2, p} = {0},
        # so k counts once per sieve prime dividing it
        for ps in (primes[:1], primes):
            for mode in ("lemma", "logp"):
                cutoff = SieveConfig(h, ps, threshold_mode=mode).threshold()
                got = exceptional_set(h, [build_prime_data(h, p) for p in ps], 2000, mode)
                assert got.tolist() == [k for k in range(-2000, 2001)
                                        if sum(k % p == 0 for p in ps) >= cutoff]

    def test_support_violation_counterexample(self):
        # a concentrated on m^2 with every sieve prime dividing m: the
        # character-form bound collapses to 1/P while the mass stays 1
        primes = tuple(primes_in(3, 80))[:20]
        m = math.prod(primes)
        a = {m * m: 1.0}
        h = parse_unipoly("T^2")
        rep = sieve_bound_eval(SieveConfig(h, primes), a)
        assert not rep.support_condition_ok
        assert rep.v_h == 1.0
        assert rep.inequality_holds  # exact detectors survive the trap
        rhs = power_sieve_rhs(2, primes, a)
        assert rhs["cross_term"] == pytest.approx(0.0, abs=1e-12)
        assert rhs["rhs"] == pytest.approx(1 / len(primes))
        # even with the explicit (2d)^2 constant the character bound fails
        assert (2 * 2) ** 2 * rhs["rhs"] < rep.v_h

    def test_support_flag_past_a_float_exponential(self):
        # e^710 overflows a float: the support test compares log n with P instead
        primes = tuple(primes_in(3, 6000))[:710]
        rep = sieve_bound_eval(SieveConfig(parse_unipoly("T^2"), primes), {4: 1.0})
        assert rep.P == 710 and rep.support_condition_ok
        for n in (0, 10**309):  # 10^309 > e^710, itself past a float
            assert not sieve_bound_eval(SieveConfig(parse_unipoly("T^2"), primes),
                                        {4: 1.0, n: 1.0}).support_condition_ok

    def test_well_supported_sequence_passes_char_form(self):
        # same machinery on an admissible sequence: bound comfortably true
        primes = tuple(primes_in(3, 40))[:8]
        a = {k * k: 1.0 for k in range(1, 20)}
        rhs = power_sieve_rhs(2, primes, a)
        v = float(len(a))
        assert v <= (2 * 2) ** 2 * rhs["rhs"] + 1e-9
