import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from coincsim.errors import UndefinedEstimateError
from coincsim.estimators import (
    AlphaEstimate,
    alpha_estimate,
    expected_alpha_classical_wave,
    expected_alpha_pdc,
    expected_alpha_thermal_shared,
    sigma_separation,
    weighted_mean,
)
from coincsim.gating import CountSummary
from coincsim.sources import ClassicalWaveConfig, IntensityLaw


class TestAlphaEstimate:
    def test_poissonian_reference_case(self):
        # N=1000, N1=N2=100, Nc=10: alpha = 10*1000/10000 = 1 exactly
        est = alpha_estimate(CountSummary(n_gates=1000, n1=100, n2=100, nc=10))
        assert est.alpha == pytest.approx(1.0)
        expected_sigma = math.sqrt(
            (1000 / 10000) ** 2 * 10 + 1.0 * (1 / 100 + 1 / 100)
        )
        assert est.sigma == pytest.approx(expected_sigma)

    def test_zero_coincidences_floor(self):
        # Nc=0 keeps a one-count floor in the variance: sigma = N/(N1 N2)
        est = alpha_estimate(CountSummary(n_gates=1000, n1=100, n2=100, nc=0))
        assert est.alpha == 0.0
        assert est.sigma == pytest.approx(0.1)

    def test_zero_singles_undefined(self):
        with pytest.raises(UndefinedEstimateError):
            alpha_estimate(CountSummary(n_gates=1000, n1=0, n2=100, nc=0))
        with pytest.raises(UndefinedEstimateError):
            alpha_estimate(CountSummary(n_gates=0, n1=0, n2=0, nc=0))

    @given(
        n=st.integers(1, 10**7),
        n1=st.integers(1, 10**6),
        n2=st.integers(1, 10**6),
        nc=st.integers(0, 10**6),
        k=st.integers(2, 50),
    )
    @settings(max_examples=60)
    def test_scale_invariance_of_alpha(self, n, n1, n2, nc, k):
        # alpha is a ratio of rates: scaling all counts leaves it unchanged
        # while sigma shrinks roughly like 1/sqrt(k)
        nc = min(nc, n1, n2)
        a = alpha_estimate(CountSummary(n, n1, n2, nc))
        b = alpha_estimate(CountSummary(k * n, k * n1, k * n2, k * nc))
        assert b.alpha == pytest.approx(a.alpha, rel=1e-12)
        assert b.sigma < a.sigma


class TestWeightedMean:
    def test_single_estimate_identity(self):
        e = AlphaEstimate(alpha=0.5, sigma=0.1)
        m = weighted_mean([e])
        assert m.alpha == pytest.approx(0.5)
        assert m.sigma == pytest.approx(0.1)

    def test_two_identical_halve_variance(self):
        e = AlphaEstimate(alpha=0.5, sigma=0.1)
        m = weighted_mean([e, e])
        assert m.alpha == pytest.approx(0.5)
        assert m.sigma == pytest.approx(0.1 / math.sqrt(2))

    def test_three_point_worked_example(self):
        ests = [
            AlphaEstimate(0.01, 0.02),
            AlphaEstimate(0.03, 0.03),
            AlphaEstimate(0.05, 0.05),
        ]
        m = weighted_mean(ests)
        # recompute independently in exact rational arithmetic
        w = [1 / Fraction(s).limit_denominator() ** 2 for s in ("0.02", "0.03", "0.05")]
        a = [Fraction(x).limit_denominator() for x in ("0.01", "0.03", "0.05")]
        exact_mean = sum(wi * ai for wi, ai in zip(w, a)) / sum(w)
        assert m.alpha == pytest.approx(float(exact_mean), rel=1e-12)
        assert m.sigma == pytest.approx(float(1 / sum(w) ** Fraction(1, 2)), rel=1e-12)
        assert m.alpha == pytest.approx(0.019529085872576176)
        assert m.sigma == pytest.approx(0.015789473684210527)

    def test_low_sigma_points_dominate(self):
        m = weighted_mean([AlphaEstimate(0.0, 1e-6), AlphaEstimate(1.0, 1e3)])
        assert m.alpha < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(UndefinedEstimateError):
            weighted_mean([])

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(UndefinedEstimateError):
            weighted_mean([AlphaEstimate(0.5, 0.0)])

    def test_nonfinite_sigma_rejected(self):
        with pytest.raises(UndefinedEstimateError):
            weighted_mean([AlphaEstimate(0.5, math.inf)])

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 10, allow_nan=False),
                st.floats(1e-6, 10, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60)
    def test_mean_within_span_and_sigma_never_grows(self, pairs):
        ests = [AlphaEstimate(a, s) for a, s in pairs]
        m = weighted_mean(ests)
        alphas = [a for a, _ in pairs]
        assert min(alphas) - 1e-12 <= m.alpha <= max(alphas) + 1e-12
        assert m.sigma <= min(s for _, s in pairs) + 1e-15


class TestSigmaSeparation:
    def test_strongly_nonclassical_point(self):
        assert sigma_separation(AlphaEstimate(0.022, 0.019), 1.0) == pytest.approx(
            (1 - 0.022) / 0.019
        )

    def test_classical_point_below_one_sigma(self):
        assert sigma_separation(AlphaEstimate(1.5, 0.6), 1.0) == pytest.approx(0.5 / 0.6)

    def test_zero_distance(self):
        assert sigma_separation(AlphaEstimate(1.0, 0.1), 1.0) == 0.0

    def test_zero_sigma_rejected(self):
        with pytest.raises(UndefinedEstimateError):
            sigma_separation(AlphaEstimate(0.5, 0.0), 1.0)


class TestPdcOracle:
    def test_no_accidentals_means_zero(self):
        assert expected_alpha_pdc(t1=0.3, t2=0.4, a1=0.0, a2=0.0) == 0.0

    def test_no_true_detections_means_one(self):
        # with t=0 every count is accidental and the fields factorize
        alpha = expected_alpha_pdc(t1=0.0, t2=0.0, a1=1e-3, a2=2e-3)
        assert alpha == pytest.approx(1.0, rel=1e-12)

    def test_frozen_reference_value(self):
        alpha = expected_alpha_pdc(t1=0.25, t2=0.25, a1=1e-4, a2=1e-4)
        assert alpha == pytest.approx(0.0015981618569163353, rel=1e-12)

    def test_monotone_in_accidental_rates(self):
        base = dict(t1=0.25, t2=0.25, a1=1e-4, a2=1e-4)
        lo = expected_alpha_pdc(**base)
        hi1 = expected_alpha_pdc(**{**base, "a1": 5e-4})
        hi2 = expected_alpha_pdc(**{**base, "a2": 5e-4})
        assert lo < hi1 and lo < hi2

    def test_small_accidentals_alpha_small(self):
        assert expected_alpha_pdc(t1=0.25, t2=0.25, a1=1e-5, a2=1e-5) < 0.01

    def test_per_gate_monte_carlo_agreement(self):
        # independent per-gate simulation of the same probabilistic model
        rng = np.random.default_rng(123)
        n = 2_000_000
        t1 = t2 = 0.25
        a1 = a2 = 1e-3  # raised so the MC sees enough coincidences
        side = rng.random(n) < 0.5  # partner path choice
        acc1 = rng.random(n) < -np.expm1(-a1)
        acc2 = rng.random(n) < -np.expm1(-a2)
        true1 = rng.random(n) < t1
        true2 = rng.random(n) < t2
        fire1 = np.where(side, true1 | acc1, acc1)
        fire2 = np.where(side, acc2, true2 | acc2)
        n1, n2 = fire1.sum(), fire2.sum()
        nc = (fire1 & fire2).sum()
        alpha_mc = nc * n / (n1 * n2)
        est = alpha_estimate(CountSummary(n, int(n1), int(n2), int(nc)))
        expected = expected_alpha_pdc(t1=t1, t2=t2, a1=a1, a2=a2)
        assert abs(alpha_mc - expected) < 3 * est.sigma

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            expected_alpha_pdc(t1=-0.1, t2=0.5, a1=0, a2=0)
        with pytest.raises(ValueError):
            expected_alpha_pdc(t1=0.5, t2=1.5, a1=0, a2=0)
        with pytest.raises(ValueError):
            expected_alpha_pdc(t1=0.5, t2=0.5, a1=-1e-4, a2=0)
        with pytest.raises(ValueError):
            expected_alpha_pdc(t1=0.5, t2=0.5, a1=0, a2=math.inf)


class TestThermalOracle:
    @pytest.mark.parametrize("x", [0.01, 0.1, 0.3, 0.5, 0.9, 1.0])
    def test_closed_form_below_tau(self, x):
        # window shorter than one coherence block: alpha = 2 - x/3
        tau = 10**6
        w = int(round(x * tau))
        got = expected_alpha_thermal_shared(window_ps=w, coherence_time_ps=tau)
        assert got == pytest.approx(2 - (w / tau) / 3, rel=1e-4)

    def test_window_equal_tau(self):
        got = expected_alpha_thermal_shared(window_ps=10**6, coherence_time_ps=10**6)
        assert got == pytest.approx(5 / 3, rel=1e-4)

    def test_long_window_approaches_one(self):
        got = expected_alpha_thermal_shared(window_ps=10**8, coherence_time_ps=10**6)
        assert got == pytest.approx(1.0099, abs=2e-3)

    def test_short_window_approaches_two(self):
        got = expected_alpha_thermal_shared(window_ps=100, coherence_time_ps=10**7)
        assert got == pytest.approx(2.0, abs=1e-4)

    def test_brute_force_overlap_integral(self):
        # independent check: place the window uniformly over block phase u,
        # accumulate sum of squared overlap lengths with each block
        w, tau = 2_700_000, 1_000_000
        got = expected_alpha_thermal_shared(window_ps=w, coherence_time_ps=tau)

        def sum_sq(u):
            total, s = 0.0, -u
            while s < w:
                e = min(s + tau, w)
                total += (e - max(s, 0.0)) ** 2
                s += tau
            return total

        val, _ = integrate.quad(lambda u: sum_sq(u) / tau, 0, tau, limit=200)
        assert got == pytest.approx(1 + val / w**2, rel=1e-6)

    def test_monotone_decreasing_in_window(self):
        tau = 10**6
        vals = [
            expected_alpha_thermal_shared(window_ps=w, coherence_time_ps=tau)
            for w in (10**4, 10**5, 10**6, 10**7)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestClassicalWaveOracle:
    def test_constant_intensity_is_one(self):
        cfg = ClassicalWaveConfig(herald_rate_hz=1e4, per_gate_intensity_mean=0.05)
        assert expected_alpha_classical_wave(cfg) == 1.0

    def test_exponential_intensity_is_two(self):
        cfg = ClassicalWaveConfig(
            herald_rate_hz=1e4,
            per_gate_intensity_mean=0.05,
            intensity_law=IntensityLaw.EXPONENTIAL,
        )
        assert expected_alpha_classical_wave(cfg) == 2.0

    def test_exponential_second_moment_by_quadrature(self):
        # E[I^2]/E[I]^2 for an exponential law, computed numerically
        mean = 0.05
        num, _ = integrate.quad(lambda x: x**2 * math.exp(-x / mean) / mean, 0, np.inf)
        assert num / mean**2 == pytest.approx(2.0, rel=1e-9)


class TestCrossChecks:
    def test_alpha_one_sits_between_pdc_and_thermal(self):
        pdc = expected_alpha_pdc(t1=0.25, t2=0.25, a1=1e-4, a2=1e-4)
        th = expected_alpha_thermal_shared(window_ps=7000, coherence_time_ps=700_000)
        assert pdc < 1.0 < th
