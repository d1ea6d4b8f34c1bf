import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from coincsim import gating
from coincsim.errors import ConfigError
from coincsim.gating import make_gates_periodic
from coincsim.sources import (
    Arm,
    ArrivalStream,
    ClassicalWaveConfig,
    CoherentSourceConfig,
    IntensityLaw,
    PdcSourceConfig,
    ThermalSourceConfig,
    gen_classical_wave_gates,
    gen_pdc_pairs,
    gen_poisson_arrivals,
    gen_thermal_arrivals,
    project_idler_path,
)
from coincsim.sources import _below, _compress, _jittered

from stat_helpers import assert_canonical, poisson_chisq_pvalue

MS = 10**9  # 1 ms in ps


class TestPoissonArrivals:
    def test_zero_rate_empty(self):
        s = gen_poisson_arrivals(0.0, MS, Arm.BEAM1, seed=1)
        assert len(s) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            gen_poisson_arrivals(-1.0, MS, Arm.BEAM1, seed=1)

    def test_deterministic(self):
        a = gen_poisson_arrivals(1e6, MS, Arm.BEAM1, seed=7)
        b = gen_poisson_arrivals(1e6, MS, Arm.BEAM1, seed=7)
        assert a == b
        assert a != gen_poisson_arrivals(1e6, MS, Arm.BEAM1, seed=8)

    def test_output_is_valid_stream(self):
        s = gen_poisson_arrivals(2e6, MS, Arm.BEAM2, seed=3)
        assert_canonical(s)
        assert s.select_arm(Arm.BEAM2) == s

    def test_count_within_5_sigma(self):
        # mean 10^3 over 1 ms at 1 MHz; sigma = sqrt(1000)
        s = gen_poisson_arrivals(1e6, MS, Arm.BEAM1, seed=11)
        assert abs(len(s) - 1000) < 5 * np.sqrt(1000)

    def test_mean_count_over_seeds(self):
        counts = [len(gen_poisson_arrivals(1e6, MS, Arm.BEAM1, seed=s)) for s in range(100)]
        # combined sigma of the mean of 100 Poisson(1000) draws
        assert abs(np.mean(counts) - 1000) < 3 * np.sqrt(1000 / 100)

    def test_counts_pass_poisson_chi_square(self):
        counts = np.array(
            [len(gen_poisson_arrivals(4e3, MS, Arm.BEAM1, seed=s)) for s in range(400)]
        )
        assert poisson_chisq_pvalue(counts, 4.0) > 1e-3

    def test_positions_uniform(self):
        # conditional on the count, arrival times are uniform on the interval
        pooled = np.concatenate(
            [gen_poisson_arrivals(5e4, MS, Arm.BEAM1, seed=s).times for s in range(40)]
        )
        p = stats.kstest(pooled / MS, "uniform").pvalue
        assert p > 1e-3


class TestPdcPairs:
    def test_zero_rate_both_empty(self):
        trig, idl = gen_pdc_pairs(PdcSourceConfig(pair_rate_hz=0.0), MS, seed=1)
        assert len(trig) == 0 and len(idl) == 0

    def test_counts_always_equal(self):
        trig, idl = gen_pdc_pairs(PdcSourceConfig(pair_rate_hz=3e5), MS, seed=5)
        assert len(trig) == len(idl)

    def test_times_identical_without_jitter(self):
        trig, idl = gen_pdc_pairs(PdcSourceConfig(pair_rate_hz=3e5), MS, seed=5)
        assert np.array_equal(trig.times, idl.times)
        # one read-only array serves both arms
        assert idl.times is trig.times and not trig.times.flags.writeable
        assert trig.select_arm(Arm.TRIGGER_ARM) == trig
        assert idl.select_arm(Arm.IDLER_UNDECIDED) == idl

    def test_count_within_5_sigma(self):
        trig, _ = gen_pdc_pairs(PdcSourceConfig(pair_rate_hz=1e7), MS, seed=2)
        assert abs(len(trig) - 1e4) < 5 * 100

    def test_streams_valid(self):
        trig, idl = gen_pdc_pairs(PdcSourceConfig(pair_rate_hz=1e6), MS, seed=9)
        assert_canonical(trig)
        assert_canonical(idl)

    def test_jitter_preserves_count_and_order(self):
        cfg = PdcSourceConfig(pair_rate_hz=1e5, pair_jitter_ps=200.0)
        trig, idl = gen_pdc_pairs(cfg, MS, seed=4)
        assert len(trig) == len(idl)
        assert_canonical(idl)
        # every idler lies within 8 sigma of some trigger time
        pos = np.searchsorted(trig.times, idl.times)
        left = trig.times[np.clip(pos - 1, 0, len(trig) - 1)]
        right = trig.times[np.clip(pos, 0, len(trig) - 1)]
        nearest = np.minimum(np.abs(idl.times - left), np.abs(idl.times - right))
        assert nearest.max() <= 8 * 200

    def test_huge_jitter_clamps_to_the_edges(self):
        # offsets far past int64 range must not wrap the idler times
        cfg = PdcSourceConfig(pair_rate_hz=1e6, pair_jitter_ps=1e30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trig, idl = gen_pdc_pairs(cfg, MS, seed=4)
        assert len(idl) == len(trig) > 0
        assert set(np.unique(idl.times).tolist()) <= {0, MS - 1}

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            PdcSourceConfig(pair_rate_hz=-5.0)
        with pytest.raises(ConfigError):
            PdcSourceConfig(pair_rate_hz=1e4, pair_jitter_ps=-1.0)


@pytest.mark.parametrize("chunk", [7, gating.GATE_CHUNK])
@pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 29])
class TestChunkedDraws:
    """Draws made a chunk at a time equal the one-shot draws they replace.

    No shipped config has jitter, so no golden covers the jitter paths; these
    keep them identical.
    """

    def test_thinning_is_the_one_shot_mask(self, n, chunk, monkeypatch):
        monkeypatch.setattr(gating, "GATE_CHUNK", chunk)
        for p in (0.0, 0.3, 0.5, 1.0):
            got = _below(np.random.default_rng(11), n, p)
            assert got.dtype == bool
            assert np.array_equal(got, np.random.default_rng(11).random(n) < p)

    def test_chunked_compress_is_compress(self, n, chunk, monkeypatch):
        monkeypatch.setattr(gating, "GATE_CHUNK", chunk)
        times = np.arange(n, dtype=np.int64) * 3
        for mask in (np.random.default_rng(n).random(n) < 0.5, np.ones(n, bool), np.zeros(n, bool)):
            assert np.array_equal(_compress(times, mask), times.compress(mask))

    @pytest.mark.parametrize("sigma", [40.0, 1e30])
    def test_jitter_is_the_one_shot_formula(self, n, chunk, sigma, monkeypatch):
        monkeypatch.setattr(gating, "GATE_CHUNK", chunk)
        times = np.sort(np.random.default_rng(n).integers(0, MS, n))
        got = _jittered(12, times, sigma, MS)
        offsets = np.rint(np.random.default_rng(12).normal(0.0, sigma, size=n))
        np.clip(offsets, -MS, MS, out=offsets)
        expected = np.clip(times + offsets.astype(np.int64), 0, MS - 1)
        expected.sort()
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        if sigma == 1e30:
            assert set(got.tolist()) <= {0, MS - 1}


class TestProjectIdlerPath:
    def make_idler(self, n, seed=0):
        return gen_pdc_pairs(PdcSourceConfig(pair_rate_hz=n * 1e3), MS, seed=seed)[1]

    def test_empty_input(self):
        _, idl = gen_pdc_pairs(PdcSourceConfig(pair_rate_hz=0.0), MS, seed=1)
        out = project_idler_path(idl, seed=2)
        assert len(out) == 0

    def test_partition_is_exclusive_and_complete(self):
        idl = self.make_idler(1000, seed=3)
        out = project_idler_path(idl, seed=2)
        n1 = len(out.select_arm(Arm.IDLER_PATH1))
        n2 = len(out.select_arm(Arm.IDLER_PATH2))
        assert n1 + n2 == len(idl) == len(out)
        both = np.concatenate(list(out.times_by_key.values()))
        assert np.array_equal(np.sort(both), idl.times)
        # exclusivity: no timestamp on both paths (times are distinct here)
        t1 = set(out.select_arm(Arm.IDLER_PATH1).times.tolist())
        t2 = set(out.select_arm(Arm.IDLER_PATH2).times.tolist())
        assert not (t1 & t2)

    def test_balanced_split_within_5_sigma(self):
        idl = self.make_idler(10**6, seed=8)
        out = project_idler_path(idl, seed=5)
        n = len(out)
        frac = len(out.select_arm(Arm.IDLER_PATH1)) / n
        assert abs(frac - 0.5) < 5 * 0.5 / np.sqrt(n)

    def test_deterministic(self):
        idl = self.make_idler(1000, seed=3)
        assert project_idler_path(idl, seed=6) == project_idler_path(idl, seed=6)

    def test_output_valid(self):
        idl = self.make_idler(5000, seed=3)
        assert_canonical(project_idler_path(idl, seed=6))

    def test_paths_are_the_masked_draw_with_ties(self):
        # tied timestamps keep their order inside each path: each path is the
        # idler times under the splitter draw's mask, with no re-sort
        times = np.repeat(np.arange(0, MS, MS // 500, dtype=np.int64), 3)
        idl = ArrivalStream(MS, {Arm.IDLER_UNDECIDED: times})
        mask = np.random.default_rng(6).random(len(times)) < 0.5
        out = project_idler_path(idl, seed=6)
        assert np.array_equal(out.select_arm(Arm.IDLER_PATH1).times, idl.times[mask])
        assert np.array_equal(out.select_arm(Arm.IDLER_PATH2).times, idl.times[~mask])


class TestThermalArrivals:
    def test_zero_rate_empty(self):
        cfg = ThermalSourceConfig(mean_rate_hz=0.0, coherence_time_ps=10**5)
        assert len(gen_thermal_arrivals(cfg, MS, seed=1)) == 0

    def test_shared_mode_arms_are_positively_correlated(self):
        cfg = ThermalSourceConfig(
            mean_rate_hz=4e6,
            coherence_time_ps=MS // 10,
        )
        out = gen_thermal_arrivals(cfg, 100 * MS, seed=42)
        edges = np.arange(0, 100 * MS + 1, MS // 10)
        c1 = np.histogram(out.select_arm(Arm.BEAM1).times, bins=edges)[0]
        c2 = np.histogram(out.select_arm(Arm.BEAM2).times, bins=edges)[0]
        r = np.corrcoef(c1, c2)[0, 1]
        assert r > 0.5  # common exponential intensity dominates

    def test_shared_mode_bunching_fano_factor(self):
        # per coherence block, counts are Poisson mixed over an exponential
        # intensity: Fano factor = 1 + mean, here 1 + 1 = 2
        tau = 10**6
        cfg = ThermalSourceConfig(
            mean_rate_hz=1e6,
            coherence_time_ps=tau,
            splitting_ratio=0.5,
        )
        out = gen_thermal_arrivals(cfg, 10**10, seed=7)
        both = np.concatenate(list(out.times_by_key.values()))
        counts = np.bincount(both // tau, minlength=10**10 // tau)
        fano = counts.var() / counts.mean()
        assert 1.6 < fano < 2.4

    def test_shared_mode_total_rate(self):
        cfg = ThermalSourceConfig(mean_rate_hz=1e6, coherence_time_ps=10**5)
        counts = [len(gen_thermal_arrivals(cfg, MS, seed=s)) for s in range(100)]
        # variance per draw = mu + sum(block_mean^2) = 1000 + 10^4*(0.1)^2 = 1100
        assert abs(np.mean(counts) - 1000) < 4 * np.sqrt(1100 / 100)

    def test_shared_mode_split_ratio(self):
        cfg = ThermalSourceConfig(
            mean_rate_hz=2e6,
            coherence_time_ps=10**5,
            splitting_ratio=0.25,
        )
        out = gen_thermal_arrivals(cfg, 10 * MS, seed=3)
        frac = len(out.select_arm(Arm.BEAM1)) / len(out)
        assert abs(frac - 0.25) < 5 * 0.5 / np.sqrt(len(out))

    def test_streams_valid(self):
        # gates of 300 ns every 1 us straddle the 100 ns coherence blocks
        gates = make_gates_periodic(1e6, MS, 300_000)
        cfg = ThermalSourceConfig(mean_rate_hz=1e6, coherence_time_ps=10**5)
        for where in (None, gates):
            out = gen_thermal_arrivals(cfg, MS, seed=2, gates=where)
            assert list(out.times_by_key) == [Arm.BEAM1, Arm.BEAM2]
            assert_canonical(out)

    def test_len_sums_the_arms(self):
        cfg = ThermalSourceConfig(mean_rate_hz=1e6, coherence_time_ps=10**5)
        out = gen_thermal_arrivals(cfg, MS, seed=2)
        b1, b2 = out.select_arm(Arm.BEAM1), out.select_arm(Arm.BEAM2)
        assert len(out) == len(b1) + len(b2) > len(b1) > 0
        assert np.array_equal(b1.times, out.times_by_key[Arm.BEAM1])

    def test_times_needs_one_arm(self):
        cfg = ThermalSourceConfig(mean_rate_hz=1e6, coherence_time_ps=10**5)
        out = gen_thermal_arrivals(cfg, MS, seed=2)
        with pytest.raises(ValueError, match="one-arm"):
            out.times

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="coherence_time_ps"):
            ThermalSourceConfig(mean_rate_hz=1e6, coherence_time_ps=0)
        with pytest.raises(ConfigError, match="splitting_ratio"):
            ThermalSourceConfig(mean_rate_hz=1e6, coherence_time_ps=100, splitting_ratio=1.5)


class TestClassicalWaveGates:
    def test_constant_intensity_exact(self):
        cfg = ClassicalWaveConfig(herald_rate_hz=1e4, per_gate_intensity_mean=0.06)
        p1, p2 = gen_classical_wave_gates(cfg, 100, seed=1)
        assert np.allclose(p1, 0.03) and np.allclose(p2, 0.03)

    def test_split_fraction_applied(self):
        cfg = ClassicalWaveConfig(
            herald_rate_hz=1e4, per_gate_intensity_mean=0.06, splitting_ratio=0.25
        )
        p1, p2 = gen_classical_wave_gates(cfg, 10, seed=1)
        assert np.allclose(p1, 0.015) and np.allclose(p2, 0.045)

    def test_exponential_moments(self):
        cfg = ClassicalWaveConfig(
            herald_rate_hz=1e4,
            per_gate_intensity_mean=0.05,
            intensity_law=IntensityLaw.EXPONENTIAL,
        )
        p1, p2 = gen_classical_wave_gates(cfg, 200_000, seed=2)
        intensity = p1 + p2
        assert abs(intensity.mean() - 0.05) < 5 * 0.05 / np.sqrt(200_000)
        # second moment of an exponential law: E[I^2] = 2 mean^2
        assert abs(np.mean(intensity**2) / 0.05**2 - 2.0) < 0.1

    def test_probabilities_stay_valid(self):
        cfg = ClassicalWaveConfig(
            herald_rate_hz=1e4,
            per_gate_intensity_mean=0.1,
            intensity_law=IntensityLaw.EXPONENTIAL,
        )
        p1, p2 = gen_classical_wave_gates(cfg, 500_000, seed=3)
        total = p1 + p2
        assert total.max() <= 1.0
        assert p1.min() >= 0 and p2.min() >= 0

    def test_linear_regime_cap_enforced(self):
        with pytest.raises(ConfigError, match="linear"):
            ClassicalWaveConfig(herald_rate_hz=1e4, per_gate_intensity_mean=0.2)

    def test_degenerate_split_rejected(self):
        for q in (0.0, 1.0):
            with pytest.raises(ConfigError):
                ClassicalWaveConfig(
                    herald_rate_hz=1e4, per_gate_intensity_mean=0.05, splitting_ratio=q
                )

    def test_deterministic(self):
        cfg = ClassicalWaveConfig(
            herald_rate_hz=1e4,
            per_gate_intensity_mean=0.05,
            intensity_law=IntensityLaw.EXPONENTIAL,
        )
        a = gen_classical_wave_gates(cfg, 1000, seed=9)
        b = gen_classical_wave_gates(cfg, 1000, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@given(
    rate=st.floats(0, 5e6),
    seed=st.integers(0, 2**32),
    arm=st.sampled_from(list(Arm)),
)
@settings(max_examples=30)
def test_poisson_generator_always_valid(rate, seed, arm):
    s = gen_poisson_arrivals(rate, 10**7, arm, seed)
    assert_canonical(s)
