import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincsim.detectors import DetectorConfig, detect
from coincsim.errors import ConfigError
from coincsim.events import Channel, derive_seed
from coincsim.sources import Arm, ArrivalStream, gen_poisson_arrivals

from stat_helpers import assert_canonical, poisson_chisq_pvalue

MS = 10**9


def arrivals_at(times, duration_ps=MS):
    t = np.asarray(times, dtype=np.int64)
    return ArrivalStream(duration_ps=duration_ps, times_by_key={Arm.BEAM1: t})


class TestConfigValidation:
    def test_defaults_ok(self):
        cfg = DetectorConfig(channel=Channel.D1)
        assert cfg.efficiency == 1.0
        assert cfg.dead_time_ps == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"efficiency": -0.1},
            {"efficiency": 1.1},
            {"dark_rate_hz": -5.0},
            {"dead_time_ps": -1},
            {"jitter_sigma_ps": -2.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DetectorConfig(channel=Channel.D1, **kwargs)


class TestIdentityChain:
    def test_perfect_detector_passes_everything(self):
        src = gen_poisson_arrivals(1e6, MS, Arm.BEAM1, seed=3)
        out = detect(src, DetectorConfig(channel=Channel.D1), seed=1)
        assert np.array_equal(out.times, src.times)
        assert list(out.times_by_key) == [Channel.D1]
        assert out.duration_ps == src.duration_ps

    def test_channel_tagging(self):
        src = arrivals_at([10, 20])
        out = detect(src, DetectorConfig(channel=Channel.D2), seed=1)
        assert list(out.times_by_key) == [Channel.D2]


class TestEfficiency:
    def test_zero_efficiency_empty(self):
        src = gen_poisson_arrivals(1e6, MS, Arm.BEAM1, seed=3)
        out = detect(src, DetectorConfig(channel=Channel.D1, efficiency=0.0), seed=1)
        assert len(out) == 0

    def test_binomial_count_within_5_sigma(self):
        n = 10**6
        src = arrivals_at(np.arange(n) * 100, duration_ps=n * 100)
        out = detect(src, DetectorConfig(channel=Channel.D1, efficiency=0.5), seed=9)
        sigma = np.sqrt(n * 0.25)
        assert abs(len(out) - n / 2) < 5 * sigma

    def test_kept_times_are_a_subset(self):
        src = gen_poisson_arrivals(1e5, MS, Arm.BEAM1, seed=4)
        out = detect(src, DetectorConfig(channel=Channel.D1, efficiency=0.3), seed=9)
        assert set(out.times.tolist()) <= set(src.times.tolist())

    def test_kept_times_are_the_masked_draw_with_ties(self):
        # tied timestamps keep their order: the kept times are the arrivals
        # under the mask of the "thin" substream's uniform draw, with no re-sort
        times = np.repeat(np.arange(0, MS, MS // 500, dtype=np.int64), 3)
        out = detect(arrivals_at(times), DetectorConfig(channel=Channel.D1, efficiency=0.4), seed=9)
        u = np.random.default_rng(derive_seed(9, "thin")).random(len(times))
        assert np.array_equal(out.times, times[u < 0.4])

    def test_thinning_is_monotone_in_efficiency(self):
        # same seed: raising the efficiency can only add events, never swap
        src = gen_poisson_arrivals(1e5, MS, Arm.BEAM1, seed=4)
        lo = detect(src, DetectorConfig(channel=Channel.D1, efficiency=0.3), seed=9)
        hi = detect(src, DetectorConfig(channel=Channel.D1, efficiency=0.6), seed=9)
        assert set(lo.times.tolist()) <= set(hi.times.tolist())


class TestDarkCounts:
    def test_dark_only_chi_square(self):
        src = arrivals_at([])
        cfg = DetectorConfig(channel=Channel.D1, dark_rate_hz=5e3)
        counts = np.array([len(detect(src, cfg, seed=s)) for s in range(400)])
        assert poisson_chisq_pvalue(counts, 5.0) > 1e-3

    def test_dark_merge_keeps_signal(self):
        src = arrivals_at([100, 200, 300])
        cfg = DetectorConfig(channel=Channel.D1, dark_rate_hz=1e6)
        out = detect(src, cfg, seed=2)
        assert {100, 200, 300} <= set(out.times.tolist())
        assert_canonical(out)


class TestJitter:
    def test_count_preserved_and_sorted(self):
        src = gen_poisson_arrivals(1e5, MS, Arm.BEAM1, seed=4)
        cfg = DetectorConfig(channel=Channel.D1, jitter_sigma_ps=300.0)
        out = detect(src, cfg, seed=2)
        assert len(out) == len(src)
        assert_canonical(out)

    def test_displacement_scale(self):
        n = 10**5
        src = arrivals_at(np.arange(n) * 10**6 + 10**5, duration_ps=n * 10**6 + 10**6)
        cfg = DetectorConfig(channel=Channel.D1, jitter_sigma_ps=250.0)
        out = detect(src, cfg, seed=5)
        d = out.times - src.times  # spacing is huge, so order is kept
        assert abs(d.mean()) < 5 * 250 / np.sqrt(n)
        assert abs(d.std() - 250) < 10

    def test_clamped_to_duration(self):
        src = arrivals_at([5, MS - 5])
        cfg = DetectorConfig(channel=Channel.D1, jitter_sigma_ps=1e4)
        for s in range(50):
            out = detect(src, cfg, seed=s)
            assert_canonical(out)

    def test_huge_jitter_clamps_to_the_edges(self):
        # offsets far past int64 range must not wrap the detected times
        src = gen_poisson_arrivals(1e6, MS, Arm.BEAM1, seed=4)
        cfg = DetectorConfig(channel=Channel.D1, jitter_sigma_ps=1e30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = detect(src, cfg, seed=2)
        assert len(out) == len(src) > 0
        assert set(np.unique(out.times).tolist()) <= {0, MS - 1}


class TestDeadTime:
    def test_separations_respect_dead_time(self):
        src = gen_poisson_arrivals(5e6, MS, Arm.BEAM1, seed=8)
        cfg = DetectorConfig(channel=Channel.D1, dead_time_ps=1000)
        out = detect(src, cfg, seed=1)
        assert len(out) > 0
        assert np.diff(out.times).min() >= 1000

    def test_nonparalyzable_example(self):
        # arrivals 0,3,6,14 with dead time 7: 0 kept, 3 and 6 blocked,
        # 14 kept (recovery at 7 <= 14)
        src = arrivals_at([0, 3, 6, 14])
        cfg = DetectorConfig(channel=Channel.D1, dead_time_ps=7)
        out = detect(src, cfg, seed=1)
        assert out.times.tolist() == [0, 14]

    def test_dead_time_applies_after_dark_merge(self):
        # a dark count inside the dead window of a signal event must not
        # itself extend blocking beyond the non-paralyzable rule
        src = arrivals_at(np.arange(100) * 10**4)
        cfg = DetectorConfig(channel=Channel.D1, dark_rate_hz=1e8, dead_time_ps=2000)
        out = detect(src, cfg, seed=3)
        assert np.diff(out.times).min() >= 2000


@given(
    rate=st.floats(0, 2e6),
    eff=st.floats(0, 1),
    dark=st.floats(0, 1e5),
    dead=st.integers(0, 10**5),
    jitter=st.floats(0, 1e3),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40)
def test_detector_output_always_valid(rate, eff, dark, dead, jitter, seed):
    src = gen_poisson_arrivals(rate, 10**8, Arm.BEAM1, seed=seed)
    cfg = DetectorConfig(
        channel=Channel.D1,
        efficiency=eff,
        dark_rate_hz=dark,
        dead_time_ps=dead,
        jitter_sigma_ps=jitter,
    )
    out = detect(src, cfg, seed=seed + 1)
    assert_canonical(out)
    if dead > 0 and len(out) > 1:
        assert np.diff(out.times).min() >= dead
