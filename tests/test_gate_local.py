"""Gate-local generation: arrivals and dark counts placed only inside the gates.

Checks the segment geometry, that the one-segment case is the plain
whole-interval stream, and that gate-local runs are statistically
equivalent to whole-interval runs of the same experiment.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from coincsim.detectors import DetectorConfig, detect
from coincsim.errors import ConfigError
from coincsim.events import Channel, derive_seed
from coincsim.gating import GateList, count_gates, make_gates_periodic
from coincsim.scenario import _beam_segments, parse_config
from coincsim.sources import (
    Arm,
    Segments,
    ThermalMode,
    ThermalSourceConfig,
    gen_poisson_arrivals,
    gen_thermal_arrivals,
)

MS = 10**9


def in_segments(times, segments):
    i = np.searchsorted(segments.starts, times, side="right") - 1
    return (i >= 0) & (times < segments.starts[i] + segments.lengths[i])


class TestSegments:
    def test_whole_interval(self):
        seg = Segments.whole(MS)
        assert seg.is_whole and seg.covered_ps == MS
        offsets = np.array([0, 5, MS - 1], dtype=np.int64)
        assert seg.place(offsets) is offsets

    def test_from_gates_clips_last_gate(self):
        gates = GateList(window_ps=10, opens=np.array([0, 50, 95], dtype=np.int64))
        seg = Segments.from_gates(gates, 100)
        assert seg.lengths.tolist() == [10, 10, 5]
        assert seg.covered_ps == 25 and not seg.is_whole

    def test_place_is_a_bijection_onto_segment_ticks(self):
        seg = Segments(100, np.array([3, 20, 60]), np.array([4, 1, 7]))
        placed = seg.place(np.arange(seg.covered_ps, dtype=np.int64))
        expected = np.concatenate([np.arange(3, 7), [20], np.arange(60, 67)])
        np.testing.assert_array_equal(placed, expected)

    @pytest.mark.parametrize(
        "starts, lengths",
        [([0, 5], [6, 2]), ([5, 0], [1, 1]), ([0], [0]), ([95], [10]), ([-1], [2])],
    )
    def test_rejects_bad_segments(self, starts, lengths):
        with pytest.raises(ValueError):
            Segments(100, np.array(starts), np.array(lengths))


class TestGateLocalArrivals:
    gates = make_gates_periodic(1e6, MS, 100_000)
    seg = Segments.from_gates(gates, MS)

    def test_whole_segment_is_the_plain_stream(self):
        plain = gen_poisson_arrivals(3e6, MS, Arm.BEAM1, 11)
        explicit = gen_poisson_arrivals(3e6, MS, Arm.BEAM1, 11, Segments.whole(MS))
        assert plain == explicit and plain.unplaced == 0

    def test_placed_inside_and_total_kept(self):
        plain = gen_poisson_arrivals(3e6, MS, Arm.BEAM1, 11)
        local = gen_poisson_arrivals(3e6, MS, Arm.BEAM1, 11, self.seg)
        assert in_segments(local.times, self.seg).all()
        assert np.all(np.diff(local.times) >= 0)
        # the whole-acquisition total is the same first draw
        assert len(local) + local.unplaced == len(plain)

    def test_segments_must_span_duration(self):
        with pytest.raises(ConfigError):
            gen_poisson_arrivals(1e6, 2 * MS, Arm.BEAM1, 1, self.seg)

    @pytest.mark.parametrize("kwargs", [{"dead_time_ps": 10}, {"jitter_sigma_ps": 5.0}])
    def test_detector_with_memory_rejects_segments(self, kwargs):
        arrivals = gen_poisson_arrivals(1e6, MS, Arm.BEAM1, 1, self.seg)
        with pytest.raises(ConfigError):
            detect(arrivals, DetectorConfig(Channel.D1, **kwargs), 2)

    def test_dark_counts_placed_inside_and_counted_outside(self):
        arrivals = gen_poisson_arrivals(0.0, MS, Arm.BEAM1, 1, self.seg)
        det = DetectorConfig(Channel.D1, dark_rate_hz=2e6)
        local = detect(arrivals, det, 3)
        plain = detect(gen_poisson_arrivals(0.0, MS, Arm.BEAM1, 1), det, 3)
        assert in_segments(local.times, self.seg).all()
        assert len(local) + local.unplaced == len(plain)

    def test_independent_thermal_arms_are_the_thermal_substreams(self):
        # the scenario draws independent thermal arms as two Poisson beams
        # from the substreams gen_thermal_arrivals uses
        cfg = ThermalSourceConfig(mean_rate_hz=2e6, mode=ThermalMode.INDEPENDENT_ARMS)
        both = gen_thermal_arrivals(cfg, MS, 99)
        for arm, label in ((Arm.BEAM1, "beam1"), (Arm.BEAM2, "beam2")):
            beam = gen_poisson_arrivals(2e6, MS, arm, derive_seed(99, label))
            assert beam == both.select_arm(arm)


class TestSegmentChoice:
    base = parse_config(
        """
[source]
kind = coherent
mean_rate_hz = 2e6
[run]
window_ps = 7000
gate_rate_hz = 1e6
acquisition_duration_ps = 1000000000
"""
    )
    gates = make_gates_periodic(1e6, MS, 7000)

    def choose(self, **changes):
        cfg = dataclasses.replace(self.base, **changes)
        return _beam_segments(cfg, self.gates)

    def test_ideal_detectors_use_the_gates(self):
        assert self.choose() == Segments.from_gates(self.gates, MS)
        thermal = ThermalSourceConfig(mean_rate_hz=2e6)
        assert not self.choose(source=thermal).is_whole

    @pytest.mark.parametrize("kwargs", [{"dead_time_ps": 10}, {"jitter_sigma_ps": 5.0}])
    def test_detector_memory_falls_back_to_whole(self, kwargs):
        d2 = DetectorConfig(Channel.D2, **kwargs)
        assert self.choose(d2=d2).is_whole

    def test_shared_mode_uses_whole(self):
        shared = ThermalSourceConfig(
            mean_rate_hz=2e6, mode=ThermalMode.SHARED_SINGLE_MODE, coherence_time_ps=10_000
        )
        assert self.choose(source=shared).is_whole


# Statistical equivalence: 1 ms acquisitions, 1 MHz gates of 100 ns,
# efficiency < 1 and dark counts on both detectors.
RATE_HZ = 2e6
WINDOW_PS = 100_000
DETECTORS = (
    DetectorConfig(Channel.D1, efficiency=0.6, dark_rate_hz=5e4),
    DetectorConfig(Channel.D2, efficiency=0.45, dark_rate_hz=2e5),
)
N_SEEDS = 400


def ensemble(segments, gates, label):
    rows = []
    for s in range(N_SEEDS):
        events = [
            detect(
                gen_poisson_arrivals(RATE_HZ, MS, arm, derive_seed(label, s, arm.name), segments),
                det,
                derive_seed(label, s, det.channel.name),
            )
            for arm, det in zip((Arm.BEAM1, Arm.BEAM2), DETECTORS)
        ]
        c = count_gates(gates, *events)
        rows.append([c.n1, c.n2, c.nc] + [len(e) + e.unplaced for e in events])
    return np.array(rows)


COLUMNS = ["n1", "n2", "nc", "events1", "events2"]
EQUIV_GATES = make_gates_periodic(1e6, MS, WINDOW_PS)


@pytest.fixture(scope="module")
def samples():
    """(gate-local, whole-interval) ensembles, one row per seed."""
    local = ensemble(Segments.from_gates(EQUIV_GATES, MS), EQUIV_GATES, "local")
    return local, ensemble(Segments.whole(MS), EQUIV_GATES, "whole")


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("column", COLUMNS)
    def test_two_sample_distributions_agree(self, samples, column):
        local, whole = samples
        k = COLUMNS.index(column)
        result = stats.ks_2samp(local[:, k], whole[:, k])
        assert result.pvalue > 1e-3, (column, result)

    @pytest.mark.parametrize("channel", [0, 1])
    def test_per_gate_hit_rate(self, samples, channel):
        det = DETECTORS[channel]
        lam = det.efficiency * RATE_HZ + det.dark_rate_hz
        p = 1.0 - np.exp(-lam * WINDOW_PS * 1e-12)
        n = N_SEEDS * len(EQUIV_GATES)
        sd = np.sqrt(p * (1 - p) / n)
        for sample in samples:
            assert abs(sample[:, channel].sum() / n - p) < 5 * sd

    def test_event_totals_match_whole_acquisition_rate(self, samples):
        local, _ = samples
        for channel, det in enumerate(DETECTORS):
            mean = (det.efficiency * RATE_HZ + det.dark_rate_hz) * MS * 1e-12
            assert abs(local[:, 3 + channel].mean() - mean) < 5 * np.sqrt(mean / N_SEEDS)
