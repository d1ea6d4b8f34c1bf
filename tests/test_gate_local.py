"""Gate-local generation: arrivals and dark counts placed only inside the gates.

Checks where arrivals are placed in the gates, that no gates is the plain
whole-interval stream, and that gate-local runs are statistically
equivalent to whole-interval runs of the same experiment, for Poisson beams
and for shared-mode thermal light.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from coincsim import sources
from coincsim.detectors import DetectorConfig, detect
from coincsim.errors import ConfigError
from coincsim.events import Channel, derive_seed
from coincsim.gating import GateList, count_gates, make_gates_periodic
from coincsim.scenario import _beam_segments, parse_config
from coincsim.sources import (
    Arm,
    ThermalSourceConfig,
    _blocked_rate_times,
    _poisson_times,
    gen_poisson_arrivals,
    gen_thermal_arrivals,
)

MS = 10**9


def in_gates(times, gates):
    i = np.searchsorted(gates.opens, times, side="right") - 1
    return (i >= 0) & (times < gates.opens[i] + gates.window_ps)


class OneArrivalPerTick:
    """Stands in for the generator: draws one arrival on every covered tick.

    The total drawn is the whole interval's tick count, so the binomial's
    mean is the covered tick count, which it returns.
    """

    def __init__(self, duration_ps):
        self.duration_ps = self.covered = duration_ps

    def poisson(self, mean):
        return self.duration_ps

    def binomial(self, n, p):
        self.covered = round(n * p)
        return self.covered

    def integers(self, low, high, size, dtype):
        assert (low, high, size) == (0, self.covered, self.covered)
        return np.arange(high, dtype=dtype)[::-1].copy()


def place_every_tick(duration_ps, gates):
    """(placed times, unplaced count) with one arrival on every covered tick."""
    return _poisson_times(OneArrivalPerTick(duration_ps), 1.0, duration_ps, gates)


class TestGatePlacement:
    def test_no_gates_is_the_whole_interval(self):
        times, unplaced = place_every_tick(100, None)
        np.testing.assert_array_equal(times, np.arange(100))
        assert unplaced == 0

    def test_covers_the_gates_and_clips_last_gate(self):
        gates = GateList(window_ps=10, opens=np.array([0, 50, 95], dtype=np.int64))
        times, unplaced = place_every_tick(100, gates)
        expected = np.concatenate([np.arange(0, 10), np.arange(50, 60), np.arange(95, 100)])
        np.testing.assert_array_equal(times, expected)
        assert unplaced == 75

    def test_place_is_a_bijection_onto_gate_ticks(self):
        gates = GateList(window_ps=4, opens=np.array([3, 20, 60], dtype=np.int64))
        times, unplaced = place_every_tick(100, gates)
        expected = np.concatenate([np.arange(3, 7), np.arange(20, 24), np.arange(60, 64)])
        np.testing.assert_array_equal(times, expected)
        assert unplaced == 88

    @pytest.mark.parametrize(
        "window, opens",
        [(6, [0, 5]), (1, [5, 0]), (0, [0]), (10, [100]), (2, [-1]), (10, [150])],
        ids=["overlapping", "unsorted", "empty", "open_at_end", "negative_open", "open_past_end"],
    )
    def test_rejects_bad_gates(self, window, opens):
        with pytest.raises(ConfigError):
            gates = GateList(window_ps=window, opens=np.array(opens, dtype=np.int64))
            gen_poisson_arrivals(1e9, 100, Arm.BEAM1, 1, gates)


class TestGateLocalArrivals:
    gates = make_gates_periodic(1e6, MS, 100_000)

    def test_whole_segment_is_the_plain_stream(self):
        plain = gen_poisson_arrivals(3e6, MS, Arm.BEAM1, 11)
        explicit = gen_poisson_arrivals(3e6, MS, Arm.BEAM1, 11, None)
        assert plain == explicit and plain.unplaced == 0 and plain.gates is None

    def test_placed_inside_and_total_kept(self):
        plain = gen_poisson_arrivals(3e6, MS, Arm.BEAM1, 11)
        local = gen_poisson_arrivals(3e6, MS, Arm.BEAM1, 11, self.gates)
        assert in_gates(local.times, self.gates).all()
        assert np.all(np.diff(local.times) >= 0)
        # the whole-acquisition total is the same first draw
        assert len(local) + local.unplaced == len(plain)

    def test_segments_must_span_duration(self):
        # the gates must open inside the stream's interval
        with pytest.raises(ConfigError):
            gen_poisson_arrivals(1e6, MS // 2, Arm.BEAM1, 1, self.gates)

    @pytest.mark.parametrize("kwargs", [{"dead_time_ps": 10}, {"jitter_sigma_ps": 5.0}])
    def test_detector_with_memory_rejects_segments(self, kwargs):
        arrivals = gen_poisson_arrivals(1e6, MS, Arm.BEAM1, 1, self.gates)
        with pytest.raises(ConfigError):
            detect(arrivals, DetectorConfig(Channel.D1, **kwargs), 2)

    def test_dark_counts_placed_inside_and_counted_outside(self):
        arrivals = gen_poisson_arrivals(0.0, MS, Arm.BEAM1, 1, self.gates)
        det = DetectorConfig(Channel.D1, dark_rate_hz=2e6)
        local = detect(arrivals, det, 3)
        plain = detect(gen_poisson_arrivals(0.0, MS, Arm.BEAM1, 1), det, 3)
        assert in_gates(local.times, self.gates).all()
        assert len(local) + local.unplaced == len(plain)

    def test_each_arm_keeps_its_unplaced_count(self):
        cfg = ThermalSourceConfig(mean_rate_hz=2e6, coherence_time_ps=10_000)
        both = gen_thermal_arrivals(cfg, MS, 99, self.gates)
        unplaced = [both.select_arm(arm).unplaced for arm in (Arm.BEAM1, Arm.BEAM2)]
        assert unplaced == [both.unplaced_by_key[arm] for arm in (Arm.BEAM1, Arm.BEAM2)]
        assert both.unplaced == sum(unplaced) > 0


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
        assert self.choose() is self.gates
        thermal = ThermalSourceConfig(mean_rate_hz=2e6, coherence_time_ps=10_000)
        assert self.choose(source=thermal) is self.gates

    @pytest.mark.parametrize("kwargs", [{"dead_time_ps": 10}, {"jitter_sigma_ps": 5.0}])
    def test_detector_memory_falls_back_to_whole(self, kwargs):
        d2 = DetectorConfig(Channel.D2, **kwargs)
        assert self.choose(d2=d2) is None

    @pytest.mark.parametrize(
        "kwargs, expected",
        [({}, "gates"), ({"dead_time_ps": 10}, None), ({"jitter_sigma_ps": 5.0}, None)],
        ids=["ideal", "dead_time", "jitter"],
    )
    def test_shared_mode_uses_the_gates(self, kwargs, expected):
        shared = ThermalSourceConfig(mean_rate_hz=2e6, coherence_time_ps=10_000)
        chosen = self.choose(source=shared, d1=DetectorConfig(Channel.D1, **kwargs))
        assert chosen is (self.gates if expected == "gates" else None)


class TickMidpoints:
    """Stands in for the generator: one arrival in the middle of every gate tick.

    ``fractions`` are the tick midpoints in units of the in-gate mean.  The
    first Poisson draw (inside the gates) returns their number, the second
    (outside) none; the means asked for are kept in ``means``.
    """

    def __init__(self, fractions):
        self.fractions = fractions
        self.means = []

    def poisson(self, mean):
        self.means.append(mean)
        return len(self.fractions) if len(self.means) == 1 else 0

    def random(self, n):
        assert n == len(self.fractions)
        return self.fractions.copy()


# Ten 10 ps blocks of different rates (per ps), the last one cut to 5 ps.
TAU, DURATION = 10, 95
BLOCK_RATE = np.array([1.0, 0.25, 2.0, 0.5, 3.0, 1.5, 0.75, 2.5, 1.25, 4.0])


def gate_ticks(gates):
    if gates is None:
        return np.arange(DURATION)
    return np.concatenate(
        [np.arange(o, min(o + gates.window_ps, DURATION)) for o in gates.opens.tolist()]
    )


class TestBlockedRatePlacement:
    @pytest.mark.parametrize(
        "window, opens",
        [(None, None), (4, [0, 8, 33, 92]), (25, [2, 40, 80])],
        ids=[
            "whole_interval_is_the_blocks",
            "straddling_gate_and_clipped_last_gate",
            "gates_spanning_several_blocks",
        ],
    )
    def test_pieces_tile_the_gates(self, window, opens):
        gates = None if window is None else GateList(window, np.array(opens, dtype=np.int64))
        ticks = gate_ticks(gates)
        tick_mean = BLOCK_RATE[ticks // TAU]
        inside = tick_mean.sum()
        rng = TickMidpoints((np.cumsum(tick_mean) - tick_mean / 2) / inside)
        ((times, unplaced),) = _blocked_rate_times([rng], (1.0,), BLOCK_RATE, TAU, DURATION, gates)
        # each tick of each gate once, in time order, and nothing else
        np.testing.assert_array_equal(times, ticks)
        assert unplaced == 0
        assert rng.means[0] == pytest.approx(inside)
        whole = BLOCK_RATE[np.arange(DURATION) // TAU].sum()
        outside = rng.means[1] if len(rng.means) > 1 else 0.0
        assert outside == pytest.approx(whole - inside)


# 100 us of shared-mode light on 101 gates of 100 ns every 997 ns, or on the
# whole interval, in chunks of 7 gates against the default chunk size.
CHUNK_US = 100 * 10**6
CHUNK_GATES = make_gates_periodic(1e12 / 997_000, CHUNK_US, 100_000)
CHUNK_CASES = {
    # 1 us blocks: most gates inside one block, ~10% straddling an edge
    "inside_and_straddling": (1_000_000, CHUNK_GATES),
    # 20 ns blocks: every gate spans five or six blocks
    "multi_block": (20_000, CHUNK_GATES),
    # one more gate, clipped at the end of the interval
    "clipped_last_gate": (
        1_000_000,
        GateList(100_000, np.append(CHUNK_GATES.opens, CHUNK_US - 30_000)),
    ),
    # the whole interval: one gate, fewer than any chunk
    "whole_interval": (1_000_000, None),
}


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_chunk_size_changes_no_bit(case, monkeypatch):
    tau, gates = CHUNK_CASES[case]
    cfg = ThermalSourceConfig(mean_rate_hz=2e8, coherence_time_ps=tau)
    default = gen_thermal_arrivals(cfg, CHUNK_US, 7, gates)
    monkeypatch.setattr(sources, "_GATE_CHUNK", 7)
    small = gen_thermal_arrivals(cfg, CHUNK_US, 7, gates)
    assert len(default) > 1000
    assert small == default
    assert small.unplaced_by_key == default.unplaced_by_key


@pytest.mark.parametrize("chunk", [7, sources._GATE_CHUNK])
@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_gate_means_match_block_overlaps(case, chunk, monkeypatch):
    """Every gate's mean, the clipped last one too, is the Python sum of rate x overlap."""
    tau, gates = CHUNK_CASES[case]
    lo, window = np.zeros(1, np.int64), CHUNK_US
    if gates is not None:
        lo, window = gates.opens, gates.window_ps
    n_blocks = -(-CHUNK_US // tau)
    rate = np.random.default_rng(11).standard_exponential(n_blocks) * 2e-4
    edges = np.minimum(np.arange(n_blocks + 1) * tau, CHUNK_US)
    monkeypatch.setattr(sources, "_GATE_CHUNK", chunk)
    gate_cum = sources._gate_cum(lo, window, rate, tau, CHUNK_US)
    means = np.diff(gate_cum, prepend=0.0)

    expected = []
    for o in lo.tolist():
        c = min(o + window, CHUNK_US)
        blocks = range(o // tau, (c - 1) // tau + 1)
        expected.append(sum(rate[k] * (min(c, edges[k + 1]) - max(o, edges[k])) for k in blocks))
    np.testing.assert_allclose(means, expected, rtol=1e-12, atol=0)
    assert gate_cum[-1] == pytest.approx(sum(expected), rel=1e-12)


@pytest.mark.parametrize("case", ["inside_and_straddling", "multi_block", "whole_interval"])
def test_placed_in_the_gates_and_lit_blocks_only(case):
    """With every other block dark, each arrival lies in its gate and in a lit block."""
    tau, gates = CHUNK_CASES[case]
    n_blocks = -(-CHUNK_US // tau)
    rate = np.random.default_rng(3).standard_exponential(n_blocks) * 1e-3
    rate[1::2] = 0.0
    rng = np.random.default_rng(5)
    ((times, _),) = _blocked_rate_times([rng], (1.0,), rate, tau, CHUNK_US, gates)
    assert len(times) > 2000
    assert (np.diff(times) >= 0).all()
    if gates is None:
        assert times[0] >= 0 and times[-1] < CHUNK_US
    else:
        assert in_gates(times, gates).all()
    assert (rate[times // tau] > 0).all()


def peak_of_one_call(config_name):
    """tracemalloc peak of one shared-mode call on a shipped config's gates."""
    config_path = Path(__file__).parents[1] / "configs" / f"{config_name}.cfg"
    config = parse_config(config_path.read_text())
    duration = config.acquisition_duration_ps
    gates = make_gates_periodic(config.gate_rate_hz, duration, config.window_ps)
    tracemalloc.start()
    try:
        stream = gen_thermal_arrivals(config.source, duration, 1, gates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stream) > 0
    return peak


def test_shared_mode_peak_memory():
    """One shared-mode call on thermal_bunched_short's ~10^6 gates stays under 25 MB.

    That is one 11.4 MB block array (the intensities), one 8 MB array over
    the gates (their running mean), and slack; every full-length temporary
    per gate would add 8 MB.
    """
    assert peak_of_one_call("thermal_bunched_short") < 25e6


def test_shared_mode_peak_memory_long():
    """One call on thermal_bunched_long's 1.43 x 10^7 blocks stays within 130 MiB.

    The block intensities are 109 MiB; a running mean over every block edge
    would add as much again.
    """
    assert peak_of_one_call("thermal_bunched_long") <= 130 * 2**20


# Statistical equivalence: 1 ms acquisitions, 1 MHz gates of 100 ns,
# efficiency < 1 and dark counts on both detectors.
RATE_HZ = 2e6
WINDOW_PS = 100_000
DETECTORS = (
    DetectorConfig(Channel.D1, efficiency=0.6, dark_rate_hz=5e4),
    DetectorConfig(Channel.D2, efficiency=0.45, dark_rate_hz=2e5),
)
N_SEEDS = 400


def ensemble(beams, gates, label):
    """One row per seed: n1, n2, nc and both whole-acquisition event totals."""
    rows = []
    for s in range(N_SEEDS):
        events = [
            detect(beam, det, derive_seed(label, s, det.channel.name))
            for beam, det in zip(beams(label, s), DETECTORS)
        ]
        c = count_gates(gates, *events)
        rows.append([c.n1, c.n2, c.nc] + [len(e) + e.unplaced for e in events])
    return np.array(rows)


def poisson_beams(beam_gates):
    def beams(label, s):
        return [
            gen_poisson_arrivals(RATE_HZ, MS, arm, derive_seed(label, s, arm.name), beam_gates)
            for arm in (Arm.BEAM1, Arm.BEAM2)
        ]

    return beams


COLUMNS = ["n1", "n2", "nc", "events1", "events2"]
EQUIV_GATES = make_gates_periodic(1e6, MS, WINDOW_PS)


@pytest.fixture(scope="module")
def samples():
    """(gate-local, whole-interval) ensembles, one row per seed."""
    local = ensemble(poisson_beams(EQUIV_GATES), EQUIV_GATES, "local")
    return local, ensemble(poisson_beams(None), EQUIV_GATES, "whole")


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


# Shared-mode thermal light in 4 ms acquisitions on the same detectors, with
# a gate period (997 ns) that shares no large factor with either coherence
# time.
SHARED_MS = 4 * MS
SHARED_GATES = make_gates_periodic(1e12 / 997_000, SHARED_MS, WINDOW_PS)
SHARED_TAU_PS = {
    # window < coherence time: about 10% of the gates straddle a block edge
    "window_below_tau": 1_000_000,
    # window > coherence time: every gate spans five or six blocks
    "window_above_tau": 20_000,
}


def shared_beams(tau_ps, beam_gates):
    cfg = ThermalSourceConfig(mean_rate_hz=RATE_HZ, coherence_time_ps=tau_ps)

    def beams(label, s):
        both = gen_thermal_arrivals(cfg, SHARED_MS, derive_seed(label, s, "source"), beam_gates)
        return [both.select_arm(arm) for arm in (Arm.BEAM1, Arm.BEAM2)]

    return beams


@pytest.fixture(scope="module", params=list(SHARED_TAU_PS))
def shared_samples(request):
    """(gate-local, whole-interval) shared-mode ensembles, one row per seed."""
    tau = SHARED_TAU_PS[request.param]
    local = ensemble(shared_beams(tau, SHARED_GATES), SHARED_GATES, f"shared-local-{tau}")
    whole = ensemble(shared_beams(tau, None), SHARED_GATES, f"shared-whole-{tau}")
    return local, whole


class TestSharedModeEquivalence:
    def test_gate_geometry(self):
        opens, window = SHARED_GATES.opens, SHARED_GATES.window_ps
        below = SHARED_TAU_PS["window_below_tau"]
        straddling = (opens // below != (opens + window - 1) // below).mean()
        assert 0.08 < straddling < 0.12
        above = SHARED_TAU_PS["window_above_tau"]
        assert ((opens + window - 1) // above - opens // above).min() >= 4

    @pytest.mark.parametrize("column", COLUMNS)
    def test_two_sample_distributions_agree(self, shared_samples, column):
        local, whole = shared_samples
        k = COLUMNS.index(column)
        result = stats.ks_2samp(local[:, k], whole[:, k])
        assert result.pvalue > 1e-3, (column, result)
