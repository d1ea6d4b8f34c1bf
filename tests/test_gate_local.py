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

from coincsim import gating
from coincsim.detectors import DetectorConfig, detect
from coincsim.errors import ConfigError
from coincsim.events import Channel, derive_seed
from coincsim.gating import GateList, count_gates, make_gates_periodic
from coincsim.scenario import _beam_segments, parse_config
from coincsim.sources import (
    Arm,
    ThermalSourceConfig,
    _gate_pass,
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


# Ten 10 ps blocks, the last one cut to 5 ps.
TAU, DURATION = 10, 95


def gate_ticks(gates):
    if gates is None:
        return np.arange(DURATION)
    return np.concatenate(
        [np.arange(o, min(o + gates.window_ps, DURATION)) for o in gates.opens.tolist()]
    )


def gate_pass(gates, tau, duration_ps):
    """``_gate_pass`` over ``gates``, the whole interval for ``None``: (opens, window, result)."""
    opens, window = np.zeros(1, dtype=np.int64), duration_ps
    if gates is not None:
        opens, window = gates.opens, gates.window_ps
    return opens, window, _gate_pass(opens, window, tau, duration_ps)


class TestBlockedRatePlacement:
    @pytest.mark.parametrize(
        "window, opens",
        [(None, None), (4, [0, 8, 33, 92]), (25, [2, 40, 80]), (2, [20, 23, 26])],
        ids=[
            "whole_interval_is_the_blocks",
            "straddling_gate_and_clipped_last_gate",
            "gates_spanning_several_blocks",
            "three_gates_in_one_block",
        ],
    )
    def test_pieces_tile_the_gates(self, window, opens):
        gates = None if window is None else GateList(window, np.array(opens, dtype=np.int64))
        opens, window, (odd, inner, n_inner, blocks, starts, lengths, edges) = gate_pass(
            gates, TAU, DURATION
        )
        simple = np.delete(opens, odd)
        ticks = np.concatenate(
            [np.arange(o, o + window) for o in simple.tolist()]
            + [np.arange(b * TAU, (b + n) * TAU) for b, n in zip(inner, n_inner)]
            + [np.arange(o, o + n) for o, n in zip(starts, lengths)]
        )
        # each tick of each gate once, and nothing else
        np.testing.assert_array_equal(np.sort(ticks), gate_ticks(gates))
        assert (simple // TAU == (simple + window - 1) // TAU).all()
        assert ((starts // TAU == blocks) | (lengths == 0)).all()
        assert (np.diff(blocks) >= 0).all() and (np.diff(blocks[edges]) > 0).all()


# 100 us of shared-mode light on 101 gates of 100 ns every 997 ns, or on the
# whole interval, in chunks of 7 gates against the default chunk size.
CHUNK_US = 100 * 10**6
CHUNK_GATES = make_gates_periodic(1e12 / 997_000, CHUNK_US, 100_000)
CHUNK_CASES = {
    # 1 us blocks: most gates inside one block, ~10% straddling an edge
    "inside_and_straddling": (1_000_000, CHUNK_GATES),
    # 20 ns blocks: every gate spans five or six blocks
    "multi_block": (20_000, CHUNK_GATES),
    # 3 us blocks: three gates (sometimes four) open in each block
    "three_gates_per_block": (3_000_000, CHUNK_GATES),
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
    monkeypatch.setattr(gating, "GATE_CHUNK", 7)
    small = gen_thermal_arrivals(cfg, CHUNK_US, 7, gates)
    assert len(default) > 1000
    assert small == default
    assert small.unplaced_by_key == default.unplaced_by_key
    # and the gate pass reads that constant: no chunk of 0 gates
    monkeypatch.setattr(gating, "GATE_CHUNK", 0)
    with pytest.raises(ValueError):
        gen_thermal_arrivals(cfg, CHUNK_US, 7, gates)


@pytest.mark.parametrize("chunk", [7, gating.GATE_CHUNK])
@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_gate_means_match_block_overlaps(case, chunk, monkeypatch):
    """Every block's gated length c_b is the Python sum of its overlaps with the gates.

    A block's in-gate mean is lam * c_b: the gate pass gives c_b = window to a
    simple gate's block, tau to a whole block inside a gate and the summed
    pieces to an edge block, the clipped last one too.
    """
    tau, gates = CHUNK_CASES[case]
    monkeypatch.setattr(gating, "GATE_CHUNK", chunk)
    opens, window, (odd, inner, n_inner, blocks, _, lengths, edges) = gate_pass(
        gates, tau, CHUNK_US
    )
    n_blocks = -(-CHUNK_US // tau)
    c = np.zeros(n_blocks, dtype=np.int64)
    np.add.at(c, np.delete(opens, odd) // tau, window)
    for b, n in zip(inner.tolist(), n_inner.tolist()):
        c[b : b + n] += tau
    c[blocks[edges]] += np.add.reduceat(lengths, edges)

    expected = np.zeros(n_blocks, dtype=np.int64)
    for o in opens.tolist():
        close = min(o + window, CHUNK_US)
        for k in range(o // tau, (close - 1) // tau + 1):
            expected[k] += min(close, (k + 1) * tau) - max(o, k * tau)
    np.testing.assert_array_equal(c, expected)
    if case == "three_gates_per_block":
        assert (np.bincount(opens // tau) >= 3).mean() > 0.9


@pytest.mark.parametrize("case", ["inside_and_straddling", "multi_block", "whole_interval"])
def test_placed_in_the_gates_only(case):
    """Each arrival lies in a gate, or in the interval for the whole interval."""
    tau, gates = CHUNK_CASES[case]
    cfg = ThermalSourceConfig(mean_rate_hz=5e8, coherence_time_ps=tau)
    stream = gen_thermal_arrivals(cfg, CHUNK_US, 5, gates)
    for arm in (Arm.BEAM1, Arm.BEAM2):
        times = stream.select_arm(arm).times
        assert len(times) > 2000
        assert (np.diff(times) >= 0).all()
        if gates is None:
            assert times[0] >= 0 and times[-1] < CHUNK_US
        else:
            assert in_gates(times, gates).all()


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
    """One shared-mode call on thermal_bunched_short's ~10^6 gates stays under 8 MB.

    No array spans the blocks or the gates: the gate pass keeps the ~1% of
    the gates that are not alone in their block, a chunk's temporaries are
    0.5 MB, and the photons number ~10^4.  A full-length temporary per gate
    would add 8 MB.
    """
    assert peak_of_one_call("thermal_bunched_short") < 8e6


def test_shared_mode_peak_memory_long():
    """One call on thermal_bunched_long's 1.43 x 10^7 blocks stays within 48 MiB.

    No array spans the blocks: its 10^5 gates each span ~100 blocks, and the
    pass keeps a first piece and a tail per gate.  An array over the blocks
    would add 109 MiB.
    """
    assert peak_of_one_call("thermal_bunched_long") <= 48 * 2**20


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


def reference_counts(rng, config, duration_ps, gates):
    """Per-block reference sampler: one exponential intensity per block, Poisson per arm.

    Returns the in-gate counts per arm, the outside counts per arm and the
    gates hit on both arms.  ``gates=None`` is the whole interval, one gate
    with no outside.
    """
    lam, tau, q = config.mean_rate_hz * 1e-12, config.coherence_time_ps, config.splitting_ratio
    n_blocks = -(-duration_ps // tau)
    intensity = rng.standard_exponential(n_blocks)
    opens, window = np.zeros(1, dtype=np.int64), duration_ps
    if gates is not None:
        opens, window = gates.opens, gates.window_ps
    close = np.minimum(opens + window, duration_ps)
    b0 = opens // tau
    n = (close - 1) // tau - b0 + 1  # blocks per gate
    gate = np.repeat(np.arange(len(opens)), n)
    block = np.repeat(b0 - (np.cumsum(n) - n), n) + np.arange(n.sum())
    piece = np.minimum(close[gate], (block + 1) * tau) - np.maximum(opens[gate], block * tau)
    mean = lam * piece * intensity[block]
    k1, k2 = rng.poisson(q * mean), rng.poisson((1 - q) * mean)
    both = (np.bincount(gate, k1, len(opens)) > 0) & (np.bincount(gate, k2, len(opens)) > 0)
    out = 0.0
    if gates is not None:
        starts = np.arange(n_blocks) * tau
        lengths = np.minimum(starts + tau, duration_ps) - starts
        out = lam * ((lengths - np.bincount(block, piece, n_blocks)) * intensity).sum()
    out1, out2 = rng.poisson(q * out), rng.poisson((1 - q) * out)
    return [k1.sum(), k2.sum(), out1, out2, np.count_nonzero(both)]


def sampled_counts(seed, config, duration_ps, gates):
    """The same five counts of one ``gen_thermal_arrivals`` call."""
    stream = gen_thermal_arrivals(config, duration_ps, seed, gates)
    arms = [stream.select_arm(arm) for arm in (Arm.BEAM1, Arm.BEAM2)]
    if gates is None:
        both = int(all(len(a) for a in arms))
    else:
        hit = []
        for a in arms:
            h = np.zeros(len(gates), dtype=bool)
            h[np.searchsorted(gates.opens, a.times, side="right") - 1] = True
            hit.append(h)
        both = np.count_nonzero(hit[0] & hit[1])
    return [len(arms[0]), len(arms[1]), arms[0].unplaced, arms[1].unplaced, both]


# Four setups of 1-4 ms, splitting ratio 0.4.
SHORT_LIKE_GATES = make_gates_periodic(1003009.0270812437, 2 * MS, 7000)
SHARED_BLOCK_GATES = make_gates_periodic(1e12 / 997_000, 4 * MS, 100_000)
REFERENCE_SETUPS = {
    # thermal_bunched_short's geometry at ten times its rate
    "short_like": (1.4285714e7, 700_000, 2 * MS, SHORT_LIKE_GATES),
    # thermal_bunched_long's geometry at ten times its rate
    "long_like": (2.857143e5, 70_000, 2 * MS, make_gates_periodic(1e5, 2 * MS, 7_000_000)),
    # 100 ns gates every 997 ns in 1 us blocks: ~11% of the gates reach into
    # a block another gate opens in; the last gate is clipped
    "shared_blocks": (2e7, 1_000_000, 4 * MS, SHARED_BLOCK_GATES),
    # the whole interval, its last block clipped to 700 ns
    "whole_interval": (2e7, 1_000_000, MS - 300_000, None),
}
REFERENCE_SEEDS = 300
REFERENCE_COLUMNS = ["in1", "in2", "out1", "out2", "both"]


@pytest.fixture(scope="module", params=list(REFERENCE_SETUPS))
def reference_samples(request):
    """(sampler, reference) counts of one setup, one row per seed."""
    rate, tau, duration, gates = REFERENCE_SETUPS[request.param]
    cfg = ThermalSourceConfig(mean_rate_hz=rate, coherence_time_ps=tau, splitting_ratio=0.4)
    rng = np.random.default_rng(2024)
    sampler = [sampled_counts(s, cfg, duration, gates) for s in range(REFERENCE_SEEDS)]
    reference = [reference_counts(rng, cfg, duration, gates) for _ in range(REFERENCE_SEEDS)]
    return np.array(sampler, dtype=float), np.array(reference, dtype=float)


@pytest.mark.parametrize("column", REFERENCE_COLUMNS)
def test_block_counts_match_the_per_block_reference(reference_samples, column):
    """Two-sample KS and mean z against a sampler that draws every block's intensity."""
    sampler, reference = (x[:, REFERENCE_COLUMNS.index(column)] for x in reference_samples)
    if sampler.var() == reference.var() == 0:  # the outside of the whole interval
        assert sampler[0] == reference[0]
        return
    assert stats.ks_2samp(sampler, reference).pvalue > 1e-3
    z = (sampler.mean() - reference.mean()) / np.sqrt(
        (sampler.var() + reference.var()) / REFERENCE_SEEDS
    )
    assert abs(z) < 4
