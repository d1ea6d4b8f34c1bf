import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincsim import gating
from coincsim.errors import ConfigError
from coincsim.events import Channel, EventStream, derive_seed, merge_streams
from coincsim.gating import (
    CountSummary,
    GateList,
    GatePolicy,
    count_gates,
    make_gates_from_trigger,
    make_gates_periodic,
)
from coincsim.gating import _gate_hits, _gates, _hits_by_event, _hits_by_gate

from stat_helpers import stream_of

NS = 1000


def estream(times, channel=Channel.D1, duration_ps=10**6):
    return EventStream(duration_ps=duration_ps, times_by_key={channel: times})


class TestGatesFromTrigger:
    def test_no_triggers_no_gates(self):
        g = make_gates_from_trigger(estream([], Channel.TRIGGER), window_ps=7 * NS)
        assert len(g.opens) == 0

    def test_two_well_separated_triggers(self):
        g = make_gates_from_trigger(
            estream([0, 100 * NS], Channel.TRIGGER), window_ps=7 * NS
        )
        assert g.opens.tolist() == [0, 100 * NS]
        assert g.closes.tolist() == [7 * NS, 107 * NS]

    def test_overlapping_triggers_drop_policy(self):
        g = make_gates_from_trigger(
            estream([0, 3 * NS], Channel.TRIGGER),
            window_ps=7 * NS,
            policy=GatePolicy.DROP_OVERLAPPING,
        )
        assert g.opens.tolist() == [0]

    def test_overlapping_triggers_allow_policy(self):
        g = make_gates_from_trigger(
            estream([0, 3 * NS], Channel.TRIGGER),
            window_ps=7 * NS,
            policy=GatePolicy.ALLOW_OVERLAP,
        )
        assert g.opens.tolist() == [0, 3 * NS]

    def test_caller_selects_gate_channel(self):
        # channel selection happens before gate building
        s = stream_of(10**6, ("D1", 50), ("T", 100), ("D2", 150), ("G", 200))
        g = make_gates_from_trigger(s.select_channel(Channel.TRIGGER), window_ps=7 * NS)
        assert g.opens.tolist() == [100]
        g2 = make_gates_from_trigger(s.select_channel(Channel.GATE_GEN), window_ps=7 * NS)
        assert g2.opens.tolist() == [200]

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            make_gates_from_trigger(estream([0], Channel.TRIGGER), window_ps=0)

    def test_close_past_int64_refused(self):
        last = 2**63 - 1 - 7 * NS  # this gate closes at 2**63 - 1 ps exactly
        assert GateList(7 * NS, [0, last]).closes[-1] == 2**63 - 1
        message = rf"window of {7 * NS} ps from the opening at {last + 1} ps"
        with pytest.raises(ConfigError, match=message):
            GateList(7 * NS, [0, last + 1])


class TestGatesPeriodic:
    def test_65khz_one_second(self):
        g = make_gates_periodic(rate_hz=65_000, duration_ps=10**12, window_ps=7 * NS)
        assert len(g.opens) == 65_000
        assert g.opens[0] == 0
        # k-th edge is the nearest-ps rounding of k/rate
        assert g.opens[1] == round(10**12 / 65_000)

    def test_duration_shorter_than_period(self):
        g = make_gates_periodic(rate_hz=1_000, duration_ps=10**6, window_ps=100)
        assert g.opens.tolist() == [0]

    def test_window_must_fit_period(self):
        with pytest.raises(ConfigError):
            make_gates_periodic(rate_hz=10**9, duration_ps=10**6, window_ps=1000)

    def test_gate_count_scales_with_duration(self):
        g = make_gates_periodic(rate_hz=65_000, duration_ps=2 * 10**12, window_ps=7 * NS)
        assert len(g.opens) == 130_000

    def test_all_gates_inside_duration(self):
        g = make_gates_periodic(rate_hz=333, duration_ps=10**10, window_ps=500)
        assert g.opens[-1] < 10**10
        assert np.all(np.diff(g.opens) > 0)

    @given(
        period_ps=st.floats(2.0, 1e9),
        k=st.integers(0, 2000),
        delta=st.sampled_from([-1, 0, 1]),
        window_share=st.floats(0.0, 1.0),
    )
    def test_matches_reference_formula(self, period_ps, k, delta, window_share):
        # the k-th ideal opening lands just above, at or just below duration_ps
        rate_hz = 1e12 / period_ps
        duration_ps = max(int(np.rint(k * (1e12 / rate_hz))) - delta, 1)
        # every accepted window: 1 .. floor(period - 1)
        window_ps = 1 + int(window_share * (np.floor(1e12 / rate_hz - 1) - 1))
        g = make_gates_periodic(rate_hz, duration_ps, window_ps)
        np.testing.assert_array_equal(g.opens, periodic_opens_reference(rate_hz, duration_ps))
        assert g.window_ps == window_ps
        # the answer seeded at construction agrees with the scan over the openings
        assert g.disjoint == bool(np.all(np.diff(g.opens) >= window_ps))

    def test_chunked_build_matches_one_shot(self, monkeypatch):
        # 87 openings: twelve chunks of 7 and a final partial chunk of 3
        monkeypatch.setattr(gating, "_PERIODIC_CHUNK", 7)
        rate_hz, duration_ps = 1e12 / 997_000.3, 86 * 997_000
        g = make_gates_periodic(rate_hz, duration_ps, window_ps=500)
        assert len(g) == 86
        np.testing.assert_array_equal(g.opens, periodic_opens_reference(rate_hz, duration_ps))

    @pytest.mark.parametrize("rate_hz", [65_000, 1_000_000])
    def test_build_peak_memory(self, rate_hz):
        # the openings, a 64 KiB scratch and 2 KiB for the objects (the
        # GateList and a few array headers: ~1 KiB measured)
        make_gates_periodic(rate_hz, 10**12, 7 * NS)
        tracemalloc.start()
        try:
            g = make_gates_periodic(rate_hz, 10**12, 7 * NS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g) == rate_hz
        assert peak <= g.opens.nbytes + 64 * 1024 + 2048

    def test_window_within_a_tick_of_the_period_rejected(self):
        # with a window less than 1 ps under the period, two rounded openings
        # can land one tick closer than the window, so the gates would overlap
        rate_hz = 117.38745385916434
        window_ps = int(1e12 / rate_hz)
        with pytest.raises(ConfigError, match="run.window_ps") as err:
            make_gates_periodic(rate_hz, 1000 * window_ps, window_ps)
        assert "run.gate_rate_hz" in str(err.value)


def periodic_opens_reference(rate_hz, duration_ps):
    """Every ideal opening rounded to the tick, then those before ``duration_ps``."""
    period_ps = 1e12 / rate_hz
    n = int(np.ceil(duration_ps / period_ps)) + 1
    opens = np.rint(np.arange(n) * period_ps).astype(np.int64)
    return opens[opens < duration_ps]


class TestCountGates:
    def count_one_gate(self, d1_times, d2_times, window_ps=7 * NS):
        g = GateList(window_ps=window_ps, opens=np.array([0], dtype=np.int64))
        return count_gates(g, estream(d1_times, Channel.D1), estream(d2_times, Channel.D2))

    def test_single_gate_one_hit_each(self):
        c = self.count_one_gate([3 * NS], [5 * NS])
        assert c == CountSummary(n_gates=1, n1=1, n2=1, nc=1)

    def test_event_at_close_excluded(self):
        assert self.count_one_gate([7 * NS], []).n1 == 0

    def test_event_at_open_included(self):
        assert self.count_one_gate([0], []).n1 == 1

    def test_binary_counting_two_photons_one_gate(self):
        c = self.count_one_gate([1 * NS, 2 * NS], [])
        assert c == CountSummary(n_gates=1, n1=1, n2=0, nc=0)

    def test_coincidence_requires_both(self):
        assert self.count_one_gate([3 * NS], []).nc == 0

    def test_events_outside_gates_ignored(self):
        c = self.count_one_gate([50 * NS], [60 * NS])
        assert c == CountSummary(n_gates=1, n1=0, n2=0, nc=0)

    def test_multiple_gates_sum(self):
        g = GateList(
            window_ps=7 * NS,
            opens=np.array([0, 100 * NS, 200 * NS], dtype=np.int64),
        )
        c = count_gates(
            g,
            estream([1 * NS, 101 * NS], Channel.D1),
            estream([2 * NS, 205 * NS], Channel.D2),
        )
        assert c == CountSummary(n_gates=3, n1=2, n2=2, nc=1)

    def test_summary_addition(self):
        a = CountSummary(n_gates=10, n1=3, n2=4, nc=1)
        b = CountSummary(n_gates=5, n1=2, n2=0, nc=0)
        assert a + b == CountSummary(n_gates=15, n1=5, n2=4, nc=1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountSummary(n_gates=1, n1=-1, n2=0, nc=0)

    def test_numpy_counts_stored_as_plain_ints(self):
        # the benchmark worker json-dumps astuple(counts); np.int64 would raise there
        c = CountSummary(np.int64(3), np.int32(2), np.uint8(1), 0)
        assert all(type(v) is int for v in dataclasses.astuple(c))
        assert json.loads(json.dumps(dataclasses.astuple(c))) == [3, 2, 1, 0]


@st.composite
def gated_experiment(draw):
    n_gates = draw(st.integers(1, 30))
    window = draw(st.integers(1, 50))
    period = window + draw(st.integers(0, 50))
    opens = np.arange(n_gates, dtype=np.int64) * period
    duration = int(opens[-1]) + window + 100
    streams = []
    for channel in (Channel.D1, Channel.D2):
        n = draw(st.integers(0, 60))
        times = np.sort(
            np.asarray(
                draw(st.lists(st.integers(0, duration - 1), min_size=n, max_size=n)),
                dtype=np.int64,
            )
        )
        streams.append(EventStream(duration_ps=duration, times_by_key={channel: times}))
    return streams[0], streams[1], GateList(window_ps=window, opens=opens)


class TestCountInvariants:
    @given(gated_experiment())
    @settings(max_examples=60)
    def test_bounds(self, case):
        d1, d2, gates = case
        c = count_gates(gates, d1, d2)
        assert c.n_gates == len(gates.opens)
        assert 0 <= c.nc <= min(c.n1, c.n2)
        assert max(c.n1, c.n2) <= c.n_gates

    @given(gated_experiment(), st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_split_merge_invariance(self, case, seed):
        # splitting a channel stream in two and re-merging cannot change counts
        d1, d2, gates = case
        if len(d1) == 0:
            return
        rng = np.random.default_rng(derive_seed(seed, 0, "split"))
        mask = rng.random(len(d1)) < 0.5
        parts = [
            EventStream(duration_ps=d1.duration_ps, times_by_key={Channel.D1: d1.times[m]})
            for m in (mask, ~mask)
        ]
        remerged = merge_streams(*parts)
        assert count_gates(gates, remerged, d2) == count_gates(gates, d1, d2)

    def test_expected_coincidence_product(self):
        # independent per-gate Bernoulli detections: E[Nc]/N = p1 p2
        n, p1, p2 = 100_000, 0.23, 0.4
        rng = np.random.default_rng(derive_seed(77, 0, "bernoulli"))
        h1 = rng.random(n) < p1
        h2 = rng.random(n) < p2
        period, window = 100, 50
        opens = np.arange(n, dtype=np.int64) * period
        base = np.arange(n, dtype=np.int64) * period
        d1 = estream(base[h1] + 5, Channel.D1, duration_ps=n * period)
        d2 = estream(base[h2] + 6, Channel.D2, duration_ps=n * period)
        c = count_gates(GateList(window_ps=window, opens=opens), d1, d2)
        assert c.n1 == h1.sum() and c.n2 == h2.sum()
        sigma = np.sqrt(p1 * p2 * (1 - p1 * p2) / n)
        assert abs(c.nc / n - p1 * p2) < 3 * sigma


def brute_force_hits(gates, times):
    """Indices of the gates holding some event, gate by gate."""
    held = [np.any((o <= times) & (times < o + gates.window_ps)) for o in gates.opens]
    return np.flatnonzero(np.asarray(held, dtype=bool))


@st.composite
def gates_and_events(draw):
    """Sorted openings (overlapping or not) and sorted events near them."""
    window = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.integers(0, 80), min_size=0, max_size=40))
    opens = np.cumsum(np.asarray([draw(st.integers(0, 50))] + gaps, dtype=np.int64))
    span = int(opens[-1]) + window + 50
    times = np.sort(
        np.asarray(draw(st.lists(st.integers(0, span), max_size=60)), dtype=np.int64)
    )
    return GateList(window_ps=window, opens=opens), times


class TestSparseLookup:
    @given(gates_and_events(), st.sampled_from(GatePolicy))
    @settings(max_examples=200)
    def test_gate_hits_match_per_gate_search(self, case, policy):
        gates, times = case
        expected = brute_force_hits(gates, times)
        np.testing.assert_array_equal(_gate_hits(gates, times), expected)
        np.testing.assert_array_equal(_hits_by_gate(gates, times), expected)
        if gates.disjoint:
            np.testing.assert_array_equal(_hits_by_event(gates, times), expected)
        # gates from those openings as triggers: marked disjoint at construction
        # only when overlaps are dropped, and counted as without the mark
        duration = int(max(gates.opens[-1], times[-1] if len(times) else 0)) + 1
        trigger = estream(gates.opens, Channel.TRIGGER, duration)
        marked = make_gates_from_trigger(trigger, gates.window_ps, policy)
        assert ("disjoint" in vars(marked)) == (policy is GatePolicy.DROP_OVERLAPPING)
        assert "_period_ps" not in vars(marked)  # trigger gates carry no period
        scanned = GateList(marked.window_ps, marked.opens)
        assert marked.disjoint == scanned.disjoint
        d1, d2 = estream(times, Channel.D1, duration), estream(times[::2], Channel.D2, duration)
        assert count_gates(marked, d1, d2) == count_gates(scanned, d1, d2)

    def test_overlapping_gates_use_per_gate_search(self):
        # one event inside two overlapping gates hits both
        gates = GateList(window_ps=10, opens=np.array([0, 5, 100, 200], dtype=np.int64))
        assert not gates.disjoint
        hits = _gate_hits(gates, np.array([7], dtype=np.int64))
        assert hits.tolist() == [0, 1]  # gates 2 and 3 hold nothing

    def test_periodic_gates_are_disjoint(self):
        gates = make_gates_periodic(65_000, 10**9, 7 * NS)
        assert "disjoint" in vars(gates)  # known at construction, no scan
        assert gates.disjoint

    @pytest.mark.parametrize(
        "times",
        [
            np.array([10, 25, 99, 150, 310], dtype=np.int64),  # all between gates
            np.empty(0, dtype=np.int64),
        ],
    )
    def test_event_search_without_hits(self, times):
        gates = GateList(window_ps=10, opens=np.array([0, 100, 200, 300], dtype=np.int64))
        expected = _hits_by_gate(gates, times)
        assert len(expected) == 0
        np.testing.assert_array_equal(_hits_by_event(gates, times), expected)


@st.composite
def periodic_gates_and_events(draw):
    """Periodic gates of a non-integer period, and events on and around their edges."""
    period = draw(st.integers(2, 10**6)) + draw(st.floats(0.01, 0.99))
    window = draw(st.integers(1, int(period - 1)))
    duration = draw(st.integers(1, int(40 * period)))
    gates = make_gates_periodic(1e12 / period, duration, window)
    opens = gates.opens
    edges = {
        "open": opens,
        "last_inside": opens + window - 1,
        "close": opens + window,
        "between": (opens + window + np.append(opens[1:], duration)) // 2,
        "before_first": np.array([-1]),
        "from_duration": duration + np.array([0, 1, int(period)]),
    }
    picks = [
        draw(st.lists(st.sampled_from(list(edges[name])), max_size=8))
        for name in draw(st.sets(st.sampled_from(sorted(edges))))
    ]
    times = np.sort(np.asarray(sum(picks, []), dtype=np.int64))
    return gates, times[: draw(st.integers(0, len(times)))]


class TestPeriodicCandidate:
    """Periodic gates find each event's gate by division, then by search."""

    @given(periodic_gates_and_events(), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_counts_match_unmarked_gates(self, case, seed):
        gates, times = case
        assert "_period_ps" in vars(gates)
        unmarked = GateList(gates.window_ps, gates.opens)
        assert "_period_ps" not in vars(unmarked)
        expected = brute_force_hits(unmarked, times)
        np.testing.assert_array_equal(_hits_by_event(gates, times), expected)
        np.testing.assert_array_equal(_hits_by_event(unmarked, times), expected)
        np.testing.assert_array_equal(_gate_hits(gates, times), expected)
        # the second channel: a random half of the events
        rng = np.random.default_rng(derive_seed(seed, 0, "half"))
        duration = int(max(gates.opens[-1] + gates.window_ps, times[-1] if len(times) else 0)) + 1
        d1 = estream(times, Channel.D1, duration)
        d2 = estream(times[rng.random(len(times)) < 0.5], Channel.D2, duration)
        assert count_gates(gates, d1, d2) == count_gates(unmarked, d1, d2)

    def test_opening_rounded_down_found_by_search(self):
        # opening 1 of a 1000.3 ps period is rint(1000.3) = 1000: an event on
        # it divides to gate 0, which closed at 999, so the search finds gate 1
        gates = make_gates_periodic(1e12 / 1000.3, 10_000, window_ps=999)
        t = int(gates.opens[1])
        assert t == 1000 and int(t // vars(gates)["_period_ps"]) == 0
        times = np.array([t], dtype=np.int64)
        assert _hits_by_event(gates, times).tolist() == [1]
        c = count_gates(gates, estream(times, Channel.D1), estream(times, Channel.D2))
        assert c == CountSummary(n_gates=10, n1=1, n2=1, nc=1)

    def test_empty_channels(self):
        gates = make_gates_periodic(65_000, 10**9, 7 * NS)
        empty = np.empty(0, dtype=np.int64)
        hits = _hits_by_event(gates, empty)
        assert hits.dtype == np.int64 and len(hits) == 0
        c = count_gates(gates, estream(empty, Channel.D1), estream(empty, Channel.D2))
        assert c == CountSummary(n_gates=len(gates), n1=0, n2=0, nc=0)

    def test_one_gate(self):
        gates = make_gates_periodic(1e6, 10**6, 7 * NS)  # duration = one period
        assert gates.opens.tolist() == [0]
        times = np.array([0, 7 * NS - 1, 7 * NS, 10**6, 10**7], dtype=np.int64)
        assert _hits_by_event(gates, times[:0]).tolist() == []
        for t in times:
            one = np.array([t], dtype=np.int64)
            assert _hits_by_event(gates, one).tolist() == ([0] if t < 7 * NS else [])
        c = count_gates(gates, estream(times[1:], Channel.D1), estream(times[2:], Channel.D2))
        assert c == CountSummary(n_gates=1, n1=1, n2=0, nc=0)


@st.composite
def trigger_gates_and_events(draw):
    """Disjoint openings, clustered or far apart, anywhere in int64, and events
    on and around their edges."""
    window = draw(st.integers(1, 50))
    # gaps past the window: a few ps (many openings to a bucket) or up to 1 us
    # (empty buckets between them)
    gaps = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**6)), max_size=30))
    rel = np.cumsum([0] + [window + g for g in gaps]).tolist()
    top = 2**63 - 1 - window - rel[-1]  # the last gate closes at 2**63 - 1
    first = draw(st.sampled_from([0, 2**62, -(2**62), -(2**63), top]))
    first = min(first + draw(st.integers(0, 99)), top)
    opens = [first + r for r in rel]
    lo, hi = opens[0], opens[-1] + window
    # at the opening, the last tick inside, the close and the tick before
    edges = [o + d for o in opens for d in (-1, 0, window - 1, window)]
    beyond = [lo - d for d in (1, 10**7)] + [hi + d for d in (1, 10**7)]
    times = draw(st.lists(st.sampled_from(edges + beyond), max_size=30))
    times += draw(st.lists(st.integers(lo, hi), max_size=10))
    times = sorted(t for t in times if -(2**63) <= t < 2**63)
    return _gates(window, np.array(opens), disjoint=True), np.array(times, dtype=np.int64)


class TestTriggerBucketIndex:
    """Trigger gates find each event's gate through a bucket index, then by search."""

    @given(trigger_gates_and_events(), st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_hits_match_brute_force(self, case, seed):
        gates, times = case
        expected = brute_force_hits(gates, times)
        np.testing.assert_array_equal(_hits_by_event(gates, times), expected)
        np.testing.assert_array_equal(_gate_hits(gates, times), expected)
        rng = np.random.default_rng(derive_seed(seed, 0, "half"))
        half = times[rng.random(len(times)) < 0.5]
        d1, d2 = estream(times, Channel.D1), estream(half, Channel.D2)
        expected2 = brute_force_hits(gates, half)
        both = np.intersect1d(expected, expected2)
        want = CountSummary(len(gates), len(expected), len(expected2), len(both))
        assert count_gates(gates, d1, d2) == want

    def test_openings_across_int64(self):
        # a span past 2**63: t - opens[0] is exact only when taken unsigned
        window = 10
        opens = [-(2**63), -(2**62) - 5, -3, 0, 2**62, 2**63 - 1 - window]
        gates = _gates(window, np.array(opens), disjoint=True)
        edges = [o + d for o in opens for d in (-1, 0, window - 1, window)]
        times = np.array(sorted(t for t in edges if t >= -(2**63)), dtype=np.int64)
        assert _hits_by_event(gates, times).tolist() == list(range(len(opens)))
        np.testing.assert_array_equal(_gate_hits(gates, times), brute_force_hits(gates, times))
        # events before the first opening, as far before as int64 goes
        later = _gates(window, np.array(opens[1:]), disjoint=True)
        before = np.array([-(2**63), -(2**62) - 6], dtype=np.int64)
        assert _hits_by_event(later, before).tolist() == []

    def test_single_gate(self):
        gates = _gates(7, np.array([2**62]), disjoint=True)
        times = 2**62 + np.array([-(2**62), -1, 0, 6, 7, 2**61], dtype=np.int64)
        assert _hits_by_event(gates, times).tolist() == [0]
        for t in times:
            inside = 0 <= t - 2**62 < 7
            assert _hits_by_event(gates, np.array([t])).tolist() == ([0] if inside else [])

    def test_many_openings_to_a_bucket_and_empty_buckets(self):
        # nine gates 10 ps apart, then one 10**6 ps on: most buckets are empty
        opens = np.append(np.arange(9) * 10, 10**6)
        gates = _gates(10, opens, disjoint=True)
        shift, last = gating._bucket_index(opens)
        assert len(last) <= 2 * len(opens) and np.count_nonzero(np.diff(last)) < len(last) // 2
        times = np.array([-5, 0, 9, 10, 45, 89, 90, 5000, 10**6 - 1, 10**6 + 9, 10**6 + 10])
        assert _hits_by_event(gates, times).tolist() == [0, 1, 4, 8, 9]

    def test_table_built_once_per_count_and_never_for_periodic_gates(self, monkeypatch):
        built = []
        index = gating._bucket_index
        monkeypatch.setattr(gating, "_bucket_index", lambda opens: built.append(1) or index(opens))
        trigger = make_gates_from_trigger(estream(np.arange(0, 10**6, 1000), Channel.TRIGGER), 7)
        d1 = estream(np.arange(0, 10**6, 3001), Channel.D1)
        d2 = estream(np.arange(0, 10**6, 1999), Channel.D2)
        assert count_gates(trigger, d1, d2).n1 > 0
        assert len(built) == 1  # shared by both channels
        dense = estream(np.arange(0, 10**6, 500), Channel.D2)
        count_gates(trigger, d1, dense)
        assert len(built) == 2  # one channel looks it up
        count_gates(trigger, dense, dense)
        assert len(built) == 2  # neither does
        periodic = make_gates_periodic(1e9, 10**6, 7)  # 1000 gates 1 ns apart
        assert count_gates(periodic, d1, d2).n1 > 0
        assert len(built) == 2  # division needs no table
