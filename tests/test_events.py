import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coincsim.errors import DataFormatError
from coincsim.events import (
    Channel,
    EventStream,
    derive_seed,
    filter_min_separation,
    merge_streams,
    validate_stream,
)
from coincsim.gating import GateList
from coincsim.sources import Arm
from coincsim.timetags import parse_timetag_file

from stat_helpers import Event, assert_canonical, events_of, stream_from_events, stream_of

DURATION = 10_000


@st.composite
def canonical_streams(draw, duration=DURATION, max_events=40):
    n = draw(st.integers(0, max_events))
    times = draw(st.lists(st.integers(0, duration - 1), min_size=n, max_size=n))
    codes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return stream_from_events(duration, sorted(zip(codes, times), key=lambda e: e[1]))


def events_multiset(s: EventStream):
    return sorted((e.t_ps, int(e.channel)) for e in events_of(s))


def record_arrays(*events):
    """Parallel (times, channel codes) arrays of records, in the given order."""
    names = {"T": 0, "D1": 1, "D2": 2, "G": 3}
    times = np.array([t for _, t in events], dtype=np.int64)
    codes = np.array([names[ch] for ch, _ in events], dtype=np.uint8)
    return times, codes


class TestEventStream:
    def test_from_events_round_trip(self):
        s = stream_of(100, ("T", 3), ("D1", 5), ("D2", 5))
        assert events_of(s) == [
            Event(Channel.TRIGGER, 3),
            Event(Channel.D1, 5),
            Event(Channel.D2, 5),
        ]
        assert len(s) == 3

    def test_arrays_are_read_only(self):
        s = stream_of(100, ("D1", 5))
        with pytest.raises(ValueError):
            s.times[0] = 9

    def test_select_channel(self):
        s = stream_of(100, ("T", 1), ("D1", 2), ("T", 3), ("D2", 4))
        t = s.select_channel(Channel.TRIGGER)
        assert t.times.tolist() == [1, 3]
        assert list(t.times_by_key) == [Channel.TRIGGER]

    def test_select_absent_key_is_empty(self):
        s = stream_of(100, ("D1", 2))
        assert len(s.select_channel(Channel.D2).times) == 0
        assert s.select_channel(Channel.D2) == stream_of(100)

    def test_select_keeps_the_key_and_its_unplaced_count(self):
        s = EventStream(100, {Arm.BEAM1: [1, 5], Arm.BEAM2: [3]}, None, {Arm.BEAM1: 4})
        assert s.unplaced == 4
        b1, b2 = s.select_arm(Arm.BEAM1), s.select_arm(Arm.BEAM2)
        assert (b1.times.tolist(), b1.unplaced) == ([1, 5], 4)
        assert (b2.times.tolist(), b2.unplaced) == ([3], 0)

    def test_arms_and_channels_do_not_mix(self):
        with pytest.raises(ValueError, match="arms or by channels"):
            EventStream(10, {Arm.BEAM1: [1], Channel.D1: [2]})
        with pytest.raises(ValueError, match="arms or by channels"):
            EventStream(10, {Channel.D1: [2]}, None, {Arm.BEAM1: 3})

    def test_key_of_the_other_kind_rejected(self):
        # Arm.BEAM1 == Channel.GATE_GEN == 3: the lookup must not relabel BEAM1's times
        with pytest.raises(ValueError, match="kind"):
            EventStream(100, {Arm.BEAM1: [5]}).select_channel(Channel.GATE_GEN)
        with pytest.raises(ValueError, match="kind"):
            stream_of(100, ("D1", 5)).select_arm(Arm.IDLER_PATH1)
        with pytest.raises(ValueError, match="kind"):
            EventStream(100, {}, None, {Arm.BEAM1: 2}).select_channel(Channel.D1)
        # a stream with no keys has no kind to confuse
        assert len(EventStream(100, {}).select_channel(Channel.GATE_GEN)) == 0

    def test_equality_is_content_based(self):
        a = stream_of(100, ("D1", 5))
        b = stream_of(100, ("D1", 5))
        c = stream_of(100, ("D2", 5))
        assert a == b
        assert a != c
        # an absent key and an empty array both mean no events
        assert a == EventStream(100, {Channel.D1: [5], Channel.D2: []})


class TestMergeStreams:
    def test_empty_identity(self):
        empty = stream_of(DURATION)
        assert merge_streams(empty, empty) == empty

    def test_merge_with_empty_is_identity(self):
        s = stream_of(DURATION, ("T", 3), ("D1", 7))
        assert merge_streams(s, stream_of(DURATION)) == s
        assert merge_streams(stream_of(DURATION), s) == s

    def test_two_element_sort(self):
        a = stream_of(DURATION, ("D1", 5))
        b = stream_of(DURATION, ("D2", 3))
        merged = merge_streams(a, b)
        assert events_of(merged) == [Event(Channel.D2, 3), Event(Channel.D1, 5)]

    def test_distinct_keys_are_not_copied(self):
        a = stream_of(DURATION, ("D2", 5))
        b = stream_of(DURATION, ("T", 5))
        merged = merge_streams(a, b)
        assert merged.times_by_key[Channel.D2] is a.times_by_key[Channel.D2]
        assert merged.times_by_key[Channel.TRIGGER] is b.times_by_key[Channel.TRIGGER]

    def test_shared_key_is_sorted(self):
        a = stream_of(DURATION, ("D1", 5), ("D1", 9))
        b = stream_of(DURATION, ("D1", 3), ("D1", 7))
        assert merge_streams(a, b).times.tolist() == [3, 5, 7, 9]

    def test_unplaced_counts_add_per_key(self):
        a = EventStream(DURATION, {Channel.D1: [1]}, None, {Channel.D1: 2})
        b = EventStream(DURATION, {Channel.D2: [1]}, None, {Channel.D1: 1, Channel.D2: 5})
        assert merge_streams(a, b).unplaced_by_key == {Channel.D1: 3, Channel.D2: 5}

    def test_duration_mismatch_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            merge_streams(stream_of(10), stream_of(20))

    def test_gates_mismatch_rejected(self):
        gated = EventStream(DURATION, {}, GateList(10, [0, 100]))
        with pytest.raises(ValueError, match="gates"):
            merge_streams(gated, stream_of(DURATION))
        assert merge_streams(gated, gated) == gated

    @given(canonical_streams(), canonical_streams())
    def test_multiset_union_and_validity(self, a, b):
        merged = merge_streams(a, b)
        assert events_multiset(merged) == sorted(events_multiset(a) + events_multiset(b))
        assert_canonical(merged)

    @given(canonical_streams(), canonical_streams())
    def test_commutative(self, a, b):
        assert merge_streams(a, b) == merge_streams(b, a)

    @given(canonical_streams(), canonical_streams(), canonical_streams())
    def test_associative(self, a, b, c):
        left = merge_streams(merge_streams(a, b), c)
        right = merge_streams(a, merge_streams(b, c))
        assert left == right


class TestValidateStream:
    def test_ok_stream(self):
        assert validate_stream(*record_arrays(("T", 1), ("D1", 1), ("D1", 50)), 100) is None

    def test_empty_stream_ok(self):
        assert validate_stream(*record_arrays(), 100) is None

    def test_ordering_violation_reported_with_index(self):
        message = validate_stream(*record_arrays(("D1", 7), ("D1", 3)), 100)
        assert message.startswith("ordering violation at event 1:")

    def test_channel_tie_break_violation(self):
        # same timestamp, decreasing channel order
        message = validate_stream(*record_arrays(("D2", 5), ("D1", 5)), 100)
        assert message.startswith("ordering violation")

    def test_timestamp_at_duration_is_out_of_range(self):
        message = validate_stream(*record_arrays(("D1", 100)), 100)
        assert message == "range violation at event 0: t=100 outside [0, 100)"

    def test_negative_timestamp(self):
        message = validate_stream(*record_arrays(("D1", -1)), 100)
        assert message.startswith("range violation")

    def test_lowest_index_wins(self):
        # ordering at 1 comes before range at 2; range beats ordering at 3
        assert validate_stream(
            *record_arrays(("D1", 50), ("D1", 10), ("D1", 200)), 100
        ).startswith("ordering violation at event 1:")
        assert validate_stream(
            *record_arrays(("D1", 10), ("D1", 20), ("D1", 30), ("D1", -5)), 100
        ).startswith("range violation at event 3:")

    def test_reversed_million_record_file_rejected_at_event_1(self):
        n = 10**6
        records = np.empty(n, dtype=[("t", "<i8"), ("ch", "u1")])
        records["t"] = np.arange(n)[::-1]
        records["ch"] = int(Channel.D1)
        data = struct.pack("<5sBQ", b"TTAG1", 1, n) + records.tobytes()
        with pytest.raises(DataFormatError, match="ordering violation at event 1:"):
            parse_timetag_file(data, "ttag1")


class TestSeeding:
    def test_derive_seed_is_stable(self):
        assert derive_seed(1, 2, "thin") == derive_seed(1, 2, "thin")

    def test_derive_seed_distinguishes_parts(self):
        seeds = {
            derive_seed(1, 2, "thin"),
            derive_seed(1, 2, "dark"),
            derive_seed(1, 3, "thin"),
            derive_seed(2, 2, "thin"),
            derive_seed("1", 2, "thin"),  # position matters, not just content
        }
        assert len(seeds) == 4  # "1" and 1 stringify the same; the rest differ

    def test_derive_seed_order_sensitive(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_derived_rng_reproducible(self):
        a = np.random.default_rng(derive_seed(99, 3, "pt1:source")).integers(0, 2**63, size=8)
        b = np.random.default_rng(derive_seed(99, 3, "pt1:source")).integers(0, 2**63, size=8)
        assert np.array_equal(a, b)

    def test_derived_stages_independent(self):
        a = np.random.default_rng(derive_seed(99, 3, "pt1:source")).integers(0, 2**63, size=8)
        b = np.random.default_rng(derive_seed(99, 3, "pt1:path")).integers(0, 2**63, size=8)
        assert not np.array_equal(a, b)


def greedy_min_separation(times, min_sep):
    kept = []
    for t in times:
        if not kept or t - kept[-1] >= min_sep:
            kept.append(t)
    return kept


class TestFilterMinSeparation:
    def test_drops_chained_violators(self):
        out = filter_min_separation(np.array([0, 3, 6, 14], dtype=np.int64), 7)
        assert out.tolist() == [0, 14]

    def test_dropped_event_does_not_shadow_later_one(self):
        # 3 is dropped against 0; 8 must then be compared against 0, not 3
        out = filter_min_separation(np.array([0, 3, 8], dtype=np.int64), 7)
        assert out.tolist() == [0, 8]

    def test_zero_separation_keeps_everything(self):
        t = np.array([0, 1, 1, 2], dtype=np.int64)
        assert filter_min_separation(t, 0).tolist() == t.tolist()

    @given(
        st.lists(st.integers(0, 500), min_size=0, max_size=60),
        st.integers(1, 40),
    )
    def test_matches_reference_greedy_scan(self, raw_times, min_sep):
        times = np.array(sorted(raw_times), dtype=np.int64)
        out = filter_min_separation(times, min_sep)
        assert out.tolist() == greedy_min_separation(times.tolist(), min_sep)

    @pytest.mark.parametrize(
        "times, min_sep",
        [
            ([0, 1, 2, 50, 100, 101, 102], 5),  # runs touch index 0 and index n-1
            ([0, 3, 6, 9, 12, 15, 18], 5),  # one run spans the whole array
            ([0, 2, 4, 20, 22, 24], 5),  # two runs split by exactly one wide gap
            ([0, 2, 4, 9, 11, 13], 5),  # ... a gap exactly min_sep wide
            ([10, 40, 70, 100], 1000),  # min_sep larger than the whole span
        ],
    )
    def test_run_edges_match_reference(self, times, min_sep):
        out = filter_min_separation(np.array(times, dtype=np.int64), min_sep)
        assert out.tolist() == greedy_min_separation(times, min_sep)
