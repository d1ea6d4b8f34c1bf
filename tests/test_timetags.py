import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincsim.errors import DataFormatError
from coincsim.events import Channel, EventStream
from coincsim.sources import Arm
from coincsim.timetags import TimetagFormat, parse_timetag_file, write_timetag_file

from stat_helpers import Event, events_of, stream_from_events, stream_of


def ttag1_bytes(duration, records):
    head = struct.pack("<5sBQ", b"TTAG1", 1, duration)
    body = b"".join(struct.pack("<qB", t, ch) for t, ch in records)
    return head + body


class TestCsvParsing:
    def test_header_only_is_empty_stream(self):
        s = parse_timetag_file("channel,t_ps\n", TimetagFormat.CSV)
        assert len(s) == 0

    def test_two_events(self):
        s = parse_timetag_file("channel,t_ps\nD1,3000\nD2,5000\n", "csv")
        assert events_of(s) == [Event(Channel.D1, 3000), Event(Channel.D2, 5000)]
        # duration inferred as one tick past the last event
        assert s.duration_ps == 5001

    def test_all_channel_names(self):
        text = "channel,t_ps\nT,0\nD1,1\nD2,2\nG,3\n"
        s = parse_timetag_file(text, "csv")
        assert {c: t.tolist() for c, t in s.times_by_key.items()} == {
            Channel.TRIGGER: [0], Channel.D1: [1], Channel.D2: [2], Channel.GATE_GEN: [3]
        }

    def test_split_by_channel_once(self):
        text = "channel,t_ps\nD2,1\nT,2\nD2,2\nT,4\nD2,4\nD2,9\n"
        s = parse_timetag_file(text, "csv")
        assert list(s.times_by_key) == [Channel.TRIGGER, Channel.D2]  # no empty D1 or G
        assert s.select_channel(Channel.TRIGGER).times.tolist() == [2, 4]
        assert s.select_channel(Channel.D2).times.tolist() == [1, 2, 4, 9]
        assert len(s.select_channel(Channel.D1).times) == 0

    def test_blank_lines_skipped(self):
        s = parse_timetag_file("channel,t_ps\n\nD1,10\n\n", "csv")
        assert len(s) == 1

    def test_duration_override(self):
        s = parse_timetag_file("channel,t_ps\nD1,10\n", "csv", duration_ps=10**6)
        assert s.duration_ps == 10**6

    def test_bytes_input_accepted(self):
        s = parse_timetag_file(b"channel,t_ps\nD1,10\n", "csv")
        assert s.times.tolist() == [10]

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_any_bytes_like_input_accepted(self, kind):
        s = parse_timetag_file(kind(b"channel,t_ps\nD1,10\n"), "csv")
        assert s.times.tolist() == [10]

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_non_utf8_reports_byte_offset(self, kind):
        with pytest.raises(DataFormatError, match="not UTF-8 at byte 16"):
            parse_timetag_file(kind(b"channel,t_ps\nD1,\xff0\n"), "csv")

    def test_missing_header_rejected(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_timetag_file("D1,3000\n", "csv")

    def test_unknown_channel_reports_line(self):
        with pytest.raises(DataFormatError, match="line 3"):
            parse_timetag_file("channel,t_ps\nD1,1\nX7,2\n", "csv")

    def test_bad_timestamp_reports_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_timetag_file("channel,t_ps\nD1,3.5\n", "csv")
        # outside int64; not what write_timetag_file writes (an optional '-' and
        # ASCII digits; int() alone reads the first three as 1000, 5 and 12);
        # more digits than int() converts
        out_of_range = ("99999999999999999999", "-99999999999999999999", str(2**63))
        not_written = ("1_000", "+5", "\u0661\u0662", "--5", "-", "")
        for t in out_of_range + not_written + ("0" * 5000 + "1",):
            with pytest.raises(DataFormatError, match="line 3: bad timestamp"):
                parse_timetag_file(f"channel,t_ps\nD1,1\nT,{t}\n", "csv")

    def test_wrong_column_count(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_timetag_file("channel,t_ps\nD1,1,2\n", "csv")

    def test_negative_timestamp_is_range_violation(self):
        with pytest.raises(DataFormatError, match="range"):
            parse_timetag_file("channel,t_ps\nD1,-5\n", "csv")

    def test_unsorted_input_rejected_not_sorted(self):
        with pytest.raises(DataFormatError, match="ordering"):
            parse_timetag_file("channel,t_ps\nD1,500\nD2,100\n", "csv")

    def test_event_at_or_past_duration_rejected(self):
        with pytest.raises(DataFormatError, match="range"):
            parse_timetag_file("channel,t_ps\nD1,100\n", "csv", duration_ps=100)


class TestTtag1Parsing:
    def test_empty_body(self):
        s = parse_timetag_file(ttag1_bytes(1000, []), "ttag1")
        assert len(s) == 0
        assert s.duration_ps == 1000

    def test_round_numbers(self):
        raw = ttag1_bytes(10**6, [(100, 0), (200, 1), (300, 2)])
        s = parse_timetag_file(raw, "ttag1")
        assert events_of(s) == [
            Event(Channel.TRIGGER, 100), Event(Channel.D1, 200), Event(Channel.D2, 300)
        ]

    def test_record_size_is_nine_bytes(self):
        raw = ttag1_bytes(1000, [(1, 0), (2, 1)])
        assert len(raw) == 14 + 2 * 9

    def test_bad_magic(self):
        raw = b"XXXX1" + ttag1_bytes(1000, [])[5:]
        with pytest.raises(DataFormatError, match="magic"):
            parse_timetag_file(raw, "ttag1")

    def test_bad_version(self):
        raw = struct.pack("<5sBQ", b"TTAG1", 9, 1000)
        with pytest.raises(DataFormatError, match="version"):
            parse_timetag_file(raw, "ttag1")

    def test_truncated_header(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_timetag_file(b"TTAG1", "ttag1")

    def test_truncated_record(self):
        raw = ttag1_bytes(1000, [(1, 0)])[:-4]
        with pytest.raises(DataFormatError, match="truncated|records"):
            parse_timetag_file(raw, "ttag1")

    def test_unknown_channel_code(self):
        raw = ttag1_bytes(1000, [(1, 7)])
        with pytest.raises(DataFormatError, match="channel code 7"):
            parse_timetag_file(raw, "ttag1")

    def test_unsorted_rejected(self):
        raw = ttag1_bytes(1000, [(500, 0), (100, 1)])
        with pytest.raises(DataFormatError, match="ordering"):
            parse_timetag_file(raw, "ttag1")

    def test_str_input_rejected(self):
        with pytest.raises(DataFormatError, match="bytes"):
            parse_timetag_file("TTAG1...", "ttag1")

    def test_duration_override(self):
        raw = ttag1_bytes(1000, [(100, 0)])
        s = parse_timetag_file(raw, "ttag1", duration_ps=2000)
        assert s.duration_ps == 2000

    def test_zero_stored_duration_rejected(self):
        with pytest.raises(DataFormatError, match="TTAG1 duration must be positive"):
            parse_timetag_file(ttag1_bytes(0, []), "ttag1")

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_buffer_kinds_parse_alike(self, kind):
        records = [(100, 0), (150, 3), (200, 1), (200, 2), (300, 1)]
        s = parse_timetag_file(kind(ttag1_bytes(1000, records)), "ttag1")
        assert s.duration_ps == 1000
        assert events_of(s) == [Event(Channel(ch), t) for t, ch in records]

    def test_stream_does_not_alias_input_buffer(self):
        raw = bytearray(ttag1_bytes(1000, [(100, 0), (200, 1), (300, 2)]))
        s = parse_timetag_file(raw, "ttag1")
        raw[14:] = bytes(len(raw) - 14)  # every record now reads (0, T)
        assert events_of(s) == [
            Event(Channel.TRIGGER, 100), Event(Channel.D1, 200), Event(Channel.D2, 300)
        ]

    def test_channel_code_reported_before_ordering(self):
        # record 1 breaks the order, record 3 holds an unknown code
        raw = ttag1_bytes(1000, [(500, 0), (100, 1), (600, 2), (700, 7)])
        with pytest.raises(DataFormatError, match="record 3: unknown channel code 7"):
            parse_timetag_file(raw, "ttag1")


@pytest.mark.parametrize("duration", [0, -1])
@pytest.mark.parametrize(
    "fmt, raw",
    [
        ("csv", "channel,t_ps\n"),
        ("csv", "channel,t_ps\nD1,5\n"),
        ("ttag1", ttag1_bytes(1000, [(5, 1)])),
    ],
    ids=["csv_empty", "csv", "ttag1"],
)
def test_bad_duration_override_rejected(fmt, raw, duration):
    with pytest.raises(DataFormatError, match=f"duration_ps must be positive, got {duration}"):
        parse_timetag_file(raw, fmt, duration_ps=duration)


class TestWriting:
    def test_csv_round_trip_fixed(self):
        s = stream_of(10**6, ("T", 0), ("D1", 3000), ("D2", 5000), ("G", 999_999))
        raw = write_timetag_file(s, "csv")
        back = parse_timetag_file(raw, "csv", duration_ps=10**6)
        assert back == s
        # writing again is byte-identical
        assert write_timetag_file(back, "csv") == raw

    def test_ttag1_round_trip_fixed(self):
        s = stream_of(10**6, ("T", 0), ("D1", 3000), ("D2", 5000))
        raw = write_timetag_file(s, "ttag1")
        back = parse_timetag_file(raw, "ttag1")
        assert back == s
        assert back.duration_ps == 10**6  # duration travels in the header
        assert write_timetag_file(back, "ttag1") == raw

    def test_invalid_stream_refused(self):
        # a channel array that is unsorted or out of range, in either format
        for times, message in (
            ([500, 100], "channel D1: ordering violation at event 1"),
            ([100, 1000], "channel D1: range violation at event 1"),
            ([-1], "channel D1: range violation at event 0"),
        ):
            bad = EventStream(10**3, {Channel.TRIGGER: [0, 900], Channel.D1: times})
            for fmt in TimetagFormat:
                with pytest.raises(DataFormatError, match=message):
                    write_timetag_file(bad, fmt)

    def test_arrival_stream_refused(self):
        arrivals = EventStream(10**3, {Arm.BEAM1: [5]})
        with pytest.raises(DataFormatError, match="not a channel"):
            write_timetag_file(arrivals, "ttag1")

    def test_fixed_bytes_with_ties_across_channels(self):
        s = stream_of(
            10, ("T", 0), ("D1", 0), ("D2", 0), ("T", 5), ("D2", 5), ("D1", 7), ("D2", 9)
        )
        assert write_timetag_file(s, "csv") == (
            b"channel,t_ps\nT,0\nD1,0\nD2,0\nT,5\nD2,5\nD1,7\nD2,9\n"
        )
        header = bytes.fromhex("5454414731" "01" "0a00000000000000")
        records = bytes.fromhex(
            "000000000000000000"
            "000000000000000001"
            "000000000000000002"
            "050000000000000000"
            "050000000000000002"
            "070000000000000001"
            "090000000000000002"
        )
        assert write_timetag_file(s, "ttag1") == header + records

    def test_csv_text_shape(self):
        s = stream_of(10**6, ("D1", 42))
        text = write_timetag_file(s, "csv").decode()
        assert text == "channel,t_ps\nD1,42\n"


@st.composite
def sorted_streams(draw):
    duration = draw(st.integers(1, 10**9))
    n = draw(st.integers(0, 50))
    times = sorted(draw(st.lists(st.integers(0, duration - 1), min_size=n, max_size=n)))
    chans = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            lambda cs: np.asarray(cs, dtype=np.uint8)
        )
    )
    return stream_from_events(duration, zip(chans.tolist(), times))


@given(sorted_streams())
@settings(max_examples=80)
def test_both_formats_round_trip(stream):
    for fmt in (TimetagFormat.CSV, TimetagFormat.TTAG1):
        raw = write_timetag_file(stream, fmt)
        back = parse_timetag_file(raw, fmt, duration_ps=stream.duration_ps)
        assert back == stream
        assert write_timetag_file(back, fmt) == raw
