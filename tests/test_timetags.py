import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincsim.errors import DataFormatError
from coincsim.events import Channel, EventStream
from coincsim.timetags import TimetagFormat, parse_timetag_file, write_timetag_file

from stat_helpers import stream_from_events, stream_of


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
        assert s.times.tolist() == [3000, 5000]
        assert s.channels.tolist() == [int(Channel.D1), int(Channel.D2)]
        # duration inferred as one tick past the last event
        assert s.duration_ps == 5001

    def test_all_channel_names(self):
        text = "channel,t_ps\nT,0\nD1,1\nD2,2\nG,3\n"
        s = parse_timetag_file(text, "csv")
        assert s.channels.tolist() == [0, 1, 2, 3]

    def test_blank_lines_skipped(self):
        s = parse_timetag_file("channel,t_ps\n\nD1,10\n\n", "csv")
        assert len(s) == 1

    def test_duration_override(self):
        s = parse_timetag_file("channel,t_ps\nD1,10\n", "csv", duration_ps=10**6)
        assert s.duration_ps == 10**6

    def test_bytes_input_accepted(self):
        s = parse_timetag_file(b"channel,t_ps\nD1,10\n", "csv")
        assert s.times.tolist() == [10]

    def test_missing_header_rejected(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_timetag_file("D1,3000\n", "csv")

    def test_unknown_channel_reports_line(self):
        with pytest.raises(DataFormatError, match="line 3"):
            parse_timetag_file("channel,t_ps\nD1,1\nX7,2\n", "csv")

    def test_bad_timestamp_reports_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_timetag_file("channel,t_ps\nD1,3.5\n", "csv")

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
        assert s.times.tolist() == [100, 200, 300]
        assert s.channels.tolist() == [0, 1, 2]

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
        bad = stream_from_events(10**3, [(Channel.TRIGGER, 500), (Channel.D1, 100)])
        with pytest.raises(DataFormatError):
            write_timetag_file(bad, "csv")

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
    t = np.asarray(times, dtype=np.int64)
    order = np.lexsort((chans, t))  # canonical tie-break: channel code
    return EventStream(duration_ps=duration, times=t[order], channels=chans[order])


@given(sorted_streams())
@settings(max_examples=80)
def test_both_formats_round_trip(stream):
    for fmt in (TimetagFormat.CSV, TimetagFormat.TTAG1):
        raw = write_timetag_file(stream, fmt)
        back = parse_timetag_file(raw, fmt, duration_ps=stream.duration_ps)
        assert back == stream
        assert write_timetag_file(back, fmt) == raw
