"""``coincsim analyze`` reads TTAG1 files in chunks of ``cli._CHUNK_RECORDS``
records; the chunk size must change no output, no error and no exit code."""

import contextlib
import io
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coincsim import cli
from coincsim.errors import DataFormatError
from coincsim.timetags import parse_timetag_file


def ttag1_bytes(duration, records):
    head = struct.pack("<5sBQ", b"TTAG1", 1, duration)
    return head + b"".join(struct.pack("<qB", t, ch) for t, ch in records)


def analyze(path, *flags):
    """(exit code, stdout, stderr) of ``coincsim analyze`` on a TTAG1 file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", "--input", str(path), "--format", "ttag1", *flags])
    return code, out.getvalue(), err.getvalue()


def analyze_in_chunks(raw, chunk, *flags):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as d:
        mp.setattr(cli, "_CHUNK_RECORDS", chunk)
        path = Path(d) / "tags.ttag1"
        path.write_bytes(raw)
        return analyze(path, *flags)


def counts_row(result):
    code, out, err = result
    assert code == cli.EXIT_OK, err
    return out.splitlines()[1].split(",")[2:6]  # N, N1, N2, Nc


@st.composite
def records(draw):
    """Sorted (time, channel) records on a short, dense clock; sometimes one
    pair swapped so that the order breaks."""
    recs = sorted(draw(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 3)), max_size=40)))
    if len(recs) > 1 and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(recs) - 2))
        recs[i], recs[i + 1] = recs[i + 1], recs[i]
    return recs


@given(
    recs=records(),
    window_ps=st.integers(1, 25),
    extra=st.integers(0, 5),
    chunk=st.integers(1, 8),
    overlap=st.booleans(),
    gate_channel=st.sampled_from(["T", "G"]),
    duration_ps=st.one_of(st.none(), st.integers(1, 70)),
)
def test_chunk_size_changes_no_output(
    recs, window_ps, extra, chunk, overlap, gate_channel, duration_ps
):
    raw = ttag1_bytes(max((t for t, _ in recs), default=0) + 1 + extra, recs)
    flags = ["--window-ns", str(window_ps / 1000), "--gate-channel", gate_channel]
    flags += ["--allow-overlap"] if overlap else []
    flags += ["--duration-ps", str(duration_ps)] if duration_ps else []
    whole = analyze_in_chunks(raw, 1 << 16, *flags)
    assert analyze_in_chunks(raw, chunk, *flags) == whole


T, D1, D2, G = range(4)


@pytest.mark.parametrize("overlap", [[], ["--allow-overlap"]])
def test_gate_sees_events_of_the_next_chunk(overlap):
    # the gate opens at 0 in chunk 1; its D1 and D2 events lie in chunks 2 and 3
    raw = ttag1_bytes(100, [(0, T), (5, D1), (9, D2), (20, D1)])
    result = analyze_in_chunks(raw, 1, "--window-ns", "0.01", *overlap)
    assert counts_row(result) == ["1", "1", "1", "1"]


def test_gate_open_at_the_chunks_last_time_sees_the_next_chunk():
    # the chunk ends at 9, inside the gate [0, 10); D2 at 9 sorts after D1
    raw = ttag1_bytes(100, [(0, T), (9, D1), (9, D2)])
    assert counts_row(analyze_in_chunks(raw, 2, "--window-ns", "0.01")) == ["1", "1", "1", "1"]


def test_gate_sees_an_earlier_chunks_event_at_its_opening():
    # D1 sorts before G at the same time, so it ends the chunk before the gate opens
    raw = ttag1_bytes(100, [(5, D1), (5, G), (8, D2), (30, D2)])
    result = analyze_in_chunks(raw, 1, "--window-ns", "0.01", "--gate-channel", "G")
    assert counts_row(result) == ["1", "1", "1", "1"]


def test_gate_of_the_previous_chunk_drops_a_trigger():
    # 0 is kept, 3 falls in its gate, 12 is kept; a greedy pass restarted on
    # the chunk of 3 would keep 3 and drop 12
    raw = ttag1_bytes(100, [(0, T), (3, T), (12, T), (14, D1), (15, D2)])
    result = analyze_in_chunks(raw, 1, "--window-ns", "0.01")
    assert counts_row(result) == ["2", "1", "1", "1"]
    flags = ("--window-ns", "0.01", "--allow-overlap")
    assert counts_row(analyze_in_chunks(raw, 1, *flags)) == ["3", "1", "1", "1"]


@pytest.mark.parametrize("overlap", [False, True])
def test_counted_gates_marked_disjoint_when_overlaps_are_dropped(monkeypatch, overlap):
    # the closed prefix each chunk counts keeps the mark of its trigger gates
    marks = []

    def count_gates(gates, d1, d2):
        marks.append("disjoint" in vars(gates))
        return counted(gates, d1, d2)

    counted = cli.count_gates
    monkeypatch.setattr(cli, "count_gates", count_gates)
    raw = ttag1_bytes(100, [(0, T), (3, T), (12, T), (14, D1), (15, D2)])
    flags = ["--window-ns", "0.01"] + (["--allow-overlap"] if overlap else [])
    n_gates = "3" if overlap else "2"
    assert counts_row(analyze_in_chunks(raw, 1, *flags)) == [n_gates, "1", "1", "1"]
    assert len(marks) > 1 and marks == [not overlap] * len(marks)


def test_window_near_the_int64_limit():
    # the first gate's close, 3e17 + 9e18 ps, is past 2**63: the carried
    # drop bound must not wrap around and let the trigger at 3e17 + 1 through
    t0 = 3 * 10**17
    raw = ttag1_bytes(4 * 10**17, [(t0, T), (t0 + 1, T), (t0 + 5, D1), (t0 + 6, D2)])
    flags = ("--window-ns", "9e15")
    assert analyze_in_chunks(raw, 1, *flags) == analyze_in_chunks(raw, 1 << 16, *flags)


def test_gate_closing_past_the_int64_limit_is_refused():
    # a 9e15 ns window from a trigger at 3e17 ps would close past 2**63 ps, and
    # the wrapped close would see neither event
    t0 = 3 * 10**17
    raw = ttag1_bytes(4 * 10**17, [(t0, T), (t0 + 5, D1), (t0 + 6, D2)])
    code, out, err = analyze_in_chunks(raw, 1 << 16, "--window-ns", "9e15")
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert f"window of {9 * 10**18} ps from the opening at {t0} ps" in err
    result = analyze_in_chunks(raw, 1 << 16, "--window-ns", "9e3")
    assert counts_row(result) == ["1", "1", "1", "1"]


def test_ordering_break_at_a_chunk_boundary():
    # each chunk of two records is sorted; records 1 and 2 are not
    raw = ttag1_bytes(100, [(0, T), (10, D1), (5, D2), (20, D1)])
    code, out, err = analyze_in_chunks(raw, 2)
    assert (code, out) == (cli.EXIT_DATA, "")
    assert "ordering violation at event 2" in err


def test_truncation_reported_before_an_earlier_chunks_channel_code():
    raw = ttag1_bytes(100, [(0, T), (1, 7), (2, D1), (3, D2)])[:-4]
    code, _, err = analyze_in_chunks(raw, 1)
    assert code == cli.EXIT_DATA
    assert "truncated" in err and "channel code" not in err
    with pytest.raises(DataFormatError, match="truncated"):
        parse_timetag_file(raw, "ttag1")


def test_empty_last_chunk():
    # a file of exactly one chunk's records ends with a chunk of none
    raw = ttag1_bytes(100, [(0, T), (5, D1), (6, D2)])
    assert counts_row(analyze_in_chunks(raw, 3)) == ["1", "1", "1", "1"]


def recorded_file(path, n):
    """A TTAG1 file of ``n`` records ~10 ns apart, channels T, D1, D2 at random."""
    rng = np.random.default_rng(n)
    rec = np.empty(n, dtype=[("t", "<i8"), ("ch", "u1")])
    rec["t"] = np.cumsum(rng.integers(1, 20_000, n))
    rec["ch"] = rng.integers(0, 3, n)
    path.write_bytes(struct.pack("<5sBQ", b"TTAG1", 1, int(rec["t"][-1]) + 1) + rec.tobytes())


def test_memory_does_not_grow_with_the_file(tmp_path):
    peaks = []
    for n in (200_000, 2_000_000):
        path = tmp_path / f"rec{n}.ttag1"
        recorded_file(path, n)
        tracemalloc.start()
        try:
            code, out, err = analyze(path, "--window-ns", "1")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK, err
        path.unlink()
    assert abs(peaks[1] - peaks[0]) < 4 * 2**20, peaks
