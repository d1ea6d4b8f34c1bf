"""Reading and writing time-tag files.

Two interchange formats are supported:

CSV (text)
    Header line ``channel,t_ps`` followed by one row per event, channel
    spelled as T, D1, D2 or G and the timestamp in integer picoseconds.
    The observation duration is not stored; on parse it defaults to
    (last timestamp + 1) unless passed explicitly.

TTAG1 (binary)
    Little-endian throughout.  A 14-byte header: the 5 magic bytes
    ``TTAG1``, a 1-byte format version (currently 1), an 8-byte unsigned
    observation duration in picoseconds.  Then 9-byte records: 8-byte
    signed timestamp, 1-byte channel code (0=T, 1=D1, 2=D2, 3=G).

Both formats store the events interleaved in canonical (time, channel)
order: sorted by time, ties broken by channel code.  That order exists only
in the file: parsing checks it and then splits the records into one sorted
time array per channel, and writing interleaves the channels back.

Parsing is strict: unknown channels, malformed rows, timestamps outside
[0, duration), truncated records and out-of-order events all raise
DataFormatError (an unsorted file is evidence of corruption or a wrong
clock, so it is reported rather than silently sorted).  Writing refuses a
stream whose channel arrays are unsorted or outside [0, duration).
"""

from __future__ import annotations

import struct
from enum import Enum

import numpy as np

from .errors import DataFormatError
from .events import Channel, EventStream, validate_stream

__all__ = ["TimetagFormat", "parse_timetag_file", "write_timetag_file"]

_MAGIC = b"TTAG1"
_VERSION = 1
_HEADER = struct.Struct("<5sBQ")
_RECORD_DTYPE = np.dtype([("t", "<i8"), ("ch", "u1")])
_RECORD = struct.Struct("<qB")  # the same layout, to unpack a single record

_CHANNEL_NAMES = {
    Channel.TRIGGER: "T",
    Channel.D1: "D1",
    Channel.D2: "D2",
    Channel.GATE_GEN: "G",
}
_NAME_TO_CHANNEL = {v: k for k, v in _CHANNEL_NAMES.items()}


class TimetagFormat(Enum):
    CSV = "csv"
    TTAG1 = "ttag1"


def _check(times: np.ndarray, codes: np.ndarray, duration_ps: int, what: str) -> None:
    violation = validate_stream(times, codes, duration_ps)
    if violation is not None:
        raise DataFormatError(f"{what}: {violation}")


def _split(times: np.ndarray, codes: np.ndarray, duration_ps: int, what: str) -> EventStream:
    """Check the records' order and range, then split them by channel."""
    _check(times, codes, duration_ps, what)
    by_channel = {channel: times.compress(codes == channel) for channel in Channel}
    return EventStream(duration_ps, {c: t for c, t in by_channel.items() if len(t)})


def _records(stream: EventStream) -> np.ndarray:
    """The stream's events as TTAG1 records, interleaved in (time, channel) order.

    Each channel's array is checked first, so an unsorted or out-of-range
    stream is refused rather than written sorted.
    """
    parts = [np.empty(0, dtype=_RECORD_DTYPE)]
    for channel, times in sorted(stream.times_by_key.items()):
        if not isinstance(channel, Channel):
            raise DataFormatError(f"stream to serialize: {channel!r} is not a channel")
        part = np.empty(len(times), dtype=_RECORD_DTYPE)
        part["t"], part["ch"] = times, channel
        what = f"stream to serialize, channel {channel.name}"
        _check(times, part["ch"], stream.duration_ps, what)
        parts.append(part)
    records = np.concatenate(parts)
    return records[np.argsort(records["t"], kind="stable")]


def _parse_csv(text: str, duration_ps: int | None) -> EventStream:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "channel,t_ps":
        raise DataFormatError("CSV time-tag file must start with header 'channel,t_ps'")
    times: list[int] = []
    codes: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataFormatError(f"line {lineno}: expected 'channel,t_ps', got {line!r}")
        name, t_text = parts[0].strip(), parts[1].strip()
        channel = _NAME_TO_CHANNEL.get(name)
        if channel is None:
            raise DataFormatError(
                f"line {lineno}: unknown channel {name!r} (expected T, D1, D2 or G)"
            )
        digits = t_text.removeprefix("-")  # int() alone takes '+', '_' and non-ASCII digits too
        try:
            t = int(t_text) if digits.isascii() and digits.isdigit() else None
        except ValueError:  # more digits than int() converts
            t = None
        if t is None or not -(2**63) <= t < 2**63:
            raise DataFormatError(f"line {lineno}: bad timestamp {t_text!r}")
        times.append(t)
        codes.append(int(channel))
    t_arr = np.asarray(times, dtype=np.int64)
    if duration_ps is None:
        duration_ps = max(int(t_arr.max()) + 1, 1) if len(t_arr) else 1
    return _split(t_arr, np.asarray(codes, dtype=np.uint8), duration_ps, "CSV time-tag file")


def _parse_ttag1(data: bytes, duration_ps: int | None) -> EventStream:
    if len(data) < _HEADER.size:
        raise DataFormatError("TTAG1 file shorter than its 14-byte header")
    magic, version, stored_duration = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise DataFormatError(f"bad magic {magic!r}: not a TTAG1 file")
    if version != _VERSION:
        raise DataFormatError(f"unsupported TTAG1 version {version}")
    body_bytes = len(data) - _HEADER.size
    if body_bytes % _RECORD_DTYPE.itemsize != 0:
        raise DataFormatError(
            f"TTAG1 body of {body_bytes} bytes is not a whole number of "
            f"{_RECORD_DTYPE.itemsize}-byte records (truncated file?)"
        )
    # The records are read in place; each field is copied once into a
    # contiguous array (the strided 9-byte fields are slow to compare and
    # split, and the copies do not alias the caller's buffer).
    records = np.frombuffer(data, dtype=_RECORD_DTYPE, offset=_HEADER.size)
    times, codes = records["t"].copy(), records["ch"].copy()
    if len(codes) and int(codes.max()) > int(Channel.GATE_GEN):
        bad = int(np.nonzero(codes > int(Channel.GATE_GEN))[0][0])
        raise DataFormatError(f"record {bad}: unknown channel code {int(codes[bad])}")
    if duration_ps is None:
        duration_ps = int(stored_duration)
        if duration_ps <= 0:
            raise DataFormatError("TTAG1 duration must be positive")
    return _split(times, codes, duration_ps, "TTAG1 file")


def parse_timetag_file(
    data: bytes | bytearray | memoryview | str,
    fmt: TimetagFormat | str,
    duration_ps: int | None = None,
) -> EventStream:
    """Parse raw file content into an event stream, validating invariants.

    ``data`` is bytes-like, or text for CSV.  ``duration_ps`` overrides the
    duration stored in (TTAG1) or inferred from (CSV) the file.
    """
    fmt = TimetagFormat(fmt) if not isinstance(fmt, TimetagFormat) else fmt
    if duration_ps is not None and duration_ps <= 0:
        raise DataFormatError(f"duration_ps must be positive, got {duration_ps}")
    if fmt is TimetagFormat.CSV:
        try:
            text = data if isinstance(data, str) else str(data, "utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"CSV time-tag file is not UTF-8 at byte {exc.start}") from None
        return _parse_csv(text, duration_ps)
    if isinstance(data, str):
        raise DataFormatError("TTAG1 input must be bytes")
    return _parse_ttag1(data, duration_ps)


def write_timetag_file(stream: EventStream, fmt: TimetagFormat | str) -> bytes:
    """Serialize an event stream; the exact inverse of parse_timetag_file."""
    fmt = TimetagFormat(fmt) if not isinstance(fmt, TimetagFormat) else fmt
    records = _records(stream)
    if fmt is TimetagFormat.CSV:
        rows = ["channel,t_ps"]
        rows.extend(f"{_CHANNEL_NAMES[c]},{t}" for t, c in records.tolist())
        return ("\n".join(rows) + "\n").encode("utf-8")
    return _HEADER.pack(_MAGIC, _VERSION, stream.duration_ps) + records.tobytes()
