"""Time-tagged detection events and the stream container shared by the toolkit.

All timestamps are integer picoseconds (int64) inside a half-open observation
interval [0, duration_ps).  Streams are kept in canonical order: sorted by
time, ties broken by channel code.  Generators and detector models are
required to emit canonical streams; :func:`validate_stream` reports (rather
than repairs) the first violation, which matters when checking externally
supplied time-tag files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "Channel",
    "EventStream",
    "derive_seed",
    "filter_min_separation",
    "merge_streams",
    "validate_stream",
]


class Channel(IntEnum):
    """Detector/electronics channels, ordered by their tie-break priority."""

    TRIGGER = 0  # heralding detector
    D1 = 1       # transmitted-path detector
    D2 = 2       # reflected-path detector
    GATE_GEN = 3  # gate pulse generator


def _as_times(times) -> np.ndarray:
    arr = np.asarray(times, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("timestamps must be one-dimensional")
    return arr


def _as_codes(codes, n: int) -> np.ndarray:
    arr = np.asarray(codes, dtype=np.uint8)
    if arr.shape != (n,):
        raise ValueError("channel codes must match timestamps in length")
    return arr


@dataclass(frozen=True, eq=False)
class EventStream:
    """Immutable, canonically ordered sequence of detection events.

    ``times`` and ``channels`` are parallel arrays.  The arrays are marked
    read-only on construction; ordering/range invariants are the producer's
    responsibility (see :func:`validate_stream`).  ``unplaced`` counts events
    of the acquisition that a detector only counted, because they fell outside
    the gates its arrivals were generated in (see ``coincsim.sources``).
    """

    duration_ps: int
    times: np.ndarray
    channels: np.ndarray
    unplaced: int = 0

    def __post_init__(self) -> None:
        if self.duration_ps <= 0:
            raise ValueError("duration_ps must be positive")
        if self.unplaced < 0:
            raise ValueError("unplaced must be >= 0")
        t = _as_times(self.times)
        c = _as_codes(self.channels, len(t))
        t.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "channels", c)

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.duration_ps == other.duration_ps
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.channels, other.channels)
            and self.unplaced == other.unplaced
        )

    def select_channel(self, channel: Channel) -> "EventStream":
        """Sub-stream containing only events on one channel (order kept)."""
        if self.unplaced:
            raise ValueError("unplaced events carry no channel and cannot be selected")
        mask = self.channels == np.uint8(int(channel))
        return EventStream(self.duration_ps, self.times[mask], self.channels[mask])


def merge_streams(a: EventStream, b: EventStream) -> EventStream:
    """Multiset union of two streams over the same observation interval."""
    if a.duration_ps != b.duration_ps:
        raise ValueError(
            f"cannot merge streams with different durations "
            f"({a.duration_ps} != {b.duration_ps})"
        )
    times = np.concatenate([a.times, b.times])
    codes = np.concatenate([a.channels, b.channels])
    order = np.lexsort((codes, times))
    return EventStream(a.duration_ps, times[order], codes[order], a.unplaced + b.unplaced)


def validate_stream(stream: EventStream) -> str | None:
    """The first violation of canonical order or timestamp range, or ``None``.

    Reports the lowest violating index, a range violation before an ordering
    one at the same index; never raises.
    """
    t, c, duration = stream.times, stream.channels, stream.duration_ps
    out_of_range = (t < 0) | (t >= duration)
    out_of_order = np.zeros_like(out_of_range)
    out_of_order[1:] = (t[1:] < t[:-1]) | ((t[1:] == t[:-1]) & (c[1:] < c[:-1]))
    bad = out_of_range | out_of_order
    if not bad.any():
        return None
    i = int(bad.argmax())
    if out_of_range[i]:
        return f"range violation at event {i}: t={int(t[i])} outside [0, {duration})"
    return f"ordering violation at event {i}: event at index {i} breaks (time, channel) order"


def filter_min_separation(times: np.ndarray, min_sep_ps: int) -> np.ndarray:
    """Greedy pass keeping events at least ``min_sep_ps`` after the last kept one.

    This is the non-paralyzable hold-off rule shared by detector dead time and
    gate-generator re-arm logic: the first event is kept, and each later event
    is kept iff it falls at or after (last kept time + min_sep_ps).

    Vectorized for the common sparse case: any event whose raw gap to its
    predecessor is >= min_sep_ps survives no matter what happened before it
    (dropping the predecessor only moves the comparison point earlier), so the
    greedy scan is only run inside runs of closer-than-min_sep events.
    """
    times = np.asarray(times, dtype=np.int64)
    n = len(times)
    if min_sep_ps <= 0 or n < 2:
        return times.copy()
    gap_ok = np.diff(times) >= min_sep_ps
    if gap_ok.all():
        return times.copy()
    keep = np.ones(n, dtype=bool)
    starts = np.nonzero(np.concatenate(([True], gap_ok)))[0]
    ends = np.concatenate((starts[1:], [n]))
    runs = ends - starts >= 2
    for s, e in zip(starts[runs].tolist(), ends[runs].tolist()):
        last = times[s]
        for i in range(s + 1, e):
            if times[i] - last >= min_sep_ps:
                last = times[i]
            else:
                keep[i] = False
    return times[keep]


_SEED_SEP = b"\x1f"


def derive_seed(*parts: int | str) -> int:
    """Stable 64-bit stream seed from a sequence of labels and indices.

    Uses blake2b so distinct (master seed, acquisition, stage) tuples get
    statistically independent generator states, reproducibly across runs,
    platforms and process boundaries.
    """
    payload = _SEED_SEP.join(str(p).encode("utf-8") for p in parts)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")
