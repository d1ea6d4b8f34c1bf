"""The stream container shared by the toolkit, and helpers on event times.

All timestamps are integer picoseconds (int64) inside a half-open observation
interval [0, duration_ps).  One container, :class:`EventStream`, holds photon
arrivals and detection events alike: one sorted time array per key, keyed by
``coincsim.sources.Arm`` for arrivals and by :class:`Channel` for detections.
A stream placed only inside gates also counts, per key, the times outside
them (see ``coincsim.sources``).  A time-tag file's interleaved record order
is checked by :func:`validate_stream` (see ``coincsim.timetags``).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    from .gating import GateList

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


_NO_TIMES = np.empty(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class EventStream:
    """Immutable times of an acquisition, one sorted array per arm or channel.

    ``times_by_key`` holds each key's times inside ``gates`` (default
    ``None``: the whole interval), as read-only int64 arrays; a key it omits
    has no times, and a stream never mixes arms with channels.
    ``unplaced_by_key`` counts, per key, the times of the acquisition that
    fell outside the gates and were not placed.  Ordering and range are the
    producer's responsibility.  ``select_arm`` and ``select_channel`` are one
    dict lookup under two names.
    """

    duration_ps: int
    times_by_key: Mapping[IntEnum, np.ndarray]
    gates: GateList | None = None
    unplaced_by_key: Mapping[IntEnum, int] = field(default_factory=dict)
    _kind: type | None = field(init=False, repr=False, default=None)  # Arm, Channel or no key

    def __post_init__(self) -> None:
        if self.duration_ps <= 0:
            raise ValueError("duration_ps must be positive")
        times_by_key = {}
        for key, times in self.times_by_key.items():
            t = np.asarray(times, dtype=np.int64)
            if t.ndim != 1:
                raise ValueError("times must be 1-d arrays")
            t.setflags(write=False)
            times_by_key[key] = t
        unplaced = {key: n for key, n in self.unplaced_by_key.items() if n}
        if min(unplaced.values(), default=0) < 0:
            raise ValueError("unplaced counts must be >= 0")
        kinds = {type(key) for key in (*times_by_key, *unplaced)}
        if len(kinds) > 1:
            raise ValueError("a stream is keyed by arms or by channels, not both")
        object.__setattr__(self, "times_by_key", times_by_key)
        object.__setattr__(self, "unplaced_by_key", unplaced)
        object.__setattr__(self, "_kind", kinds.pop() if kinds else None)

    @property
    def times(self) -> np.ndarray:
        """The times of a one-key stream (see :meth:`select_channel`)."""
        if len(self.times_by_key) != 1:
            raise ValueError("times is defined only for a one-arm or one-channel stream")
        (t,) = self.times_by_key.values()
        return t

    @property
    def unplaced(self) -> int:
        """Times outside the gates, over all keys."""
        return sum(self.unplaced_by_key.values())

    def __len__(self) -> int:
        return sum(len(t) for t in self.times_by_key.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        mine, theirs = self.times_by_key, other.times_by_key
        return (
            self.duration_ps == other.duration_ps
            and all(
                np.array_equal(mine.get(k, _NO_TIMES), theirs.get(k, _NO_TIMES))
                for k in mine.keys() | theirs.keys()
            )
            and self.gates == other.gates
            and self.unplaced_by_key == other.unplaced_by_key
        )

    def select_channel(self, key: IntEnum) -> EventStream:
        """The times of one arm or channel, with its unplaced count.

        ``Arm`` and ``Channel`` values compare equal across the two enums,
        so a key of the other kind than the stream's is refused.
        """
        if self._kind is not None and type(key) is not self._kind:
            raise ValueError(f"{key!r} is not a key of this stream's kind")
        times = {key: self.times_by_key.get(key, _NO_TIMES)}
        unplaced = {key: self.unplaced_by_key.get(key, 0)}
        return EventStream(self.duration_ps, times, self.gates, unplaced)

    select_arm = select_channel


def merge_streams(a: EventStream, b: EventStream) -> EventStream:
    """Union of two streams over the same interval and gates, key by key.

    Only a key present in both is sorted again.
    """
    if a.duration_ps != b.duration_ps:
        raise ValueError(
            f"cannot merge streams with different durations "
            f"({a.duration_ps} != {b.duration_ps})"
        )
    if a.gates != b.gates:
        raise ValueError("cannot merge streams placed in different gates")
    times = dict(a.times_by_key)
    for key, t in b.times_by_key.items():
        if key in times:
            t = np.concatenate([times[key], t])
            t.sort(kind="mergesort")
        times[key] = t
    unplaced = Counter(a.unplaced_by_key) + Counter(b.unplaced_by_key)
    return EventStream(a.duration_ps, times, a.gates, unplaced)


def validate_stream(times: np.ndarray, channels: np.ndarray, duration_ps: int) -> str | None:
    """The first break of (time, channel) order or of [0, duration_ps), or ``None``.

    ``times`` and ``channels`` are parallel arrays in record order, as a
    time-tag file stores them.  Reports the lowest violating index, a range
    violation before an ordering one at the same index; never raises.
    """
    t, c = times, channels
    out_of_range = (t < 0) | (t >= duration_ps)
    out_of_order = np.zeros_like(out_of_range)
    out_of_order[1:] = (t[1:] < t[:-1]) | ((t[1:] == t[:-1]) & (c[1:] < c[:-1]))
    bad = out_of_range | out_of_order
    if not bad.any():
        return None
    i = int(bad.argmax())
    if out_of_range[i]:
        return f"range violation at event {i}: t={int(t[i])} outside [0, {duration_ps})"
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
    close = np.flatnonzero(np.diff(times) < min_sep_ps)
    if not len(close):
        return times.copy()
    keep = np.ones(n, dtype=bool)
    # consecutive close gaps first..last make one run of events [first, last + 2)
    breaks = np.flatnonzero(np.diff(close) > 1)
    firsts = close[np.concatenate(([0], breaks + 1))]
    ends = close[np.concatenate((breaks, [len(close) - 1]))] + 2
    for s, e in zip(firsts.tolist(), ends.tolist()):
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
