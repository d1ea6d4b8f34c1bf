"""Gate construction and windowed coincidence counting.

A gate is the half-open interval [open, open + window): an event exactly at
the opening time is inside, an event exactly at the close is not.  Counting
is binary per gate and channel, which models a gated counter that latches on
the first event in the window.  Each channel's hits are the sorted indices of
the gates it fired in.  A sparse channel looks up each event's gate: periodic
gates divide its time by their period, and search only where rounding of the
openings misses; trigger gates read it from a table over buckets of time,
built once per count and shared by both channels, and search only the events
whose bucket holds more than one opening after them.

Two gate sources are supported: gates opened by trigger-channel events
(heralded operation) and strictly periodic gates from a pulse generator.
Overlap between consecutive gates is either forbidden by dropping the later
trigger (DROP_OVERLAPPING, the default, mirroring a re-triggerable gate
circuit that ignores triggers while busy) or allowed (ALLOW_OVERLAP).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError
from .events import EventStream, filter_min_separation

__all__ = [
    "CountSummary",
    "GateList",
    "GatePolicy",
    "count_gates",
    "gate_period_ps",
    "make_gates_from_trigger",
    "make_gates_periodic",
]


# Gates built or scanned, or arrivals drawn for and selected, together here,
# in ``sources`` and in ``detectors``.  Full-length temporaries (8 MB per 10^6
# gates or arrivals) would be fresh memory on every call, paying a page fault
# per 4 kB and a DRAM pass per operation; one chunk's temporaries stay in cache.
# Chunks avoid fresh pages only while each temporary stays below glibc's
# 128 KiB mmap threshold: a larger one can be trimmed from the heap on free.
GATE_CHUNK = 1 << 16
_PERIODIC_CHUNK = 1 << 13  # openings per step of make_gates_periodic's scratch


class GatePolicy(Enum):
    DROP_OVERLAPPING = "drop_overlapping"
    ALLOW_OVERLAP = "allow_overlap"


@dataclass(frozen=True, eq=False)
class GateList:
    """Sorted gate openings sharing one window length."""

    window_ps: int
    opens: np.ndarray

    def __post_init__(self) -> None:
        if self.window_ps <= 0:
            raise ConfigError("window_ps must be positive")
        opens = np.asarray(self.opens, dtype=np.int64)
        if len(opens) and int(opens[-1]) > 2**63 - 1 - self.window_ps:  # sorted: last closes last
            where = f"a window of {self.window_ps} ps from the opening at {int(opens[-1])} ps"
            raise ConfigError(where + " closes past 2**63 - 1 ps")
        opens.setflags(write=False)
        object.__setattr__(self, "opens", opens)

    def __len__(self) -> int:
        return len(self.opens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GateList):
            return NotImplemented
        return self.window_ps == other.window_ps and np.array_equal(self.opens, other.opens)

    @property
    def closes(self) -> np.ndarray:
        return self.opens + self.window_ps

    @cached_property
    def disjoint(self) -> bool:
        """True when no two gates overlap (each event lies in at most one gate)."""
        return bool(np.all(np.diff(self.opens) >= self.window_ps))


def make_gates_from_trigger(
    trigger_events: EventStream, window_ps: int, policy: GatePolicy = GatePolicy.DROP_OVERLAPPING
) -> GateList:
    """One gate per trigger event, optionally dropping overlapped openings.

    Under DROP_OVERLAPPING a trigger arriving before the previous accepted
    gate has closed is discarded (greedy, in time order), so accepted gates
    never overlap.
    """
    opens = trigger_events.times
    drop = policy is GatePolicy.DROP_OVERLAPPING
    opens = filter_min_separation(opens, window_ps) if drop else opens.copy()
    return _gates(window_ps, opens, disjoint=drop)


def _gates(
    window_ps: int, opens: np.ndarray, disjoint: bool, period_ps: float | None = None
) -> GateList:
    """``GateList(window_ps, opens)``, marked disjoint when the caller knows it
    is, and with ``period_ps`` when opening k is ``rint(k * period_ps)``."""
    gates = GateList(window_ps, opens)
    if disjoint:
        vars(gates)["disjoint"] = True
    if period_ps is not None:
        vars(gates)["_period_ps"] = period_ps
    return gates


def gate_period_ps(rate_hz: float, window_ps: int) -> float:
    """The period of gates at ``rate_hz``, checked to leave room for ``window_ps``."""
    if not (rate_hz > 0) or not np.isfinite(rate_hz):
        raise ConfigError("run.gate_rate_hz must be finite and > 0")
    period_ps = 1e12 / rate_hz
    if not np.isfinite(period_ps):
        raise ConfigError(f"run.gate_rate_hz ({rate_hz!r} Hz) is too low: its period overflows")
    # Rounding moves each opening by <= 0.5 ps, so openings lie >= period - 1 ps
    # apart: a window at most that long never overlaps the next gate.
    if window_ps > period_ps - 1:
        raise ConfigError(
            f"run.window_ps ({window_ps} ps) must be at least 1 ps shorter than "
            f"the period of run.gate_rate_hz ({period_ps:.1f} ps): gates would overlap"
        )
    return period_ps


def make_gates_periodic(rate_hz: float, duration_ps: int, window_ps: int) -> GateList:
    """Strictly periodic gates from a pulse generator running at ``rate_hz``.

    The k-th opening sits at round(k * 1e12 / rate_hz), i.e. on the ideal
    periodic grid rounded to the picosecond tick, and openings at or beyond
    ``duration_ps`` are discarded.  Rounding per opening (rather than rounding
    one period and multiplying) keeps the long-run rate exact: 65 kHz over one
    second yields exactly 65000 gates.
    """
    if duration_ps <= 0:
        raise ConfigError("duration_ps must be positive")
    if window_ps <= 0:
        raise ConfigError("window_ps must be positive")
    period_ps = gate_period_ps(rate_hz, window_ps)
    n = int(np.ceil(duration_ps / period_ps)) + 1
    opens = np.empty(n, dtype=np.int64)
    ideal = opens.view(np.float64)  # each chunk rounded, then cast, in place
    # The k of one chunk: 64 KiB, below glibc's 128 KiB mmap threshold.  A
    # scratch as large as the output, freed with it, lets glibc trim both from
    # the heap, and the next call faults them back in (~220 faults at 65 kHz).
    k = np.arange(min(n, _PERIODIC_CHUNK), dtype=np.float64)
    for s in range(0, n, len(k)):
        part = ideal[s : s + len(k)]
        np.multiply(k[: len(part)], period_ps, out=part)
        opens[s : s + len(k)] = np.rint(part, out=part)
        k += len(k)
    opens = opens[: np.searchsorted(opens, duration_ps)]
    return _gates(window_ps, opens, disjoint=True, period_ps=period_ps)


@dataclass(frozen=True)
class CountSummary:
    """Binary per-gate counts: gates, singles on each channel, coincidences."""

    n_gates: int
    n1: int
    n2: int
    nc: int

    def __post_init__(self) -> None:
        for name in ("n_gates", "n1", "n2", "nc"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer")
            object.__setattr__(self, name, int(v))  # a plain int, so the counts dump to JSON

    def __add__(self, other: "CountSummary") -> "CountSummary":
        if not isinstance(other, CountSummary):
            return NotImplemented
        return CountSummary(
            self.n_gates + other.n_gates,
            self.n1 + other.n1,
            self.n2 + other.n2,
            self.nc + other.nc,
        )


def _hits_by_gate(gates: GateList, times: np.ndarray) -> np.ndarray:
    """Search every opening into the events: a gate holds one when the first
    event at or after its opening comes before its close."""
    first = np.searchsorted(times, gates.opens, side="left")
    after = np.append(times, np.iinfo(np.int64).max)[first]  # no event: past any close
    return np.flatnonzero(after < gates.closes)


def _bucket_index(opens: np.ndarray) -> tuple[int, np.ndarray]:
    """A shift s and a table ``last`` over buckets of 2**s ps from ``opens[0]``:
    ``last[b]`` is the index of the last opening in bucket b or before it.

    2**s is the largest power of two at most the span per gate, so there are
    1 to 2 buckets per gate.  The table is built with no search.
    """
    span = int(opens[-1]) - int(opens[0])
    shift = max(0, (span // len(opens)).bit_length() - 1)
    bucket = np.subtract(opens.view(np.uint64), opens[:1].view(np.uint64))
    bucket >>= np.uint64(shift)  # s >= 1 once the span reaches 2**63, so it fits int64
    last = np.bincount(bucket.view(np.int64))
    np.cumsum(last, out=last)
    last -= 1
    return shift, last


def _hits_by_event(gates: GateList, times: np.ndarray, index=None) -> np.ndarray:
    """Find each event's gate among non-overlapping gates, searching few events.

    Periodic gates take gate ``floor(t / period)`` and search the events
    outside it.  Trigger gates take the last opening of the event's bucket,
    from ``index()`` or else a table built here, step back one opening where
    that one follows the event, and search the events still before theirs.
    """
    opens, window, period_ps = gates.opens, gates.window_ps, vars(gates).get("_period_ps")
    if period_ps is None:
        shift, last = index() if index else _bucket_index(opens)
        # t - opens[0] taken unsigned is exact from opens[0] on; an event
        # before it lands past the table, and the steps below search it
        bucket = np.subtract(times.view(np.uint64), opens[:1].view(np.uint64))
        bucket >>= np.uint64(shift)
        idx = last.take(bucket.view(np.int64), mode="clip")
        since = np.subtract(times, opens.take(idx), out=bucket.view(np.int64))  # t - open
        back = np.flatnonzero(since < 0)
        prev = idx[back] - 1  # -1 at the first gate: the last opening, after the event
        since_prev = times[back] - opens.take(prev)
        miss = np.flatnonzero(since_prev < 0)
        prev[miss] = np.searchsorted(opens, times[back[miss]], side="right") - 1
        since_prev[miss] = times[back[miss]] - opens.take(prev[miss])
        idx[back] = prev
        since[back] = since_prev
    else:  # opening k is rint(k * period), so t / period can fall one gate short
        idx = (times / period_ps).astype(np.int64).clip(0, len(opens) - 1)
        since = times - opens[idx]
        miss = np.flatnonzero(since.view(np.uint64) >= window)
        idx[miss] = np.searchsorted(opens, times[miss], side="right") - 1
        since[miss] = times[miss] - opens[idx[miss]]
    # 0 <= t - open < window as one unsigned comparison
    inside = since.view(np.uint64) < window
    # compress, not a boolean index: a random mask defeats branch prediction.
    hits = idx.compress(inside)  # sorted, as the events are
    first = np.ones(len(hits), dtype=bool)  # one index per gate
    np.not_equal(hits[1:], hits[:-1], out=first[1:])
    return hits.compress(first)


def _gate_hits(gates: GateList, times: np.ndarray, index=None) -> np.ndarray:
    """Sorted indices of the gates whose [open, close) holds an event.

    Sparse channels search their few events into the gates instead of the
    gates into the events; without overlap both give the same answer.
    """
    if len(times) < len(gates) and gates.disjoint:
        return _hits_by_event(gates, times, index)
    return _hits_by_gate(gates, times)


def count_gates(gates: GateList, d1: EventStream, d2: EventStream) -> CountSummary:
    """Count gates in which each channel fired, and both fired together.

    Counting is binary per gate: multiple events inside one window count
    once.  A coincidence is a gate in which both channels fired, regardless
    of their order inside the window.
    """
    # trigger gates' bucket index: built by the first channel that looks it up
    index = cache(lambda: _bucket_index(gates.opens))
    h1 = _gate_hits(gates, d1.times, index)
    h2 = _gate_hits(gates, d2.times, index)
    fired1 = np.zeros(len(gates), dtype=bool)
    fired1[h1] = True
    return CountSummary(
        n_gates=len(gates), n1=len(h1), n2=len(h2), nc=int(np.count_nonzero(fired1[h2]))
    )
