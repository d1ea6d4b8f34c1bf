"""Gate construction and windowed coincidence counting.

A gate is the half-open interval [open, open + window): an event exactly at
the opening time is inside, an event exactly at the close is not.  Counting
is binary per gate and channel, which models a gated counter that latches on
the first event in the window.

Two gate sources are supported: gates opened by trigger-channel events
(heralded operation) and strictly periodic gates from a pulse generator.
Overlap between consecutive gates is either forbidden by dropping the later
trigger (DROP_OVERLAPPING, the default, mirroring a re-triggerable gate
circuit that ignores triggers while busy) or allowed (ALLOW_OVERLAP).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
    if policy is GatePolicy.DROP_OVERLAPPING:
        opens = filter_min_separation(opens, window_ps)
    else:
        opens = opens.copy()
    return GateList(window_ps, opens)


def gate_period_ps(rate_hz: float, window_ps: int) -> float:
    """The period of gates at ``rate_hz``, checked to leave room for ``window_ps``."""
    if not (rate_hz > 0) or not np.isfinite(rate_hz):
        raise ConfigError("run.gate_rate_hz must be finite and > 0")
    period_ps = 1e12 / rate_hz
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
    ideal = np.arange(n, dtype=np.float64)
    ideal *= period_ps
    opens = np.rint(ideal, out=ideal).astype(np.int64)
    gates = GateList(window_ps, opens[: np.searchsorted(opens, duration_ps)])
    vars(gates)["disjoint"] = True
    return gates


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
    """Search both edges of every gate into the events."""
    lo = np.searchsorted(times, gates.opens, side="left")
    hi = np.searchsorted(times, gates.closes, side="left")
    return hi > lo


def _hits_by_event(gates: GateList, times: np.ndarray) -> np.ndarray:
    """Search every event into the openings; needs non-overlapping gates."""
    idx = np.searchsorted(gates.opens, times, side="right") - 1
    inside = (idx >= 0) & (times < gates.opens[np.maximum(idx, 0)] + gates.window_ps)
    hits = np.zeros(len(gates), dtype=bool)
    # compress, not a boolean index: a random mask defeats branch prediction.
    hits[idx.compress(inside)] = True
    return hits


def _gate_hits(gates: GateList, times: np.ndarray) -> np.ndarray:
    """Boolean per gate: does [open, close) contain at least one event?

    Sparse channels search their few events into the gates instead of the
    gates into the events; without overlap both give the same answer.
    """
    if len(times) < len(gates) and gates.disjoint:
        return _hits_by_event(gates, times)
    return _hits_by_gate(gates, times)


def count_gates(gates: GateList, d1: EventStream, d2: EventStream) -> CountSummary:
    """Count gates in which each channel fired, and both fired together.

    Counting is binary per gate: multiple events inside one window count
    once.  A coincidence is a gate in which both channels fired, regardless
    of their order inside the window.
    """
    h1 = _gate_hits(gates, d1.times)
    h2 = _gate_hits(gates, d2.times)
    return CountSummary(
        n_gates=len(gates),
        n1=int(np.count_nonzero(h1)),
        n2=int(np.count_nonzero(h2)),
        nc=int(np.count_nonzero(h1 & h2)),
    )
