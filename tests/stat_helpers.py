"""Statistical oracles shared by the test modules."""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np
from scipy import stats

from coincsim.events import Channel, EventStream


def poisson_chisq_pvalue(counts, mean: float) -> float:
    """Chi-square goodness-of-fit p-value of observed counts vs Poisson(mean).

    Bins the integer counts, merging the upper tail so every expected bin
    content is at least 5 (standard validity rule for the chi-square test).
    """
    counts = np.asarray(counts)
    n = len(counts)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), mean) * n
    # fold everything beyond kmax into a final open bin
    observed = np.append(observed, 0.0)
    expected = np.append(expected, n - expected.sum())
    # merge from the right until all expected bins are >= 5
    while len(expected) > 2 and expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    while len(expected) > 2 and expected[0] < 5:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected = expected[1:]
        observed = observed[1:]
    chi2 = ((observed - expected) ** 2 / expected).sum()
    dof = len(expected) - 1
    return float(stats.chi2.sf(chi2, dof))


def assert_canonical(stream: EventStream) -> None:
    """Each arm's or channel's times are sorted and inside [0, duration_ps)."""
    for key, t in stream.times_by_key.items():
        assert np.all(np.diff(t) >= 0), f"{key.name} times out of order"
        assert len(t) == 0 or (t[0] >= 0 and t[-1] < stream.duration_ps), (
            f"{key.name} times outside [0, {stream.duration_ps})"
        )


class Event(NamedTuple):
    channel: Channel
    t_ps: int


def stream_from_events(duration_ps: int, events: Iterable[Event | tuple]) -> EventStream:
    """Build a stream from (channel, t_ps) pairs, each channel in given order."""
    by_channel: dict[Channel, list[int]] = {}
    for channel, t in events:
        by_channel.setdefault(Channel(channel), []).append(t)
    return EventStream(duration_ps, by_channel)


def events_of(stream: EventStream) -> list[Event]:
    """The stream's events as (channel, t_ps) pairs, in (time, channel) order."""
    pairs = sorted(
        (int(t), int(channel)) for channel, ts in stream.times_by_key.items() for t in ts
    )
    return [Event(Channel(c), t) for t, c in pairs]


def stream_of(duration_ps: int, *events) -> EventStream:
    """Shorthand: stream_of(100, ("D1", 5), ("T", 9))."""
    name_map = {"T": Channel.TRIGGER, "D1": Channel.D1, "D2": Channel.D2, "G": Channel.GATE_GEN}
    pairs = [(name_map[ch] if isinstance(ch, str) else ch, t) for ch, t in events]
    return stream_from_events(duration_ps, pairs)
