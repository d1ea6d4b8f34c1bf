"""Imperfect single-photon detector model.

Turns an arrival stream into an electronic event stream in four stages, in
this order:

1. quantum-efficiency thinning (one uniform draw per arrival, drawn a chunk
   at a time, so the set of kept photons at a lower efficiency is a subset
   of the set kept at a higher one under the same seed),
2. Gaussian timing jitter on the kept photo-events (drawn a chunk at a time,
   rounded to integer picoseconds, clamped into the interval, re-sorted),
3. merge with an independent Poisson dark-count stream,
4. non-paralyzable dead-time filtering of the merged output.

Each stage draws from its own derived substream, so changing e.g. the dark
rate does not perturb which photons were kept.

A detector sees one arm: it reads the time array of a one-arm stream (a
generator's one-arm output, or a stream taken with ``select_arm``) and
returns the same container (``coincsim.events.EventStream``) keyed by its
channel, over the same gates.  Arrivals generated inside gates (see
``coincsim.sources``) carry the arm's count of arrivals outside them.  The
detector thins that count with one binomial draw and places dark counts in
the same gates, counting the ones outside; the output's unplaced count for
its channel holds both, so ``len(events) + events.unplaced`` keeps its
whole-acquisition distribution.
This is exact only without jitter and dead time (either lets an event
outside the gates move or suppress one inside), so such detectors reject
gate-local arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .events import Channel, EventStream, derive_seed, filter_min_separation
from .sources import ArrivalStream, _below, _jittered, _poisson_times

__all__ = ["DetectorConfig", "detect"]


@dataclass(frozen=True)
class DetectorConfig:
    channel: Channel
    efficiency: float = 1.0
    dark_rate_hz: float = 0.0
    dead_time_ps: int = 0
    jitter_sigma_ps: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError("detector efficiency must be in [0, 1]")
        if self.dark_rate_hz < 0 or not np.isfinite(self.dark_rate_hz):
            raise ConfigError("detector dark_rate_hz must be finite and >= 0")
        if self.dead_time_ps < 0:
            raise ConfigError("detector dead_time_ps must be >= 0")
        if not (self.jitter_sigma_ps >= 0 and np.isfinite(self.jitter_sigma_ps)):
            raise ConfigError("detector jitter_sigma_ps must be finite and >= 0")


def detect(arrivals: ArrivalStream, config: DetectorConfig, seed: int) -> EventStream:
    """Apply a detector to photon arrivals, producing events on its channel."""
    duration = arrivals.duration_ps
    gates = arrivals.gates
    if gates is not None and (config.dead_time_ps > 0 or config.jitter_sigma_ps > 0):
        raise ConfigError(
            f"detector on {config.channel.name} has dead time or jitter; it needs "
            "arrivals on the whole interval, not only inside the gates"
        )
    n = len(arrivals)

    kept = arrivals.times  # read-only, so the output may share it
    if config.efficiency <= 0.0 or n == 0:
        kept = np.empty(0, dtype=np.int64)
    elif config.efficiency < 1.0:
        thin = _below(np.random.default_rng(derive_seed(seed, "thin")), n, config.efficiency)
        # compress, not a boolean index: a random mask defeats branch prediction.
        kept = kept.compress(thin)

    if config.jitter_sigma_ps > 0 and len(kept):
        kept = _jittered(derive_seed(seed, "jitter"), kept, config.jitter_sigma_ps, duration)

    kept_outside = arrivals.unplaced
    if kept_outside and config.efficiency < 1.0:
        thin_outside = np.random.default_rng(derive_seed(seed, "thin-outside"))
        kept_outside = int(thin_outside.binomial(kept_outside, config.efficiency))

    dark, dark_outside = _poisson_times(
        np.random.default_rng(derive_seed(seed, "dark")), config.dark_rate_hz, duration, gates
    )

    if len(dark) == 0:
        merged = kept
    elif len(kept) == 0:
        merged = dark
    else:
        merged = np.concatenate([kept, dark])
        merged.sort(kind="mergesort")

    if config.dead_time_ps > 0:
        merged = filter_min_separation(merged, config.dead_time_ps)

    channel = config.channel
    return EventStream(duration, {channel: merged}, gates, {channel: kept_outside + dark_outside})
