"""Photon-arrival models for the light sources being compared.

Four source models are implemented:

* ``pdc``: a parametric-downconversion pair source.  Signal photons go to the
  heralding arm; each idler is later projected onto exactly one of two output
  paths of a polarization splitter (:func:`project_idler_path`).  Because a
  single photon takes one path or the other, true coincidences between the two
  paths vanish and only accidentals remain.  Without pair jitter, the idler
  shares the signal's read-only time array.
* ``coherent``: two independent Poisson beams, one per splitter output.  The
  intensity carries no memory, so gated counting on the two outputs factorizes
  exactly.
* ``thermal``: a single chaotic mode shared by both splitter outputs,
  modelled as a doubly stochastic Poisson process whose intensity is
  resampled from an exponential law every coherence time.  The common
  intensity bunches both outputs together and pushes the measured
  correlation above the factorized value.  A lamp whose two outputs see
  unrelated light is two independent Poisson beams, i.e. ``coherent``.
* ``classical_wave``: a semiclassical per-gate intensity model in which each
  gate carries an intensity draw I and the two detectors fire independently
  with probabilities q*I and (1-q)*I.  For any intensity distribution this
  model obeys <I^2> >= <I>^2, i.e. its normalized coincidence ratio cannot
  drop below one; it is the classical benchmark the pair source is compared
  against.

Arrival streams produced here are "physical photons at detector inputs":
no efficiency, dark counts or electronics are applied yet (see
``coincsim.detectors``).  They use the toolkit's one stream container,
``coincsim.events.EventStream`` (named ``ArrivalStream`` here), keyed by
:class:`Arm`: a source that feeds two arms, or the idler splitter that sends
each photon down one path, hands each arm's sorted arrivals on as they were
drawn; ``select_arm`` takes out the one arm a detector sees.

Homogeneous Poisson streams are generated by drawing the total count
N ~ Poisson(rate * duration) and then placing N points uniformly on the
observation interval, which is distributionally identical to accumulating
exponential waiting times but vectorizes cleanly.

Gate-local generation.  A Poisson stream can be placed on a list of
non-overlapping gates (a :class:`~coincsim.gating.GateList`) instead of the
whole interval.  The whole-acquisition total N is drawn as before;
n_in ~ Binomial(N, covered / duration) of those arrivals are placed
uniformly on the gate ticks (a last gate running past the interval's end is
clipped there), and the other N - n_in are carried on the stream as a count
per arm (``unplaced_by_key``).  Restricting a Poisson process
to a set gives a Poisson process (Kingman, *Poisson Processes*, 1993), so
the placed arrivals have exactly the law of the whole-interval arrivals that
fall inside the gates, and ``len(stream) + unplaced`` keeps the
whole-acquisition distribution.  Rates (``rate_hz``, ``mean_rate_hz``) stay
whole-acquisition rates.

Shared-mode thermal light is, given its block intensities, a Poisson process
whose rate is constant on each coherence block (Mandel & Wolf, *Optical
Coherence and Quantum Optics*, 1995).  Mixed over a block's exponential
intensity, its count over c gated ticks is Bose–Einstein (geometric) with
mean rate * c, independently from block to block.  So no intensity is drawn
for a block that holds one whole gate alone or lies inside a gate: a
binomial number of such alike blocks is lit, each with a geometric count.
Only the few blocks at a gate's edges, shared by gates or clipped at the
end draw an intensity; an integer pass over the gates, a chunk at a time,
finds them.  The outside count is one Poisson draw, given each group's
summed intensity, which is one gamma draw.  Photons go uniformly on their
block's gated ticks, and each goes to one arm.  The same routine with the
whole interval as the one gate gives the plain stream.

The scenario runner places every generator-gated kind (coherent and thermal
light) on the periodic gates when neither beam detector has dead time or
jitter; then no event outside a gate can reach a count, and the result is
exact up to the picosecond tick.  Every other case uses the whole interval
(``gates=None``), for which no outside count is drawn.

Each source config class states its ``kind``.  The other facts the
scenario runner needs about a kind (its config class, the field a sweep
multiplier scales, the ``[detector.*]`` sections it reads, whether a gate
generator opens its gates, and how one acquisition runs, what alpha it
predicts and which arrays it builds) are one row of the table ``_KINDS`` in
``coincsim.scenario``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import ClassVar

import numpy as np

from . import gating
from .errors import ConfigError
from .events import EventStream as ArrivalStream
from .events import derive_seed
from .gating import GateList

__all__ = [
    "Arm",
    "ArrivalStream",
    "ClassicalWaveConfig",
    "CoherentSourceConfig",
    "IntensityLaw",
    "PdcSourceConfig",
    "SourceKind",
    "ThermalSourceConfig",
    "gen_classical_wave_gates",
    "gen_pdc_pairs",
    "gen_poisson_arrivals",
    "gen_thermal_arrivals",
    "project_idler_path",
]


class Arm(IntEnum):
    """Physical arm labels for raw (pre-detector) arrivals."""

    TRIGGER_ARM = 0
    IDLER_PATH1 = 1
    IDLER_PATH2 = 2
    BEAM1 = 3
    BEAM2 = 4
    IDLER_UNDECIDED = 5  # idler before the splitter has assigned a path


class SourceKind(Enum):
    PDC = "pdc"
    COHERENT = "coherent"
    THERMAL = "thermal"
    CLASSICAL_WAVE = "classical_wave"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class PdcSourceConfig:
    """Pair source: simultaneous signal/idler pairs at ``pair_rate_hz``.

    ``pair_jitter_ps`` is the sigma of a Gaussian spread applied to the idler
    arrival relative to its signal partner (0 = perfectly simultaneous).
    """

    kind: ClassVar[SourceKind] = SourceKind.PDC

    pair_rate_hz: float
    pair_jitter_ps: float = 0.0

    def __post_init__(self) -> None:
        _require(self.pair_rate_hz >= 0, "source.pair_rate_hz must be >= 0")
        _require(np.isfinite(self.pair_rate_hz), "source.pair_rate_hz must be finite")
        _require(
            self.pair_jitter_ps >= 0 and np.isfinite(self.pair_jitter_ps),
            "source.pair_jitter_ps must be finite and >= 0",
        )


@dataclass(frozen=True)
class CoherentSourceConfig:
    """Two independent Poisson beams of ``mean_rate_hz`` each."""

    kind: ClassVar[SourceKind] = SourceKind.COHERENT

    mean_rate_hz: float

    def __post_init__(self) -> None:
        _require(self.mean_rate_hz >= 0, "source.mean_rate_hz must be >= 0")
        _require(np.isfinite(self.mean_rate_hz), "source.mean_rate_hz must be finite")


@dataclass(frozen=True)
class ThermalSourceConfig:
    """A single chaotic mode shared by the two arms.

    The mode's total rate ``mean_rate_hz`` is divided between the arms by
    ``splitting_ratio``, and its instantaneous intensity is redrawn from an
    exponential distribution every ``coherence_time_ps``.  Arms that see
    unrelated light are two independent Poisson beams:
    :class:`CoherentSourceConfig`.
    """

    kind: ClassVar[SourceKind] = SourceKind.THERMAL

    mean_rate_hz: float
    coherence_time_ps: int
    splitting_ratio: float = 0.5

    def __post_init__(self) -> None:
        _require(self.mean_rate_hz >= 0, "source.mean_rate_hz must be >= 0")
        _require(np.isfinite(self.mean_rate_hz), "source.mean_rate_hz must be finite")
        _require(self.coherence_time_ps > 0, "source.coherence_time_ps must be > 0")
        _require(0.0 <= self.splitting_ratio <= 1.0, "source.splitting_ratio must be in [0, 1]")


class IntensityLaw(Enum):
    CONSTANT = "constant"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class ClassicalWaveConfig:
    """Per-gate semiclassical intensity model.

    The source heralds trials at ``herald_rate_hz``; each heralded gate draws
    an intensity I from ``intensity_law`` with mean
    ``per_gate_intensity_mean``, and the detectors fire with probabilities
    q*I and (1-q)*I where q = ``splitting_ratio``.  The mean is capped at 0.1
    so the probabilities stay in the linear (rate-proportional) regime of the
    detectors; draws are additionally clipped at I = 1 so probabilities stay
    valid for heavy-tailed laws.
    """

    kind: ClassVar[SourceKind] = SourceKind.CLASSICAL_WAVE

    herald_rate_hz: float
    per_gate_intensity_mean: float
    intensity_law: IntensityLaw = IntensityLaw.CONSTANT
    splitting_ratio: float = 0.5

    def __post_init__(self) -> None:
        _require(
            self.herald_rate_hz > 0 and np.isfinite(self.herald_rate_hz),
            "source.herald_rate_hz must be finite and > 0",
        )
        _require(
            self.per_gate_intensity_mean > 0,
            "source.per_gate_intensity_mean must be > 0",
        )
        _require(
            self.per_gate_intensity_mean <= 0.1,
            "source.per_gate_intensity_mean must be <= 0.1 to stay in the "
            "linear detection regime",
        )
        _require(
            0.0 < self.splitting_ratio < 1.0,
            "source.splitting_ratio must be strictly between 0 and 1",
        )


def _checked(gates: GateList, duration_ps: int) -> GateList:
    """``gates``, once they are known to be sorted, disjoint and open inside the interval."""
    opens = gates.opens
    if len(opens) and (opens[0] < 0 or opens[-1] >= duration_ps or not gates.disjoint):
        raise ConfigError("gates must be sorted, disjoint and open inside the interval")
    return gates


def _poisson_times(
    rng: np.random.Generator, rate_hz: float, duration_ps: int, gates: GateList | None = None
) -> tuple[np.ndarray, int]:
    """Sorted Poisson arrival times inside the gates, and the count outside.

    The total is drawn for the whole acquisition; a binomial keeps the share
    that falls in the gates, and offset u of the concatenated gates is placed
    at opens[u // window] + u % window.  ``gates=None`` (the whole interval)
    skips that draw, so its stream is the plain whole-interval stream.
    """
    mean = rate_hz * duration_ps * 1e-12
    n = int(rng.poisson(mean)) if mean > 0 else 0
    n_in, covered = n, duration_ps
    if gates is not None:
        opens, window = _checked(gates, duration_ps).opens, gates.window_ps
        covered = len(opens) * window
        if covered:
            covered -= max(0, int(opens[-1]) + window - duration_ps)
        n_in = int(rng.binomial(n, covered / duration_ps))
    if n_in == 0:
        return np.empty(0, dtype=np.int64), n
    t = rng.integers(0, covered, size=n_in, dtype=np.int64)
    t.sort()
    if gates is not None:
        t = opens[t // window] + t % window
    return t, n - n_in


def _below(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """``rng.random(n) < p``, from the same uniforms drawn one chunk at a time."""
    out, u = np.empty(n, dtype=bool), np.empty(min(n, gating.GATE_CHUNK))
    for s in range(0, n, gating.GATE_CHUNK):  # the last chunk's slices end at n
        np.less(rng.random(out=u[: n - s]), p, out=out[s : s + len(u)])
    return out


def _compress(times: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``times.compress(mask)`` (a random mask defeats a boolean index), a chunk at a time."""
    out, k, chunk = np.empty(np.count_nonzero(mask), dtype=np.int64), 0, gating.GATE_CHUNK
    for s in range(0, len(times), chunk):
        c = np.count_nonzero(mask[s : s + chunk])
        np.compress(mask[s : s + chunk], times[s : s + chunk], out=out[k : k + c])
        k += c
    return out


def _jittered(seed: int, times: np.ndarray, sigma: float, duration_ps: int) -> np.ndarray:
    """``times`` plus rounded Normal(0, sigma) offsets drawn a chunk at a time, clamped, sorted."""
    rng, out, chunk = np.random.default_rng(seed), times.copy(), gating.GATE_CHUNK
    for s in range(0, len(out), chunk):
        offsets = np.rint(rng.normal(0.0, sigma, size=min(chunk, len(out) - s)))
        # an offset past the interval lands on its edge either way; clipped, it fits int64
        out[s : s + chunk] += np.clip(offsets, -duration_ps, duration_ps).astype(np.int64)
    np.clip(out, 0, duration_ps - 1, out=out)
    out.sort()
    return out


def gen_poisson_arrivals(
    rate_hz: float,
    duration_ps: int,
    arm: Arm,
    seed: int,
    gates: GateList | None = None,
) -> ArrivalStream:
    """Homogeneous Poisson arrivals on a single arm, placed only inside ``gates``.

    ``rate_hz`` is the whole-acquisition rate; the arrivals outside the
    gates (default ``None``: the whole interval) are counted in ``unplaced``.
    """
    if duration_ps <= 0:
        raise ConfigError("duration_ps must be positive")
    if rate_hz < 0:
        raise ConfigError("rate_hz must be >= 0")
    rng = np.random.default_rng(seed)
    t, unplaced = _poisson_times(rng, rate_hz, duration_ps, gates)
    return ArrivalStream(duration_ps, {arm: t}, gates, {arm: unplaced})


def gen_pdc_pairs(
    config: PdcSourceConfig, duration_ps: int, seed: int
) -> tuple[ArrivalStream, ArrivalStream]:
    """Generate paired arrivals: (trigger arm, undecided idler arm).

    Pair creation times are Poisson at ``pair_rate_hz``.  The trigger stream
    holds the signal photons; the idler stream holds one partner per signal,
    offset by a rounded Gaussian jitter draw when ``pair_jitter_ps > 0``
    (clamped into the observation interval, then re-sorted).
    """
    if duration_ps <= 0:
        raise ConfigError("duration_ps must be positive")
    rng = np.random.default_rng(derive_seed(seed, "pair-times"))
    t_sig, _ = _poisson_times(rng, config.pair_rate_hz, duration_ps)
    t_idl = t_sig  # one read-only array for both arms
    if (sigma := config.pair_jitter_ps) > 0 and len(t_sig):
        t_idl = _jittered(derive_seed(seed, "pair-jitter"), t_sig, sigma, duration_ps)
    trigger = ArrivalStream(duration_ps, {Arm.TRIGGER_ARM: t_sig})
    idler = ArrivalStream(duration_ps, {Arm.IDLER_UNDECIDED: t_idl})
    return trigger, idler


def project_idler_path(idler: ArrivalStream, seed: int) -> ArrivalStream:
    """Assign each undecided idler photon to exactly one splitter output.

    This is where the single-photon character enters the simulation: a photon
    appears on path 1 or on path 2, with probability 1/2 each, and never on
    both.  The output stream holds the two paths as two arms; each timestamp
    lands on exactly one of them.
    """
    if idler.unplaced:
        raise ValueError("unplaced arrivals carry no time and cannot be projected")
    times = idler.times
    take1 = _below(np.random.default_rng(seed), len(times), 0.5)
    paths = {Arm.IDLER_PATH1: _compress(times, take1), Arm.IDLER_PATH2: _compress(times, ~take1)}
    return ArrivalStream(idler.duration_ps, paths, idler.gates)


def _gate_pass(
    opens: np.ndarray, window: int, tau: int, duration_ps: int
) -> tuple[np.ndarray, ...]:
    """Where the gates opening at ``opens`` meet the blocks [b*tau, (b+1)*tau).

    A gate is simple when it lies inside one block, not the last (which may
    be clipped at ``duration_ps``), and no other gate touches that block.
    Finding the other gates is integer work, ``gating.GATE_CHUNK`` gates at
    a time.  Returns their indices; the first whole block inside each and
    how many there are; and, in time order, the block, start and length of
    each one's first piece and tail (empty for a gate inside one block),
    with the index where each edge block's pieces begin.
    """
    last = (duration_ps - 1) // tau
    odd = [np.empty(0, dtype=np.int64)]
    for s in range(0, len(opens), gating.GATE_CHUNK):
        a, e = max(s - 1, 0), min(s + gating.GATE_CHUNK, len(opens))
        lo = opens[a : e + 1]  # the chunk, with a neighbour on each side
        start = lo // tau
        start *= tau  # of each gate's first block
        other = lo - start > tau - window  # reaches into the next block
        other |= lo >= last * tau
        shared = lo[:-1] + window > start[1:]  # a gate reaches into the next one's block
        other[1:] |= shared
        other[:-1] |= shared
        odd.append(np.flatnonzero(other[s - a : e - a]) + s)
    odd = np.concatenate(odd)
    lo = opens[odd]
    hi = np.minimum(lo + window, duration_ps)
    b0, b1 = lo // tau, (hi - 1) // tau
    first_end = np.minimum((b0 + 1) * tau, hi)
    tail = np.maximum(b1 * tau, first_end)
    blocks = np.stack((b0, b1), axis=1).ravel()
    starts = np.stack((lo, tail), axis=1).ravel()
    lengths = np.stack((first_end - lo, hi - tail), axis=1).ravel()
    edges = np.flatnonzero(np.diff(blocks, prepend=-1))
    return odd, b0 + 1, np.maximum(b1 - b0 - 1, 0), blocks, starts, lengths, edges


def _lit(rng: np.random.Generator, n: int, mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted indices of the lit ones of ``n`` blocks of in-gate mean ``mean``, and their counts.

    A block's in-gate count is Bose–Einstein, geometric with P(K >= 1) =
    mean / (1 + mean).  Choosing Binomial(n, that) of the blocks uniformly
    lights each one independently, and a lit one holds geometric(1 / (1 +
    mean)) >= 1 photons.
    """
    idx = rng.choice(n, rng.binomial(n, mean / (1.0 + mean)), replace=False, shuffle=False)
    idx.sort()
    return idx, rng.geometric(1.0 / (1.0 + mean), len(idx))


def _shared_mode_times(
    rng: np.random.Generator, lam: float, tau: int, duration_ps: int, gates: GateList | None
) -> tuple[np.ndarray, int]:
    """Sorted photon times inside ``gates`` and the count outside, at ``lam`` photons per ps.

    Block b = [b*tau, (b+1)*tau), the last one ending at ``duration_ps``,
    holds Poisson(lam*c*I) photons on its c gated ticks, for its intensity
    I ~ Exp(1).  Simple gates' blocks (c = window) and whole blocks inside a
    gate (c = tau) are lit by ``_lit``; edge blocks draw I.  Outside, the
    count is Poisson(lam * sum of (L - c) * I) over blocks of length L, with
    each group's summed I given its in-gate count K one draw, Gamma(n + K,
    scale 1 / (1 + lam*c)) for n alike blocks.  ``gates=None`` (the whole
    interval) draws no outside count.
    """
    opens, window = np.zeros(1, dtype=np.int64), duration_ps
    if gates is not None:
        opens, window = _checked(gates, duration_ps).opens, gates.window_ps
    odd, inner, n_inner, blocks, starts, lengths, edges = _gate_pass(
        opens, window, tau, duration_ps
    )
    # simple gates: the lit ones among all gates, less the others
    hit, k = _lit(rng, len(opens), lam * window)
    keep = np.append(odd, -1)[np.searchsorted(odd, hit)] != hit
    hit, k_simple = hit[keep], k[keep]
    times = [np.repeat(opens[hit], k_simple) + rng.integers(0, window, k_simple.sum())]
    # whole blocks inside the other gates, by their running count
    ends, n_in = np.cumsum(n_inner), int(n_inner.sum())
    hit, k = _lit(rng, n_in, lam * tau)
    g = np.searchsorted(ends, hit, side="right")
    hit += inner[g] + n_inner[g] - ends[g]  # the lit block
    times.append(np.repeat(hit * tau, k) + rng.integers(0, tau, k.sum()))
    # edge blocks, each over its pieces laid end to end
    c = np.add.reduceat(lengths, edges)
    intensity = rng.standard_exponential(len(c))
    k = rng.poisson(lam * c * intensity)
    lit = np.flatnonzero(k)
    offset = np.cumsum(lengths) - lengths
    x = np.repeat(offset[edges[lit]], k[lit]) + rng.integers(0, np.repeat(c[lit], k[lit]))
    j = np.searchsorted(offset, x, side="right") - 1
    times.append(starts[j] + x - offset[j])
    t = np.concatenate(times)
    t.sort()
    if gates is None:
        return t, 0
    last = (duration_ps - 1) // tau
    edge_blocks = blocks[edges]
    last_gated = int(len(edges) > 0 and edge_blocks[-1] == last)
    length = np.minimum((edge_blocks + 1) * tau, duration_ps) - edge_blocks * tau
    n_simple = len(opens) - len(odd)
    ungated = last - n_simple - n_in - len(edges) + last_gated
    weight = float(((length - c) * intensity).sum())
    weight += (tau - window) * rng.standard_gamma(n_simple + k_simple.sum()) / (1 + lam * window)
    weight += tau * rng.standard_gamma(ungated)
    weight += (duration_ps - last * tau) * rng.standard_gamma(1 - last_gated)
    return t, int(rng.poisson(lam * weight))


def gen_thermal_arrivals(
    config: ThermalSourceConfig, duration_ps: int, seed: int, gates: GateList | None = None
) -> ArrivalStream:
    """Shared-mode thermal arrivals on the arms BEAM1 and BEAM2, placed inside ``gates``.

    The interval is tiled with blocks of length ``coherence_time_ps`` (last
    block truncated), each with its own exponential intensity that scales
    the rate of *both* arms; given the intensities, the two arms are
    independent Poisson processes.  The common intensity is what correlates
    the arms.  The mode's photons are drawn per group of alike blocks
    (``_shared_mode_times``), each to BEAM1 with probability
    ``splitting_ratio``.  The arrivals outside the gates (default ``None``:
    the whole interval) are only counted, per arm, in ``unplaced_by_key``.
    """
    if duration_ps <= 0:
        raise ConfigError("duration_ps must be positive")
    rng = np.random.default_rng(derive_seed(seed, "shared-mode"))
    lam, tau = config.mean_rate_hz * 1e-12, int(config.coherence_time_ps)
    t, n_out = _shared_mode_times(rng, lam, tau, duration_ps, gates)
    q = config.splitting_ratio
    arm1 = _below(rng, len(t), q)
    out1 = int(rng.binomial(n_out, q))
    times = {Arm.BEAM1: t.compress(arm1), Arm.BEAM2: t.compress(~arm1)}
    return ArrivalStream(duration_ps, times, gates, {Arm.BEAM1: out1, Arm.BEAM2: n_out - out1})


def gen_classical_wave_gates(
    config: ClassicalWaveConfig, n_gates: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-gate firing probabilities (p1, p2) under the wave model.

    Draws one intensity per gate, clips it at 1, and splits it by the
    splitting ratio.  Probabilities satisfy p1 + p2 <= 1 elementwise.
    """
    if n_gates < 0:
        raise ConfigError("n_gates must be >= 0")
    rng = np.random.default_rng(seed)
    if config.intensity_law is IntensityLaw.CONSTANT:
        intensity = np.full(n_gates, config.per_gate_intensity_mean)
    else:
        intensity = rng.standard_exponential(n_gates) * config.per_gate_intensity_mean
    np.minimum(intensity, 1.0, out=intensity)
    q = config.splitting_ratio
    return q * intensity, (1.0 - q) * intensity
