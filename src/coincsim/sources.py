"""Photon-arrival models for the light sources being compared.

Four source models are implemented:

* ``pdc``: a parametric-downconversion pair source.  Signal photons go to the
  heralding arm; each idler is later projected onto exactly one of two output
  paths of a polarization splitter (:func:`project_idler_path`).  Because a
  single photon takes one path or the other, true coincidences between the two
  paths vanish and only accidentals remain.
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
Coherence and Quantum Optics*, 1995); restricted to the gates it is again
one, with each gate cut at the block edges into a first piece, whole blocks
and a tail.  Each arm draws its in-gate count from the gates' summed means
and places every arrival by inverting the cumulative mean, first over the
gates and then over the blocks of its own gate, and draws its outside count
from the rest of the whole-acquisition mean.  The same routine with the
whole interval as the one gate gives the plain stream.

The scenario runner places every generator-gated kind (coherent and thermal
light) on the periodic gates when neither beam detector has dead time or
jitter; then no event outside a gate can reach a count, and the result is
exact up to the picosecond tick.  Every other case uses the whole interval
(``gates=None``), for which no outside count is drawn.

Each source config class states its ``kind``.  The other facts the
scenario runner needs about a kind (its config class, the field a sweep
multiplier scales, how its gates open, and how one acquisition runs, what
alpha it predicts and which arrays it builds) are one row of the table
``_KINDS`` in ``coincsim.scenario``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import ClassVar

import numpy as np

from .errors import ConfigError
from .events import EventStream as ArrivalStream
from .events import derive_seed
from .gating import GateList

__all__ = [
    "Arm",
    "ArrivalStream",
    "ClassicalWaveConfig",
    "CoherentSourceConfig",
    "Gating",
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


class Gating(Enum):
    """How a source's gates open."""

    TRIGGER = "trigger"  # on detected trigger photons
    GENERATOR = "generator"  # from a periodic pulse generator (run.gate_rate_hz)
    PER_GATE = "per_gate"  # the source draws each gate's detections itself


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
    if config.pair_jitter_ps > 0 and len(t_sig):
        jit_rng = np.random.default_rng(derive_seed(seed, "pair-jitter"))
        offsets = np.rint(jit_rng.normal(0.0, config.pair_jitter_ps, size=len(t_sig)))
        # an offset past the interval lands on its edge either way; clipped, it fits int64
        np.clip(offsets, -duration_ps, duration_ps, out=offsets)
        t_idl = np.clip(t_sig + offsets.astype(np.int64), 0, duration_ps - 1)
        t_idl.sort()
    else:
        t_idl = t_sig.copy()
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
    take1 = np.random.default_rng(seed).random(len(times)) < 0.5
    # compress, not a boolean index: a random mask defeats branch prediction.
    paths = {Arm.IDLER_PATH1: times.compress(take1), Arm.IDLER_PATH2: times.compress(~take1)}
    return ArrivalStream(idler.duration_ps, paths, idler.gates)


# Gates whose in-gate means are evaluated together.  Full-length temporaries
# (8 MB per 10^6 gates) would be fresh memory on every call, paying a page
# fault per 4 kB and a DRAM pass per operation; one chunk's temporaries stay
# in cache.
_GATE_CHUNK = 1 << 16


def _gate_cum(
    lo: np.ndarray, window: int, rate: np.ndarray, tau: int, duration_ps: int
) -> np.ndarray:
    """Running sum of the mean photon numbers of the gates opening at ``lo``.

    A gate inside one block b has the mean ``rate[b] * window``.  A gate that
    crosses a block edge, and the last gate (it may be clipped at
    ``duration_ps``), add up a first piece, their whole blocks (one
    ``np.add.reduceat`` over the gates that have any) and a tail.  The sum
    runs chunk by chunk, carried left to right, so the chunk size changes no
    bit.
    """
    gate_cum = np.empty(len(lo))
    carry = 0.0
    for s in range(0, len(lo), _GATE_CHUNK):
        chunk = lo[s : s + _GATE_CHUNK]
        m = gate_cum[s : s + len(chunk)]
        b = chunk // tau  # a floor division by a scalar is several times faster than divmod
        np.take(rate, b, out=m, mode="clip")  # "raise" would buffer ``out``; b is in range
        m *= window
        b *= tau
        r = np.subtract(chunk, b, out=b)  # each gate's offset in its block
        cross = r > tau - window
        if s + len(chunk) == len(lo):
            cross[-1] = True
        e = chunk[cross]
        close = np.minimum(e + window, duration_ps)
        b0, b1 = e // tau, (close - 1) // tau
        first_end = np.minimum((b0 + 1) * tau, close)  # of the first piece, in block b0
        mean = rate[b0] * (first_end - e) + rate[b1] * (close - np.maximum(b1 * tau, first_end))
        full = np.flatnonzero(b1 - b0 > 1)
        if len(full):  # reduceat gives an element, not 0, for an empty range
            edges = np.stack((b0[full] + 1, b1[full]), axis=1).ravel()
            mean[full] += tau * np.add.reduceat(rate[: edges[-1]], edges[:-1])[::2]
        m[cross] = mean
        m[0] += carry
        np.cumsum(m, out=m)
        carry = m[-1]
    return gate_cum


def _place(
    y: np.ndarray, lo_g: np.ndarray, window: int, rate: np.ndarray, tau: int, duration_ps: int
) -> np.ndarray:
    """Times of the arrivals at mean ``y`` into their gates, opening at ``lo_g``.

    The arrivals come sorted by gate, then by ``y``.  One in its gate's first
    piece is placed there, the others through one running sum of the rates
    over the later blocks of each distinct hit gate.
    """
    close = np.minimum(lo_g + window, duration_ps)
    b0, b1 = lo_g // tau, (close - 1) // tau
    first = rate[b0]
    y_first = first * (np.minimum((b0 + 1) * tau, close) - lo_g)  # the first piece's mean
    t = lo_g + np.divide(y, first, out=np.zeros(len(y)), where=first > 0).astype(np.int64)
    i = np.flatnonzero((y >= y_first) & (b1 > b0))  # past the first piece
    if len(i):
        new = np.diff(lo_g[i], prepend=-1) != 0  # the first arrival in each hit gate
        blk0, n_blk = b0[i[new]] + 1, (b1 - b0)[i[new]]  # the hit gates' later blocks
        cum = np.zeros(n_blk.sum() + 1)
        pieces = [rate[b : b + n] for b, n in zip(blk0.tolist(), n_blk.tolist())]
        np.cumsum(np.concatenate(pieces, out=cum[1:]), out=cum[1:])
        gate = np.cumsum(new) - 1  # each arrival's hit gate
        base = (np.cumsum(n_blk) - n_blk)[gate]  # where its gate's blocks start in cum
        z = (y[i] - y_first[i]) / tau + cum[base]  # in summed rates
        k = np.searchsorted(cum, z, side="right") - 1
        np.minimum(k, base + n_blk[gate] - 1, out=k)  # rounding at the gate's close
        blk = blk0[gate] + k - base
        t[i] = blk * tau + ((z - cum[k]) / rate[blk] * tau).astype(np.int64)
    np.clip(t, lo_g, close - 1, out=t)  # rounding at the block and gate edges
    return t


def _blocked_rate_times(
    rngs: list[np.random.Generator],
    shares: tuple[float, ...],
    rate: np.ndarray,
    tau: int,
    duration_ps: int,
    gates: GateList | None = None,
) -> list[tuple[np.ndarray, int]]:
    """Per arm: sorted arrivals inside ``gates`` and the count outside them.

    Arm k's photon rate (per ps) is ``shares[k] * rate[b]`` on block
    b = [b*tau, (b+1)*tau), the last block ending at ``duration_ps``; the
    means below are those of ``rate``.  Inside the gates (default ``None``:
    the whole interval) arm k draws Poisson(share * in-gate mean) arrivals.
    A uniform on [0, in-gate mean) picks a gate through the gates' running
    mean (``_gate_cum``), then a block and an offset through that gate's own
    blocks (``_place``).  Outside the gates arm k draws only a count,
    Poisson(share * (whole-interval mean - in-gate mean)).
    """
    lo, window = np.zeros(1, dtype=np.int64), duration_ps
    if gates is not None:
        lo, window = _checked(gates, duration_ps).opens, gates.window_ps
    gate_cum = _gate_cum(lo, window, rate, tau, duration_ps)
    inside = float(gate_cum[-1]) if len(gate_cum) else 0.0
    outside = 0.0
    if gates is not None:  # the whole-interval mean, less the clipped part of the last block
        whole = tau * float(rate.sum()) - float(rate[-1]) * (len(rate) * tau - duration_ps)
        outside = max(whole - inside, 0.0)
    placed = []
    for rng, share in zip(rngs, shares):
        n = int(rng.poisson(share * inside)) if share * inside > 0 else 0
        x = rng.random(n)
        x.sort()
        x *= inside
        g = np.searchsorted(gate_cum[:-1], x, side="right")
        x -= np.where(g > 0, gate_cum[g - 1], 0.0)  # the mean into its gate
        t = _place(x, lo[g], window, rate, tau, duration_ps)
        n_out = int(rng.poisson(share * outside)) if share * outside > 0 else 0
        placed.append((t, n_out))
    return placed


def gen_thermal_arrivals(
    config: ThermalSourceConfig, duration_ps: int, seed: int, gates: GateList | None = None
) -> ArrivalStream:
    """Shared-mode thermal arrivals on the arms BEAM1 and BEAM2, placed inside ``gates``.

    The interval is tiled with blocks of length ``coherence_time_ps`` (last
    block truncated); one exponential intensity draw per block scales the
    rate of *both* arms, and conditional on the intensity profile the two
    arms are independent Poisson processes.  The common intensity is what
    correlates the arms.  The arrivals outside the gates (default ``None``:
    the whole interval) are only counted, per arm, in ``unplaced_by_key``.
    """
    if duration_ps <= 0:
        raise ConfigError("duration_ps must be positive")
    rngs = [np.random.default_rng(derive_seed(seed, f"beam{k}")) for k in (1, 2)]
    tau = int(config.coherence_time_ps)
    n_blocks = -(-duration_ps // tau)  # ceil division
    int_rng = np.random.default_rng(derive_seed(seed, "intensity"))
    rate = int_rng.standard_exponential(n_blocks)  # mean 1
    # the shares carry the photon rate per ps, so no pass scales every block
    q, scale = config.splitting_ratio, config.mean_rate_hz * 1e-12
    shares = (q * scale, (1.0 - q) * scale)
    placed = _blocked_rate_times(rngs, shares, rate, tau, duration_ps, gates)
    (t1, out1), (t2, out2) = placed
    times = {Arm.BEAM1: t1, Arm.BEAM2: t2}
    return ArrivalStream(duration_ps, times, gates, {Arm.BEAM1: out1, Arm.BEAM2: out2})


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
