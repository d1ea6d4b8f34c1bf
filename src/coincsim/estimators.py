"""Anticorrelation statistics and closed-form model predictions.

The headline quantity is the normalized gated coincidence ratio

    alpha = Nc * N / (N1 * N2)

built from binary per-gate counts: N gates, N1/N2 gates with a count on each
output channel, Nc gates with counts on both.  N1/N and N2/N estimate the
per-gate firing probabilities, so alpha estimates
P(both fire) / (P(1 fires) * P(2 fires)).  Any classical intensity model
gives alpha >= 1 (Cauchy-Schwarz on the intensity distribution); a source
that delivers at most one photon per gate drives alpha far below 1, with
only accidentals (dark counts, stray light, double pairs) keeping it above
zero.

Uncertainty model
-----------------
N is treated as fixed by the acquisition, N1 and N2 as Poisson-dominated
counts, and Nc as a small Poisson count floored at one observed event:

    sigma^2 = (N / (N1*N2))^2 * max(Nc, 1) + alpha^2 * (1/N1 + 1/N2)

The cross-covariance between Nc and N1/N2 is neglected, which is accurate in
the accidental-dominated regime where Nc << N1, N2.

Model predictions
-----------------
Exact per-gate expectations are provided for each source model so simulated
estimates can be checked without re-deriving them from counts:

* pair source with accidentals: with per-gate heralded-partner detection
  probabilities t1, t2 and independent per-gate accidental means a1, a2
  (accidentals Poisson, so a window fires with probability 1 - exp(-a)):

      A_i = 1 - exp(-a_i),  H_i = t_i + (1 - t_i) * A_i
      P1  = (H1 + A1) / 2
      P2  = (H2 + A2) / 2
      Pc  = (H1 * A2 + A1 * H2) / 2
      alpha = Pc / (P1 * P2)

  The heralded partner takes either path with probability 1/2 and lands on
  exactly one of them, and the accidental processes on the two paths are
  independent of it and of each other, so these mixtures are exact.
* independent beams: the per-gate indicator variables factorize, alpha = 1
  identically, at every rate.
* shared-mode chaotic light (intensity redrawn every coherence time tau,
  exponential law, counted in windows of length W in the linear regime):

      alpha = 1 + E[ sum_k L_k^2 ] / W^2

  where L_k are the overlaps of the window with the intensity blocks it
  straddles, averaged over the window's position relative to the block grid.
  With r = W / tau this is alpha = 2 - r/3 for r <= 1 and
  alpha = 1 + 1/r - 1/(3 r^2) for r >= 1: for W >> tau block fluctuations
  average out and alpha -> 1; for W << tau alpha -> 2.
* per-gate wave model: alpha = <I^2> / <I>^2 of the per-gate intensity law
  (1 for a constant intensity, 2 for an exponential one), in the linear
  regime where firing probabilities are proportional to I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import UndefinedEstimateError
from .gating import CountSummary
from .sources import ClassicalWaveConfig, IntensityLaw

__all__ = [
    "AlphaEstimate",
    "alpha_estimate",
    "expected_alpha_classical_wave",
    "expected_alpha_pdc",
    "expected_alpha_thermal_shared",
    "sigma_separation",
    "weighted_mean",
]


@dataclass(frozen=True)
class AlphaEstimate:
    alpha: float
    sigma: float
    counts: CountSummary | None = None


def alpha_estimate(counts: CountSummary) -> AlphaEstimate:
    """Point estimate and uncertainty of alpha from one set of counts."""
    n, n1, n2, nc = counts.n_gates, counts.n1, counts.n2, counts.nc
    if n == 0 or n1 == 0 or n2 == 0:
        raise UndefinedEstimateError(
            f"alpha undefined for counts N={n}, N1={n1}, N2={n2}: "
            "every denominator count must be positive"
        )
    alpha = nc * n / (n1 * n2)
    scale = n / (n1 * n2)
    var = scale * scale * max(nc, 1) + alpha * alpha * (1.0 / n1 + 1.0 / n2)
    return AlphaEstimate(alpha=alpha, sigma=math.sqrt(var), counts=counts)


def weighted_mean(estimates: Sequence[AlphaEstimate] | Iterable[AlphaEstimate]) -> AlphaEstimate:
    """Inverse-variance weighted combination of independent estimates.

    The combined sigma is 1 / sqrt(sum of weights).  Count summaries are
    summed through when every input carries one.
    """
    ests = list(estimates)
    if not ests:
        raise UndefinedEstimateError("weighted_mean needs at least one estimate")
    for e in ests:
        if not (e.sigma > 0) or not math.isfinite(e.sigma):
            raise UndefinedEstimateError(
                f"weighted_mean needs positive finite sigmas, got {e.sigma!r}"
            )
    w = np.array([1.0 / (e.sigma * e.sigma) for e in ests])
    a = np.array([e.alpha for e in ests])
    total_w = w.sum()
    counts: CountSummary | None = None
    if all(e.counts is not None for e in ests):
        counts = ests[0].counts
        for e in ests[1:]:
            counts = counts + e.counts
    return AlphaEstimate(
        alpha=float((w * a).sum() / total_w),
        sigma=float(1.0 / math.sqrt(total_w)),
        counts=counts,
    )


def sigma_separation(estimate: AlphaEstimate, reference: float) -> float:
    """|alpha - reference| in units of the estimate's sigma."""
    if not (estimate.sigma > 0) or not math.isfinite(estimate.sigma):
        raise UndefinedEstimateError("sigma_separation needs a positive finite sigma")
    return abs(estimate.alpha - reference) / estimate.sigma


def expected_alpha_pdc(t1: float, t2: float, a1: float, a2: float) -> float:
    """Exact per-gate alpha of the pair source with independent accidentals.

    t1/t2: probability that the heralded partner photon, having taken the
    corresponding path, is detected inside the gate.  a1/a2: mean accidental
    events (dark counts plus unrelated photons) per gate on each channel.
    """
    for name, v in (("t1", t1), ("t2", t2)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    for name, v in (("a1", a1), ("a2", a2)):
        if v < 0 or not math.isfinite(v):
            raise ValueError(f"{name} must be finite and >= 0, got {v}")
    acc1 = -math.expm1(-a1)  # 1 - exp(-a1)
    acc2 = -math.expm1(-a2)
    hit1 = t1 + (1.0 - t1) * acc1  # channel 1 fires, partner on path 1
    hit2 = t2 + (1.0 - t2) * acc2
    p1, p2 = hit1 + acc1, hit2 + acc2  # twice P1 and P2
    if p1 == 0.0 or p2 == 0.0:
        raise UndefinedEstimateError(
            "expected alpha undefined: a channel has zero firing probability"
        )
    # the halves of P1, P2 and Pc cancel to a factor 2; both scalings are exact
    return 2.0 * (hit1 * acc2 + acc1 * hit2) / (p1 * p2)


def expected_alpha_thermal_shared(window_ps: int, coherence_time_ps: int) -> float:
    """alpha for shared-mode chaotic light counted in windows of length W.

    Averaging sum_k L_k^2 over the window's offset from the block grid gives,
    with r = W / tau, 2 - r/3 for r <= 1 and 1 + 1/r - 1/(3 r^2) for r >= 1
    (both 5/3 at r = 1).  Exponential intensities with mean 1 have
    E[I^2] = 2, which is where the excess over 1 comes from.
    """
    if window_ps <= 0 or coherence_time_ps <= 0:
        raise UndefinedEstimateError("window and coherence time must be positive")
    r = window_ps / coherence_time_ps
    return 2.0 - r / 3.0 if r <= 1.0 else 1.0 + 1.0 / r - 1.0 / (3.0 * r * r)


def expected_alpha_classical_wave(config: ClassicalWaveConfig) -> float:
    """alpha = <I^2>/<I>^2 for the per-gate intensity law, linear regime."""
    if config.intensity_law is IntensityLaw.CONSTANT:
        return 1.0
    if config.intensity_law is IntensityLaw.EXPONENTIAL:
        return 2.0
    raise UndefinedEstimateError(f"no prediction for intensity law {config.intensity_law!r}")
