"""Experiment configuration, the acquisition runner, and result reporting.

A scenario describes one counting experiment: a light source, the detectors,
the gate logic, and a sweep of source-strength multipliers (each sweep point
re-runs the experiment with the source rate or intensity scaled).  Every
point is measured as a series of fixed-duration acquisitions whose counts are
summed before the ratio estimate is formed, mirroring how long runs are
accumulated in hardware.

Configuration files use INI syntax::

    [source]
    kind = pdc                        # pdc | coherent | thermal | classical_wave
    pair_rate_hz = 5000               # keys below depend on the kind

    [detector.d1]                     # also d2 and, for pdc only, trigger
    efficiency = 0.5

    [run]
    window_ps = 7000
    gate_rate_hz = 65000              # generator-gated kinds only

    [sweep]
    multipliers = 1 2.5 5
    overall_points = 1 2              # optional 1-based subset, default all

Every key is the field of the same name of the kind's source config, of
``DetectorConfig`` or of :class:`ScenarioConfig`; an omitted key takes that
field's default.  Unknown sections or keys are rejected, value errors name
the offending ``[section] key``, and kind/key consistency is enforced (a
heralded source takes no generator rate; generator-gated sources require
one; the per-gate wave model takes no detector sections because it models
detection directly).

Seeding: every acquisition of every point derives its generator streams from
(master_seed, acquisition index, "pt<point>:<stage>") via a keyed hash, so
results are independent of execution order and worker count, and a point's
series can be split across runs without overlap.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import astuple, dataclass, fields, replace
from enum import Enum
from functools import partial
from statistics import NormalDist
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .detectors import DetectorConfig, detect
from .errors import ConfigError
from .estimators import (
    AlphaEstimate,
    alpha_estimate,
    expected_alpha_classical_wave,
    expected_alpha_pdc,
    expected_alpha_thermal_shared,
    sigma_separation,
    weighted_mean,
)
from .events import Channel, derive_seed
from .gating import (
    CountSummary,
    GateList,
    GatePolicy,
    count_gates,
    gate_period_ps,
    make_gates_from_trigger,
    make_gates_periodic,
)
from .sources import (
    Arm,
    ClassicalWaveConfig,
    CoherentSourceConfig,
    PdcSourceConfig,
    SourceKind,
    ThermalSourceConfig,
    gen_classical_wave_gates,
    gen_pdc_pairs,
    gen_poisson_arrivals,
    gen_thermal_arrivals,
    project_idler_path,
)

__all__ = [
    "PointResult",
    "ScenarioConfig",
    "ScenarioResult",
    "SourceKind",
    "default_detector",
    "emit_results_csv",
    "oracle_per_point",
    "parse_config",
    "run_scenario",
    "serialize_config",
]

SourceConfig = PdcSourceConfig | CoherentSourceConfig | ThermalSourceConfig | ClassicalWaveConfig

PICOSECONDS_PER_SECOND = 10**12
# The most elements a config may ask one acquisition to build in one array
# (each kind's ``elements`` lists them); about twice the 1.43e7 coherence
# blocks of configs/thermal_bunched_long.cfg.
MAX_ELEMENTS_PER_ACQUISITION = 3 * 10**7


_DEFAULT_EFFICIENCY = {Channel.TRIGGER: 0.4, Channel.D1: 0.5, Channel.D2: 0.5}
_DEFAULT_DARK_HZ = 100.0


def default_detector(channel: Channel) -> DetectorConfig:
    """Detector defaults: efficiency 0.4 (trigger) / 0.5 (outputs), 100 Hz dark."""
    return DetectorConfig(
        channel=channel,
        efficiency=_DEFAULT_EFFICIENCY[channel],
        dark_rate_hz=_DEFAULT_DARK_HZ,
    )


@dataclass(frozen=True)
class ScenarioConfig:
    source: SourceConfig
    trigger: DetectorConfig | None = None
    d1: DetectorConfig | None = None
    d2: DetectorConfig | None = None
    window_ps: int = 7000
    acquisitions: int = 500
    acquisition_duration_ps: int = PICOSECONDS_PER_SECOND
    master_seed: int = 0
    gate_rate_hz: float | None = None
    gate_policy: GatePolicy = GatePolicy.DROP_OVERLAPPING
    multipliers: tuple[float, ...] = (1.0,)
    acquisitions_per_point: tuple[int, ...] | None = None
    overall_points: tuple[int, ...] | None = None
    label: str = ""

    @property
    def kind(self) -> SourceKind:
        return self.source.kind

    def __post_init__(self) -> None:
        if self.window_ps <= 0:
            raise ConfigError("run.window_ps must be positive")
        if self.acquisitions < 1:
            raise ConfigError("run.acquisitions must be >= 1")
        if self.acquisition_duration_ps <= self.window_ps:
            raise ConfigError("run.acquisition_duration_ps must exceed the gate window")
        if "\n" in self.label:
            raise ConfigError("run.label must be a single line")
        if "#" in self.label or ";" in self.label or self.label != self.label.strip():
            # a config file would read these as a comment or drop the whitespace
            raise ConfigError("run.label must not hold '#' or ';' or leading/trailing whitespace")
        kind = _KINDS[self.kind]
        if (self.gate_rate_hz is not None) != kind.periodic:
            need = "is required" if kind.periodic else "does not apply"
            raise ConfigError(f"run.gate_rate_hz {need} for kind={self.kind.value}")
        if kind.periodic:
            gate_period_ps(self.gate_rate_hz, self.window_ps)
        for name, channel in _SECTION_CHANNEL.items():
            det = getattr(self, name)
            if name not in kind.detectors:
                if det is not None:
                    raise ConfigError(f"[detector.{name}] does not apply to kind={self.kind.value}")
            elif det is None:
                object.__setattr__(self, name, default_detector(channel))
            elif int(det.channel) != int(channel):
                raise ConfigError(f"[detector.{name}] was built for channel {det.channel.name}")

        if not self.multipliers:
            raise ConfigError("sweep.multipliers must not be empty")
        for m in self.multipliers:
            if not (m > 0) or not math.isfinite(m):
                raise ConfigError(f"sweep multiplier {m!r} must be finite and > 0")
        if self.acquisitions_per_point is not None:
            if len(self.acquisitions_per_point) != len(self.multipliers):
                raise ConfigError(
                    "sweep.acquisitions_per_point must match sweep.multipliers in length"
                )
            if min(self.acquisitions_per_point) < 1:
                raise ConfigError("sweep.acquisitions_per_point entries must be >= 1")
        if self.overall_points is not None:
            pts = self.overall_points
            if not pts:
                raise ConfigError("sweep.overall_points must not be empty")
            if len(set(pts)) != len(pts):
                raise ConfigError("sweep.overall_points must not repeat points")
            for p in pts:
                if not 1 <= p <= len(self.multipliers):
                    raise ConfigError(
                        f"sweep.overall_points entry {p} outside 1..{len(self.multipliers)}"
                    )
        # Scaling must stay valid at every sweep point; surfaces range errors
        # (e.g. the wave model's linear-regime cap) at parse time.
        for m in self.multipliers:
            _scaled(self.source, m)
        for keys, count, what in kind.elements(self, _scaled(self.source, max(self.multipliers))):
            if count > MAX_ELEMENTS_PER_ACQUISITION:
                raise ConfigError(
                    f"{keys} gives {count} {what} per acquisition, "
                    f"more than {MAX_ELEMENTS_PER_ACQUISITION}"
                )

    def acquisitions_for(self, point_index: int) -> int:
        """Acquisitions for the 1-based sweep point."""
        if self.acquisitions_per_point is None:
            return self.acquisitions
        return self.acquisitions_per_point[point_index - 1]


_SECTION_CHANNEL = {"trigger": Channel.TRIGGER, "d1": Channel.D1, "d2": Channel.D2}


def _scaled(source: SourceConfig, multiplier: float) -> SourceConfig:
    """The source with its swept rate field scaled by ``multiplier``."""
    field = _KINDS[source.kind].rate_field
    return replace(source, **{field: getattr(source, field) * multiplier})


# ---------------------------------------------------------------------------
# config file parsing


def _parse_value(section: str, key: str, v: str, type_):
    """``v``, the value of ``[section] key``, parsed as ``type_``: str, int, float, an Enum,
    ``X | None`` (parsed as X) or ``tuple[X, ...]`` (whitespace- or comma-separated items)."""
    if get_origin(type_) is tuple:
        items = v.replace(",", " ").split()
        return tuple(_parse_value(section, key, item, get_args(type_)[0]) for item in items)
    if get_origin(type_) is not None:  # X | None
        return _parse_value(section, key, v, get_args(type_)[0])
    try:
        return type_(v)
    except ValueError:
        if issubclass(type_, Enum):
            choices = ", ".join(e.value for e in type_)
            raise ConfigError(f"[{section}] {key}: {v!r} is not one of: {choices}") from None
        expected = "an integer" if type_ is int else "a number"
        raise ConfigError(f"[{section}] {key}: expected {expected}, got {v!r}") from None


# The [run] and [sweep] keys, each the ScenarioConfig field of the same name.
_RUN_SECTIONS = {
    "run": ("window_ps", "acquisitions", "acquisition_duration_ps", "master_seed",
            "gate_rate_hz", "gate_policy", "label"),
    "sweep": ("multipliers", "acquisitions_per_point", "overall_points"),
}
_DETECTOR_KEYS = tuple(f.name for f in fields(DetectorConfig) if f.name != "channel")


def _read_fields(cp, section: str, cls, names, defaults, also=()) -> dict:
    """The fields ``names`` of ``cls``, each parsed by its annotated type from its key in
    ``[section]``, or else taken from ``defaults``.  A key outside ``names`` and ``also``
    is refused before a key that ``defaults`` lacks is reported missing."""
    keys = cp[section] if cp.has_section(section) else {}
    unknown = sorted(set(keys) - {*names, *also})
    if unknown:
        raise ConfigError(f"[{section}] has unknown key '{unknown[0]}'")
    types, values = get_type_hints(cls), {}
    for name in names:
        if name in keys:
            values[name] = _parse_value(section, name, keys[name].strip(), types[name])
        elif name in defaults:
            values[name] = defaults[name]
        else:
            raise ConfigError(f"[{section}] is missing required key '{name}'")
    return values


def parse_config(text: str) -> ScenarioConfig:
    """Parse INI scenario text, rejecting unknown sections/keys loudly."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    known = {"source", *_RUN_SECTIONS, *(f"detector.{name}" for name in _SECTION_CHANNEL)}
    for name in cp.sections():
        if name not in known:
            raise ConfigError(f"unknown config section [{name}]")
    if not cp.has_section("source"):
        raise ConfigError("config needs a [source] section")

    if "kind" not in cp["source"]:
        raise ConfigError("[source] is missing required key 'kind'")
    cls = _KINDS[_parse_value("source", "kind", cp["source"]["kind"].strip(), SourceKind)].config
    # a dataclass keeps each field's default as the class attribute of that name
    names = [f.name for f in fields(cls)]
    values = {"source": cls(**_read_fields(cp, "source", cls, names, vars(cls), also=["kind"]))}

    for name, channel in _SECTION_CHANNEL.items():
        section = f"detector.{name}"
        if cp.has_section(section):
            defaults = vars(default_detector(channel))
            read = _read_fields(cp, section, DetectorConfig, _DETECTOR_KEYS, defaults)
            values[name] = DetectorConfig(channel=channel, **read)

    for section, names in _RUN_SECTIONS.items():
        values.update(_read_fields(cp, section, ScenarioConfig, names, vars(ScenarioConfig)))
    return ScenarioConfig(**values)


def _fmt(x) -> str:
    if isinstance(x, tuple):
        return " ".join(_fmt(v) for v in x)
    if isinstance(x, Enum):
        return x.value
    return repr(float(x)) if isinstance(x, float) else str(x)


def _field_lines(obj, names) -> list[str]:
    """``name = value`` for each of the fields ``names`` of ``obj`` that is not None."""
    return [f"{name} = {_fmt(v)}" for name in names if (v := getattr(obj, name)) is not None]


def serialize_config(config: ScenarioConfig) -> str:
    """Render a config back to INI text; parse_config inverts this exactly."""
    names = [f.name for f in fields(config.source)]
    lines = ["[source]", f"kind = {config.kind.value}", *_field_lines(config.source, names)]
    for name in _SECTION_CHANNEL:
        det: DetectorConfig | None = getattr(config, name)
        if det is not None:
            lines += ["", f"[detector.{name}]", *_field_lines(det, _DETECTOR_KEYS)]
    for section, names in _RUN_SECTIONS.items():
        lines += ["", f"[{section}]", *_field_lines(config, names)]
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# running


@dataclass(frozen=True)
class PointResult:
    point: int  # 1-based sweep index
    seconds: float
    rate_cps: float  # the rate axis of this source kind (see _AcqTotals.rate_events)
    counts: CountSummary
    estimate: AlphaEstimate


@dataclass(frozen=True)
class ScenarioResult:
    points: tuple[PointResult, ...]
    overall: AlphaEstimate
    overall_point_ids: tuple[int, ...]
    separation_from_one: float


@dataclass(frozen=True)
class _AcqTotals:
    counts: CountSummary
    # The events behind the kind's rate axis: heralded runs sweep the trigger
    # rate, the others the singles rate of d1 (a gate generator never changes).
    rate_events: int

    def __add__(self, other: "_AcqTotals") -> "_AcqTotals":
        return _AcqTotals(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


def _beam_segments(config: ScenarioConfig, gates):
    """Where a generator-gated run places its beam arrivals.

    Detectors without jitter or dead time only need the arrivals inside the
    gates: nothing outside one can change a count.  A detector with either
    gets the whole interval (``None``).  The element bound passes their span.
    """
    ideal = all(d.dead_time_ps == 0 and d.jitter_sigma_ps == 0 for d in (config.d1, config.d2))
    return gates if ideal else None


def _acquire(
    acq_index: int,
    *,
    config: ScenarioConfig,
    source: SourceConfig,
    point_index: int,
    gates: GateList | None,
) -> _AcqTotals:
    """Simulate one acquisition of one sweep point, ``gates`` the periodic gates if any."""

    def seed(stage: str) -> int:
        return derive_seed(config.master_seed, acq_index, f"pt{point_index}:{stage}")

    return _KINDS[source.kind].acquire(config, source, seed, gates)


def _acquire_pdc(config, source: PdcSourceConfig, seed, gates: None) -> _AcqTotals:
    trig_arr, idler = gen_pdc_pairs(source, config.acquisition_duration_ps, seed("source"))
    paths = project_idler_path(idler, seed("path"))
    trig_ev = detect(trig_arr, config.trigger, seed("det-t"))
    del trig_arr, idler  # consumed: gate building and counting need only the detections
    d1_ev = detect(paths.select_arm(Arm.IDLER_PATH1), config.d1, seed("det-d1"))
    d2_ev = detect(paths.select_arm(Arm.IDLER_PATH2), config.d2, seed("det-d2"))
    del paths
    trig_gates = make_gates_from_trigger(trig_ev, config.window_ps, config.gate_policy)
    counts = count_gates(trig_gates, d1_ev, d2_ev)
    return _AcqTotals(counts, len(trig_ev))


def _acquire_coherent(config, source: CoherentSourceConfig, seed, gates: GateList) -> _AcqTotals:
    dur, beam_gates = config.acquisition_duration_ps, _beam_segments(config, gates)
    b1, b2 = (
        gen_poisson_arrivals(source.mean_rate_hz, dur, arm, seed(f"beam{k}"), beam_gates)
        for k, arm in ((1, Arm.BEAM1), (2, Arm.BEAM2))
    )
    return _detect_and_count(config, seed, gates, b1, b2)


def _acquire_thermal(config, source: ThermalSourceConfig, seed, gates: GateList) -> _AcqTotals:
    dur, beam_gates = config.acquisition_duration_ps, _beam_segments(config, gates)
    both = gen_thermal_arrivals(source, dur, seed("source"), beam_gates)
    b1, b2 = both.select_arm(Arm.BEAM1), both.select_arm(Arm.BEAM2)
    return _detect_and_count(config, seed, gates, b1, b2)


def _detect_and_count(config, seed, gates: GateList, b1, b2) -> _AcqTotals:
    """Detect the two beams of a generator-gated run and count them in ``gates``."""
    d1_ev = detect(b1, config.d1, seed("det-d1"))
    d2_ev = detect(b2, config.d2, seed("det-d2"))
    counts = count_gates(gates, d1_ev, d2_ev)
    return _AcqTotals(counts, len(d1_ev) + d1_ev.unplaced)


def _acquire_wave(config, source: ClassicalWaveConfig, seed, gates: None) -> _AcqTotals:
    heralds = np.random.default_rng(seed("heralds"))
    n_gates = int(heralds.poisson(source.herald_rate_hz * config.acquisition_duration_ps * 1e-12))
    p1, p2 = gen_classical_wave_gates(source, n_gates, seed("intensity"))
    f1 = np.random.default_rng(seed("fire1")).random(n_gates) < p1
    f2 = np.random.default_rng(seed("fire2")).random(n_gates) < p2
    n1, n2, nc = (int(np.count_nonzero(f)) for f in (f1, f2, f1 & f2))
    return _AcqTotals(CountSummary(n_gates, n1, n2, nc), n1)


def run_point(config: ScenarioConfig, point_index: int, *, jobs: int = 1) -> _AcqTotals:
    """Accumulate counts over the acquisitions of one 1-based sweep point."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    source = _scaled(config.source, config.multipliers[point_index - 1])
    gates = None
    if config.gate_rate_hz is not None:
        dur = config.acquisition_duration_ps
        gates = make_gates_periodic(config.gate_rate_hz, dur, config.window_ps)
    worker = partial(_acquire, config=config, source=source, point_index=point_index, gates=gates)
    indices = range(config.acquisitions_for(point_index))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~18 ms to import; only for a pool
        # a fork pool starts every worker at the first submit: no more than the cores
        workers = min(jobs, os.cpu_count() or 1)
        chunk = max(1, len(indices) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, indices, chunksize=chunk))
    else:
        parts = [worker(i) for i in indices]
    return sum(parts[1:], parts[0])


def run_scenario(config: ScenarioConfig, jobs: int = 1) -> ScenarioResult:
    """Run every sweep point and combine the selected points."""
    points: list[PointResult] = []
    for idx in range(1, len(config.multipliers) + 1):
        totals = run_point(config, idx, jobs=jobs)
        seconds = config.acquisitions_for(idx) * config.acquisition_duration_ps * 1e-12
        est = alpha_estimate(totals.counts)
        points.append(
            PointResult(
                point=idx,
                seconds=seconds,
                rate_cps=totals.rate_events / seconds,
                counts=totals.counts,
                estimate=est,
            )
        )
    ids = config.overall_points or tuple(range(1, len(points) + 1))
    overall = weighted_mean([points[i - 1].estimate for i in ids])
    return ScenarioResult(
        points=tuple(points),
        overall=overall,
        overall_point_ids=tuple(ids),
        separation_from_one=sigma_separation(overall, 1.0),
    )


# ---------------------------------------------------------------------------
# model predictions for a configured scenario


def _window_capture(window_ps: int, sigma_ps: float) -> float:
    """P(partner lands in its gate) for Gaussian timing spread sigma.

    Spread combines pair emission jitter and detector jitter on both the gate
    (trigger) and stop sides.  Offsets are rounded to the picosecond grid,
    hence the half-tick continuity correction.  Exactly 1 at sigma = 0.
    """
    if sigma_ps <= 0:
        return 1.0
    cdf = NormalDist().cdf
    return cdf((window_ps - 0.5) / sigma_ps) - cdf(-0.5 / sigma_ps)


def oracle_per_point(config: ScenarioConfig) -> list[float]:
    """Expected alpha at each sweep point under the configured model.

    For the heralded source this treats every gate as opened by a detected
    trigger photon (dark-opened gates are rare at the supported settings) and
    uses the exact per-gate mixture over the partner's path.  For the others
    it returns the corresponding closed-form prediction.
    """
    predict = _KINDS[config.kind].predict
    return [predict(config, _scaled(config.source, m)) for m in config.multipliers]


def _predict_pdc(config: ScenarioConfig, source: PdcSourceConfig) -> float:
    w_s = config.window_ps * 1e-12
    t, a = [], []
    for det in (config.d1, config.d2):
        jitter = (source.pair_jitter_ps, config.trigger.jitter_sigma_ps, det.jitter_sigma_ps)
        sigma = math.hypot(*jitter)
        t.append(det.efficiency * _window_capture(config.window_ps, sigma))
        a.append((0.5 * source.pair_rate_hz * det.efficiency + det.dark_rate_hz) * w_s)
    return expected_alpha_pdc(*t, *a)


def _predict_thermal(config: ScenarioConfig, source: ThermalSourceConfig) -> float:
    return expected_alpha_thermal_shared(config.window_ps, source.coherence_time_ps)


# ---------------------------------------------------------------------------
# the one table of per-kind facts; ``elements`` lists the arrays one
# acquisition builds as (the keys that set the size, the expected size, what)

_Elements = list[tuple[str, int, str]]
_WHOLE = "run.acquisition_duration_ps"


def _placed(config: ScenarioConfig, *rates, span: tuple[str, int] | None = None) -> _Elements:
    """Arrivals at each of ``rates`` (key, Hz, what) and every detector's dark counts,
    over ``span`` (the keys that set it, its length in ps; default the whole interval)."""
    for name in _SECTION_CHANNEL:
        if (d := getattr(config, name)) is not None:
            rates += ((f"[detector.{name}] dark_rate_hz", d.dark_rate_hz, f"{name} dark counts"),)
    keys, span_ps = span or (_WHOLE, config.acquisition_duration_ps)
    return [(f"{k} * {keys}", math.ceil(hz * span_ps * 1e-12), what) for k, hz, what in rates]


def _elements_pdc(config: ScenarioConfig, source: PdcSourceConfig) -> _Elements:
    return _placed(config, ("source.pair_rate_hz", source.pair_rate_hz, "pairs"))


def _elements_coherent(config: ScenarioConfig, source: CoherentSourceConfig) -> _Elements:
    gates = math.ceil(config.acquisition_duration_ps * config.gate_rate_hz * 1e-12)
    in_gates = (f"{_WHOLE} * run.gate_rate_hz * run.window_ps", gates * config.window_ps)
    beams = ("source.mean_rate_hz", source.mean_rate_hz, "beam arrivals")
    span = _beam_segments(config, in_gates)
    return [(f"{_WHOLE} * run.gate_rate_hz", gates, "gates"), *_placed(config, beams, span=span)]


def _elements_thermal(config: ScenarioConfig, source: ThermalSourceConfig) -> _Elements:
    blocks = -(-config.acquisition_duration_ps // source.coherence_time_ps)
    blocks_key = f"{_WHOLE} / source.coherence_time_ps"
    return [*_elements_coherent(config, source), (blocks_key, blocks, "coherence blocks")]


def _elements_wave(config: ScenarioConfig, source: ClassicalWaveConfig) -> _Elements:
    return _placed(config, ("source.herald_rate_hz", source.herald_rate_hz, "trials"))


class _Kind(NamedTuple):
    config: type
    rate_field: str  # the source field a sweep multiplier scales
    detectors: tuple[str, ...]  # the [detector.*] sections it reads
    periodic: bool  # whether run.gate_rate_hz opens its gates
    acquire: Callable[..., _AcqTotals]  # (config, source, seed of a stage, periodic gates)
    predict: Callable[[ScenarioConfig, SourceConfig], float]
    elements: Callable[[ScenarioConfig, SourceConfig], _Elements]


# Every entry is a function of this module that looks the layer functions
# (gen_*, detect, count_gates, ...) up as module globals when it runs, so
# patching one of those names reaches every kind.
_KINDS = {
    SourceKind.PDC: _Kind(
        PdcSourceConfig, "pair_rate_hz", ("trigger", "d1", "d2"), False,
        _acquire_pdc, _predict_pdc, _elements_pdc,
    ),
    SourceKind.COHERENT: _Kind(
        CoherentSourceConfig, "mean_rate_hz", ("d1", "d2"), True,
        _acquire_coherent, lambda config, source: 1.0, _elements_coherent,
    ),
    SourceKind.THERMAL: _Kind(
        ThermalSourceConfig, "mean_rate_hz", ("d1", "d2"), True,
        _acquire_thermal, _predict_thermal, _elements_thermal,
    ),
    SourceKind.CLASSICAL_WAVE: _Kind(
        ClassicalWaveConfig, "per_gate_intensity_mean", (), False,
        _acquire_wave, lambda config, source: expected_alpha_classical_wave(source),
        _elements_wave,
    ),
}


# ---------------------------------------------------------------------------
# reporting

RESULTS_HEADER = "point,rate_cps,N,N1,N2,Nc,alpha,sigma"


def csv_row(*values) -> str:
    """One CSV row: floats to six significant digits, anything else as text."""
    return ",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in values)


def emit_results_csv(result: ScenarioResult) -> str:
    """Results table: one row per sweep point plus an 'overall' summary row.

    The overall row combines the selected points: their counts and live
    times are summed, alpha and sigma are ``result.overall`` (the
    inverse-variance weighted mean), and the rate is the live-time weighted
    mean of their rates.
    """
    lines = [RESULTS_HEADER]
    for p in result.points:
        lines.append(
            csv_row(p.point, p.rate_cps, *astuple(p.counts), p.estimate.alpha, p.estimate.sigma)
        )
    chosen = [result.points[i - 1] for i in result.overall_point_ids]
    counts = sum((p.counts for p in chosen[1:]), chosen[0].counts)
    total_seconds = sum(p.seconds for p in chosen)
    mean_rate = sum(p.rate_cps * p.seconds for p in chosen) / total_seconds
    overall = result.overall
    lines.append(csv_row("overall", mean_rate, *astuple(counts), overall.alpha, overall.sigma))
    return "\n".join(lines) + "\n"
