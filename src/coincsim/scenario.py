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
from dataclasses import MISSING, astuple, dataclass, fields, replace
from enum import Enum
from functools import partial
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
    Gating,
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
        gating = kind.gating
        if gating is Gating.TRIGGER:
            if self.gate_rate_hz is not None:
                raise ConfigError(
                    "run.gate_rate_hz does not apply to a heralded source: "
                    "gates open on trigger detections"
                )
            object.__setattr__(self, "trigger", self.trigger or default_detector(Channel.TRIGGER))
        elif self.trigger is not None:
            raise ConfigError("[detector.trigger] only applies to the heralded source")
        elif gating is Gating.PER_GATE:
            if self.gate_rate_hz is not None:
                raise ConfigError(
                    "run.gate_rate_hz does not apply to the wave model: "
                    "trials come from source.herald_rate_hz"
                )
            if self.d1 is not None or self.d2 is not None:
                raise ConfigError(
                    "the per-gate wave model draws detections directly; "
                    "[detector.d1]/[detector.d2] sections do not apply"
                )
        else:
            if self.gate_rate_hz is None:
                raise ConfigError(f"run.gate_rate_hz is required for kind={self.kind.value}")
            gate_period_ps(self.gate_rate_hz, self.window_ps)

        if gating is not Gating.PER_GATE:
            object.__setattr__(self, "d1", self.d1 or default_detector(Channel.D1))
            object.__setattr__(self, "d2", self.d2 or default_detector(Channel.D2))
            for det, name in ((self.trigger, "trigger"), (self.d1, "d1"), (self.d2, "d2")):
                if det is not None and int(det.channel) != int(_SECTION_CHANNEL[name]):
                    raise ConfigError(
                        f"[detector.{name}] was built for channel {det.channel.name}"
                    )

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


class _Section:
    """Strict key accessor for one INI section."""

    def __init__(self, name: str, mapping) -> None:
        self.name = name
        self._map = dict(mapping)
        self._seen: set[str] = set()

    def get(self, key: str, type_, default=MISSING):
        """The value of ``key`` parsed as ``type_``.

        ``type_`` is str, int, float, an Enum, ``X | None`` (parsed as X) or
        ``tuple[X, ...]`` (whitespace- or comma-separated items).  An omitted
        key gives ``default`` and is required when that is ``MISSING``.
        """
        self._seen.add(key)
        if key not in self._map:
            if default is MISSING:
                raise ConfigError(f"[{self.name}] is missing required key '{key}'")
            return default
        return self._parse(key, self._map[key].strip(), type_)

    def _parse(self, key: str, v: str, type_):
        if get_origin(type_) is tuple:
            items = v.replace(",", " ").split()
            return tuple(self._parse(key, item, get_args(type_)[0]) for item in items)
        if get_origin(type_) is not None:  # X | None
            return self._parse(key, v, get_args(type_)[0])
        try:
            return type_(v)
        except ValueError:
            if issubclass(type_, Enum):
                choices = ", ".join(e.value for e in type_)
                raise ConfigError(f"[{self.name}] {key}: {v!r} is not one of: {choices}") from None
            expected = "an integer" if type_ is int else "a number"
            raise ConfigError(f"[{self.name}] {key}: expected {expected}, got {v!r}") from None

    def finish(self, names) -> None:
        """Reject every key that is neither read already nor one of ``names``."""
        unknown = sorted(set(self._map) - self._seen - set(names))
        if unknown:
            raise ConfigError(f"[{self.name}] has unknown key '{unknown[0]}'")


# The [run] and [sweep] keys, each the ScenarioConfig field of the same name.
_RUN_SECTIONS = {
    "run": ("window_ps", "acquisitions", "acquisition_duration_ps", "master_seed",
            "gate_rate_hz", "gate_policy", "label"),
    "sweep": ("multipliers", "acquisitions_per_point", "overall_points"),
}
_DETECTOR_KEYS = tuple(f.name for f in fields(DetectorConfig) if f.name != "channel")


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


def _read_fields(sec: _Section, cls, names, defaults: dict) -> dict:
    """The fields ``names`` of ``cls``, each read from its key in ``sec``.

    A field's annotated type parses its value; a key the section omits takes
    its value from ``defaults`` and is required when that is ``MISSING``.
    """
    types = get_type_hints(cls)
    sec.finish(names)  # an unknown key is named before a missing one
    return {name: sec.get(name, types[name], defaults[name]) for name in names}


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

    sec = _Section("source", cp["source"])
    kind = sec.get("kind", SourceKind)
    cls = _KINDS[kind].config
    defaults = _field_defaults(cls)
    values = {"source": cls(**_read_fields(sec, cls, defaults.keys(), defaults))}

    for name, channel in _SECTION_CHANNEL.items():
        section = f"detector.{name}"
        if cp.has_section(section):
            sec = _Section(section, cp[section])
            defaults = vars(default_detector(channel))
            values[name] = DetectorConfig(
                channel=channel, **_read_fields(sec, DetectorConfig, _DETECTOR_KEYS, defaults)
            )

    defaults = _field_defaults(ScenarioConfig)
    for section, names in _RUN_SECTIONS.items():
        sec = _Section(section, cp[section] if cp.has_section(section) else {})
        values.update(_read_fields(sec, ScenarioConfig, names, defaults))
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
    multiplier: float
    seconds: float
    rate_trigger_cps: float
    rate_d1_cps: float
    rate_d2_cps: float
    rate_cps: float  # canonical rate axis for this source kind
    counts: CountSummary
    estimate: AlphaEstimate


@dataclass(frozen=True)
class ScenarioResult:
    label: str
    kind: SourceKind
    window_ps: int
    points: tuple[PointResult, ...]
    overall: AlphaEstimate
    overall_point_ids: tuple[int, ...]
    separation_from_one: float


@dataclass(frozen=True)
class _AcqTotals:
    counts: CountSummary
    trigger_events: int
    d1_events: int
    d2_events: int

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
    d1_ev = detect(paths.select_arm(Arm.IDLER_PATH1), config.d1, seed("det-d1"))
    d2_ev = detect(paths.select_arm(Arm.IDLER_PATH2), config.d2, seed("det-d2"))
    trig_gates = make_gates_from_trigger(trig_ev, config.window_ps, config.gate_policy)
    counts = count_gates(trig_gates, d1_ev, d2_ev)
    return _AcqTotals(counts, len(trig_ev), len(d1_ev), len(d2_ev))


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
    return _AcqTotals(counts, len(gates), *(len(ev) + ev.unplaced for ev in (d1_ev, d2_ev)))


def _acquire_wave(config, source: ClassicalWaveConfig, seed, gates: None) -> _AcqTotals:
    heralds = np.random.default_rng(seed("heralds"))
    n_gates = int(heralds.poisson(source.herald_rate_hz * config.acquisition_duration_ps * 1e-12))
    p1, p2 = gen_classical_wave_gates(source, n_gates, seed("intensity"))
    f1 = np.random.default_rng(seed("fire1")).random(n_gates) < p1
    f2 = np.random.default_rng(seed("fire2")).random(n_gates) < p2
    n1, n2, nc = (int(np.count_nonzero(f)) for f in (f1, f2, f1 & f2))
    return _AcqTotals(CountSummary(n_gates, n1, n2, nc), n_gates, n1, n2)


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
        chunk = max(1, len(indices) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(worker, indices, chunksize=chunk))
    else:
        parts = [worker(i) for i in indices]
    return sum(parts[1:], parts[0])


def run_scenario(config: ScenarioConfig, jobs: int = 1) -> ScenarioResult:
    """Run every sweep point and combine the selected points."""
    points: list[PointResult] = []
    for idx, multiplier in enumerate(config.multipliers, start=1):
        totals = run_point(config, idx, jobs=jobs)
        seconds = config.acquisitions_for(idx) * config.acquisition_duration_ps * 1e-12
        est = alpha_estimate(totals.counts)
        events = (totals.trigger_events, totals.d1_events, totals.d2_events)
        trig_rate, d1_rate, d2_rate = (n / seconds for n in events)
        points.append(
            PointResult(
                point=idx,
                multiplier=multiplier,
                seconds=seconds,
                rate_trigger_cps=trig_rate,
                rate_d1_cps=d1_rate,
                rate_d2_cps=d2_rate,
                # Heralded runs sweep the trigger rate; the others the
                # singles rate (a gate generator never changes).
                rate_cps=trig_rate if _KINDS[config.kind].gating is Gating.TRIGGER else d1_rate,
                counts=totals.counts,
                estimate=est,
            )
        )
    ids = config.overall_points or tuple(range(1, len(points) + 1))
    overall = weighted_mean([points[i - 1].estimate for i in ids])
    return ScenarioResult(
        label=config.label,
        kind=config.kind,
        window_ps=config.window_ps,
        points=tuple(points),
        overall=overall,
        overall_point_ids=tuple(ids),
        separation_from_one=sigma_separation(overall, 1.0),
    )


# ---------------------------------------------------------------------------
# model predictions for a configured scenario


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _window_capture(window_ps: int, sigma_ps: float) -> float:
    """P(partner lands in its gate) for Gaussian timing spread sigma.

    Spread combines pair emission jitter and detector jitter on both the gate
    (trigger) and stop sides.  Offsets are rounded to the picosecond grid,
    hence the half-tick continuity correction.  Exactly 1 at sigma = 0.
    """
    if sigma_ps <= 0:
        return 1.0
    return _normal_cdf((window_ps - 0.5) / sigma_ps) - _normal_cdf(-0.5 / sigma_ps)


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
    gating: Gating  # how its gates open
    acquire: Callable[..., _AcqTotals]  # (config, source, seed of a stage, periodic gates)
    predict: Callable[[ScenarioConfig, SourceConfig], float]
    elements: Callable[[ScenarioConfig, SourceConfig], _Elements]


# Every entry is a function of this module that looks the layer functions
# (gen_*, detect, count_gates, ...) up as module globals when it runs, so
# patching one of those names reaches every kind.
_KINDS = {
    SourceKind.PDC: _Kind(
        PdcSourceConfig, "pair_rate_hz", Gating.TRIGGER,
        _acquire_pdc, _predict_pdc, _elements_pdc,
    ),
    SourceKind.COHERENT: _Kind(
        CoherentSourceConfig, "mean_rate_hz", Gating.GENERATOR,
        _acquire_coherent, lambda config, source: 1.0, _elements_coherent,
    ),
    SourceKind.THERMAL: _Kind(
        ThermalSourceConfig, "mean_rate_hz", Gating.GENERATOR,
        _acquire_thermal, _predict_thermal, _elements_thermal,
    ),
    SourceKind.CLASSICAL_WAVE: _Kind(
        ClassicalWaveConfig, "per_gate_intensity_mean", Gating.PER_GATE,
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

    The overall row combines the selected points: counts are summed, alpha
    and sigma come from the inverse-variance weighted mean, and the rate is
    the live-time weighted mean of the selected points' rates.
    """
    lines = [RESULTS_HEADER]
    for p in result.points:
        lines.append(
            csv_row(p.point, p.rate_cps, *astuple(p.counts), p.estimate.alpha, p.estimate.sigma)
        )
    chosen = [result.points[i - 1] for i in result.overall_point_ids]
    total_seconds = sum(p.seconds for p in chosen)
    mean_rate = sum(p.rate_cps * p.seconds for p in chosen) / total_seconds
    overall = result.overall
    lines.append(
        csv_row("overall", mean_rate, *astuple(overall.counts), overall.alpha, overall.sigma)
    )
    return "\n".join(lines) + "\n"
