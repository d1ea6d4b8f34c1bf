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

    [detector.trigger]                # pdc only; sections optional
    efficiency = 0.4
    dark_rate_hz = 100

    [detector.d1]
    efficiency = 0.5

    [run]
    window_ps = 7000
    acquisitions = 500
    acquisition_duration_ps = 1000000000000
    master_seed = 1
    gate_rate_hz = 65000              # generator-gated kinds only
    gate_policy = drop_overlapping
    label = demo

    [sweep]
    multipliers = 1 2.5 5
    acquisitions_per_point = 500 500 500   # optional, default = run acquisitions
    overall_points = 1 2                   # optional 1-based subset, default all

Unknown sections or keys are rejected, value errors name the offending
``[section] key``, and kind/key consistency is enforced (a heralded source
takes no generator rate; generator-gated sources require one; the per-gate
wave model takes no detector sections because it models detection directly).

Seeding: every acquisition of every point derives its generator streams from
(master_seed, acquisition index, "pt<point>:<stage>") via a keyed hash, so
results are independent of execution order and worker count, and a point's
series can be split across runs without overlap.
"""

from __future__ import annotations

import configparser
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from .detectors import DetectorConfig, detect
from .errors import ConfigError
from .estimators import (
    AlphaEstimate,
    OracleParams,
    alpha_estimate,
    expected_alpha_classical_wave,
    expected_alpha_independent,
    expected_alpha_pdc,
    expected_alpha_thermal_shared,
    sigma_separation,
    weighted_mean,
)
from .events import Channel, SeedSpec, derive_seed
from .gating import (
    CountSummary,
    GateList,
    GatePolicy,
    count_gates,
    make_gates_from_trigger,
    make_gates_periodic,
)
from .sources import (
    Arm,
    ClassicalWaveConfig,
    CoherentSourceConfig,
    IntensityLaw,
    PdcSourceConfig,
    Segments,
    ThermalMode,
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


class SourceKind(Enum):
    PDC = "pdc"
    COHERENT = "coherent"
    THERMAL = "thermal"
    CLASSICAL_WAVE = "classical_wave"


_KIND_BY_TYPE = {
    PdcSourceConfig: SourceKind.PDC,
    CoherentSourceConfig: SourceKind.COHERENT,
    ThermalSourceConfig: SourceKind.THERMAL,
    ClassicalWaveConfig: SourceKind.CLASSICAL_WAVE,
}

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
        return _KIND_BY_TYPE[type(self.source)]

    def __post_init__(self) -> None:
        if self.window_ps <= 0:
            raise ConfigError("run.window_ps must be positive")
        if self.acquisitions < 1:
            raise ConfigError("run.acquisitions must be >= 1")
        if self.acquisition_duration_ps <= self.window_ps:
            raise ConfigError(
                "run.acquisition_duration_ps must exceed the gate window"
            )
        if "\n" in self.label:
            raise ConfigError("run.label must be a single line")
        kind = self.kind

        if kind is SourceKind.PDC:
            if self.gate_rate_hz is not None:
                raise ConfigError(
                    "run.gate_rate_hz does not apply to a heralded source: "
                    "gates open on trigger detections"
                )
            object.__setattr__(self, "trigger", self.trigger or default_detector(Channel.TRIGGER))
        elif kind is SourceKind.CLASSICAL_WAVE:
            if self.trigger is not None:
                raise ConfigError(
                    "[detector.trigger] only applies to the heralded source"
                )
            if self.gate_rate_hz is not None:
                raise ConfigError(
                    "run.gate_rate_hz does not apply to the wave model: "
                    "trials come from source.herald_rate_hz"
                )
        else:
            if self.trigger is not None:
                raise ConfigError(
                    "[detector.trigger] only applies to the heralded source"
                )
            if self.gate_rate_hz is None:
                raise ConfigError(f"run.gate_rate_hz is required for kind={kind.value}")
            if not (self.gate_rate_hz > 0) or not math.isfinite(self.gate_rate_hz):
                raise ConfigError("run.gate_rate_hz must be finite and > 0")
            if self.gate_rate_hz * self.window_ps >= PICOSECONDS_PER_SECOND:
                raise ConfigError(
                    "gate window must be shorter than the gate period "
                    f"(rate {self.gate_rate_hz:g} Hz, window {self.window_ps} ps)"
                )

        if kind is SourceKind.CLASSICAL_WAVE:
            if self.d1 is not None or self.d2 is not None:
                raise ConfigError(
                    "the per-gate wave model draws detections directly; "
                    "[detector.d1]/[detector.d2] sections do not apply"
                )
        else:
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
            for a in self.acquisitions_per_point:
                if a < 1:
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
            _scaled_source(self.source, m)

    def acquisitions_for(self, point_index: int) -> int:
        """Acquisitions for the 1-based sweep point."""
        if self.acquisitions_per_point is None:
            return self.acquisitions
        return self.acquisitions_per_point[point_index - 1]


_SECTION_CHANNEL = {
    "trigger": Channel.TRIGGER,
    "d1": Channel.D1,
    "d2": Channel.D2,
}


def _scaled_source(source: SourceConfig, multiplier: float) -> SourceConfig:
    if isinstance(source, PdcSourceConfig):
        return replace(source, pair_rate_hz=source.pair_rate_hz * multiplier)
    if isinstance(source, (CoherentSourceConfig, ThermalSourceConfig)):
        return replace(source, mean_rate_hz=source.mean_rate_hz * multiplier)
    return replace(
        source, per_gate_intensity_mean=source.per_gate_intensity_mean * multiplier
    )


# ---------------------------------------------------------------------------
# config file parsing


class _Section:
    """Strict key accessor for one INI section."""

    def __init__(self, name: str, mapping) -> None:
        self.name = name
        self._map = dict(mapping)
        self._seen: set[str] = set()

    _MISSING = object()

    def _raw(self, key: str, default):
        self._seen.add(key)
        if key in self._map:
            return self._map[key]
        if default is self._MISSING:
            raise ConfigError(f"[{self.name}] is missing required key '{key}'")
        return default

    def get_str(self, key: str, default=_MISSING):
        v = self._raw(key, default)
        return v.strip() if isinstance(v, str) else v

    def get_float(self, key: str, default=_MISSING):
        v = self._raw(key, default)
        if not isinstance(v, str):
            return v
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected a number, got {v!r}") from None

    def get_int(self, key: str, default=_MISSING):
        v = self._raw(key, default)
        if not isinstance(v, str):
            return v
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected an integer, got {v!r}") from None

    def get_enum(self, key: str, enum_type, default=_MISSING):
        v = self._raw(key, default)
        if not isinstance(v, str):
            return v
        try:
            return enum_type(v.strip())
        except ValueError:
            choices = ", ".join(e.value for e in enum_type)
            raise ConfigError(
                f"[{self.name}] {key}: {v.strip()!r} is not one of: {choices}"
            ) from None

    def get_list(self, key: str, convert: Callable, default=_MISSING):
        v = self._raw(key, default)
        if not isinstance(v, str):
            return v
        items = v.replace(",", " ").split()
        out = []
        for item in items:
            try:
                out.append(convert(item))
            except ValueError:
                raise ConfigError(
                    f"[{self.name}] {key}: bad list entry {item!r}"
                ) from None
        return tuple(out)

    def finish(self) -> None:
        unknown = sorted(set(self._map) - self._seen)
        if unknown:
            raise ConfigError(f"[{self.name}] has unknown key '{unknown[0]}'")


def _parse_source(sec: _Section) -> SourceConfig:
    kind = sec.get_enum("kind", SourceKind)
    if kind is SourceKind.PDC:
        src = PdcSourceConfig(
            pair_rate_hz=sec.get_float("pair_rate_hz"),
            pair_jitter_ps=sec.get_float("pair_jitter_ps", 0.0),
        )
    elif kind is SourceKind.COHERENT:
        src = CoherentSourceConfig(mean_rate_hz=sec.get_float("mean_rate_hz"))
    elif kind is SourceKind.THERMAL:
        src = ThermalSourceConfig(
            mean_rate_hz=sec.get_float("mean_rate_hz"),
            mode=sec.get_enum("mode", ThermalMode, ThermalMode.INDEPENDENT_ARMS),
            coherence_time_ps=sec.get_int("coherence_time_ps", 0),
            splitting_ratio=sec.get_float("splitting_ratio", 0.5),
        )
    else:
        src = ClassicalWaveConfig(
            herald_rate_hz=sec.get_float("herald_rate_hz"),
            per_gate_intensity_mean=sec.get_float("per_gate_intensity_mean"),
            intensity_law=sec.get_enum("intensity_law", IntensityLaw, IntensityLaw.CONSTANT),
            splitting_ratio=sec.get_float("splitting_ratio", 0.5),
        )
    sec.finish()
    return src


def _parse_detector(sec: _Section, channel: Channel) -> DetectorConfig:
    base = default_detector(channel)
    det = DetectorConfig(
        channel=channel,
        efficiency=sec.get_float("efficiency", base.efficiency),
        dark_rate_hz=sec.get_float("dark_rate_hz", base.dark_rate_hz),
        dead_time_ps=sec.get_int("dead_time_ps", base.dead_time_ps),
        jitter_sigma_ps=sec.get_float("jitter_sigma_ps", base.jitter_sigma_ps),
    )
    sec.finish()
    return det


def parse_config(text: str) -> ScenarioConfig:
    """Parse INI scenario text, rejecting unknown sections/keys loudly."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    known = {"source", "run", "sweep", "detector.trigger", "detector.d1", "detector.d2"}
    for name in cp.sections():
        if name not in known:
            raise ConfigError(f"unknown config section [{name}]")
    if not cp.has_section("source"):
        raise ConfigError("config needs a [source] section")

    source = _parse_source(_Section("source", cp["source"]))

    detectors: dict[str, DetectorConfig | None] = {}
    for name, channel in _SECTION_CHANNEL.items():
        section = f"detector.{name}"
        if cp.has_section(section):
            detectors[name] = _parse_detector(_Section(section, cp[section]), channel)
        else:
            detectors[name] = None

    run = _Section("run", cp["run"] if cp.has_section("run") else {})
    window_ps = run.get_int("window_ps", 7000)
    acquisitions = run.get_int("acquisitions", 500)
    duration = run.get_int("acquisition_duration_ps", PICOSECONDS_PER_SECOND)
    master_seed = run.get_int("master_seed", 0)
    gate_rate = run.get_float("gate_rate_hz", None)
    gate_policy = run.get_enum("gate_policy", GatePolicy, GatePolicy.DROP_OVERLAPPING)
    label = run.get_str("label", "")
    run.finish()

    sweep = _Section("sweep", cp["sweep"] if cp.has_section("sweep") else {})
    multipliers = sweep.get_list("multipliers", float, (1.0,))
    acq_per_point = sweep.get_list("acquisitions_per_point", int, None)
    overall_points = sweep.get_list("overall_points", int, None)
    sweep.finish()

    return ScenarioConfig(
        source=source,
        trigger=detectors["trigger"],
        d1=detectors["d1"],
        d2=detectors["d2"],
        window_ps=window_ps,
        acquisitions=acquisitions,
        acquisition_duration_ps=duration,
        master_seed=master_seed,
        gate_rate_hz=gate_rate,
        gate_policy=gate_policy,
        multipliers=multipliers,
        acquisitions_per_point=acq_per_point,
        overall_points=overall_points,
        label=label,
    )


def _fmt_num(x: float) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def serialize_config(config: ScenarioConfig) -> str:
    """Render a config back to INI text; parse_config inverts this exactly."""
    lines: list[str] = ["[source]"]
    src = config.source
    lines.append(f"kind = {config.kind.value}")
    if isinstance(src, PdcSourceConfig):
        lines.append(f"pair_rate_hz = {_fmt_num(src.pair_rate_hz)}")
        if src.pair_jitter_ps:
            lines.append(f"pair_jitter_ps = {_fmt_num(src.pair_jitter_ps)}")
    elif isinstance(src, CoherentSourceConfig):
        lines.append(f"mean_rate_hz = {_fmt_num(src.mean_rate_hz)}")
    elif isinstance(src, ThermalSourceConfig):
        lines.append(f"mean_rate_hz = {_fmt_num(src.mean_rate_hz)}")
        lines.append(f"mode = {src.mode.value}")
        if src.mode is ThermalMode.SHARED_SINGLE_MODE:
            lines.append(f"coherence_time_ps = {src.coherence_time_ps}")
            lines.append(f"splitting_ratio = {_fmt_num(src.splitting_ratio)}")
    else:
        lines.append(f"herald_rate_hz = {_fmt_num(src.herald_rate_hz)}")
        lines.append(f"per_gate_intensity_mean = {_fmt_num(src.per_gate_intensity_mean)}")
        lines.append(f"intensity_law = {src.intensity_law.value}")
        lines.append(f"splitting_ratio = {_fmt_num(src.splitting_ratio)}")

    for name in ("trigger", "d1", "d2"):
        det: DetectorConfig | None = getattr(config, name)
        if det is None:
            continue
        lines.append("")
        lines.append(f"[detector.{name}]")
        lines.append(f"efficiency = {_fmt_num(det.efficiency)}")
        lines.append(f"dark_rate_hz = {_fmt_num(det.dark_rate_hz)}")
        if det.dead_time_ps:
            lines.append(f"dead_time_ps = {det.dead_time_ps}")
        if det.jitter_sigma_ps:
            lines.append(f"jitter_sigma_ps = {_fmt_num(det.jitter_sigma_ps)}")

    lines.append("")
    lines.append("[run]")
    lines.append(f"window_ps = {config.window_ps}")
    lines.append(f"acquisitions = {config.acquisitions}")
    lines.append(f"acquisition_duration_ps = {config.acquisition_duration_ps}")
    lines.append(f"master_seed = {config.master_seed}")
    if config.gate_rate_hz is not None:
        lines.append(f"gate_rate_hz = {_fmt_num(config.gate_rate_hz)}")
    lines.append(f"gate_policy = {config.gate_policy.value}")
    if config.label:
        lines.append(f"label = {config.label}")

    lines.append("")
    lines.append("[sweep]")
    lines.append("multipliers = " + " ".join(_fmt_num(m) for m in config.multipliers))
    if config.acquisitions_per_point is not None:
        lines.append(
            "acquisitions_per_point = "
            + " ".join(str(a) for a in config.acquisitions_per_point)
        )
    if config.overall_points is not None:
        lines.append("overall_points = " + " ".join(str(p) for p in config.overall_points))
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
        return _AcqTotals(
            self.counts + other.counts,
            self.trigger_events + other.trigger_events,
            self.d1_events + other.d1_events,
            self.d2_events + other.d2_events,
        )


def _beam_segments(config: ScenarioConfig, gates: GateList) -> Segments:
    """Where a generator-gated run places its beam arrivals.

    Two Poisson beams seen by detectors without jitter or dead time only
    need their arrivals inside the gates: nothing outside one can change a
    count.  Every other case gets the whole interval.
    """
    dur = config.acquisition_duration_ps
    source = config.source
    poisson_beams = isinstance(source, CoherentSourceConfig) or (
        isinstance(source, ThermalSourceConfig) and source.mode is ThermalMode.INDEPENDENT_ARMS
    )
    ideal = all(d.dead_time_ps == 0 and d.jitter_sigma_ps == 0 for d in (config.d1, config.d2))
    if poisson_beams and ideal:
        return Segments.from_gates(gates, dur)
    return Segments.whole(dur)


def _acquire(
    acq_index: int,
    *,
    config: ScenarioConfig,
    source: SourceConfig,
    point_index: int,
    gates: GateList | None,
    segments: Segments | None,
) -> _AcqTotals:
    """Simulate one acquisition of one sweep point."""
    spec = SeedSpec(config.master_seed)
    stage = f"pt{point_index}"
    dur = config.acquisition_duration_ps

    if isinstance(source, PdcSourceConfig):
        trig_arr, idler = gen_pdc_pairs(source, dur, spec.seed_for(acq_index, f"{stage}:source"))
        paths = project_idler_path(idler, spec.seed_for(acq_index, f"{stage}:path"))
        trig_ev = detect(trig_arr, config.trigger, spec.seed_for(acq_index, f"{stage}:det-t"))
        d1_ev = detect(
            paths.select_arm(Arm.IDLER_PATH1), config.d1, spec.seed_for(acq_index, f"{stage}:det-d1")
        )
        d2_ev = detect(
            paths.select_arm(Arm.IDLER_PATH2), config.d2, spec.seed_for(acq_index, f"{stage}:det-d2")
        )
        trig_gates = make_gates_from_trigger(trig_ev, config.window_ps, config.gate_policy)
        counts = count_gates(trig_gates, d1_ev, d2_ev)
        return _AcqTotals(counts, len(trig_ev), len(d1_ev), len(d2_ev))

    if isinstance(source, ClassicalWaveConfig):
        n_gates = int(
            spec.rng_for(acq_index, f"{stage}:heralds").poisson(
                source.herald_rate_hz * dur * 1e-12
            )
        )
        p1, p2 = gen_classical_wave_gates(
            source, n_gates, spec.seed_for(acq_index, f"{stage}:intensity")
        )
        f1 = spec.rng_for(acq_index, f"{stage}:fire1").random(n_gates) < p1
        f2 = spec.rng_for(acq_index, f"{stage}:fire2").random(n_gates) < p2
        counts = CountSummary(
            n_gates,
            int(np.count_nonzero(f1)),
            int(np.count_nonzero(f2)),
            int(np.count_nonzero(f1 & f2)),
        )
        return _AcqTotals(counts, n_gates, counts.n1, counts.n2)

    if isinstance(source, ThermalSourceConfig) and source.mode is ThermalMode.SHARED_SINGLE_MODE:
        both = gen_thermal_arrivals(source, dur, spec.seed_for(acq_index, f"{stage}:source"))
        b1 = both.select_arm(Arm.BEAM1)
        b2 = both.select_arm(Arm.BEAM2)
    else:  # two independent Poisson beams
        if isinstance(source, CoherentSourceConfig):
            seeds = [spec.seed_for(acq_index, f"{stage}:beam{k}") for k in (1, 2)]
        else:  # the substreams gen_thermal_arrivals draws independent arms from
            source_seed = spec.seed_for(acq_index, f"{stage}:source")
            seeds = [derive_seed(source_seed, f"beam{k}") for k in (1, 2)]
        b1, b2 = (
            gen_poisson_arrivals(source.mean_rate_hz, dur, arm, seed, segments)
            for arm, seed in zip((Arm.BEAM1, Arm.BEAM2), seeds)
        )
    d1_ev = detect(b1, config.d1, spec.seed_for(acq_index, f"{stage}:det-d1"))
    d2_ev = detect(b2, config.d2, spec.seed_for(acq_index, f"{stage}:det-d2"))
    counts = count_gates(gates, d1_ev, d2_ev)
    events1, events2 = (len(ev) + ev.unplaced for ev in (d1_ev, d2_ev))
    return _AcqTotals(counts, len(gates), events1, events2)


def run_point(
    config: ScenarioConfig,
    point_index: int,
    *,
    n_acquisitions: int | None = None,
    first_acquisition: int = 0,
    jobs: int = 1,
) -> _AcqTotals:
    """Accumulate counts for one 1-based sweep point.

    Totals are additive across acquisition ranges: running [0, k) and [k, n)
    separately and summing gives exactly the totals of running [0, n).
    """
    if n_acquisitions is None:
        n_acquisitions = config.acquisitions_for(point_index)
    if n_acquisitions < 1:
        raise ConfigError(f"n_acquisitions must be >= 1, got {n_acquisitions}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    multiplier = config.multipliers[point_index - 1]
    source = _scaled_source(config.source, multiplier)
    gates = segments = None
    if config.gate_rate_hz is not None:
        gates = make_gates_periodic(
            config.gate_rate_hz, config.acquisition_duration_ps, config.window_ps
        )
        segments = _beam_segments(config, gates)
    worker = partial(
        _acquire,
        config=config,
        source=source,
        point_index=point_index,
        gates=gates,
        segments=segments,
    )
    indices = range(first_acquisition, first_acquisition + n_acquisitions)
    if jobs > 1:
        chunk = max(1, len(indices) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(worker, indices, chunksize=chunk))
    else:
        parts = [worker(i) for i in indices]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def _canonical_rate(kind: SourceKind, trig: float, d1: float, d2: float) -> float:
    # Heralded runs sweep the trigger rate; generator-gated runs sweep the
    # singles rate (the generator itself never changes).
    if kind is SourceKind.PDC:
        return trig
    return d1


def run_scenario(config: ScenarioConfig, jobs: int = 1) -> ScenarioResult:
    """Run every sweep point and combine the selected points."""
    points: list[PointResult] = []
    for idx, multiplier in enumerate(config.multipliers, start=1):
        totals = run_point(config, idx, jobs=jobs)
        seconds = config.acquisitions_for(idx) * config.acquisition_duration_ps * 1e-12
        est = alpha_estimate(totals.counts)
        trig_rate = totals.trigger_events / seconds
        d1_rate = totals.d1_events / seconds
        d2_rate = totals.d2_events / seconds
        points.append(
            PointResult(
                point=idx,
                multiplier=multiplier,
                seconds=seconds,
                rate_trigger_cps=trig_rate,
                rate_d1_cps=d1_rate,
                rate_d2_cps=d2_rate,
                rate_cps=_canonical_rate(config.kind, trig_rate, d1_rate, d2_rate),
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
    out: list[float] = []
    for multiplier in config.multipliers:
        source = _scaled_source(config.source, multiplier)
        if isinstance(source, PdcSourceConfig):
            w_s = config.window_ps * 1e-12
            sigma1 = math.hypot(
                source.pair_jitter_ps,
                config.trigger.jitter_sigma_ps,
                config.d1.jitter_sigma_ps,
            )
            sigma2 = math.hypot(
                source.pair_jitter_ps,
                config.trigger.jitter_sigma_ps,
                config.d2.jitter_sigma_ps,
            )
            params = OracleParams(
                t1=config.d1.efficiency * _window_capture(config.window_ps, sigma1),
                t2=config.d2.efficiency * _window_capture(config.window_ps, sigma2),
                a1=(0.5 * source.pair_rate_hz * config.d1.efficiency + config.d1.dark_rate_hz)
                * w_s,
                a2=(0.5 * source.pair_rate_hz * config.d2.efficiency + config.d2.dark_rate_hz)
                * w_s,
            )
            out.append(expected_alpha_pdc(params))
        elif isinstance(source, CoherentSourceConfig):
            out.append(expected_alpha_independent())
        elif isinstance(source, ThermalSourceConfig):
            if source.mode is ThermalMode.INDEPENDENT_ARMS:
                out.append(expected_alpha_independent())
            else:
                out.append(
                    expected_alpha_thermal_shared(config.window_ps, source.coherence_time_ps)
                )
        else:
            out.append(expected_alpha_classical_wave(source))
    return out


# ---------------------------------------------------------------------------
# reporting

RESULTS_HEADER = "point,rate_cps,N,N1,N2,Nc,alpha,sigma"


def _g6(x: float) -> str:
    return f"{x:.6g}"


def emit_results_csv(result: ScenarioResult) -> str:
    """Results table: one row per sweep point plus an 'overall' summary row.

    The overall row combines the selected points: counts are summed, alpha
    and sigma come from the inverse-variance weighted mean, and the rate is
    the live-time weighted mean of the selected points' rates.
    """
    lines = [RESULTS_HEADER]
    for p in result.points:
        c = p.counts
        lines.append(
            f"{p.point},{_g6(p.rate_cps)},{c.n_gates},{c.n1},{c.n2},{c.nc},"
            f"{_g6(p.estimate.alpha)},{_g6(p.estimate.sigma)}"
        )
    chosen = [result.points[i - 1] for i in result.overall_point_ids]
    total_seconds = sum(p.seconds for p in chosen)
    mean_rate = sum(p.rate_cps * p.seconds for p in chosen) / total_seconds
    totals = chosen[0].counts
    for p in chosen[1:]:
        totals = totals + p.counts
    lines.append(
        f"overall,{_g6(mean_rate)},{totals.n_gates},{totals.n1},{totals.n2},{totals.nc},"
        f"{_g6(result.overall.alpha)},{_g6(result.overall.sigma)}"
    )
    return "\n".join(lines) + "\n"
