import dataclasses
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coincsim
from coincsim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from coincsim.detectors import DetectorConfig
from coincsim.errors import ConfigError
from coincsim.estimators import AlphaEstimate
from coincsim.events import Channel
from coincsim.gating import GatePolicy, make_gates_periodic
from coincsim.scenario import (
    _RUN_SECTIONS,
    _SECTION_CHANNEL,
    RESULTS_HEADER,
    ScenarioConfig,
    SourceKind,
    default_detector,
    emit_results_csv,
    oracle_per_point,
    parse_config,
    run_point,
    run_scenario,
    serialize_config,
)
from coincsim.sources import (
    ClassicalWaveConfig,
    CoherentSourceConfig,
    IntensityLaw,
    PdcSourceConfig,
    ThermalSourceConfig,
)
from coincsim.timetags import write_timetag_file

from stat_helpers import stream_of

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_CONFIGS = sorted(CONFIGS.glob("*.cfg"))

PDC_MINIMAL = """
[source]
kind = pdc
pair_rate_hz = 1e6
"""

COHERENT_1E10 = """
[source]
kind = coherent
mean_rate_hz = 1e10

[run]
gate_rate_hz = 65000
"""

# The [source] keys of one valid source of each kind, the [detector.*]
# sections each kind reads, and the kinds whose gates a generator opens.
KIND_SOURCE = {
    SourceKind.PDC: "pair_rate_hz = 1e6",
    SourceKind.COHERENT: "mean_rate_hz = 1e6",
    SourceKind.THERMAL: "mean_rate_hz = 1e6\ncoherence_time_ps = 100000",
    SourceKind.CLASSICAL_WAVE: "herald_rate_hz = 1000\nper_gate_intensity_mean = 0.05",
}
KIND_READS = {
    SourceKind.PDC: ("trigger", "d1", "d2"),
    SourceKind.COHERENT: ("d1", "d2"),
    SourceKind.THERMAL: ("d1", "d2"),
    SourceKind.CLASSICAL_WAVE: (),
}
GENERATOR_GATED = (SourceKind.COHERENT, SourceKind.THERMAL)
DETECTOR_SUBSETS = [
    c for n in range(4) for c in itertools.combinations(("trigger", "d1", "d2"), n)
]

COHERENT_SMALL = """
[source]
kind = coherent
mean_rate_hz = 2e6

[run]
window_ps = 7000
gate_rate_hz = 1e6
acquisitions = 3
acquisition_duration_ps = 1000000000

[detector.d1]
efficiency = 1.0
dark_rate_hz = 0

[detector.d2]
efficiency = 1.0
dark_rate_hz = 0
"""


class TestParseConfig:
    def test_minimal_pdc_defaults(self):
        cfg = parse_config(PDC_MINIMAL)
        assert cfg.kind is SourceKind.PDC
        assert cfg.source.pair_rate_hz == 1e6
        assert cfg.window_ps == 7000
        assert cfg.acquisitions == 500
        assert cfg.acquisition_duration_ps == 10**12
        assert cfg.master_seed == 0
        assert cfg.multipliers == (1.0,)
        # detector defaults fill in
        assert cfg.trigger.efficiency == 0.4
        assert cfg.d1.efficiency == 0.5
        assert cfg.d1.dark_rate_hz == 100.0
        assert cfg.gate_policy is GatePolicy.DROP_OVERLAPPING

    def test_full_round_trip_all_kinds(self):
        sources = [
            PdcSourceConfig(pair_rate_hz=5e3, pair_jitter_ps=120.0),
            CoherentSourceConfig(mean_rate_hz=2.9e6),
            ThermalSourceConfig(mean_rate_hz=1e6, coherence_time_ps=700_000, splitting_ratio=0.4),
            ClassicalWaveConfig(
                herald_rate_hz=65_000.0,
                per_gate_intensity_mean=0.05,
                intensity_law=IntensityLaw.EXPONENTIAL,
                splitting_ratio=0.5,
            ),
        ]
        detectors = {
            "trigger": DetectorConfig(Channel.TRIGGER, dead_time_ps=50_000, jitter_sigma_ps=40.5),
            "d1": DetectorConfig(
                Channel.D1, efficiency=0.7, dark_rate_hz=250.0, dead_time_ps=45_000
            ),
            "d2": DetectorConfig(Channel.D2, jitter_sigma_ps=0.25),
        }
        for src in sources:
            kw = {}
            if isinstance(src, (CoherentSourceConfig, ThermalSourceConfig)):
                kw["gate_rate_hz"] = 65_000.0
            if not isinstance(src, ClassicalWaveConfig):
                kw.update(d1=detectors["d1"], d2=detectors["d2"])
            if isinstance(src, PdcSourceConfig):
                kw["trigger"] = detectors["trigger"]
            cfg = ScenarioConfig(
                source=src,
                window_ps=7000,
                acquisitions=12,
                acquisition_duration_ps=3 * 10**11,
                master_seed=42,
                gate_policy=GatePolicy.ALLOW_OVERLAP,
                multipliers=(1.0, 2.0),
                acquisitions_per_point=(12, 6),
                overall_points=(1,),
                label="round trip",
                **kw,
            )
            text = serialize_config(cfg)
            assert parse_config(text) == cfg

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_round_trips(self, path):
        cfg = parse_config(path.read_text())
        assert parse_config(serialize_config(cfg)) == cfg

    def test_every_field_is_in_a_config_section(self):
        in_sections = ["source", *_SECTION_CHANNEL]
        for names in _RUN_SECTIONS.values():
            in_sections += names
        assert sorted(f.name for f in dataclasses.fields(ScenarioConfig)) == sorted(in_sections)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[camera\]"):
            parse_config(PDC_MINIMAL + "\n[camera]\nbits = 8\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config("[source]\nkind = pdc\npair_rate_hz = 1e6\nwavelength = 800\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="pair_rate_hz"):
            parse_config("[source]\nkind = pdc\n")

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError, match="pair_rate_hz"):
            parse_config("[source]\nkind = pdc\npair_rate_hz = fast\n")

    # Each text gives either this exact ConfigError message or these field values.
    READER_CASES = {
        "no_kind": ("[source]\npair_rate_hz = 1e6\n", "[source] is missing required key 'kind'"),
        "bad_kind": (
            "[source]\nkind = nope\n",
            "[source] kind: 'nope' is not one of: pdc, coherent, thermal, classical_wave",
        ),
        "detector_channel": (
            PDC_MINIMAL + "[detector.d1]\nchannel = 1\n",
            "[detector.d1] has unknown key 'channel'",
        ),
        "unknown_before_missing": (
            "[source]\nkind = pdc\nzzz = 1\nwavelength = 800\n",
            "[source] has unknown key 'wavelength'",
        ),
        "default_section_key": (
            "[DEFAULT]\nefficiency = 0.5\n" + PDC_MINIMAL,
            "[source] has unknown key 'efficiency'",
        ),
        "comma_list": (
            PDC_MINIMAL + "[sweep]\nmultipliers = 1, 2,3\n",
            {"multipliers": (1.0, 2.0, 3.0)},
        ),
    }

    @pytest.mark.parametrize("text, expected", READER_CASES.values(), ids=list(READER_CASES))
    def test_reader_cases(self, text, expected):
        if isinstance(expected, str):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert str(err.value) == expected
        else:
            cfg = parse_config(text)
            assert {name: getattr(cfg, name) for name in expected} == expected

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("run", "window_ps = 7.5", "expected an integer, got '7.5'"),
            ("run", "gate_rate_hz = fast", "expected a number, got 'fast'"),
            ("run", "gate_policy = sometimes", "drop_overlapping, allow_overlap"),
            ("sweep", "multipliers = 1 x", "'x'"),
            ("run", "windows_ps = 7000", "unknown key"),
            ("sweep", "multiplier = 2", "unknown key"),
        ],
        ids=["int", "float", "enum", "list-entry", "unknown-run", "unknown-sweep"],
    )
    def test_run_section_errors_name_section_and_key(self, section, line, message):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError) as err:
            parse_config(f"{PDC_MINIMAL}\n[{section}]\n{line}\n")
        assert f"[{section}]" in str(err.value)
        assert key in str(err.value)
        assert message in str(err.value)

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("[source\nkind = pdc\n")

    def test_out_of_range_efficiency(self):
        text = PDC_MINIMAL + "\n[detector.d1]\nefficiency = 1.5\n"
        with pytest.raises(ConfigError, match="efficiency"):
            parse_config(text)

    def test_gate_rate_required_for_coherent(self):
        with pytest.raises(ConfigError, match="gate_rate_hz"):
            parse_config("[source]\nkind = coherent\nmean_rate_hz = 1e6\n")

    def test_gate_rate_rejected_for_pdc(self):
        with pytest.raises(ConfigError, match="gate_rate_hz"):
            parse_config(PDC_MINIMAL + "\n[run]\ngate_rate_hz = 1000\n")

    def test_window_must_fit_gate_period(self):
        text = (
            "[source]\nkind = coherent\nmean_rate_hz = 1e6\n"
            "[run]\nwindow_ps = 2000000\ngate_rate_hz = 1e6\n"
        )
        with pytest.raises(ConfigError, match="window"):
            parse_config(text)

    def test_gate_period_past_float_range_rejected(self):
        # 1e12 / 1e-300 overflows to inf: no period to place the openings on
        text = "[source]\nkind = coherent\nmean_rate_hz = 1e6\n[run]\ngate_rate_hz = 1e-300\n"
        with pytest.raises(ConfigError, match="run.gate_rate_hz"):
            parse_config(text)
        with pytest.raises(ConfigError, match="run.gate_rate_hz"):
            make_gates_periodic(1e-300, 10**9, 7000)

    def test_window_within_a_tick_of_the_gate_period_rejected(self):
        # rounded openings could land one tick closer than this window
        rate_hz = 117.38745385916434
        with pytest.raises(ConfigError, match="run.window_ps") as err:
            ScenarioConfig(
                source=CoherentSourceConfig(mean_rate_hz=1e3),
                gate_rate_hz=rate_hz,
                window_ps=int(1e12 / rate_hz),
                acquisition_duration_ps=10**13,
            )
        assert "run.gate_rate_hz" in str(err.value)

    def test_sweep_length_mismatch(self):
        text = PDC_MINIMAL + "\n[sweep]\nmultipliers = 1 2\nacquisitions_per_point = 5\n"
        with pytest.raises(ConfigError, match="acquisitions_per_point"):
            parse_config(text)

    def test_overall_points_bounds(self):
        text = PDC_MINIMAL + "\n[sweep]\nmultipliers = 1 2\noverall_points = 3\n"
        with pytest.raises(ConfigError, match="overall_points"):
            parse_config(text)

    def test_acquisitions_must_be_positive(self):
        with pytest.raises(ConfigError, match="acquisitions"):
            parse_config(PDC_MINIMAL + "\n[run]\nacquisitions = 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "line",
        ["pair_jitter_ps", "[detector.trigger]\njitter_sigma_ps", "[detector.d2]\njitter_sigma_ps"],
        ids=["source", "trigger", "d2"],
    )
    def test_non_finite_jitter_rejected(self, line, value):
        key = line.split("\n")[-1]
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{PDC_MINIMAL}{line} = {value}\n")

    def test_multiplier_must_keep_source_valid(self):
        # scaling a wave source past the linear cap fails at parse time
        text = (
            "[source]\nkind = classical_wave\nherald_rate_hz = 1000\n"
            "per_gate_intensity_mean = 0.06\n"
            "[sweep]\nmultipliers = 1 2\n"
        )
        with pytest.raises(ConfigError, match="linear"):
            parse_config(text)

    @pytest.mark.parametrize("sections", DETECTOR_SUBSETS, ids=lambda s: "+".join(s) or "none")
    @pytest.mark.parametrize("gate_rate", [False, True], ids=["no_gate_rate", "gate_rate"])
    @pytest.mark.parametrize("kind", list(SourceKind), ids=lambda k: k.value)
    def test_kind_detector_and_gate_rate_consistency(self, kind, gate_rate, sections):
        text = f"[source]\nkind = {kind.value}\n{KIND_SOURCE[kind]}\n"
        if gate_rate:
            text += "[run]\ngate_rate_hz = 65000\n"
        for name in sections:
            text += f"[detector.{name}]\nefficiency = 0.9\n"
        reads = KIND_READS[kind]
        faults = [f"[detector.{name}]" for name in sections if name not in reads]
        if gate_rate != (kind in GENERATOR_GATED):
            faults.append("run.gate_rate_hz")
        if faults:
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            if len(faults) == 1:
                assert faults[0] in str(err.value)
            return
        cfg = parse_config(text)
        for name, channel in _SECTION_CHANNEL.items():
            expected = None
            if name in sections:
                expected = dataclasses.replace(default_detector(channel), efficiency=0.9)
            elif name in reads:
                expected = default_detector(channel)
            assert getattr(cfg, name) == expected

    def test_detector_built_for_another_channel_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("[detector.d1] was built for channel D2")):
            ScenarioConfig(source=PdcSourceConfig(pair_rate_hz=1e6), d1=DetectorConfig(Channel.D2))

    def test_trigger_section_rejected_for_coherent(self):
        text = COHERENT_SMALL + "\n[detector.trigger]\nefficiency = 0.4\n"
        with pytest.raises(ConfigError, match="trigger"):
            parse_config(text)

    def test_tiny_coherence_time_rejected(self):
        # 10**12 coherence blocks per acquisition: refused before any is drawn
        text = (
            "[source]\nkind = thermal\nmean_rate_hz = 1e6\ncoherence_time_ps = 1\n"
            "[run]\ngate_rate_hz = 65000\n"
        )
        with pytest.raises(ConfigError, match="source.coherence_time_ps") as err:
            parse_config(text)
        assert "run.acquisition_duration_ps" in str(err.value)

    # A thermal source is one shared mode; light whose arms see unrelated
    # photons is kind = coherent.  Neither old form is read as something else.
    OLD_THERMAL = {
        "independent_arms": (
            "[source]\nkind = thermal\nmean_rate_hz = 1e6\nmode = independent_arms\n",
            "[source] has unknown key 'mode'",
        ),
        "no_coherence_time": (
            "[source]\nkind = thermal\nmean_rate_hz = 1e6\n",
            "[source] is missing required key 'coherence_time_ps'",
        ),
    }

    @pytest.mark.parametrize("source, message", OLD_THERMAL.values(), ids=list(OLD_THERMAL))
    def test_thermal_needs_one_shared_mode(self, source, message, tmp_path, capsys):
        text = source + "[run]\ngate_rate_hz = 65000\n"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        cfgfile = tmp_path / "thermal.cfg"
        cfgfile.write_text(text)
        assert main(["oracle", "--config", str(cfgfile)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_too_many_gates_rejected(self):
        # 10**12 periodic gates per acquisition: refused before any is built
        with pytest.raises(ConfigError, match="run.gate_rate_hz") as err:
            ScenarioConfig(
                source=CoherentSourceConfig(mean_rate_hz=1e6),
                gate_rate_hz=1e9,
                window_ps=5,
                acquisition_duration_ps=10**15,
            )
        assert "run.acquisition_duration_ps" in str(err.value)
        assert "1000000000000 gates" in str(err.value)

    # Each of these asks one acquisition for 10**10 elements of one array.
    TOO_MANY_ELEMENTS = {
        "pairs": ("[source]\nkind = pdc\npair_rate_hz = 1e10\n", "source.pair_rate_hz"),
        "dark_counts": (
            "[source]\nkind = pdc\npair_rate_hz = 1e3\n[detector.d1]\ndark_rate_hz = 1e10\n",
            "[detector.d1] dark_rate_hz",
        ),
        "whole_interval_beams": (
            COHERENT_1E10 + "[detector.d1]\njitter_sigma_ps = 10\n",
            "source.mean_rate_hz",
        ),
        "wave_trials": (
            "[source]\nkind = classical_wave\nherald_rate_hz = 1e10\n"
            "per_gate_intensity_mean = 0.05\n",
            "source.herald_rate_hz",
        ),
    }

    @pytest.mark.parametrize(
        "text, key", TOO_MANY_ELEMENTS.values(), ids=list(TOO_MANY_ELEMENTS)
    )
    def test_too_many_elements_rejected(self, text, key, tmp_path, capsys):
        # refused when read, so neither simulate nor oracle allocates anything
        with pytest.raises(ConfigError, match=re.escape(key)) as err:
            parse_config(text)
        assert "run.acquisition_duration_ps" in str(err.value)
        assert "10000000000 " in str(err.value)
        cfgfile = tmp_path / "large.cfg"
        cfgfile.write_text(text)
        assert main(["oracle", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_gate_local_beams_within_bound_accepted(self):
        # ideal detectors: the beams are placed in the 65000 gates of 7 ns only,
        # 1e10 Hz * 65000 * 7000 ps = 4.55e6 arrivals per arm
        cfg = parse_config(COHERENT_1E10)
        assert cfg.source.mean_rate_hz == 1e10

    @pytest.mark.parametrize("label", ["run #3", "a ;b", " padded ", "tab\t", "\u2028x"])
    def test_label_a_config_file_would_alter_rejected(self, label):
        with pytest.raises(ConfigError, match="run.label"):
            ScenarioConfig(source=PdcSourceConfig(pair_rate_hz=1e3), label=label)

    @given(st.text(max_size=20))
    def test_every_accepted_label_round_trips(self, label):
        try:
            cfg = ScenarioConfig(source=PdcSourceConfig(pair_rate_hz=1e3), label=label)
        except ConfigError:
            return
        assert parse_config(serialize_config(cfg)) == cfg


def small_pdc_config(**overrides):
    base = dict(
        source=PdcSourceConfig(pair_rate_hz=2e6),
        acquisitions=4,
        acquisition_duration_ps=10**8,
        master_seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRunning:
    def test_deterministic_repeat(self):
        cfg = small_pdc_config()
        a = emit_results_csv(run_scenario(cfg))
        b = emit_results_csv(run_scenario(cfg))
        assert a == b

    def test_seed_changes_counts(self):
        cfg = small_pdc_config()
        other = dataclasses.replace(cfg, master_seed=12)
        assert emit_results_csv(run_scenario(cfg)) != emit_results_csv(run_scenario(other))

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            run_point(small_pdc_config(), 1, jobs=jobs)

    def test_parallel_matches_serial(self):
        cfg = small_pdc_config()
        serial = run_point(cfg, 1, jobs=1)
        parallel = run_point(cfg, 1, jobs=2)
        assert serial == parallel

    def test_parallel_matches_serial_on_periodic_gates(self):
        # the workers count on pickled periodic gates, period included
        cfg = parse_config(COHERENT_SMALL.replace("dark_rate_hz = 0", "dark_rate_hz = 1e5"))
        serial = run_point(cfg, 1, jobs=1)
        assert serial.counts.n1 > 0 and serial.counts.n2 > 0
        assert run_point(cfg, 1, jobs=2) == serial

    def test_worker_pool_capped_at_core_count(self, monkeypatch):
        # an in-process stand-in for the pool: no process is started
        import concurrent.futures

        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = small_pdc_config()
        assert run_point(cfg, 1, jobs=10**6) == run_point(cfg, 1, jobs=1)
        assert asked == [2]

    def test_import_leaves_the_process_pool_out(self):
        """``import coincsim`` does not load the process pool; ``jobs=2`` loads it when it runs."""
        code = (
            "import sys, coincsim\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "from coincsim.scenario import ScenarioConfig, run_point\n"
            "from coincsim.sources import PdcSourceConfig\n"
            "cfg = ScenarioConfig(source=PdcSourceConfig(pair_rate_hz=2e6), acquisitions=4,\n"
            "                     acquisition_duration_ps=10**8, master_seed=11)\n"
            "assert run_point(cfg, 1, jobs=2) == run_point(cfg, 1, jobs=1)\n"
            "assert 'concurrent.futures.process' in sys.modules\n"
        )
        src = Path(coincsim.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_coherent_scenario_runs(self):
        cfg = parse_config(COHERENT_SMALL)
        res = run_scenario(cfg)
        (pt,) = res.points
        assert pt.counts.n_gates == 3 * 1000  # 1 MHz gates over 1 ms x 3 acqs
        assert pt.rate_cps > 0

    def test_classical_wave_scenario_runs(self):
        cfg = ScenarioConfig(
            source=ClassicalWaveConfig(
                herald_rate_hz=5e5,
                per_gate_intensity_mean=0.08,
                intensity_law=IntensityLaw.EXPONENTIAL,
            ),
            acquisitions=4,
            acquisition_duration_ps=10**9,
            master_seed=3,
        )
        res = run_scenario(cfg)
        (pt,) = res.points
        # herald count fluctuates around rate x time
        assert abs(pt.counts.n_gates - 2000) < 5 * np.sqrt(2000)
        assert pt.counts.nc >= 0

    def test_sweep_points_and_overall_selection(self):
        cfg = small_pdc_config(
            multipliers=(1.0, 2.0),
            acquisitions_per_point=(4, 2),
            overall_points=(1,),
        )
        res = run_scenario(cfg)
        assert [p.point for p in res.points] == [1, 2]
        assert res.points[0].seconds == pytest.approx(4 * 1e-4)
        assert res.points[1].seconds == pytest.approx(2 * 1e-4)
        # overall uses only point 1
        assert res.overall == res.points[0].estimate
        assert res.overall_point_ids == (1,)

    def test_pdc_rate_axis_is_trigger_rate(self):
        cfg = small_pdc_config()
        res = run_scenario(cfg)
        (pt,) = res.points
        # 2 MHz pairs at 40% trigger efficiency: ~800 kcps (d1 sees ~500 kcps)
        assert pt.rate_cps == pytest.approx(8e5, rel=0.2)


class TestOraclePerPoint:
    def test_coherent_is_one(self):
        cfg = parse_config(COHERENT_SMALL)
        assert oracle_per_point(cfg) == [1.0]
        # the factorized thermal lamp is two independent Poisson beams
        lamp = parse_config((CONFIGS / "thermal_lamp.cfg").read_text())
        assert lamp.kind is SourceKind.COHERENT
        assert oracle_per_point(lamp) == [1.0] * 5

    def test_thermal_shared_uses_window_ratio(self):
        cfg = ScenarioConfig(
            source=ThermalSourceConfig(mean_rate_hz=1e6, coherence_time_ps=700_000),
            window_ps=7000,
            gate_rate_hz=65_000,
        )
        (val,) = oracle_per_point(cfg)
        assert val == pytest.approx(2 - (7000 / 700_000) / 3, rel=1e-4)

    def test_classical_wave_laws(self):
        for law, expected in ((IntensityLaw.CONSTANT, 1.0), (IntensityLaw.EXPONENTIAL, 2.0)):
            cfg = ScenarioConfig(
                source=ClassicalWaveConfig(
                    herald_rate_hz=1e4, per_gate_intensity_mean=0.05, intensity_law=law
                ),
            )
            assert oracle_per_point(cfg) == [expected]

    def test_pdc_small_alpha_and_monotone_in_rate(self):
        cfg = small_pdc_config(
            source=PdcSourceConfig(pair_rate_hz=5e3), multipliers=(1.0, 10.0)
        )
        lo, hi = oracle_per_point(cfg)
        assert 0 < lo < hi < 1


class TestResultsCsv:
    def test_shape_and_parse_back(self):
        cfg = small_pdc_config(multipliers=(1.0, 2.0))
        res = run_scenario(cfg)
        text = emit_results_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == RESULTS_HEADER
        assert len(lines) == 1 + 2 + 1
        assert lines[-1].startswith("overall,")
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            assert int(fields[2]) >= 0  # N parses as int
            float(fields[6]), float(fields[7])  # alpha, sigma parse as float

    def test_overall_row_sums_counts(self):
        cfg = small_pdc_config(multipliers=(1.0, 2.0))
        res = run_scenario(cfg)
        lines = emit_results_csv(res).strip().split("\n")
        n_total = sum(int(line.split(",")[2]) for line in lines[1:3])
        assert int(lines[3].split(",")[2]) == n_total

    def test_six_significant_digits(self):
        res = run_scenario(small_pdc_config())
        text = emit_results_csv(res)
        alpha_field = text.strip().split("\n")[1].split(",")[6]
        assert len(alpha_field.replace(".", "").replace("-", "").lstrip("0")) <= 7


class TestCli:
    def test_simulate_happy_path(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            serialize_config(small_pdc_config(acquisitions=2, acquisition_duration_ps=10**7))
        )
        out = tmp_path / "results.csv"
        code = main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith(RESULTS_HEADER)

    def test_simulate_seed_override_changes_output(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            serialize_config(small_pdc_config(acquisitions=2, acquisition_duration_ps=10**7))
        )
        out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["simulate", "--config", str(cfgfile), "--out", str(out1), "--seed", "5"])
        main(["simulate", "--config", str(cfgfile), "--out", str(out2), "--seed", "5"])
        main(["simulate", "--config", str(cfgfile), "--out", str(out3), "--seed", "6"])
        assert out1.read_text() == out2.read_text()
        assert out1.read_text() != out3.read_text()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("[source]\nkind = pdc\n")  # missing pair_rate_hz
        assert main(["simulate", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert "pair_rate_hz" in capsys.readouterr().err

    def test_simulate_zero_jobs_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            serialize_config(small_pdc_config(acquisitions=2, acquisition_duration_ps=10**7))
        )
        assert main(["simulate", "--config", str(cfgfile), "--jobs", "0"]) == EXIT_CONFIG
        assert "jobs" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["simulate", "oracle"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, command):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(b"[source]\nkind = pdc\n\xff\xfe\n")
        assert main([command, "--config", str(cfgfile)]) == EXIT_CONFIG
        assert "is not UTF-8 at byte 20" in capsys.readouterr().err

    def test_analyze_happy_path(self, tmp_path, capsys):
        stream = stream_of(
            10**6, ("T", 0), ("D1", 3000), ("D2", 5000), ("T", 100_000), ("D1", 103_000)
        )
        f = tmp_path / "tags.csv"
        f.write_bytes(write_timetag_file(stream, "csv"))
        code = main(
            [
                "analyze",
                "--input",
                str(f),
                "--format",
                "csv",
                "--duration-ps",
                "1000000",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == RESULTS_HEADER
        row = lines[1].split(",")
        assert row[2:6] == ["2", "2", "1", "1"]  # N, N1, N2, Nc

    def test_analyze_ttag1(self, tmp_path, capsys):
        stream = stream_of(10**6, ("T", 0), ("D1", 3000), ("D2", 5000))
        f = tmp_path / "tags.bin"
        f.write_bytes(write_timetag_file(stream, "ttag1"))
        assert main(["analyze", "--input", str(f), "--format", "ttag1"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(RESULTS_HEADER)

    def test_analyze_gate_generator_channel(self, tmp_path, capsys):
        stream = stream_of(10**6, ("G", 0), ("D1", 3000), ("D2", 6000), ("T", 500_000))
        f = tmp_path / "tags.csv"
        f.write_bytes(write_timetag_file(stream, "csv"))
        code = main(["analyze", "--input", str(f), "--format", "csv", "--gate-channel", "G"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[2] == "1"  # one gate from the generator channel

    def test_analyze_malformed_exits_3(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("channel,t_ps\nD1,notanumber\n")
        assert main(["analyze", "--input", str(f), "--format", "csv"]) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_analyze_non_utf8_csv_exits_3(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"channel,t_ps\nT,0\nD1,\xff\n")
        assert main(["analyze", "--input", str(f), "--format", "csv"]) == EXIT_DATA
        assert "not UTF-8 at byte 20" in capsys.readouterr().err

    def test_analyze_missing_file_exits_3(self, tmp_path):
        assert (
            main(["analyze", "--input", str(tmp_path / "nope.csv"), "--format", "csv"])
            == EXIT_DATA
        )

    @pytest.mark.parametrize(
        "flag, value",
        [("--window-ns", "nan"), ("--window-ns", "inf"), ("--window-ns", "1e300"),
         ("--window-ns", "0"), ("--duration-ps", "0"), ("--duration-ps", "-5")],
    )
    def test_analyze_bad_option_exits_2_before_reading(self, tmp_path, capsys, flag, value):
        # the input file does not exist: the option is checked first
        argv = ["analyze", "--input", str(tmp_path / "nope.csv"), "--format", "csv"]
        assert main(argv + [flag, value]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err

    def test_analyze_no_gate_events_exits_3(self, tmp_path, capsys):
        # no trigger events -> zero gates -> estimate undefined
        f = tmp_path / "tags.csv"
        f.write_text("channel,t_ps\nD1,3000\n")
        assert main(["analyze", "--input", str(f), "--format", "csv"]) == EXIT_DATA

    def test_oracle_command(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COHERENT_SMALL)
        assert main(["oracle", "--config", str(cfgfile)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "point,expected_alpha\n1,1\n"

    @staticmethod
    def assert_unwritable_out(argv, out, capsys):
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: cannot write {out}: No such file or directory\n"
        )

    def test_simulate_unwritable_out_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        def run_scenario(*args, **kwargs):
            raise AssertionError("the scenario ran before --out was checked")

        monkeypatch.setattr("coincsim.cli.run_scenario", run_scenario)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COHERENT_SMALL)
        argv = ["simulate", "--config", str(cfgfile)]
        self.assert_unwritable_out(argv, tmp_path / "missing" / "x.csv", capsys)

    def test_analyze_unwritable_out_exits_2(self, tmp_path, capsys):
        f = tmp_path / "tags.csv"
        stream = stream_of(10**6, ("T", 0), ("D1", 3000), ("D2", 5000))
        f.write_bytes(write_timetag_file(stream, "csv"))
        argv = ["analyze", "--input", str(f), "--format", "csv"]
        self.assert_unwritable_out(argv, tmp_path / "missing" / "x.csv", capsys)

    def test_oracle_unwritable_out_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COHERENT_SMALL)
        argv = ["oracle", "--config", str(cfgfile)]
        self.assert_unwritable_out(argv, tmp_path / "missing" / "x.csv", capsys)

    def test_out_written_only_by_a_run_that_succeeds(self, tmp_path, capsys, monkeypatch):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COHERENT_SMALL)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("kept\n")

        def run_scenario(*args, **kwargs):
            raise ConfigError("the run failed")

        monkeypatch.setattr("coincsim.cli.run_scenario", run_scenario)
        for out in (old, new):
            assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
        assert old.read_text() == "kept\n" and not new.exists()
        assert main(["oracle", "--config", str(cfgfile), "--out", str(old)]) == EXIT_OK
        assert old.read_text() == "point,expected_alpha\n1,1\n"


class TestEstimateShape:
    def test_overall_is_an_alpha_estimate(self):
        res = run_scenario(small_pdc_config())
        assert isinstance(res.overall, AlphaEstimate)


def test_heralded_acquisition_peak_memory():
    """One acquisition at pdc_sweep's top point (~2 x 10^5 pairs) peaks under 5.5 MiB.

    Both arms share one pair array, the splitter and detectors draw a chunk
    at a time, and the pair streams are dropped once detected and split:
    ~23 B per pair, where the full-length copies took ~41 B (7.9 MiB).
    """
    config = parse_config((CONFIGS / "pdc_sweep.cfg").read_text())
    config = dataclasses.replace(
        config, multipliers=(max(config.multipliers),), acquisitions=1,
        acquisitions_per_point=None, overall_points=None,
    )
    assert config.acquisition_duration_ps == 10**12
    tracemalloc.start()
    try:
        result = run_scenario(config, jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.points[0].counts.n_gates > 50_000
    assert peak <= 5.5 * 2**20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap and ru_minflt")
def test_periodic_acquisitions_reuse_their_memory():
    """One-acquisition coherent_65khz runs fault almost no fresh pages in.

    A fresh process, so that no earlier test has set glibc's thresholds.
    A gate-building scratch as large as the openings (~0.5 MiB each) gets
    trimmed from the heap with them after every run and faulted back in by
    the next: 222 minor faults per run.
    """
    code = (
        "import dataclasses, resource, statistics, sys\n"
        "from coincsim.scenario import parse_config, run_scenario\n"
        "config = parse_config(open(sys.argv[1]).read())\n"
        "config = dataclasses.replace(config, acquisitions=1, acquisitions_per_point=None)\n"
        "def run(seed):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    run_scenario(dataclasses.replace(config, master_seed=seed))\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "for seed in range(5):\n"
        "    run(seed)\n"
        "print(statistics.median(run(seed) for seed in range(5, 205)))\n"
    )
    src = Path(coincsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(CONFIGS / "coherent_65khz.cfg")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 16
