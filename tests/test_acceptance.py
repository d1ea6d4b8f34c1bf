"""End-to-end acceptance runs for the shipped scenario configurations.

Each criterion prints one ``[criterion N] PASS``/``FAIL`` line (visible with
``pytest -s tests/test_acceptance.py``) and then asserts its conditions, so a
red criterion shows up both in the printed summary and as a test failure.
The whole module takes about 10 s on a 2-core VM; most of it goes to the
heralded rate sweep (criterion 2, ~6 s).  Criterion 5 takes ~1.2 s, most
of it the two shared-mode thermal configs (~0.6 s and ~0.3 s), and
criterion 1's low-rate run ~0.9 s.  The coherent and thermal runs are fast
because their photons are generated only inside the gates.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from coincsim.detectors import detect
from coincsim.errors import CoincSimError
from coincsim.estimators import AlphaEstimate, alpha_estimate, sigma_separation
from coincsim.events import Channel, EventStream, derive_seed, merge_streams
from coincsim.gating import CountSummary, GateList, count_gates
from coincsim.scenario import (
    ScenarioConfig,
    default_detector,
    emit_results_csv,
    oracle_per_point,
    parse_config,
    run_scenario,
)
from coincsim.sources import (
    Arm,
    ClassicalWaveConfig,
    IntensityLaw,
    PdcSourceConfig,
    gen_classical_wave_gates,
    gen_pdc_pairs,
    project_idler_path,
)
from coincsim.timetags import parse_timetag_file, write_timetag_file

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def load(name):
    return parse_config((CONFIG_DIR / name).read_text())


def _verdict(n, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[criterion {n}] {tag}{suffix}")
    return ok


def weighted_oracle(result, oracle):
    w = np.array([1 / p.estimate.sigma**2 for p in result.points])
    return float(np.dot(w, oracle) / w.sum())


@pytest.fixture(scope="module")
def pdc_low():
    return run_scenario(load("pdc_low_rate.cfg"))


def test_criterion_1_heralded_anticorrelation(pdc_low):
    cfg = load("pdc_low_rate.cfg")
    oracle = oracle_per_point(cfg)
    alpha = pdc_low.overall.alpha
    sigma = pdc_low.overall.sigma
    sep = pdc_low.separation_from_one
    target = weighted_oracle(pdc_low, oracle)
    ok = alpha <= 0.05 and abs(alpha - target) <= 3 * sigma and sep > 30
    detail = f"alpha={alpha:.3g}±{sigma:.2g}, oracle={target:.3g}, separation={sep:.0f}σ"
    _verdict(1, ok, detail)
    assert alpha <= 0.05, detail
    assert abs(alpha - target) <= 3 * sigma, detail
    assert sep > 30, detail


def test_criterion_2_rate_dependent_rise():
    cfg = load("pdc_sweep.cfg")
    result = run_scenario(cfg)
    oracle = oracle_per_point(cfg)
    pulls = [
        (p.estimate.alpha - o) / p.estimate.sigma for p, o in zip(result.points, oracle)
    ]
    within = all(abs(z) <= 3 for z in pulls)
    violations = 0
    for a, b in zip(result.points, result.points[1:]):
        gap = 3 * math.hypot(a.estimate.sigma, b.estimate.sigma)
        if b.estimate.alpha < a.estimate.alpha - gap:
            violations += 1
    rates = [f"{p.rate_cps / 1000:.1f}k" for p in result.points]
    alphas = [f"{p.estimate.alpha:.2g}" for p in result.points]
    ok = within and violations <= 1
    detail = (
        f"rates={rates}, alpha={alphas}, max|pull|={max(abs(z) for z in pulls):.2f}, "
        f"monotonicity violations={violations}"
    )
    _verdict(2, ok, detail)
    assert within, detail
    assert violations <= 1, detail


def test_criterion_3_coherent_light():
    result = run_scenario(load("coherent_65khz.cfg"))
    (pt,) = result.points
    alpha, sigma = pt.estimate.alpha, pt.estimate.sigma
    ok = sigma <= 0.01 and abs(alpha - 1.0) <= 3 * sigma
    detail = f"alpha={alpha:.4f}±{sigma:.4f} at {pt.rate_cps / 1e6:.2f} Mcps per arm"
    _verdict(3, ok, detail)
    assert sigma <= 0.01, detail
    assert abs(alpha - 1.0) <= 3 * sigma, detail


def test_criterion_4_thermal_factorized():
    result = run_scenario(load("thermal_lamp.cfg"))
    offsets = [
        abs(p.estimate.alpha - 1.0) / p.estimate.sigma for p in result.points
    ]
    ok = all(z <= 3 for z in offsets)
    detail = "per-point |alpha-1|/sigma = " + ", ".join(f"{z:.2f}" for z in offsets)
    _verdict(4, ok, detail)
    assert ok, detail


def test_criterion_5_classical_bounds():
    # (a) per-gate wave model across a parameter grid: alpha never drops
    # below 1 beyond noise, exponential law converges to 2
    n = 1_000_000
    floor_ok, exp_ok = True, True
    worst_floor, worst_exp = 0.0, 0.0
    case = 0
    for mean in (0.01, 0.05, 0.1):
        for law in (IntensityLaw.CONSTANT, IntensityLaw.EXPONENTIAL):
            for q in (0.3, 0.5, 0.7):
                cfg = ClassicalWaveConfig(
                    herald_rate_hz=1e4,
                    per_gate_intensity_mean=mean,
                    intensity_law=law,
                    splitting_ratio=q,
                )
                p1, p2 = gen_classical_wave_gates(cfg, n, derive_seed(550, case, "I"))
                f1 = np.random.default_rng(derive_seed(550, case, "f1")).random(n) < p1
                f2 = np.random.default_rng(derive_seed(550, case, "f2")).random(n) < p2
                est = alpha_estimate(
                    CountSummary(
                        n,
                        int(np.count_nonzero(f1)),
                        int(np.count_nonzero(f2)),
                        int(np.count_nonzero(f1 & f2)),
                    )
                )
                z_floor = (1.0 - est.alpha) / est.sigma  # >3 would breach the bound
                worst_floor = max(worst_floor, z_floor)
                floor_ok &= z_floor <= 3
                if law is IntensityLaw.EXPONENTIAL:
                    z2 = abs(est.alpha - 2.0) / est.sigma
                    worst_exp = max(worst_exp, z2)
                    exp_ok &= z2 <= 3
                case += 1

    # (b) shared-mode thermal beams at window/coherence ratios 0.01 and 100
    short = run_scenario(load("thermal_bunched_short.cfg"))
    long_ = run_scenario(load("thermal_bunched_long.cfg"))
    (oracle_short,) = oracle_per_point(load("thermal_bunched_short.cfg"))
    (oracle_long,) = oracle_per_point(load("thermal_bunched_long.cfg"))
    a_s, s_s = short.overall.alpha, short.overall.sigma
    a_l, s_l = long_.overall.alpha, long_.overall.sigma
    # binary per-gate counting depresses alpha by roughly the per-window
    # mean count; both runs keep that depression inside this allowance
    depression = 0.01
    short_ok = abs(a_s - 2.0) <= 0.1 and abs(a_s - oracle_short) <= 3 * s_s + depression
    long_ok = abs(a_l - 1.0) <= 0.05 and abs(a_l - oracle_long) <= 3 * s_l + depression

    ok = floor_ok and exp_ok and short_ok and long_ok
    detail = (
        f"wave grid worst (1-alpha)/sigma={worst_floor:.2f}, "
        f"worst |alpha-2|/sigma={worst_exp:.2f}; "
        f"bunched short alpha={a_s:.3f}±{s_s:.3f} (oracle {oracle_short:.4f}), "
        f"long alpha={a_l:.3f}±{s_l:.3f} (oracle {oracle_long:.4f})"
    )
    _verdict(5, ok, detail)
    assert floor_ok and exp_ok, detail
    assert short_ok, detail
    assert long_ok, detail


def test_criterion_6_estimator_pulls():
    # synthetic truth alpha=1: per-gate independent Bernoulli detections
    rng = np.random.default_rng(20260817)
    runs, n, p = 200, 100_000, 0.1
    h1 = rng.random((runs, n)) < p
    h2 = rng.random((runs, n)) < p
    n1 = h1.sum(axis=1)
    n2 = h2.sum(axis=1)
    nc = (h1 & h2).sum(axis=1)
    pulls = []
    for k in range(runs):
        est = alpha_estimate(CountSummary(n, int(n1[k]), int(n2[k]), int(nc[k])))
        pulls.append((est.alpha - 1.0) / est.sigma)
    pulls = np.array(pulls)
    mean, width = float(pulls.mean()), float(pulls.std(ddof=1))
    ok = abs(mean) < 0.25 and 0.7 <= width <= 1.3
    detail = f"pull mean={mean:+.3f}, width={width:.3f} over {runs} runs"
    _verdict(6, ok, detail)
    assert abs(mean) < 0.25, detail
    assert 0.7 <= width <= 1.3, detail


def test_criterion_7_infrastructure():
    # end-to-end determinism: two runs, one seed, identical CSV bytes
    cfg = ScenarioConfig(
        source=PdcSourceConfig(pair_rate_hz=1e6),
        acquisitions=3,
        acquisition_duration_ps=10**8,
        master_seed=99,
    )
    deterministic = emit_results_csv(run_scenario(cfg)) == emit_results_csv(run_scenario(cfg))

    # time-tag round trips on a simulated recording, byte-exact both ways
    trig_arr, idler = gen_pdc_pairs(PdcSourceConfig(pair_rate_hz=1e5), 10**8, seed=1)
    paths = project_idler_path(idler, seed=2)
    recording = merge_streams(
        merge_streams(
            detect(trig_arr, default_detector(Channel.TRIGGER), seed=3),
            detect(paths.select_arm(Arm.IDLER_PATH1), default_detector(Channel.D1), seed=4),
        ),
        detect(paths.select_arm(Arm.IDLER_PATH2), default_detector(Channel.D2), seed=5),
    )
    round_trips = True
    for fmt in ("csv", "ttag1"):
        raw = write_timetag_file(recording, fmt)
        back = parse_timetag_file(raw, fmt, duration_ps=recording.duration_ps)
        round_trips &= back == recording and write_timetag_file(back, fmt) == raw

    # counting invariants under fuzzed inputs
    rng = np.random.default_rng(4242)
    fuzz_ok = True
    for _ in range(10_000):
        n_gates = int(rng.integers(1, 9))
        window = int(rng.integers(1, 21))
        period = window + int(rng.integers(0, 30))
        opens = np.arange(n_gates, dtype=np.int64) * period
        duration = int(opens[-1]) + window + 10
        streams = []
        for channel in (Channel.D1, Channel.D2):
            k = int(rng.integers(0, 25))
            t = np.sort(rng.integers(0, duration, size=k).astype(np.int64))
            streams.append(EventStream(duration, {channel: t}))
        c = count_gates(GateList(window_ps=window, opens=opens), *streams)
        fuzz_ok &= 0 <= c.nc <= min(c.n1, c.n2) <= max(c.n1, c.n2) <= c.n_gates
        if not fuzz_ok:
            break

    ok = deterministic and round_trips and fuzz_ok
    detail = (
        f"determinism={deterministic}, round_trips={round_trips}, "
        f"count invariants over 10000 fuzzed inputs={fuzz_ok}"
    )
    _verdict(7, ok, detail)
    assert deterministic, detail
    assert round_trips, detail
    assert fuzz_ok, detail


def test_criterion_8_precision_argument(pdc_low):
    # a classical-looking point with a large error bar excludes nothing,
    # while the low-rate heralded run sits far below the classical bound
    weak = sigma_separation(AlphaEstimate(alpha=1.5, sigma=0.6), 1.0)
    strong = pdc_low.separation_from_one
    ok = weak < 1 and strong > 30
    detail = f"weak point separation={weak:.2f}σ, heralded run={strong:.0f}σ"
    _verdict(8, ok, detail)
    assert weak < 1, detail
    assert strong > 30, detail


class TestAcceptanceHarness:
    def test_all_configs_parse_and_have_oracles(self):
        for f in sorted(CONFIG_DIR.glob("*.cfg")):
            cfg = parse_config(f.read_text())
            values = oracle_per_point(cfg)
            assert len(values) == len(cfg.multipliers)
            assert all(math.isfinite(v) and v >= 0 for v in values)

    def test_errors_share_one_root(self):
        # scripting contract: one except clause can catch everything we raise
        from coincsim.errors import ConfigError, DataFormatError, UndefinedEstimateError

        for exc in (ConfigError, DataFormatError, UndefinedEstimateError):
            assert issubclass(exc, CoincSimError)
