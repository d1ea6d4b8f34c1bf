"""One workload in one process: set up, time operations, check every result.

``run.py`` starts this file as a child process, once per measurement, so
each workload owns its interpreter and its peak memory.  Protocol on
standard output: the line ``ready`` once set-up (imports, config or input
preparation, one warm-up operation) is done, then one JSON line with the
timings, per-operation counts and checks.  ``--record`` instead writes the
recorded time-tag files an ``analyze`` workload reads, and exits.

The program under test is imported from ``src/`` of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import coincsim  # noqa: E402

if Path(coincsim.__file__).resolve().parent != SRC / "coincsim":
    sys.exit(f"coincsim imported from {coincsim.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
from coincsim import (  # noqa: E402
    Arm,
    CountSummary,
    GatePolicy,
    alpha_estimate,
    cli,
    count_gates,
    detect,
    gen_pdc_pairs,
    make_gates_from_trigger,
    merge_streams,
    oracle_per_point,
    parse_config,
    project_idler_path,
    run_scenario,
    write_timetag_file,
)

from layertrace import Tracer  # noqa: E402  (this directory)

PS_PER_S = 10**12
# A simulated run passes when the alpha of its summed counts lies within this
# many of its own sigmas of the model prediction for the point.
PULL_BOUND = 5.0
# Operations every timed run completes, and that the run's digest covers.
DIGEST_OPS = 3
# The analyze workload: recorded files, and recorded seconds per file.
ANALYZE_FILES = 2
ANALYZE_FILE_SECONDS = 8


def derive(*parts) -> int:
    """63-bit seed from labels, so each operation draws fresh inputs."""
    payload = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little") >> 1


def top_point_config(config_name: str, scale: float):
    """One-point, one-acquisition config at the sweep's largest multiplier."""
    config = parse_config((ROOT / "configs" / config_name).read_text())
    return dataclasses.replace(
        config,
        multipliers=(max(config.multipliers),),
        acquisitions=1,
        acquisitions_per_point=None,
        overall_points=None,
        acquisition_duration_ps=round(PS_PER_S * scale),
    )


class Simulated:
    """One-point ``run_scenario`` calls, one acquisition each, ``jobs=1``."""

    root = "scenario"

    def __init__(self, name: str, config_name: str, seed: int, scale: float) -> None:
        self.name = name
        self.seed = seed
        self.config = top_point_config(config_name, scale)
        self.oracle = oracle_per_point(self.config)[0]
        self.acqs_per_op = self.config.acquisition_duration_ps / PS_PER_S
        self._next = None

    def prepare(self, i: int) -> None:
        self._next = dataclasses.replace(self.config, master_seed=derive(self.seed, self.name, i))

    def run(self) -> CountSummary:
        return run_scenario(self._next, jobs=1).points[0].counts

    def check(self, c: CountSummary) -> tuple[CountSummary, str | None]:
        if not (c.n_gates > 0 and c.nc <= min(c.n1, c.n2) and max(c.n1, c.n2) <= c.n_gates):
            return c, f"inconsistent counts {c}"
        return c, None

    def check_total(self, total: CountSummary) -> str | None:
        est = alpha_estimate(total)
        pull = (est.alpha - self.oracle) / est.sigma
        if not abs(pull) <= PULL_BOUND:
            return (
                f"alpha {est.alpha:.6g} +- {est.sigma:.3g} is {pull:+.2f} sigma from "
                f"the predicted {self.oracle:.6g} (bound {PULL_BOUND})"
            )
        return None


def record_analyze_inputs(workdir: Path, seed: int, scale: float) -> None:
    """Record heralded streams at the heralded_pdc rate as TTAG1 files.

    Alongside them, ``expected.json`` holds the results each file must give:
    ``count_gates`` over the gates of the in-memory trigger stream.
    """
    config = top_point_config("pdc_sweep.cfg", scale)
    source = dataclasses.replace(
        config.source, pair_rate_hz=config.source.pair_rate_hz * config.multipliers[0]
    )
    duration = round(PS_PER_S * ANALYZE_FILE_SECONDS * scale)
    expected = []
    for k in range(ANALYZE_FILES):
        trig, idler = gen_pdc_pairs(source, duration, derive(seed, "file", k, "source"))
        paths = project_idler_path(idler, derive(seed, "file", k, "path"))
        t_ev = detect(trig, config.trigger, derive(seed, "file", k, "det-t"))
        d1_ev = detect(paths.select_arm(Arm.IDLER_PATH1), config.d1, derive(seed, "file", k, "det-d1"))
        d2_ev = detect(paths.select_arm(Arm.IDLER_PATH2), config.d2, derive(seed, "file", k, "det-d2"))
        stream = merge_streams(merge_streams(t_ev, d1_ev), d2_ev)
        path = workdir / f"rec{k}.ttag1"
        path.write_bytes(write_timetag_file(stream, "ttag1"))
        gates = make_gates_from_trigger(t_ev, config.window_ps, GatePolicy.DROP_OVERLAPPING)
        counts = count_gates(gates, d1_ev, d2_ev)
        est = alpha_estimate(counts)
        expected.append({
            "file": path.name,
            "counts": dataclasses.astuple(counts),
            "alpha": f"{est.alpha:.6g}",
            "sigma": f"{est.sigma:.6g}",
        })
    record = {"window_ps": config.window_ps, "seconds": duration / PS_PER_S, "files": expected}
    (workdir / "expected.json").write_text(json.dumps(record))


class Analyze:
    """``coincsim analyze`` over recorded TTAG1 files, in this process."""

    root = "cli"

    def __init__(self, workdir: Path) -> None:
        self.record = json.loads((workdir / "expected.json").read_text())
        self.workdir = workdir
        self.acqs_per_op = self.record["seconds"]
        self._next = None

    def prepare(self, i: int) -> None:
        self._next = self.record["files"][i % len(self.record["files"])]

    def run(self) -> tuple[int, str]:
        argv = [
            "analyze",
            "--input", str(self.workdir / self._next["file"]),
            "--format", "ttag1",
            "--window-ns", str(self.record["window_ps"] / 1000),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, result: tuple[int, str]) -> tuple[CountSummary | None, str | None]:
        code, text = result
        if code != 0:
            return None, f"analyze exited with code {code}"
        want = self._next
        lines = text.splitlines()
        if len(lines) != 2:
            return None, f"analyze wrote {len(lines)} lines, not a header and one row"
        row = lines[1].split(",")
        counts = CountSummary(*(int(f) for f in row[2:6]))
        if list(dataclasses.astuple(counts)) != want["counts"] or row[6:8] != [
            want["alpha"],
            want["sigma"],
        ]:
            return counts, f"{want['file']}: results row {row} differs from the recorded {want}"
        return counts, None

    def check_total(self, total: CountSummary) -> str | None:
        return None


def peak_rss_mb() -> float:
    """High-water resident set size of this process image (Linux)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def digest(counts: list) -> str:
    """Digest of the first operations' counts, which every run completes."""
    return hashlib.sha256(json.dumps(counts[:DIGEST_OPS]).encode()).hexdigest()[:16]


def make_workload(name: str, seed: int, scale: float, workdir: Path):
    configs = {
        "heralded_pdc": "pdc_sweep.cfg",
        "gated_coherent": "coherent_65khz.cfg",
        "gated_thermal_shared": "thermal_bunched_short.cfg",
    }
    if name in configs:
        return Simulated(name, configs[name], seed, scale)
    if name == "analyze_ttag1":
        return Analyze(workdir)
    raise SystemExit(f"unknown workload {name!r}")


def run_op(workload, i: int, clock) -> tuple[float, list | None, str | None]:
    """Time one operation; return (seconds, counts, failure reason)."""
    workload.prepare(i)
    t0 = clock()
    try:
        result = workload.run()
        elapsed = clock() - t0
        counts, reason = workload.check(result)
    except Exception as exc:  # any raise is a failed operation, not a crash
        return clock() - t0, None, f"{type(exc).__name__}: {exc}"
    return elapsed, None if counts is None else list(dataclasses.astuple(counts)), reason


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--workdir", type=Path, default=None)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float, help="time operations for this long")
    mode.add_argument("--ops", type=int, help="time exactly this many operations")
    mode.add_argument("--setup-only", action="store_true", help="stop once ready")
    mode.add_argument("--record", action="store_true", help="write analyze inputs")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    if args.record:
        record_analyze_inputs(args.workdir, args.seed, args.scale)
        return 0

    workload = make_workload(args.workload, args.seed, args.scale, args.workdir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    clock = tracer.now if tracer else time.perf_counter
    _, _, warm_up_failure = run_op(workload, -1, clock)  # untimed, but checked
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        tracer.reset()
    op_s, counts = [], []
    failures = [{"op": -1, "reason": warm_up_failure}] if warm_up_failure else []
    start = time.perf_counter()
    i = 0
    while True:
        if args.ops is not None:
            if i >= args.ops:
                break
        elif i >= DIGEST_OPS and time.perf_counter() - start >= args.seconds:
            break
        elapsed, c, reason = run_op(workload, i, clock)
        op_s.append(elapsed)
        counts.append(c)
        if reason:
            failures.append({"op": i, "reason": reason})
        i += 1

    good = [c for c in counts if c is not None]
    total_error = None
    if good:
        total = CountSummary(*(int(sum(col)) for col in zip(*good)))
        try:
            total_error = workload.check_total(total)
        except Exception as exc:
            total_error = f"{type(exc).__name__}: {exc}"
    acquisitions = workload.acqs_per_op * len(op_s)
    report = {
        "op_s": op_s,
        "acqs_per_op": workload.acqs_per_op,
        "counts": counts,
        "failures": failures,
        "total_error": total_error,
        "digest": digest(counts),
        "peak_rss_mb": peak_rss_mb(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "coincsim": coincsim.__version__,
        },
    }
    if tracer:
        tracer.uninstall()
        wall = sum(op_s)
        report["trace"] = {
            "metrics": tracer.metrics(workload.root, wall, acquisitions),
            "wall_ms": 1e3 * wall / acquisitions,
            "absent": tracer.absent,
        }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
