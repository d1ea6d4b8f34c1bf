"""coincsim benchmark: four workloads, end-to-end metrics and a layer trace.

Usage, from the root of a checkout::

    python3 benchmark/run.py --workload heralded_pdc --seed 1 --seconds 20 --trace 0

Each measurement runs ``worker.py`` in a child process (one workload, one
process, ``jobs=1``).  The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON report with the details (sample counts, digests, failures, provenance,
layer metrics that are missing or not reached).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``acq_per_s``: acquisitions per wall second, from the median operation
  time.  A simulated operation is a one-acquisition ``run_scenario`` call; an
  ``analyze`` operation covers every recorded second of its file.
* ``setup_s``: the median over several set-ups of the time from starting the
  child until it is ready for its first timed operation (imports, config or
  input preparation and one warm-up operation; for ``analyze_ttag1`` also
  recording its input files).
* ``peak_rss_mb``: high-water resident memory of the timed child.

``--trace 1`` runs the workload twice on the same operations, untraced for
half the time and then traced, and reports the per-layer metrics: self time
per acquisition of each wrapped layer, work counts, the tracing overhead and
the failed fraction.  Both runs must give identical per-operation counts.

Exit status: 0 when every check passed; 1 after printing the result when an
operation failed its check; 2 without a result when the benchmark could not
run (for example, no ``src/coincsim`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_REPEATS = 3
DEADLINE_S = 170.0

_SIMULATED = (
    "sources.gen_ms",
    "sources.arrivals",
    "detectors.detect_ms",
    "detectors.events",
    "detectors.in_gate_frac",
    "gating.build_ms",
    "gating.gates",
    "gating.count_ms",
    "scenario.self_ms",
)
# Layer metrics each workload is built to reach.  One outside this set is
# reported as 0 (the layer did no work there); one inside it that the run
# never reached is reported as missing.
SCOPE = {
    "heralded_pdc": _SIMULATED
    + ("sources.split_ms", "events.filter_ms", "gating.trigger_drop_frac"),
    "gated_coherent": _SIMULATED,
    "gated_thermal_shared": _SIMULATED + ("sources.split_ms",),
    "analyze_ttag1": (
        "detectors.in_gate_frac",
        "events.filter_ms",
        "events.select_ms",
        "events.validate_ms",
        "timetags.parse_ms",
        "timetags.bytes",
        "gating.build_ms",
        "gating.gates",
        "gating.trigger_drop_frac",
        "gating.count_ms",
        "cli.self_ms",
    ),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts worker processes for one workload, within one deadline."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir: Path | None = None
        if args.workload == "analyze_ttag1":
            self.workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
            self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                self.workdir.parent.rmdir()
            except OSError:  # another run still uses it
                pass

    def _spawn(self, extra: list[str]) -> tuple[float | None, str | None]:
        """Run the worker; return (seconds until 'ready', last output line)."""
        cmd = [
            sys.executable, str(WORKER),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--scale", repr(self.args.scale),
        ]
        if self.workdir is not None:
            cmd += ["--workdir", str(self.workdir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + extra, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        ready, last = None, None
        try:
            for line in proc.stdout:
                if ready is None and line.strip() == "ready":
                    ready = time.perf_counter() - t0
                elif line.strip():
                    last = line
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker {' '.join(extra)} exited with code {code}")
        return ready, last

    def prepare_inputs(self) -> float:
        """Record the analyze workload's files; return the seconds it took."""
        if self.workdir is None:
            return 0.0
        t0 = time.perf_counter()
        self._spawn(["--record"])
        return time.perf_counter() - t0

    def setup_only(self) -> float:
        prep = self.prepare_inputs()
        ready, _ = self._spawn(["--setup-only"])
        return prep + ready

    def timed(self, extra: list[str]) -> tuple[float, dict]:
        """Run timed operations; return (setup seconds, worker report)."""
        ready, last = self._spawn(extra)
        if ready is None or last is None:
            raise BenchError(f"worker {' '.join(extra)} reported no result")
        return ready, json.loads(last)


def attempted_failed(*reports: dict) -> tuple[int, int]:
    """Operations attempted (timed plus warm-up) and failed, over reports."""
    attempted = failed = 0
    for r in reports:
        n = len(r["op_s"]) + 1
        attempted += n
        # A failed check on the summed counts leaves every operation unverified.
        failed += n if r["total_error"] else len(r["failures"])
    return attempted, failed


def acq_per_s(report: dict) -> float:
    return report["acqs_per_op"] / statistics.median(report["op_s"])


def op_summary(report: dict) -> dict:
    """Median operation time and the highest percentile with 10 samples above it."""
    ops = sorted(report["op_s"])
    n = len(ops)
    summary = {"n": n, "median_ms": 1e3 * statistics.median(ops)}
    if n > 20:
        pct = 100.0 * (1 - 10 / n)
        summary[f"p{pct:.4g}_ms"] = 1e3 * ops[n - 11]
    return summary


def measure(runner: Runner) -> tuple[dict, dict, list[dict]]:
    """Untraced run: end-to-end metrics."""
    setups = [runner.setup_only() for _ in range(SETUP_REPEATS - 1)]
    prep = runner.prepare_inputs()
    ready, report = runner.timed(["--seconds", repr(runner.args.seconds)])
    setups.append(prep + ready)
    values = {
        "acq_per_s": acq_per_s(report),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    details = {"ops": op_summary(report), "setup_s": setups, "digest": report["digest"]}
    return values, details, [report]


def measure_traced(runner: Runner, per_layer: list[dict]) -> tuple[dict, dict, list[dict]]:
    """Untraced then traced run of the same operations: per-layer metrics."""
    runner.prepare_inputs()
    _, plain = runner.timed(["--seconds", repr(runner.args.seconds / 2)])
    _, traced = runner.timed(["--ops", str(len(plain["op_s"])), "--trace"])
    if traced["counts"] != plain["counts"]:
        traced["total_error"] = "traced counts differ from untraced counts"

    layer = traced["trace"]["metrics"]
    attempted, failed = attempted_failed(plain, traced)
    derived = {
        "trace.wall_ms": traced["trace"]["wall_ms"],
        "trace.overhead_frac": 1.0 - acq_per_s(traced) / acq_per_s(plain),
        "fail_frac": failed / attempted,
    }
    scope = SCOPE[runner.args.workload]
    values, missing, not_reached = {}, [], []
    for m in per_layer:
        name = m["name"]
        value = derived[name] if name in derived else layer.get(name)
        if value is None and name in scope:
            missing.append(name)
            continue
        if value is None:
            not_reached.append(name)
            value = 0.0
        values[name] = value
    # Self times of the layers plus the unwrapped remainder make up the wall.
    accounted = sum(v for k, v in layer.items() if k.endswith("_ms") and v is not None)
    details = {
        "ops": op_summary(plain),
        "traced_ops": op_summary(traced),
        "digest": plain["digest"],
        "traced_digest": traced["digest"],
        "unaccounted_ms": traced["trace"]["wall_ms"] - accounted,
        "missing": missing + traced["trace"]["absent"],
        "not_reached": not_reached,
    }
    return values, details, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCOPE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink acquisitions and recorded files by this factor (smoke tests)",
    )
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "coincsim" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} holds no src/coincsim or no BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())

    runner = Runner(args)
    try:
        if args.trace:
            values, details, reports = measure_traced(runner, bench["per_layer"])
        else:
            values, details, reports = measure(runner)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()

    attempted, failed = attempted_failed(*reports)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in bench[kind]
        if m["name"] in values
    }
    failures = [f for r in reports for f in r["failures"]]
    failures += [{"total": r["total_error"]} for r in reports if r["total_error"]]
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        failures=failures[:5],
        nproc=os.cpu_count(),
        versions=reports[0]["versions"],
    )
    print(json.dumps({"report": details}))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
