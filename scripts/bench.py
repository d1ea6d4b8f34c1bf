#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics over several seeds as BENCH_<label>.json.

Runs ``benchmark/run.py --trace 0`` once per workload and seed, seeds 1..K,
and writes the median, quartiles and every run of each end-to-end metric of
``BENCHMARK.json``, per workload, with the digests and failed operations of
the runs and the provenance of the record (commit, nproc, Python and numpy
versions).  A perf change commits its record and quotes before and after
from two such files:

    python3 scripts/bench.py --label pr9 --seeds 5

takes about 4 x 5 x 30 s on a 2-core VM at the default 20 s per run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RUN = REPO_ROOT / "benchmark" / "run.py"


def git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced benchmark run: (report, result) from its last two lines."""
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    # Exit status 1 still prints a result (some operation failed its check).
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(
            f"benchmark/run.py failed on {workload} seed {seed} "
            f"(exit {proc.returncode}): {proc.stderr.strip()}"
        )
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and their distance, with every run."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "runs": values,
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, default=5, help="runs per workload (seeds 1..K)")
    parser.add_argument(
        "--seconds", type=float, default=bench["run_seconds"], help="timed seconds per run"
    )
    parser.add_argument(
        "--workload", action="append", choices=names, default=None,
        help="record only this workload; repeatable (default: every workload)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=REPO_ROOT, help="where BENCH_<label>.json goes"
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    workloads = args.workload or names
    seeds = list(range(1, args.seeds + 1))

    runs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in workloads}
    # Seeds outer, workloads inner, so slow drift of the machine spreads over
    # every workload instead of landing on one.
    for seed in seeds:
        for workload in workloads:
            report, result = run_once(workload, seed, args.seconds)
            runs[workload].append((report, result))
            print(
                f"{workload} seed {seed}: "
                + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr,
            )

    record_workloads = {}
    for workload, pairs in runs.items():
        entry = {
            m["name"]: {
                "unit": m["unit"],
                "better": m["better"],
                **spread([result["metrics"][m["name"]]["value"] for _, result in pairs]),
            }
            for m in bench["end_to_end"]
        }
        entry["attempted"] = sum(result["attempted"] for _, result in pairs)
        entry["failed"] = sum(result["failed"] for _, result in pairs)
        entry["digests"] = [report["digest"] for report, _ in pairs]
        record_workloads[workload] = entry

    first = next(iter(runs.values()))[0][0]
    status = git("status", "--porcelain", "--untracked-files=no")
    record = {
        "label": args.label,
        "provenance": {
            "commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": None if status is None else bool(status),
            "nproc": os.cpu_count(),
            "python": first["versions"]["python"],
            "numpy": first["versions"]["numpy"],
            "coincsim": first["versions"]["coincsim"],
            "command": f"benchmark/run.py --seconds {args.seconds!r} --trace 0",
            "seeds": seeds,
        },
        "workloads": record_workloads,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
