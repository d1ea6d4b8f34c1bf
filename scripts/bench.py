#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of this tree against a base commit.

Checks out ``--base REV`` and this tree as two detached worktrees in one
temporary directory and, for each seed 1..K and each workload, runs
``benchmark/run.py --trace 0`` of both trees back to back, each tree's own
harness on its own ``src/``.  Both sides thus run from fresh checkouts side
by side.  The head worktree
holds the commit of the tracked files as they are, uncommitted edits
included (``git stash create``, or ``HEAD`` for a clean tree); untracked
files are not in it, and the record's provenance lists them.
Which side goes first alternates from seed to seed, so slow drift of the
machine lands on both sides alike.  ``BENCH_<label>.json`` holds, per
workload, each side's median, quartiles and runs of every end-to-end metric
of ``BENCHMARK.json``, the CPU seconds of the run (``cpu_s``: the harness
and its workers), their minor page faults (``minflt``) and the run's wall
seconds (``wall_s``), the host's 1-minute load average as the run ended
(``load1``) and the iowait and steal jiffies of the whole host during the
run (``iowait_jiffies``, ``steal_jiffies``), the head/base ratio of every
pair with its median and the number of pairs the head won, the failed
operations, and whether the two sides' digests match; its provenance names
both commits.  After the pairs, one ``--trace 1`` run per workload and side
(seed 1, the first side alternating from workload to workload) adds that
side's per-layer metrics under ``layers``, so the record shows which layer
moved; one run per side resolves only moves of about 20% or more.  A record
of every workload (no ``--workload``) then runs the head tree's Tier-1
tests once and ``python -m coincsim.cli simulate`` once per ``configs/*.cfg``,
and puts their wall seconds and exit statuses under ``suite``; a config's
seconds include the interpreter's start and imports.
A perf change quotes the median ratio and the wins from its record:

    python3 scripts/bench.py --base HEAD~1 --label pr11 --seeds 5

takes about 2 x 4 x (5 + 1) x 30 s on a 2-core VM at the default 20 s per
run, plus about 47 s for the suite (Tier-1 33 s, the seven configs 13 s).
Both worktrees are removed when the script ends, also when a run fails or
the script is stopped by SIGTERM; each run's harness and its workers are then
killed with it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def git(*args: str, check: bool = True) -> str:
    proc = subprocess.run(["git", *args], cwd=REPO_ROOT, capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise SystemExit(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
    return proc.stdout.strip()


def run_group(cmd: list[str], cwd: Path, env: dict | None = None) -> tuple[int, str, str]:
    """Run ``cmd`` to its end: (exit status, stdout, stderr).

    It runs in its own session, so the command and the workers it starts are
    one process group, stopped together if the record is.
    """
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, stdout, stderr


def child_usage() -> tuple[float, int]:
    """User plus system CPU seconds, and minor page faults, of every child
    reaped so far, and of theirs."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_minflt


def host_load() -> tuple[float, int, int]:
    """The host's 1-minute load average and its cumulative iowait and steal
    jiffies since boot, read from ``/proc`` (NaN and 0 where it has none)."""
    try:
        load1 = float(Path("/proc/loadavg").read_text().split()[0])
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()  # cpu user nice ...
    except OSError:
        return math.nan, 0, 0
    return load1, int(cpu[5]), int(cpu[8])


def run_once(
    tree: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> tuple[dict, dict]:
    """One run of ``tree``'s benchmark: (report, result) from its last two lines.

    The result's metrics gain ``cpu_s`` and ``minflt``, the CPU seconds and
    minor page faults of the harness and of the workers it reaped,
    ``wall_s``, the run's elapsed seconds, and the host's load: ``load1`` as
    the run ended, and its ``iowait_jiffies`` and ``steal_jiffies`` during
    the run.
    """
    cmd = [
        sys.executable, str(tree / "benchmark" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    host, start, wall_s = host_load(), child_usage(), time.perf_counter()
    returncode, stdout, stderr = run_group(cmd, tree)
    end, wall_s = child_usage(), time.perf_counter() - wall_s
    host_end = host_load()
    cpu_s, minflt = end[0] - start[0], end[1] - start[1]
    lines = stdout.strip().splitlines()
    # Exit status 1 still prints a result (some operation failed its check).
    if returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(
            f"{tree}/benchmark/run.py failed on {workload} seed {seed} "
            f"(exit {returncode}): {stderr.strip()}"
        )
    result = json.loads(lines[-1])
    result["metrics"]["cpu_s"] = {"value": cpu_s, "unit": "s"}
    result["metrics"]["minflt"] = {"value": minflt, "unit": "count"}
    result["metrics"]["wall_s"] = {"value": wall_s, "unit": "s"}
    result["metrics"]["load1"] = {"value": host_end[0], "unit": "load"}
    result["metrics"]["iowait_jiffies"] = {"value": host_end[1] - host[1], "unit": "jiffies"}
    result["metrics"]["steal_jiffies"] = {"value": host_end[2] - host[2], "unit": "jiffies"}
    return json.loads(lines[-2])["report"], result


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


def side(runs: list[tuple[dict, dict]], names: list[str], layers: dict) -> dict:
    """One side of one workload: each metric's spread, failed operations, digests, layers."""
    entry = {
        name: spread([result["metrics"][name]["value"] for _, result in runs]) for name in names
    }
    entry["attempted"] = sum(result["attempted"] for _, result in runs)
    entry["failed"] = sum(result["failed"] for _, result in runs)
    entry["digests"] = [report["digest"] for report, _ in runs]
    entry["layers"] = layers
    return entry


def paired(base: dict, head: dict, metrics: list[dict]) -> dict:
    """Per metric: the head/base ratio of every pair, their median, and the head's wins."""
    out = {}
    for m in metrics:
        ratios = [h / b for b, h in zip(base[m["name"]]["runs"], head[m["name"]]["runs"])]
        won = (lambda r: r > 1.0) if m["better"] == "higher" else (lambda r: r < 1.0)
        out[m["name"]] = {
            "unit": m["unit"],
            "better": m["better"],
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "head_won": sum(won(r) for r in ratios),
        }
    return out


def head_env() -> dict:
    """This environment with this tree's ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def time_configs(configs: list[Path]) -> dict:
    """Wall seconds and exit status of one ``coincsim simulate`` process per
    config, by the config's stem; the results table is discarded."""
    env, seconds, exits = head_env(), {}, {}
    for config in configs:
        cmd = [
            sys.executable, "-m", "coincsim.cli", "simulate",
            "--config", str(config), "--out", os.devnull,
        ]
        started = time.perf_counter()
        exits[config.stem], _, _ = run_group(cmd, REPO_ROOT, env)
        seconds[config.stem] = time.perf_counter() - started
    return {"seconds": seconds, "exit": exits}


def run_suite() -> dict:
    """Wall seconds of this tree's Tier-1 tests and of each shipped config's run."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    started = time.perf_counter()
    returncode, stdout, _ = run_group(cmd, REPO_ROOT, head_env())
    tier1 = {
        "seconds": time.perf_counter() - started,
        "exit": returncode,
        "summary": stdout.strip().splitlines()[-1] if stdout.strip() else "",
    }
    configs = sorted((REPO_ROOT / "configs").glob("*.cfg"))
    return {"tier1": tier1, "simulate": time_configs(configs)}


def _stop(signum: int, frame) -> None:
    raise SystemExit(128 + signum)  # so that the worktrees are removed on the way out


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    # CPU seconds beside the wall-clock metrics.  A run is time-boxed, so its
    # CPU seconds fall when its processes wait off the CPU: a wall-clock move
    # with them unchanged is work, one where they fall too is waiting.  No
    # gate reads them.  Wall seconds show how close a whole run (set-up,
    # timed and, with --trace 1, traced half) comes to run.py's deadline.
    # Minor page faults show memory the allocator gave back to the system and
    # then faulted in again, a cost no per-layer timer names.
    metrics = bench["end_to_end"] + [
        {"name": "cpu_s", "unit": "s", "better": "lower"},
        {"name": "minflt", "unit": "count", "better": "lower"},
        {"name": "wall_s", "unit": "s", "better": "lower"},
    ]
    # The host's load beside each run, spread but not paired (a side can read
    # 0): a slow run on a loaded host, or one waiting on I/O or on a stolen
    # CPU, is the machine, not the change.  No gate reads them either.
    recorded = [m["name"] for m in metrics] + ["load1", "iowait_jiffies", "steal_jiffies"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision the head is paired against")
    parser.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, default=5, help="pairs per workload (seeds 1..K)")
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
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    # what the head worktree holds, taken before any run
    head_commit = git("rev-parse", "HEAD")
    head_tree_commit = git("stash", "create") or head_commit
    status = git("status", "--porcelain", "--untracked-files=no")
    untracked = git("ls-files", "--others", "--exclude-standard").splitlines()

    runs = {name: {w: [] for w in workloads} for name in ("base", "head")}
    layers = {name: {} for name in ("base", "head")}
    signal.signal(signal.SIGTERM, _stop)
    scratch = Path(tempfile.mkdtemp(prefix="coincsim-bench-"))
    trees = {"base": scratch / "base", "head": scratch / "head"}
    try:
        for name, commit in (("base", base_commit), ("head", head_tree_commit)):
            git("worktree", "add", "--detach", str(trees[name]), commit)
        # Seeds outer, workloads inner, so slow drift of the machine spreads
        # over every workload instead of landing on one; each workload's
        # pairs alternate which side runs first.
        for seed in seeds:
            order = ("base", "head") if seed % 2 else ("head", "base")
            for workload, name in ((w, n) for w in workloads for n in order):
                report, result = run_once(trees[name], workload, seed, args.seconds)
                runs[name][workload].append((report, result))
                print(
                    f"{workload} seed {seed} {name}: "
                    + ", ".join(f"{m} {v['value']:.4g}" for m, v in result["metrics"].items()),
                    file=sys.stderr,
                )
        for i, workload in enumerate(workloads):
            for name in ("base", "head") if i % 2 == 0 else ("head", "base"):
                _, result = run_once(trees[name], workload, seeds[0], args.seconds, trace=1)
                layers[name][workload] = {m: v["value"] for m, v in result["metrics"].items()}
    finally:
        for tree in trees.values():
            git("worktree", "remove", "--force", str(tree), check=False)
        shutil.rmtree(scratch, ignore_errors=True)
        git("worktree", "prune", check=False)
    # After the worktrees are gone: Tier-1's own bench tests expect no other one.
    suite = None if args.workload else run_suite()

    record_workloads = {}
    for workload in workloads:
        base = side(runs["base"][workload], recorded, layers["base"][workload])
        head = side(runs["head"][workload], recorded, layers["head"][workload])
        record_workloads[workload] = {
            "base": base,
            "head": head,
            "pairs": paired(base, head, metrics),
            "digests_match": base["digests"] == head["digests"],
        }

    first = runs["head"][workloads[0]][0][0]
    record = {
        "label": args.label,
        "provenance": {
            "head_commit": head_commit,
            "head_uncommitted_changes": bool(status),
            "head_tree_commit": head_tree_commit,
            "head_untracked_files": untracked,
            "base": args.base,
            "base_commit": base_commit,
            "nproc": os.cpu_count(),
            "python": first["versions"]["python"],
            "numpy": first["versions"]["numpy"],
            "coincsim": first["versions"]["coincsim"],
            "command": f"benchmark/run.py --seconds {args.seconds!r} --trace 0, then --trace 1",
            "seeds": seeds,
        },
        "workloads": record_workloads,
    }
    if suite is not None:
        record["suite"] = suite
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
