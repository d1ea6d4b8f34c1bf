"""Smoke tests: each script in ``scripts/`` runs end to end on a tiny input."""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def script_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=script_env(),
        timeout=300,
    )


def bench_worktrees():
    """The bench's base and head worktrees that git still lists."""
    out = subprocess.run(
        ["git", "worktree", "list", "--porcelain"], cwd=REPO_ROOT, capture_output=True, text=True
    ).stdout
    return [
        line.split(" ", 1)[1]
        for line in out.splitlines()
        if line.startswith("worktree ") and "coincsim-bench-" in line
    ]


def processes_running(path):
    """Pids of the live processes whose command line names ``path``."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:  # not a process, or gone meanwhile
            continue
        if entry.name.isdigit() and path.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def test_rate_sweep_prints_csv():
    proc = run_script("rate_sweep.py", "--acquisitions", "1", "--multipliers", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "trigger_rate_cps,alpha,sigma,expected_alpha,pull"
    assert len(lines) == 2


def test_reproduce_experiments_writes_results_csv(tmp_path):
    proc = run_script(
        "reproduce_experiments.py", "--only", "classical_wave", "--out-dir", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("classical_wave: alpha = ")
    header = (tmp_path / "classical_wave.csv").read_text().splitlines()[0]
    assert header == "point,rate_cps,N,N1,N2,Nc,alpha,sigma"


def bench_dirs():
    """The bench's temporary directories that exist."""
    return set(Path(tempfile.gettempdir()).glob("coincsim-bench-*"))


def test_bench_writes_record(tmp_path):
    dirs_before = bench_dirs()
    proc = run_script(
        "bench.py", "--base", "HEAD", "--label", "smoke", "--seeds", "1", "--seconds", "0.5",
        "--workload", "gated_coherent", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["label"] == "smoke"
    provenance = record["provenance"]
    assert provenance["nproc"] == os.cpu_count()
    assert provenance["seeds"] == [1]
    assert provenance["base"] == "HEAD" and len(provenance["base_commit"]) == 40
    assert len(provenance["head_tree_commit"]) == 40
    assert isinstance(provenance["head_untracked_files"], list)
    assert list(record["workloads"]) == ["gated_coherent"]
    entry = record["workloads"]["gated_coherent"]
    assert isinstance(entry["digests_match"], bool)
    for name in ("base", "head"):
        side = entry[name]
        assert side["failed"] == 0 and len(side["digests"]) == 1
        for metric in ("acq_per_s", "setup_s", "peak_rss_mb", "cpu_s", "wall_s"):
            assert side[metric]["median"] > 0 and side[metric]["iqr"] == 0
        # one traced run per side: the per-layer split, and its wall seconds
        assert side["layers"]["sources.gen_ms"] > 0
        assert side["layers"]["wall_s"] > 0
        assert side["layers"]["fail_frac"] == 0
        # minor page faults of the harness and its workers, pairs and traced run
        assert side["minflt"]["median"] >= 0 and side["layers"]["minflt"] >= 0
        # the host's load beside every pair run and traced run
        for metric in ("load1", "iowait_jiffies", "steal_jiffies"):
            assert len(side[metric]["runs"]) == 1 and side[metric]["median"] >= 0
            assert side["layers"][metric] >= 0
        assert "load1" not in entry["pairs"]
    for metric in ("acq_per_s", "setup_s", "peak_rss_mb", "cpu_s", "minflt", "wall_s"):
        pair = entry["pairs"][metric]
        assert len(pair["ratios"]) == 1 and pair["median_ratio"] == pair["ratios"][0] > 0
        assert pair["head_won"] in (0, 1)
    # both worktrees are gone again, with their directory
    assert bench_worktrees() == []
    assert bench_dirs() == dirs_before
    # with --workload the record does not run Tier-1 (this test) again
    assert "suite" not in record


def wait_for(condition, proc, seconds=120):
    deadline = time.monotonic() + seconds
    while not condition():
        assert proc.poll() is None, proc.communicate()[1]
        assert time.monotonic() < deadline
        time.sleep(0.05)


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="lists processes in /proc")
def test_bench_stopped_by_sigterm_cleans_up(tmp_path):
    proc = subprocess.Popen(
        [
            sys.executable, str(REPO_ROOT / "scripts" / "bench.py"), "--base", "HEAD",
            "--label", "stopped", "--seeds", "1", "--seconds", "0.5",
            "--workload", "gated_coherent", "--out-dir", str(tmp_path),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=script_env(),
    )
    base, head, started = None, None, []
    try:
        wait_for(lambda: len(bench_worktrees()) == 2, proc)
        base, head = sorted(bench_worktrees())  # .../base, .../head
        # stop it while the base tree's harness runs a worker (seed 1 runs base first)
        wait_for(lambda: processes_running(f"{base}/benchmark/worker.py"), proc)
        started = processes_running(base)
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
        deadline = time.monotonic() + 10
        while processes_running(base) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = processes_running(base) if base else []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        for pid in processes_running(base) if base else []:
            os.kill(pid, signal.SIGKILL)
    assert proc.returncode == 128 + signal.SIGTERM
    assert len(started) >= 2  # benchmark/run.py and its worker
    assert left == [], "a benchmark process outlived the record"
    assert bench_worktrees() == []
    assert not Path(base).exists() and not Path(head).exists()
    assert not (tmp_path / "BENCH_stopped.json").exists()
