"""Smoke tests: ``python -m coincsim.cli`` and each script in ``scripts/`` run
end to end on a tiny input."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest

from coincsim.scenario import csv_row, oracle_per_point, parse_config, serialize_config

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"


def script_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=script_env(), timeout=300
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A git checkout of this tree, which ``scripts/bench.py`` needs: the
    repository itself, or outside one a throwaway repository of its files."""
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    if top.returncode == 0 and Path(top.stdout.strip()).resolve() == REPO_ROOT:
        return REPO_ROOT
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(REPO_ROOT, root, dirs_exist_ok=True)
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    for args in (["init", "-q"], ["add", "-A"], [*identity, "commit", "-q", "-m", "checkout"]):
        subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)
    return root


def bench_worktrees(checkout):
    """The bench's base and head worktrees that git still lists."""
    out = subprocess.run(
        ["git", "worktree", "list", "--porcelain"], cwd=checkout, capture_output=True, text=True
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


def load(name):
    return parse_config((CONFIG_DIR / name).read_text())


def test_cli_simulate_writes_the_golden_table(tmp_path):
    config = replace(load("classical_wave.cfg"), acquisitions=2)
    cfg = tmp_path / "classical_wave.cfg"
    cfg.write_text(serialize_config(config))
    out = tmp_path / "classical_wave.csv"
    proc = run_python("-m", "coincsim.cli", "simulate", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (REPO_ROOT / "tests" / "golden" / "classical_wave.csv").read_bytes()


def test_cli_oracle_prints_each_points_expected_alpha():
    cfg = CONFIG_DIR / "pdc_sweep.cfg"
    proc = run_python("-m", "coincsim.cli", "oracle", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    expected = oracle_per_point(load("pdc_sweep.cfg"))
    rows = [csv_row(i, a) for i, a in enumerate(expected, start=1)]
    assert proc.stdout.splitlines() == ["point,expected_alpha", *rows]


def test_bench_times_each_configs_simulate_run(tmp_path):
    spec = importlib.util.spec_from_file_location("bench", REPO_ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    config = replace(load("classical_wave.cfg"), acquisitions=1, acquisition_duration_ps=10**9)
    (tmp_path / "tiny.cfg").write_text(serialize_config(config))
    (tmp_path / "broken.cfg").write_text("[source]\nkind = no_such_kind\n")
    timed = bench.time_configs(sorted(tmp_path.glob("*.cfg")))
    assert timed["exit"] == {"broken": 2, "tiny": 0}
    assert set(timed["seconds"]) == {"broken", "tiny"}
    assert all(s > 0 for s in timed["seconds"].values())


def bench_dirs():
    """The bench's temporary directories that exist."""
    return set(Path(tempfile.gettempdir()).glob("coincsim-bench-*"))


def test_bench_writes_record(tmp_path, checkout):
    dirs_before = bench_dirs()
    proc = run_python(
        str(checkout / "scripts" / "bench.py"), "--base", "HEAD", "--label", "smoke",
        "--seeds", "1", "--seconds", "0.5",
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
    assert bench_worktrees(checkout) == []
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
def test_bench_stopped_by_sigterm_cleans_up(tmp_path, checkout):
    proc = subprocess.Popen(
        [
            sys.executable, str(checkout / "scripts" / "bench.py"), "--base", "HEAD",
            "--label", "stopped", "--seeds", "1", "--seconds", "0.5",
            "--workload", "gated_coherent", "--out-dir", str(tmp_path),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=script_env(),
    )
    base, head, started = None, None, []
    try:
        wait_for(lambda: len(bench_worktrees(checkout)) == 2, proc)
        base, head = sorted(bench_worktrees(checkout))  # .../base, .../head
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
    assert bench_worktrees(checkout) == []
    assert not Path(base).exists() and not Path(head).exists()
    assert not (tmp_path / "BENCH_stopped.json").exists()
