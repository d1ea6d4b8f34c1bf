"""Smoke tests: each script in ``scripts/`` runs end to end on a tiny input."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


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


def test_bench_writes_record(tmp_path):
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
    assert list(record["workloads"]) == ["gated_coherent"]
    entry = record["workloads"]["gated_coherent"]
    assert isinstance(entry["digests_match"], bool)
    for name in ("base", "head"):
        side = entry[name]
        assert side["failed"] == 0 and len(side["digests"]) == 1
        for metric in ("acq_per_s", "setup_s", "peak_rss_mb"):
            assert side[metric]["median"] > 0 and side[metric]["iqr"] == 0
        # one traced run per side: the per-layer split
        assert side["layers"]["sources.gen_ms"] > 0
        assert side["layers"]["fail_frac"] == 0
    for metric in ("acq_per_s", "setup_s", "peak_rss_mb"):
        pair = entry["pairs"][metric]
        assert len(pair["ratios"]) == 1 and pair["median_ratio"] == pair["ratios"][0] > 0
        assert pair["head_won"] in (0, 1)
    # the base worktree is gone again
    worktrees = subprocess.run(
        ["git", "worktree", "list"], cwd=REPO_ROOT, capture_output=True, text=True
    ).stdout
    assert "coincsim-bench-" not in worktrees
