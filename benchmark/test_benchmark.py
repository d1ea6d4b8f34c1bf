"""Self-tests of the benchmark, at reduced size.

Run from the root of a checkout with ``python -m pytest -q benchmark``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SCALE = "0.02"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def worker(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "analyze_ttag1",
         "--seed", "5", "--scale", SCALE, *args],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return proc.stdout


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.SCOPE)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for scope in run.SCOPE.values():
        assert set(scope) <= per_layer


@pytest.mark.parametrize("workload", list(run.SCOPE))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    code, lines = bench(workload, trace)
    assert code == 0, lines
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {m["name"]: m["unit"] for m in SPEC[kind]} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace:
        assert report["missing"] == []
        assert report["digest"] == report["traced_digest"]
        # Layer self times plus the unwrapped remainder make up the wall time.
        assert abs(report["unaccounted_ms"]) < 1e-6 * result["metrics"]["trace.wall_ms"]["value"]
        for name in run.SCOPE[workload]:
            assert name not in report["not_reached"]
    else:
        for v in result["metrics"].values():
            assert v["value"] > 0


@pytest.mark.parametrize("workload", ["heralded_pdc", "analyze_ttag1"])
def test_digest_repeats_for_a_seed_and_changes_with_it(workload):
    digests = [json.loads(bench(workload, 0, seed)[1][-2])["report"]["digest"] for seed in (4, 4, 6)]
    assert digests[0] == digests[1] != digests[2]


def _swap_first_two_records(data: bytearray) -> None:
    header, size = 14, 9
    a, b = data[header:header + size], data[header + size:header + 2 * size]
    data[header:header + 2 * size] = b + a


def _drop_second_half(data: bytearray) -> None:
    """Still a valid file, but it no longer holds the recorded stream."""
    header, size = 14, 9
    n = (len(data) - header) // size
    del data[header + (n // 2) * size:]


@pytest.mark.parametrize("corrupt", [_swap_first_two_records, _drop_second_half])
def test_corrupted_recording_counts_as_failed(tmp_path, corrupt):
    worker("--record", "--workdir", str(tmp_path))
    target = tmp_path / "rec0.ttag1"
    data = bytearray(target.read_bytes())
    corrupt(data)
    target.write_bytes(bytes(data))
    report = json.loads(worker("--workdir", str(tmp_path), "--ops", "4").splitlines()[-1])
    # Operations 0 and 2 read the corrupted file; 1, 3 and the warm-up do not.
    assert [f["op"] for f in report["failures"]] == [0, 2]
    assert run.attempted_failed(report) == (5, 2)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("heralded_pdc", 0, root=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
