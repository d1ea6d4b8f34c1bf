"""Golden results tables: every shipped config, two acquisitions per point.

Each shipped ``configs/*.cfg`` runs with its own master seed and two
acquisitions at every sweep point, and its results CSV must equal the
committed ``tests/golden/<name>.csv`` byte for byte.  A change that alters
an RNG stream on purpose regenerates the affected files by running this
module as a script (``PYTHONPATH=src python tests/test_golden.py NAME...``)
and says why in its change notes.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from coincsim.scenario import emit_results_csv, parse_config, run_scenario

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.cfg"))


def golden_csv(name: str) -> str:
    config = parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
    config = replace(config, acquisitions=2, acquisitions_per_point=None)
    return emit_results_csv(run_scenario(config))


@pytest.mark.parametrize("name", CONFIGS)
def test_results_match_golden(name):
    assert golden_csv(name) == (GOLDEN_DIR / f"{name}.csv").read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or CONFIGS:
        (GOLDEN_DIR / f"{name}.csv").write_text(golden_csv(name))
