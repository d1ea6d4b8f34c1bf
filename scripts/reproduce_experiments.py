#!/usr/bin/env python3
"""Run every shipped scenario configuration and write its results table.

For each ``configs/*.cfg`` this runs the full simulation, writes
``<out-dir>/<name>.csv``, and prints a one-line summary comparing the
combined alpha against the model prediction.  On a 2-core VM the whole set
takes about 12 s: pdc_sweep ~5.5 s, thermal_bunched_short ~3.5 s,
thermal_bunched_long ~1.6 s, pdc_low_rate ~0.7 s, the rest under 0.5 s each.
``--only`` selects a subset by name.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from coincsim.scenario import emit_results_csv, oracle_per_point, parse_config, run_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--config-dir", type=Path, default=REPO_ROOT / "configs",
        help="directory holding the .cfg scenario files",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=REPO_ROOT / "results",
        help="where the per-scenario results CSVs go",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="NAME",
        help="run only the named scenario (stem of the .cfg file); repeatable",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes per run")
    args = parser.parse_args(argv)

    config_files = sorted(args.config_dir.glob("*.cfg"))
    if args.only:
        wanted = set(args.only)
        config_files = [f for f in config_files if f.stem in wanted]
        missing = wanted - {f.stem for f in config_files}
        if missing:
            parser.error(f"no such scenario(s): {', '.join(sorted(missing))}")
    if not config_files:
        parser.error(f"no .cfg files under {args.config_dir}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for path in config_files:
        config = parse_config(path.read_text())
        expected = oracle_per_point(config)
        started = time.perf_counter()
        result = run_scenario(config, jobs=args.jobs)
        elapsed = time.perf_counter() - started

        out_path = args.out_dir / f"{path.stem}.csv"
        out_path.write_text(emit_results_csv(result))

        weights = np.array([1 / p.estimate.sigma**2 for p in result.points])
        oracle_combined = float(np.dot(weights, expected) / weights.sum())
        print(
            f"{path.stem}: alpha = {result.overall.alpha:.4g} ± {result.overall.sigma:.2g} "
            f"(model {oracle_combined:.4g}), "
            f"{result.separation_from_one:.1f} sigma from 1, "
            f"{elapsed:.1f} s -> {out_path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
