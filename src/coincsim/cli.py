"""Command-line entry points.

Three subcommands:

* ``simulate``: run a configured scenario and write the results table.
* ``analyze``: gate and count a recorded time-tag file (CSV or TTAG1) and
  write a one-point results table.
* ``oracle``: print the model-predicted alpha for each sweep point of a
  configuration, for comparing simulated output against expectation.

Exit codes: 0 success, 2 configuration problem (an ``--out`` path that cannot
be written among them), 3 malformed input data.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, UndefinedEstimateError
from .estimators import alpha_estimate
from .events import Channel, EventStream
from .gating import CountSummary, GatePolicy, _gates, count_gates, make_gates_from_trigger
from .scenario import (
    RESULTS_HEADER,
    csv_row,
    emit_results_csv,
    oracle_per_point,
    parse_config,
    run_scenario,
)
from .timetags import _HEADER, _RECORD, TimetagFormat, parse_timetag_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

_GATE_CHANNELS = {"T": Channel.TRIGGER, "G": Channel.GATE_GEN}

# analyze reads TTAG1 records in cache-sized chunks, so memory stays flat in file size
_CHUNK_RECORDS = 1 << 16


def _read_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 at byte {exc.start}") from None
    return parse_config(text)


def _output(path: str):
    """The writer of a command's output to ``path`` ('-' is stdout), checked before the
    command runs: a path that cannot be written fails first, and the file stays as it
    was until the command's output is written."""
    if path == "-":
        return sys.stdout.write
    created = not os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    if created:
        os.remove(path)
    return Path(path).write_text


def _cmd_simulate(args: argparse.Namespace) -> str:
    config = _read_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return emit_results_csv(run_scenario(config, jobs=args.jobs))


def _parsed_chunks(path: str, fmt: str, duration_ps: int | None):
    """Yield each chunk of a time-tag file parsed, and the time no later record is before
    (inf after the last).  A bad file is parsed again whole, to report its first fault."""
    with open(path, "rb") as f:
        if TimetagFormat(fmt) is TimetagFormat.CSV:  # one chunk
            yield parse_timetag_file(f.read(), fmt, duration_ps=duration_ps), math.inf
            return
        buf = bytearray(_HEADER.size + _RECORD.size * _CHUNK_RECORDS)
        head, prev, end = f.readinto(memoryview(buf)[:_HEADER.size]), None, len(buf)
        while end == len(buf):  # the header stays in front of every chunk
            end = head + f.readinto(memoryview(buf)[head:])
            try:
                stream = parse_timetag_file(memoryview(buf)[:end], fmt, duration_ps=duration_ps)
                if len(stream) and prev and _RECORD.unpack_from(buf, _HEADER.size) < prev:
                    raise DataFormatError("ordering violation at a chunk boundary")
            except DataFormatError:
                f.seek(0)
                parse_timetag_file(f.read(), fmt, duration_ps=duration_ps)
                raise
            prev = _RECORD.unpack_from(buf, end - _RECORD.size) if len(stream) else prev
            yield stream, prev[0] if end == len(buf) else math.inf


def _cmd_analyze(args: argparse.Namespace) -> str:
    window_ps = round(args.window_ns * 1000) if math.isfinite(args.window_ns) else 0
    if not 0 < window_ps < 2**63:
        raise ConfigError("--window-ns must be finite, positive and below 2**63 ps")
    if args.duration_ps is not None and args.duration_ps <= 0:
        raise ConfigError("--duration-ps must be positive")
    gate_channel = _GATE_CHANNELS[args.gate_channel]
    policy = GatePolicy.ALLOW_OVERLAP if args.allow_overlap else GatePolicy.DROP_OVERLAPPING
    # Carried across chunks: each channel's records from the first gate still
    # open at `last`, or from `last`.  That record is a kept gate, so the
    # greedy pass run again over the carry keeps the same gates.
    counts = CountSummary(0, 0, 0, 0)
    carry = dict.fromkeys((gate_channel, Channel.D1, Channel.D2), np.empty(0, dtype=np.int64))
    try:
        for stream, last in _parsed_chunks(args.input, args.format, args.duration_ps):
            duration = stream.duration_ps
            t = {c: np.concatenate((h, stream.select_channel(c).times)) for c, h in carry.items()}
            trigger, d1, d2 = (EventStream(duration, {c: x}) for c, x in t.items())
            opens = make_gates_from_trigger(trigger, window_ps, policy).opens
            done = np.searchsorted(opens, last - window_ps, "right")  # closed by `last`
            closed = _gates(window_ps, opens[:done], policy is GatePolicy.DROP_OVERLAPPING)
            counts += count_gates(closed, d1, d2)
            cut = opens[done] if done < len(opens) else last  # a later record is at >= last
            carry = {c: x[np.searchsorted(x, cut) :] for c, x in t.items()}
    except OSError as exc:
        raise DataFormatError(f"cannot read {args.input}: {exc}") from None
    est = alpha_estimate(counts)
    rate = counts.n_gates / (duration * 1e-12)
    row = csv_row(1, rate, *astuple(counts), est.alpha, est.sigma)
    return f"{RESULTS_HEADER}\n{row}\n"


def _cmd_oracle(args: argparse.Namespace) -> str:
    config = _read_config(args.config)
    expected = oracle_per_point(config)
    lines = ["point,expected_alpha"]
    lines.extend(csv_row(i, a) for i, a in enumerate(expected, start=1))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coincsim",
        description="Gated photon-coincidence simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured scenario")
    sim.add_argument("--config", required=True, help="scenario configuration file")
    sim.add_argument("--out", default="-", help="results CSV path ('-' for stdout)")
    sim.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    sim.add_argument("--jobs", type=int, default=1, help="parallel worker processes (at most one per core)")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="gate and count a time-tag file")
    ana.add_argument("--input", required=True, help="time-tag file to analyze")
    ana.add_argument(
        "--format", choices=[f.value for f in TimetagFormat], required=True,
        help="input file format",
    )
    ana.add_argument("--window-ns", type=float, default=7.0, help="gate window (ns)")
    ana.add_argument(
        "--gate-channel", choices=sorted(_GATE_CHANNELS), default="T",
        help="channel whose events open gates",
    )
    ana.add_argument(
        "--duration-ps", type=int, default=None,
        help="override the observation duration recorded/inferred from the file",
    )
    ana.add_argument(
        "--allow-overlap", action="store_true",
        help="keep gates that overlap an earlier gate instead of dropping them",
    )
    ana.add_argument("--out", default="-", help="results CSV path ('-' for stdout)")
    ana.set_defaults(func=_cmd_analyze)

    orc = sub.add_parser("oracle", help="print model-expected alpha per sweep point")
    orc.add_argument("--config", required=True, help="scenario configuration file")
    orc.add_argument("--out", default="-", help="output path ('-' for stdout)")
    orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        write = _output(args.out)
        write(args.func(args))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, UndefinedEstimateError) as exc:
        print(f"input data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
