"""Outside-in layer trace for the benchmark.

The trace wraps the public layer functions that ``coincsim.scenario`` and
``coincsim.cli`` call.  It replaces the module attribute (or, for methods,
the class attribute) that those modules look up at call time, so the
program's source is not touched.

Rules the trace keeps:

* Spans nest.  A span's self time is its duration minus the durations of the
  spans it encloses, so ``filter_min_separation`` called inside
  ``make_gates_from_trigger`` is charged to ``events.filter`` and not to
  ``gating.build``.
* Counters are computed after a span has closed, on a clock that stops while
  they run.  Their cost appears neither in any span nor in the operation's
  wall time (counting gate hits over millions of detector events would
  otherwise dwarf the layers it describes).
* A wrapped name the program no longer defines, or one that a workload is
  expected to reach but never calls, is reported as missing, never as 0 ms.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (layer, module, attribute).  A dotted attribute names a method on a class.
TARGETS = (
    ("sources.gen", "coincsim.scenario", "gen_pdc_pairs"),
    ("sources.gen", "coincsim.scenario", "gen_poisson_arrivals"),
    ("sources.gen", "coincsim.scenario", "gen_thermal_arrivals"),
    ("sources.gen", "coincsim.scenario", "gen_classical_wave_gates"),
    ("sources.split", "coincsim.scenario", "project_idler_path"),
    ("sources.split", "coincsim.sources", "ArrivalStream.select_arm"),
    ("detectors.detect", "coincsim.scenario", "detect"),
    ("events.filter", "coincsim.gating", "filter_min_separation"),
    ("events.filter", "coincsim.detectors", "filter_min_separation"),
    ("events.select", "coincsim.events", "EventStream.select_channel"),
    ("events.validate", "coincsim.timetags", "validate_stream"),
    ("timetags.parse", "coincsim.cli", "parse_timetag_file"),
    ("gating.build", "coincsim.scenario", "make_gates_from_trigger"),
    ("gating.build", "coincsim.scenario", "make_gates_periodic"),
    ("gating.build", "coincsim.cli", "make_gates_from_trigger"),
    ("gating.count", "coincsim.scenario", "count_gates"),
    ("gating.count", "coincsim.cli", "count_gates"),
)

# Per-layer metric -> what it is derived from.  Times are self time per
# acquisition; "root" is the wall time that no wrapped call covers.
METRICS = {
    "sources.gen_ms": "layer:sources.gen",
    "sources.arrivals": "counter:arrivals",
    "sources.split_ms": "layer:sources.split",
    "detectors.detect_ms": "layer:detectors.detect",
    "detectors.events": "counter:events",
    "detectors.in_gate_frac": "ratio:in_gate",
    "events.filter_ms": "layer:events.filter",
    "events.select_ms": "layer:events.select",
    "events.validate_ms": "layer:events.validate",
    "timetags.parse_ms": "layer:timetags.parse",
    "timetags.bytes": "counter:bytes",
    "gating.build_ms": "layer:gating.build",
    "gating.gates": "counter:gates",
    "gating.trigger_drop_frac": "ratio:triggers",
    "gating.count_ms": "layer:gating.count",
    "scenario.self_ms": "root:scenario",
    "cli.self_ms": "root:cli",
}


def _in_any_gate(times: np.ndarray, opens: np.ndarray, window_ps: int) -> int:
    """Events inside some gate [open, open + window), each counted once.

    Runs of overlapping gates are merged into one interval first.
    """
    if len(opens) == 0:
        return 0
    first = np.ones(len(opens), dtype=bool)
    first[1:] = opens[1:] >= opens[:-1] + window_ps
    starts = np.nonzero(first)[0]
    last = np.append(starts[1:] - 1, len(opens) - 1)
    lo = np.searchsorted(times, opens[starts], side="left")
    hi = np.searchsorted(times, opens[last] + window_ps, side="left")
    return int((hi - lo).sum())


class Tracer:
    """Span and counter recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self._excluded = 0.0
        self._stack: list[list[float]] = []  # open spans: [start, enclosed time]
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.top_s = 0.0  # summed duration of outermost spans

    def now(self) -> float:
        """Clock that stands still while counters are being computed."""
        return time.perf_counter() - self._excluded

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except AttributeError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patched.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        count = getattr(self, f"_count_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self.now(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                duration = self.now() - frame[0]
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self.top_s += duration
            if count is not None:
                t0 = time.perf_counter()
                count(args, result)
                self._excluded += time.perf_counter() - t0
            return result

        return wrapper

    # -- counters, keyed by the wrapped function's name -------------------

    def _arrivals(self, streams) -> None:
        self.counters["arrivals"] += sum(len(s) for s in streams)

    def _count_gen_pdc_pairs(self, args, result) -> None:
        self._arrivals(result)

    def _count_gen_poisson_arrivals(self, args, result) -> None:
        self._arrivals((result,))

    def _count_gen_thermal_arrivals(self, args, result) -> None:
        self._arrivals((result,))

    def _count_detect(self, args, result) -> None:
        self.counters["events"] += len(result)

    def _count_make_gates_from_trigger(self, args, result) -> None:
        self.counters["triggers"] += len(args[0])
        self.counters["triggers_kept"] += len(result)

    def _count_count_gates(self, args, result) -> None:
        gates, d1, d2 = args[:3]
        self.counters["gates"] += len(gates)
        self.counters["events_in_gates"] += sum(
            _in_any_gate(d.times, gates.opens, gates.window_ps) for d in (d1, d2)
        )
        self.counters["events_counted"] += len(d1) + len(d2)

    def _count_parse_timetag_file(self, args, result) -> None:
        self.counters["bytes"] += len(args[0])

    # -- report -----------------------------------------------------------

    def metrics(self, root: str, wall_s: float, acquisitions: float) -> dict[str, float | None]:
        """Per-acquisition values; None where the source was never reached."""
        c = self.counters
        ratios = {
            "in_gate": (c["events_in_gates"], c["events_counted"]),
            "triggers": (c["triggers"] - c["triggers_kept"], c["triggers"]),
        }
        out: dict[str, float | None] = {}
        for name, source in METRICS.items():
            kind, key = source.split(":")
            if kind == "layer":
                value = 1e3 * self.self_s[key] / acquisitions if self.calls[key] else None
            elif kind == "root":
                value = 1e3 * (wall_s - self.top_s) / acquisitions if key == root else None
            elif kind == "ratio":
                num, den = ratios[key]
                value = num / den if den else None
            else:
                value = c[key] / acquisitions if key in c else None
            out[name] = value
        return out
