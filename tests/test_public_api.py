"""The names the benchmark harness reaches into must keep existing.

``benchmark/worker.py`` imports names from the ``coincsim`` package, and
``benchmark/layertrace.py`` wraps module attributes listed in ``TARGETS``.
Either breaking silently would leave the benchmark measuring nothing.  The
two split layers wrap two names of one method, so the simulation must keep
calling ``select_arm`` and ``cli analyze`` must keep calling
``select_channel``.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import coincsim
from coincsim import cli, events, sources
from coincsim.scenario import ScenarioConfig, SourceKind, run_scenario
from coincsim.sources import (
    ClassicalWaveConfig,
    CoherentSourceConfig,
    PdcSourceConfig,
    ThermalSourceConfig,
)
from coincsim.timetags import write_timetag_file

from stat_helpers import stream_of

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", BENCHMARK / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _worker_imports() -> list[str]:
    tree = ast.parse((BENCHMARK / "worker.py").read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "coincsim"
        for alias in node.names
    ]


@pytest.mark.parametrize("layer, module_name, attr", _load_layertrace().TARGETS)
def test_layertrace_target_resolves(layer, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_worker_imports_found():
    assert "run_scenario" in _worker_imports()


@pytest.mark.parametrize("name", _worker_imports())
def test_worker_import_exists(name):
    # ``from coincsim import name`` binds a package attribute, else a submodule
    if not hasattr(coincsim, name):
        importlib.import_module(f"coincsim.{name}")


@pytest.mark.parametrize("module_name", [m.name for m in pkgutil.iter_modules(coincsim.__path__)])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(f"coincsim.{module_name}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_one_stream_class():
    assert sources.ArrivalStream is events.EventStream
    assert events.EventStream.select_arm is events.EventStream.select_channel


def test_both_split_layers_are_reached(tmp_path, capsys):
    config = ScenarioConfig(
        source=PdcSourceConfig(pair_rate_hz=1e6), acquisitions=1, acquisition_duration_ps=10**8
    )
    path = tmp_path / "tags.ttag1"
    stream = stream_of(10**6, ("T", 0), ("D1", 3000), ("D2", 5000), ("T", 9000))
    path.write_bytes(write_timetag_file(stream, "ttag1"))
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        run_scenario(config)
        # project_idler_path, then select_arm once per path
        assert (tracer.calls["sources.split"], tracer.calls["events.select"]) == (3, 0)
        tracer.reset()
        assert cli.main(["analyze", "--input", str(path), "--format", "ttag1"]) == 0
        # select_channel once for the gates and once per detector
        assert (tracer.calls["sources.split"], tracer.calls["events.select"]) == (0, 3)
    finally:
        tracer.uninstall()
    assert tracer.absent == []


# One tiny acquisition per source kind, and the layers it must reach.  A kind
# whose code held a traced function captured at import time would miss one.
_TINY = dict(acquisitions=1, acquisition_duration_ps=10**8)
_GATED = dict(_TINY, gate_rate_hz=1e6)
_SHARED = dict(coherence_time_ps=10**5)
KIND_LAYERS = {
    SourceKind.PDC: (
        ScenarioConfig(source=PdcSourceConfig(pair_rate_hz=1e6), **_TINY),
        ("sources.gen", "sources.split", "detectors.detect", "gating.build", "gating.count"),
    ),
    SourceKind.COHERENT: (
        ScenarioConfig(source=CoherentSourceConfig(mean_rate_hz=1e8), **_GATED),
        ("sources.gen", "detectors.detect", "gating.build", "gating.count"),
    ),
    SourceKind.THERMAL: (
        ScenarioConfig(source=ThermalSourceConfig(mean_rate_hz=1e8, **_SHARED), **_GATED),
        ("sources.gen", "detectors.detect", "gating.build", "gating.count"),
    ),
    SourceKind.CLASSICAL_WAVE: (
        ScenarioConfig(
            source=ClassicalWaveConfig(herald_rate_hz=1e6, per_gate_intensity_mean=0.05), **_TINY
        ),
        ("sources.gen",),
    ),
}


def test_every_kind_has_its_layers():
    assert set(KIND_LAYERS) == set(SourceKind)


@pytest.mark.parametrize("kind", list(KIND_LAYERS), ids=lambda k: k.value)
def test_every_kind_reaches_its_layers(kind):
    config, layers = KIND_LAYERS[kind]
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        run_scenario(config)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert [layer for layer in layers if tracer.calls[layer] == 0] == []
