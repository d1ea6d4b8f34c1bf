"""The names the benchmark harness reaches into must keep existing.

``benchmark/worker.py`` imports names from the ``coincsim`` package, and
``benchmark/layertrace.py`` wraps module attributes listed in ``TARGETS``.
Either breaking silently would leave the benchmark measuring nothing.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import coincsim

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
