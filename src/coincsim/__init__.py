"""Stochastic simulator and analysis toolkit for gated photon-coincidence counting.

The package simulates a heralded single-photon source alongside classical
reference sources (coherent, thermal, semiclassical wave), pushes the photons
through imperfect detectors, counts singles and coincidences in gated
windows, and estimates the normalized coincidence ratio alpha with its
uncertainty.  Closed-form expectations for every source model make the
simulated results checkable end to end.

The names below are the top-level entry points; everything else lives in
the submodules (``coincsim.sources``, ``coincsim.gating``, ...).
"""

from .detectors import detect
from .errors import CoincSimError, ConfigError, DataFormatError, UndefinedEstimateError
from .estimators import alpha_estimate
from .events import merge_streams
from .gating import CountSummary, GatePolicy, count_gates, make_gates_from_trigger
from .scenario import (
    ScenarioConfig,
    emit_results_csv,
    oracle_per_point,
    parse_config,
    run_scenario,
)
from .sources import Arm, PdcSourceConfig, gen_pdc_pairs, project_idler_path
from .timetags import write_timetag_file

__version__ = "0.1.0"
