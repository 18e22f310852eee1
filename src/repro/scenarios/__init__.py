"""Declarative scenario subsystem.

Layering: :mod:`~repro.scenarios.spec` defines the composable
:class:`ScenarioSpec` (topology x assignment x interference x protocol
x sweep x metrics) and its JSON form; :mod:`~repro.scenarios.trials`
builds the trial closures and their batch descriptors;
:mod:`~repro.scenarios.compile` lowers specs into
executable plans over the harness's executor layer;
:mod:`~repro.scenarios.registry` names them.
:mod:`~repro.scenarios.paper` registers E1-E12 and
:mod:`~repro.scenarios.stock` the non-paper workloads, so importing
this package yields a fully populated registry.
"""

from repro.scenarios.compile import (
    LoweredPoint,
    Point,
    Run,
    RunContext,
    lower_points,
    run_scenario_spec,
    scenario_plan,
)
from repro.scenarios.registry import (
    cache_extra,
    get_scenario,
    iter_scenarios,
    load_scenario_file,
    register,
    resolve_scenario,
    run_scenario,
    scenario_ids,
)
from repro.scenarios.spec import (
    AssignmentSpec,
    InterferenceSpec,
    PrecisionSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    apply_overrides,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
)
from repro.scenarios.streaming import stream_scenario_spec
from repro.scenarios import paper as _paper  # noqa: F401 — registration
from repro.scenarios import stock as _stock  # noqa: F401 — registration
from repro.scenarios.paper import PAPER_SPECS, paper_spec
from repro.scenarios.stock import STOCK_SPECS

__all__ = [
    "AssignmentSpec",
    "InterferenceSpec",
    "LoweredPoint",
    "PAPER_SPECS",
    "Point",
    "PrecisionSpec",
    "ProtocolSpec",
    "Run",
    "RunContext",
    "STOCK_SPECS",
    "ScenarioSpec",
    "SweepSpec",
    "TopologySpec",
    "apply_overrides",
    "cache_extra",
    "get_scenario",
    "iter_scenarios",
    "load_scenario_file",
    "lower_points",
    "paper_spec",
    "register",
    "resolve_scenario",
    "run_scenario",
    "run_scenario_spec",
    "scenario_ids",
    "scenario_plan",
    "spec_digest",
    "spec_from_dict",
    "spec_to_dict",
    "stream_scenario_spec",
]
