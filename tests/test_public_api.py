"""The package's public names: the pinned list, star-import, and each
module's own ``__all__``."""

import importlib

import pytest

import nestfire

PUBLIC_NAMES = [
    "AttenuatedOut",
    "ChainSpec",
    "CounterSpec",
    "CounterState",
    "DegenerateLayout",
    "EnsembleSpec",
    "GOLDEN_TOLERANCE",
    "GoldenReport",
    "GroupLayout",
    "HopSpec",
    "InvalidDepth",
    "InvalidDimension",
    "LayoutSpec",
    "MODE_FREE_RUN",
    "MODE_SCHEDULED",
    "NestfireError",
    "OutOfRange",
    "ParseError",
    "PatternSpec",
    "Phase",
    "Route",
    "RouteSet",
    "Scenario",
    "Schedule",
    "SpecMismatch",
    "TraceTable",
    "UnknownPattern",
    "ValidationError",
    "WeightChain",
    "WrongShape",
    "__version__",
    "ancestors",
    "best_center",
    "build_linear",
    "centering_cost",
    "chain_source_firings",
    "compare_golden",
    "compare_grids",
    "event_oracle",
    "firings_per_hop",
    "first_zero_step",
    "golden_table",
    "hops_from_weights",
    "layout_distances",
    "members",
    "most_reinforced",
    "parse_scenario",
    "pattern_strength",
    "random_mirrored_layout",
    "read_golden_fixture",
    "read_trace",
    "required_output",
    "run",
    "run_counter",
    "standard_scenario",
    "start",
    "stigmergy_reinforce",
    "table1_fixture",
    "tick",
    "validate",
    "write_scenario",
    "write_trace",
]

MODULES = ["counter", "dynamics", "energy", "errors", "readback", "scenario", "topology"]


def test_public_names_are_pinned():
    assert sorted(nestfire.__all__) == PUBLIC_NAMES
    assert len(nestfire.__all__) == len(set(nestfire.__all__))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nestfire import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(nestfire, name)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_names_exist(module_name):
    module = importlib.import_module(f"nestfire.{module_name}")
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def test_readback_names_resolve_through_scenario():
    from nestfire import readback, scenario

    for name in readback.__all__:
        assert getattr(scenario, name) is getattr(readback, name) is getattr(nestfire, name)
    for name in ("no_such_name", "_grid"):  # a private name of readback stays there
        with pytest.raises(AttributeError, match=name):
            getattr(scenario, name)
