"""nestfire: a deterministic simulator of nested neural pattern ensembles.

The package models groups of neurons ("patterns") nested inside one
another. Excitation circulates inside a pattern; inhibition flows from a
firing pattern to every pattern enclosing it. From those two rules it
builds:

* ``topology`` -- the nesting structure and its connectivity queries;
* ``dynamics`` -- the discrete-time firing simulation, one strength per
  pattern, with a golden-table extraction against the reference table;
* ``counter`` -- a timer/counter/battery state machine over a nested chain;
* ``energy`` -- signal attenuation, capacitor-style multi-hop firing
  arithmetic, the multiplicative centering cost, and the inward-vs-outward
  layout economics with stigmergic reinforcement;
* ``scenario`` -- declarative scenario files, CSV traces, and golden
  comparison;
* ``cli`` -- the ``nestfire`` command.

Everything is pure-functional over immutable values; identical inputs give
byte-identical outputs.
"""

from .counter import CounterSpec, CounterState, CountEvent, Phase, run_counter, start, tick
from .dynamics import (
    MODE_FREE_RUN,
    MODE_SCHEDULED,
    Schedule,
    SimState,
    TraceTable,
    first_zero_step,
    golden_table,
    initial_state,
    pattern_strength,
    run,
    step,
    with_drive,
)
from .energy import (
    ChainSpec,
    GroupLayout,
    HopSpec,
    LayoutSpec,
    Route,
    RouteSet,
    WeightChain,
    best_center,
    centering_cost,
    chain_source_firings,
    event_oracle,
    firings_per_hop,
    hops_from_weights,
    layout_distances,
    most_reinforced,
    random_mirrored_layout,
    required_output,
    stigmergy_reinforce,
)
from .errors import (
    AsymmetricPattern,
    AttenuatedOut,
    DegenerateLayout,
    InvalidDepth,
    InvalidDimension,
    NestfireError,
    OutOfRange,
    ParseError,
    SpecMismatch,
    UnknownPattern,
    ValidationError,
    WrongShape,
)
from .scenario import (
    GOLDEN_TOLERANCE,
    GoldenReport,
    Scenario,
    compare_golden,
    compare_grids,
    parse_scenario,
    read_golden_fixture,
    read_trace,
    standard_scenario,
    table1_fixture,
    write_scenario,
    write_trace,
)
from .topology import EnsembleSpec, PatternSpec, ancestors, build_linear, members, validate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # topology
    "PatternSpec",
    "EnsembleSpec",
    "build_linear",
    "ancestors",
    "members",
    "validate",
    # dynamics
    "MODE_SCHEDULED",
    "MODE_FREE_RUN",
    "Schedule",
    "SimState",
    "TraceTable",
    "initial_state",
    "step",
    "run",
    "pattern_strength",
    "first_zero_step",
    "golden_table",
    "with_drive",
    # counter
    "Phase",
    "CounterSpec",
    "CountEvent",
    "CounterState",
    "start",
    "tick",
    "run_counter",
    # energy
    "HopSpec",
    "ChainSpec",
    "WeightChain",
    "GroupLayout",
    "LayoutSpec",
    "Route",
    "RouteSet",
    "required_output",
    "firings_per_hop",
    "chain_source_firings",
    "event_oracle",
    "hops_from_weights",
    "centering_cost",
    "best_center",
    "layout_distances",
    "random_mirrored_layout",
    "stigmergy_reinforce",
    "most_reinforced",
    # scenario
    "Scenario",
    "GoldenReport",
    "GOLDEN_TOLERANCE",
    "parse_scenario",
    "write_scenario",
    "standard_scenario",
    "write_trace",
    "read_trace",
    "compare_grids",
    "compare_golden",
    "read_golden_fixture",
    "table1_fixture",
    # errors
    "NestfireError",
    "InvalidDimension",
    "UnknownPattern",
    "SpecMismatch",
    "AsymmetricPattern",
    "OutOfRange",
    "WrongShape",
    "InvalidDepth",
    "AttenuatedOut",
    "DegenerateLayout",
    "ParseError",
    "ValidationError",
]
