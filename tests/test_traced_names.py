"""Names the traced benchmark replay (bench/tracing.py) swaps by attribute.

The replay looks each name up in its owner's ``__dict__`` and puts a timing
wrapper in its place, so renaming one, or importing it under another name,
breaks the per-layer benchmark without failing any other test here.
"""

import pytest

from nestfire import cli, dynamics, scenario, topology

SWAPPED = [
    (cli, "run"),
    (cli, "parse_scenario"),
    (cli, "write_trace"),
    (cli, "compare_golden"),
    (cli, "run_counter"),
    (cli, "best_center"),
    (cli, "event_oracle"),
    (cli, "layout_distances"),
    (scenario, "build_linear"),
    (scenario, "validate"),
    (dynamics, "members"),
    (dynamics, "ancestors"),
    (topology.EnsembleSpec, "offset"),
]


@pytest.mark.parametrize(
    "owner, name", SWAPPED, ids=[f"{owner.__name__}.{name}" for owner, name in SWAPPED]
)
def test_name_is_swappable(owner, name):
    assert callable(owner.__dict__[name])
