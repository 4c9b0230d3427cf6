"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured-output section of a failure report) and then asserts, so the
suite doubles as a human-readable checklist. Tolerances are fixed here and
nowhere else.

Run with: pytest tests/test_acceptance.py -v -s
"""

import random
import subprocess
import sys

import pytest

from nestfire import (
    MODE_SCHEDULED,
    CounterSpec,
    Phase,
    Route,
    RouteSet,
    Schedule,
    WeightChain,
    best_center,
    build_linear,
    centering_cost,
    chain_source_firings,
    compare_golden,
    event_oracle,
    golden_table,
    hops_from_weights,
    layout_distances,
    most_reinforced,
    pattern_strength,
    random_mirrored_layout,
    run,
    run_counter,
    standard_scenario,
    stigmergy_reinforce,
    table1_fixture,
    tick,
)

TABLE_TOLERANCE = 1e-9


def report(name: str, ok: bool, detail: str = "") -> None:
    marker = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{marker}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def standard_trace():
    ensemble, schedule, steps, mode = standard_scenario()
    return run(ensemble, schedule, steps, mode)


def test_criterion_1_table1_reproduction():
    trace = standard_trace()
    result = compare_golden(trace, table1_fixture(), tolerance=TABLE_TOLERANCE)
    grid = golden_table(trace)
    spots = (
        grid[0] == [7.5, 5.0, 0.0]      # neuron 1
        and grid[12] == [5.0, 7.5, 7.5]  # neuron 13
        and grid[21] == [0.0, 0.0, 5.0]  # neuron 22
    )
    report(
        "criterion 1: golden table reproduced (75 values, tol 1e-9)",
        result.passed and result.max_abs_error == 0.0 and spots,
        f"max_abs_error={result.max_abs_error}",
    )


def test_criterion_2_centering_example():
    chain = WeightChain((5, 2, 2, 2, 10, 10))
    costs = [centering_cost(chain, pos) for pos in range(chain.num_positions)]
    ok = (
        costs[2] == 410          # N3
        and costs[4] == 140      # N5
        and costs == [4000, 805, 410, 220, 140, 410, 4000]
        and best_center(chain) == 4
    )
    report("criterion 2: centering costs 410/140 and argmin at N5", ok, f"costs={costs}")


def test_criterion_3_chain_firings():
    ok = chain_source_firings(WeightChain((2, 2))) == 4
    rng = random.Random(424242)
    agreements = 0
    trials = 120
    for _ in range(trials):
        weights = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 6)))
        chain = WeightChain(weights)
        if event_oracle(hops_from_weights(chain)) == chain_source_firings(chain):
            agreements += 1
    report(
        "criterion 3: [2,2] needs 4 firings; product rule == event oracle",
        ok and agreements == trials,
        f"agreement {agreements}/{trials} seeded chains",
    )


def test_criterion_4_counter_contract():
    ok = True
    for depth in range(1, 11):
        levels, final = run_counter(CounterSpec(depth=depth))
        ok &= list(levels) == list(range(1, depth + 1))
        ok &= final.phase is Phase.QUIESCENT and final.tick == depth + 2
        ok &= tick(final, CounterSpec(depth=depth)) == final
    report("criterion 4: counter emits d events at ticks 1..d, quiescent at d+2", ok)


def test_criterion_5_dynamics_property_suite():
    ensemble, schedule, steps, mode = standard_scenario()
    trace = run(ensemble, schedule, steps, mode)

    symmetric = True
    for t in range(1, steps + 1):
        for k in range(ensemble.num_patterns):
            pattern_strength(trace, k, t)  # members share one stored strength
    wave = all(
        min(t for t in range(1, steps + 1) if pattern_strength(trace, k, t) > 0)
        == schedule.activation_step[k]
        for k in range(ensemble.num_patterns)
    )

    free = build_linear(4, 3, 2.0, 0.0)
    free_schedule = Schedule.staggered(4, 2)
    free_trace = run(free, free_schedule, 9, MODE_SCHEDULED)
    closed_form = all(
        pattern_strength(free_trace, k, t)
        == 2.0 * 3 * max(0, t - free_schedule.activation_step[k] + 1)
        for k in range(4)
        for t in range(1, 10)
    )

    # Innermost immunity: its strength is exactly its own accumulated
    # excitation, so no inhibition ever reached it.
    innermost = ensemble.num_patterns - 1
    size = ensemble.patterns[innermost].size
    no_inhibition = True
    for t in range(1, steps + 1):
        own = ensemble.excitatory_unit * size * max(0, t - schedule.activation_step[innermost] + 1)
        no_inhibition &= pattern_strength(trace, innermost, t) == own

    non_negative = all(v >= 0 for row in trace.strength for v in row)
    final = [pattern_strength(trace, k, 5) for k in range(5)]
    unique_zero = final[0] == 0.0 and all(v > 0 for v in final[1:])

    report(
        "criterion 5: symmetry, activation wave, closed form, innermost immunity,"
        " non-negativity, unique shutdown",
        symmetric and wave and closed_form and no_inhibition and non_negative and unique_zero,
    )


def test_criterion_6_economics_properties():
    rng = random.Random(90210)  # drawn as the ``layout`` command draws
    inward_wins = 0
    trials = 50
    for _ in range(trials):
        radius = rng.uniform(0.5, 3.0)
        layout = random_mirrored_layout(
            rng,
            num_nodes=rng.randrange(2, 16),
            radius=radius,
            separation=rng.uniform(2.2 * radius, 10.0 * radius),
        )
        inward, outward = layout_distances(layout)
        inward_wins += inward < outward

    routes = RouteSet((Route(4.0), Route(2.5), Route(9.0), Route(3.5)))
    reinforced = stigmergy_reinforce(routes, 8, 1.0)
    by_length = sorted(range(4), key=lambda i: reinforced.routes[i].length)
    by_trace = sorted(
        range(4), key=lambda i: reinforced.routes[i].reinforcement, reverse=True
    )
    ordering = by_length == by_trace
    scaled = stigmergy_reinforce(routes, 8, 37.5)
    argmax_stable = most_reinforced(reinforced) == most_reinforced(scaled)

    report(
        "criterion 6: inward < outward in 50/50 layouts; reinforcement inverse to"
        " length with scale-stable argmax",
        inward_wins == trials and ordering and argmax_stable,
        f"inward wins {inward_wins}/{trials}",
    )


def test_criterion_7_determinism(tmp_path):
    scenario_path = tmp_path / "table1.scenario"
    from importlib import resources

    scenario_path.write_text(
        (resources.files("nestfire") / "data" / "table1.scenario").read_text()
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "nestfire",
                "simulate",
                "--scenario",
                str(scenario_path),
                "--out",
                str(out),
            ],
            capture_output=True,
        )
        assert result.returncode == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    verify = subprocess.run(
        [sys.executable, "-m", "nestfire", "verify-table1"], capture_output=True
    )
    report(
        "criterion 7: byte-identical traces across runs; verify-table1 exits 0",
        identical and verify.returncode == 0,
        f"verify rc={verify.returncode}",
    )
