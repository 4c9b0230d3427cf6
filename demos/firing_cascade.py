#!/usr/bin/env python3
"""Walk through the nested-ensemble firing cascade.

Five patterns of five neurons sit one inside another. Each step, every
firing neuron hands one excitatory unit to its whole pattern, and every
firing pattern pushes half-weight inhibition onto all patterns enclosing
it. Activation is staggered outermost-first, so the outer patterns build
strength early and are then squeezed back to zero by the accumulating
inhibition from inside: the activity wave travels inward. Last, the
external drive is switched off and the inhibitors shut the area down.
"""

from nestfire import (
    MODE_FREE_RUN,
    Schedule,
    build_linear,
    compare_golden,
    first_zero_step,
    pattern_strength,
    run,
    table1_fixture,
)

ensemble = build_linear(depth=5, size=5, excitatory_unit=1.0, inhibitory_weight=0.5)
schedule = Schedule.staggered(ensemble.num_patterns)

print("= Scheduled run: one new pattern per step =\n")
trace = run(ensemble, schedule, steps=5)

header = "pattern " + "".join(f"t={t:<6}" for t in range(1, 6))
print(header)
for k in range(ensemble.num_patterns):
    row = "".join(f"{pattern_strength(trace, k, t):<7.1f}" for t in range(1, 6))
    print(f"{k + 1:>7} {row}")

print()
print("Forces at work, visible above:")
print(" * a freshly activated pattern starts at 5.0 (self-excitation only)")
print(" * one firing descendant cancels growth, two shrink it")
print(f" * the outermost pattern hits zero at t={first_zero_step(trace, 0)},"
      " while everything else is still positive")

report = compare_golden(trace, table1_fixture())
print(f"\nGolden check against the shipped fixture: "
      f"{'pass' if report.passed else 'fail'} (max abs error {report.max_abs_error})")

print("\n= Free run past the table: starvation winds the cascade down =\n")
free = run(ensemble, schedule, steps=12, mode=MODE_FREE_RUN)
for t in range(5, 13):
    strengths = [pattern_strength(free, k, t) for k in range(5)]
    print(f"t={t:<3} strengths " + " ".join(f"{s:6.1f}" for s in strengths))

print("""
Once the outermost pattern is inhibited to zero it stops firing, which
removes the gate for its child on the next step, and so on inward. After
the innermost level loses its feed the whole region is quiescent; the
residual strengths simply stop changing.""")

print("\n= Drive off after step 5: the inhibitors switch the area off =\n")
# Quarter-weight inhibition: with the drive on, the outermost pattern
# settles at 12.5 and the cascade never stops.
light = build_linear(depth=5, size=5, excitatory_unit=1.0, inhibitory_weight=0.25)
driven = run(light, schedule, steps=12, mode=MODE_FREE_RUN)
off = run(light, schedule, steps=12, mode=MODE_FREE_RUN, drive=5)
print("        drive on                            drive off after t=5")
last = None
for t in range(5, 13):
    on, off_row = ([pattern_strength(trace, k, t) for k in range(5)] for trace in (driven, off))
    cells = "   ".join(" ".join(f"{s:6.2f}" for s in row) for row in (on, off_row))
    print(f"t={t:<3} {cells}" + ("   nothing fires" if off_row == last else ""))
    last = off_row

print("""
Without the drive the root stops firing at t=6, and each level inside
loses its gate one step after its parent, so the firing stops inward.
Meanwhile the inner patterns still firing inhibit the outer ones, which
no longer gain: the outermost falls to zero at t=9. From t=10 no pattern
fires, and every strength stays where it is.""")
