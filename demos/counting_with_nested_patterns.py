#!/usr/bin/env python3
"""Use a nested chain as a timer, counter, or battery.

An on-switch starts the outermost pattern; activation cascades inward one
level per tick, and each level fires one count signal outward as it wakes.
The innermost level tells the off-switch to act, the off-switch inhibits
the on-switch, and the structure goes quiet: a general energy supply has
been converted into exactly d scheduled signals.
"""

from nestfire import CounterSpec, Phase, run_counter, start, tick

print("= Tick-by-tick lifecycle, depth 3 =\n")
spec = CounterSpec(depth=3)
state = start(spec)
print(f"tick {state.tick}: {state.phase.value}")
while state.phase is not Phase.QUIESCENT:
    state = tick(state, spec)
    # A level counts on the tick it activates: the one it cascades at.
    counted = f" -> count level={state.level}" if state.phase is Phase.CASCADING else ""
    print(f"tick {state.tick}: {state.phase.value}{counted}")

print("\nThe cascade emitted one count per nesting level, then shut itself")
print("off two ticks later. No external controller decided when to stop.\n")

print("= The same contract at other depths =\n")
for depth in (1, 4, 10):
    levels, final = run_counter(CounterSpec(depth=depth))
    ticks = ", ".join(map(str, levels))  # level k counts at tick k
    print(f"depth {depth:>2}: {len(levels):>2} counts at ticks [{ticks}],"
          f" quiescent at tick {final.tick}")

print("\nA depth-d chain always yields d counts and d+2 total ticks, so")
print("chains double as fixed-duration batteries: attach a consumer to the")
print("per-level signals and it receives energy for exactly d ticks.")
