#!/usr/bin/env bash
# Runs every command but `layout` in a venv without numpy, and `layout`
# for its one error line. Usage: .github/scripts/without-numpy.sh DIR
# DIR takes the venv and the files the commands write.
set -e
mkdir -p "$1"
dir=$(cd "$1" && pwd)
cd "$(dirname "$0")/../.."
# A venv without pip sees none of the installed packages, numpy included.
python -m venv --without-pip "$dir/nonumpy"
export PYTHONPATH=src
"$dir/nonumpy/bin/python" -c "import numpy" 2>/dev/null && exit 1
"$dir/nonumpy/bin/python" -m nestfire --version
"$dir/nonumpy/bin/python" -m nestfire --help
"$dir/nonumpy/bin/python" -m nestfire verify-table1
"$dir/nonumpy/bin/python" -m nestfire simulate --scenario src/nestfire/data/table1.scenario --out "$dir/nonumpy-trace.csv"
# A free run in which the firing patterns move inward, so that on
# some steps the firing list is no prefix of the last step's and the
# kernel sums its inhibition anew.
"$dir/nonumpy/bin/python" - > "$dir/nonumpy-free.scenario" <<'EOF'
import json

ensemble = {"depth": 200, "pattern_size": 2, "excitatory_unit": 1.0,
            "inhibitory_weight": 0.3, "nesting": "linear"}
print(json.dumps({"ensemble": ensemble, "schedule": {"type": "staggered", "interval": 1},
                  "steps": 400, "mode": "free_run"}))
EOF
"$dir/nonumpy/bin/python" -m nestfire simulate --scenario "$dir/nonumpy-free.scenario" --out "$dir/nonumpy-free.csv"
# Both traces read back, without numpy, to the same text.
"$dir/nonumpy/bin/python" - "$dir/nonumpy-trace.csv" "$dir/nonumpy-free.csv" <<'EOF'
import sys
from nestfire import read_trace, write_trace

for path in sys.argv[1:]:
    with open(path) as trace:
        text = trace.read()
    assert write_trace(read_trace(text)) == text
assert "numpy" not in sys.modules
EOF
"$dir/nonumpy/bin/python" -m nestfire counter --depth 3
"$dir/nonumpy/bin/python" -m nestfire chain --hops 2,2
"$dir/nonumpy/bin/python" -m nestfire center --weights 5,2,2
# layout needs numpy: one error line and exit 2, no traceback.
status=0
"$dir/nonumpy/bin/python" -m nestfire layout --trials 2 2> "$dir/nonumpy-layout.err" || status=$?
test "$status" -eq 2
test "$(cat "$dir/nonumpy-layout.err")" = "nestfire: error: layout needs numpy, which is not installed"
# A usage error: one error line and exit 2.
status=0
"$dir/nonumpy/bin/python" -m nestfire counter 2> "$dir/nonumpy-usage.err" || status=$?
test "$status" -eq 2
test "$(cat "$dir/nonumpy-usage.err")" = "nestfire: error: counter requires --depth"
# A depth-8000 chain firing all at once: the kernel's memory stays
# linear in the depth, so one step fits in 200 MB of address space.
"$dir/nonumpy/bin/python" - > "$dir/nonumpy-deep.scenario" <<'EOF'
import json

ensemble = {"depth": 8000, "pattern_size": 1, "excitatory_unit": 1.0,
            "inhibitory_weight": 0.5, "nesting": "linear"}
schedule = {"type": "explicit", "steps": [1] * 8000}
print(json.dumps({"ensemble": ensemble, "schedule": schedule, "steps": 1,
                  "mode": "scheduled"}))
EOF
(ulimit -v 200000 && "$dir/nonumpy/bin/python" -m nestfire simulate --scenario "$dir/nonumpy-deep.scenario" --out /dev/null)
# One pattern of 2 000 000 neurons for 2 steps: the trace streams in
# writes of a few thousand rows, so 4 000 000 rows fit in 100 MB of
# address space (about 20 MB suffice; a label string per neuron
# needs more than 275 MB).
"$dir/nonumpy/bin/python" - > "$dir/nonumpy-wide.scenario" <<'EOF'
import json

ensemble = {"depth": 1, "pattern_size": 2000000, "excitatory_unit": 1.0,
            "inhibitory_weight": 0.5, "nesting": "linear"}
print(json.dumps({"ensemble": ensemble, "schedule": {"type": "staggered", "interval": 1},
                  "steps": 2, "mode": "scheduled"}))
EOF
(ulimit -v 100000 && "$dir/nonumpy/bin/python" -m nestfire simulate --scenario "$dir/nonumpy-wide.scenario" --out /dev/null)
# A counter of depth 1 000 000: its counts are a range of levels, printed
# one line at a time, so they too fit in 100 MB of address space.
(ulimit -v 100000 && "$dir/nonumpy/bin/python" -m nestfire counter --depth 1000000 > /dev/null)
# The README's quick start.
"$dir/nonumpy/bin/python" - <<'EOF'
import sys
from nestfire import Schedule, build_linear, pattern_strength, run

ensemble = build_linear(depth=5, size=5, excitatory_unit=1.0, inhibitory_weight=0.5)
trace = run(ensemble, Schedule.staggered(5), steps=5)
assert pattern_strength(trace, pattern=0, t=5) == 0.0
assert pattern_strength(trace, pattern=4, t=5) == 5.0
assert "numpy" not in sys.modules
EOF
