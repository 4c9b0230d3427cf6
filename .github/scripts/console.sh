#!/usr/bin/env bash
# Runs every command the way a user would, with COMMAND... in place of
# `nestfire`: `console.sh nestfire` or `console.sh python -m nestfire`.
# Run it where `src/` is the repo's source tree; it writes trace.csv and
# full.err there.
# Usage: .github/scripts/console.sh COMMAND...
set -eo pipefail
"$@" --version
"$@" verify-table1
"$@" simulate --scenario src/nestfire/data/table1.scenario --out trace.csv
"$@" simulate --scenario src/nestfire/data/table1.scenario | head -n 2
"$@" counter --depth 3
"$@" chain --hops 2,2
"$@" center --weights 5,2,2
"$@" layout --trials 2
# A full stdout is one error line and exit 2, with nothing more at shutdown.
code=0; "$@" --version >/dev/full 2>full.err || code=$?
test "$code" -eq 2
test "$(wc -l <full.err)" -eq 1
# Scenario and fixture files are read as UTF-8 whatever the locale.
export PYTHONCOERCECLOCALE=0 LC_ALL=C PYTHONUTF8=0
"$@" verify-table1
"$@" simulate --scenario src/nestfire/data/table1.scenario | cmp - trace.csv
