#!/usr/bin/env bash
# Runs CI's checks on each installed interpreter that can run them, with no
# network: console.sh as `python -m nestfire`, a byte comparison of the
# table1 trace with 3.11's, and the test modules that need no numpy. Then it
# reports, per interpreter, what ran, what passed and what could not start,
# and names the test modules it left out.
# Usage: .github/scripts/matrix-local.sh DIR [PYTHON...]
# DIR takes a log and the files the checks write, per interpreter. The
# interpreters default to pyenv's 3.10 to 3.13. pytest and hypothesis come
# from the interpreter that TEST_PYTHON names (default python3): they and
# their pure-Python dependencies are copied into DIR/test-deps, which alone
# goes on PYTHONPATH. A whole site-packages would bring its .pth files.
set -u
mkdir -p "$1"
dir=$(cd "$1" && pwd)
shift
cd "$(dirname "$0")/../.."
repo=$(pwd)
if [ $# -eq 0 ]; then
    set -- "${PYENV_ROOT:-$HOME/.pyenv}"/versions/3.1[0-3]*/bin/python
fi

deps="$dir/test-deps"
rm -rf "$deps" && mkdir -p "$deps"
"${TEST_PYTHON:-python3}" - "$deps" <<'EOF' || echo "pytest and hypothesis could not be copied"
import glob, importlib, os, shutil, sys

top = ["_pytest", "pytest", "py", "pluggy", "iniconfig", "packaging", "attr", "attrs",
       "sortedcontainers", "pygments", "hypothesis", "_hypothesis_ftz_detector",
       "_hypothesis_globals", "_hypothesis_pytestplugin"]
dists = ["pytest", "pluggy", "iniconfig", "packaging", "attrs", "sortedcontainers",
         "pygments", "hypothesis"]
ignore = shutil.ignore_patterns("__pycache__")
for name in top:
    path = importlib.import_module(name).__file__
    if os.path.basename(path) == "__init__.py":
        path = os.path.dirname(path)
        shutil.copytree(path, os.path.join(sys.argv[1], os.path.basename(path)), ignore=ignore)
    else:
        shutil.copy(path, sys.argv[1])
site = os.path.dirname(os.path.dirname(importlib.import_module("pytest").__file__))
for name in dists:  # their metadata, and entry points such as hypothesis's pytest plugin
    for info in glob.glob(os.path.join(site, f"{name}-*.dist-info")):
        shutil.copytree(info, os.path.join(sys.argv[1], os.path.basename(info)), ignore=ignore)
EOF

# The test modules that import no numpy, and the ones left out because they do.
modules=$(grep -L -E '^(import|from) numpy' tests/test_*.py)
left_out=$(grep -l -E '^(import|from) numpy' tests/test_*.py | xargs -r -n 1 basename)

report=()
reference=
for py in "$@"; do
    version=$("$py" -c 'import sys; print("%d.%d.%d" % sys.version_info[:3])' 2>/dev/null) || {
        report+=("$py: could not start")
        continue
    }
    out="$dir/$version"
    rm -rf "$out" && mkdir -p "$out"
    ln -s "$repo/src" "$out/src"
    log="$out/log"
    line="$version:"

    if (cd "$out" && PYTHONPATH=src "$repo/.github/scripts/console.sh" "$py" -m nestfire) \
        >>"$log" 2>&1; then
        line+=" console passed;"
    else
        line+=" console FAILED;"
    fi

    if [ -f "$out/trace.csv" ]; then
        line+=" table1 trace md5 $(md5sum <"$out/trace.csv" | cut -c1-32) TRACE;"
        case $version in 3.11.*) [ -n "$reference" ] || reference="$out/trace.csv" ;; esac
    else
        line+=" no table1 trace;"
    fi

    if ! PYTHONPATH="$deps" "$py" -c "import pytest, hypothesis" >>"$log" 2>&1; then
        line+=" tests could not start ($(tail -n 1 "$log"))"
    else
        PYTHONPATH="src:$deps" "$py" -m pytest -q -p no:cacheprovider \
            --continue-on-collection-errors $modules >"$out/tests.log" 2>&1
        line+=" tests: $(tail -n 1 "$out/tests.log")"
    fi
    report+=("$line")
done

# The byte comparison, once 3.11's trace is known.
status=0
for line in "${report[@]}"; do
    version=${line%%:*}
    if [[ $line == *TRACE* ]]; then
        if [ -z "$reference" ]; then
            verdict="no 3.11 trace to compare"
        elif cmp -s "$reference" "$dir/$version/trace.csv"; then
            verdict="same as 3.11's"
        else
            verdict="DIFFERS from 3.11's"
        fi
        line=${line/ TRACE;/ ($verdict);}
    fi
    [[ $line == *FAILED* || $line == *DIFFERS* || $line == *" failed"* || $line == *" error"* ]] && status=1
    echo "$line"
done
echo "tests left out, since they import numpy:" $left_out
echo "logs: $dir/<version>/log and tests.log"
exit $status
