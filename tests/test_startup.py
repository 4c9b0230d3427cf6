"""Start-up loads only what a command uses.

``import nestfire`` binds names on first access, and ``nestfire.cli`` imports
each other module only when a command calls into it. Nothing imports
numpy: a trace's views and golden grids are lists of floats, and ``layout``
draws its layouts as float pairs from ``random.Random``, so every command,
``read_trace``, a golden grid and a trace's views run where numpy is not
installed, and ``pyproject.toml`` names no runtime dependency. Each module's
syntax tree has no ``import numpy`` anywhere, so the paths no command runs
need no numpy either. ``simulate`` writes a trace and never loads
``readback``, the module that reads one back; ``json`` loads only to parse
or write a scenario, so
``verify-table1`` never loads it. No value class is a dataclass, so no
command loads ``dataclasses`` or ``inspect`` either. The named tuples come
from ``collections``, so no command loads ``typing``; ``verify-table1`` reads
its fixture through the package's own loader and cuts lines without a
regex, so it loads neither ``importlib.resources`` nor ``re``. ``cli`` parses
its arguments from a table, so no command loads ``argparse`` or ``gettext``.
Each check that a module stays out runs in a fresh interpreter, since this
one has long imported it; the site hooks of some hosts load ``typing`` and
more, so the checks run with ``-S`` too. So do the checks that the process
entry freezes the start-up heap and that ``cli.dispatch``, which in-process
callers use, does not.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import nestfire
from test_public_api import MODULES, PUBLIC_NAMES

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIO = SRC / "nestfire" / "data" / "table1.scenario"

# Runs ``python -m nestfire ARGS`` through runpy, then reports on stderr which
# of the comma-separated modules of its first argument were loaded, and the
# exit code.
RUN_MODULE = """
import runpy, sys
watched = sys.argv.pop(1).split(",")
sys.argv[0] = "nestfire"
code = 0
try:
    runpy.run_module("nestfire", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(f"loaded={[m for m in watched if m in sys.modules]} exit={code}", file=sys.stderr)
"""

# What no command runs: ``cli`` parses its arguments from a table of its own.
NOT_PARSING = ["argparse", "gettext"]
# What none of ``--version``, ``simulate`` and ``verify-table1`` runs.
# Without the site hooks (``-S``), which on some hosts preload them, also
# ``typing``, ``importlib.resources``, ``pathlib``, and argparse's ``locale``
# and ``textwrap``.
NOT_RUN = NOT_PARSING + ["dataclasses", "inspect", "nestfire.counter", "nestfire.energy", "numpy"]
NOT_RUN_WITHOUT_SITE = NOT_RUN + ["importlib.resources", "locale", "pathlib", "textwrap", "typing"]
# And per command: ``--version`` and ``simulate`` read no trace back, so they
# load no ``readback``; ``verify-table1`` reads its fixture through the
# package's own loader and cuts lines without a regex, so it loads no
# ``zipfile``, ``re`` or ``enum``.
NOT_RUN_BY = {
    "version": ["nestfire.readback"],
    "simulate-out": ["nestfire.readback"],
    "simulate-stdout": ["nestfire.readback"],
    "verify-table1": ["enum", "re", "zipfile"],
}
# Each command with the site hooks and without; ``verify-table1`` only
# without, since the site hooks may load every module it watches.
LOADS = [
    (command, site)
    for command in ["version", "simulate-out", "simulate-stdout"]
    for site in ["site", "no-site"]
] + [("verify-table1", "no-site")]


def child(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "args",
    [
        ["--version"],
        ["counter", "--depth", "3"],
        ["chain", "--hops", "2,2"],
        ["center", "--weights", "5,2,2,2,10,10"],
        ["verify-table1"],
        ["layout", "--trials", "2"],
    ],
    ids=lambda args: args[0],
)
def test_command_loads_no_numpy(args):
    # Nor argparse, nor the dataclasses and inspect that numpy may load.
    watched = ["numpy", *NOT_PARSING, "dataclasses", "inspect"]
    result = child(RUN_MODULE, ",".join(watched), *args)
    assert result.stderr.splitlines()[-1] == "loaded=[] exit=0"
    assert result.stdout


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_simulate_loads_no_numpy(tmp_path, to_file):
    out = tmp_path / "trace.csv"
    args = ["simulate", "--scenario", str(SCENARIO)] + (["--out", str(out)] if to_file else [])
    result = child(RUN_MODULE, "numpy", *args)
    assert result.stderr.splitlines()[-1] == "loaded=[] exit=0"
    trace = out.read_text() if to_file else result.stdout
    assert trace.startswith("step,neuron,pattern,strength\n1,1,1,5.0\n")
    assert len(trace.splitlines()) == 1 + 5 * 25


@pytest.mark.parametrize("command, site", LOADS, ids=map("-".join, LOADS))
def test_version_and_simulate_load_only_what_they_run(tmp_path, command, site):
    args = {
        "version": ["--version"],
        "simulate-out": ["simulate", "--scenario", str(SCENARIO), "--out", str(tmp_path / "t.csv")],
        "simulate-stdout": ["simulate", "--scenario", str(SCENARIO)],
        "verify-table1": ["verify-table1"],
    }[command]
    flags = ("-S",) if site == "no-site" else ()
    watched = (NOT_RUN_WITHOUT_SITE if flags else NOT_RUN) + NOT_RUN_BY[command]
    result = child(RUN_MODULE, ",".join(watched), *args, flags=flags)
    assert result.stderr.splitlines()[-1] == "loaded=[] exit=0"
    assert result.stdout or command == "simulate-out"


def test_import_scenario_loads_no_json():
    result = child("import sys, nestfire.scenario; print('json' in sys.modules)")
    assert result.stdout == "False\n", result.stderr


@pytest.mark.parametrize(
    "args, loaded",
    [(["verify-table1"], []), (["simulate", "--scenario", str(SCENARIO)], ["json"])],
    ids=["verify-table1", "simulate"],
)
def test_json_loads_only_to_parse_a_scenario(args, loaded):
    result = child(RUN_MODULE, "json", *args)
    assert result.stderr.splitlines()[-1] == f"loaded={loaded} exit=0"


def test_layout_runs_without_numpy():
    # A None entry in sys.modules makes ``import numpy`` fail as if it were not installed.
    code = 'import sys; sys.modules["numpy"] = None\n' + RUN_MODULE
    result = child(code, "nestfire.energy", "layout", "--trials", "50", "--seed", "7")
    assert result.stderr == "loaded=['nestfire.energy'] exit=0\n"
    assert result.stdout == "seed=7 trials=50\npass=50 fail=0\n"


def test_run_and_streamed_write_load_no_numpy():
    result = child(
        "import io, sys\n"
        "from nestfire import Schedule, build_linear, first_zero_step, pattern_strength, run,"
        " write_trace\n"
        "out = io.StringIO()\n"
        "trace = run(build_linear(3, 2, 1.0, 1 / 3), Schedule((2, 1, 3)), 6, 'free_run')\n"
        "write_trace(trace, out)\n"
        "print(len(out.getvalue().splitlines()), 'numpy' in sys.modules)\n"
        # The README example, and the other per-pattern reader.
        "trace = run(build_linear(5, 5, 1.0, 0.5), Schedule.staggered(5), 5)\n"
        "print(pattern_strength(trace, 0, 5), pattern_strength(trace, 4, 5),"
        " [first_zero_step(trace, k) for k in range(5)], 'numpy' in sys.modules)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "37 False\n0.0 5.0 [5, None, None, None, None] False\n"


def test_trace_views_need_no_numpy():
    # A None entry in sys.modules makes ``import numpy`` fail as if it were not installed.
    result = child(
        "import sys; sys.modules['numpy'] = None\n"
        "from nestfire import TraceTable, read_trace, run, standard_scenario, write_trace\n"
        "trace = run(*standard_scenario())\n"
        "print(trace.strength[-1], trace.pattern_of[::5])\n"
        "table = TraceTable([[1.0, 2.5], [0.0, -0.0]], [0, 1, 1])\n"
        "back = read_trace(write_trace(table))\n"
        "print(back.strength, back.pattern_of, write_trace(back) == write_trace(table))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[0.0, 5.0, 7.5, 7.5, 5.0] [0, 1, 2, 3, 4]",
        "[[1.0, 2.5], [0.0, -0.0]] [0, 1, 1] True",
    ]


def test_package_has_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(need.startswith("numpy") for need in project["optional-dependencies"]["test"])


def numpy_imports(source: str) -> list[int]:
    """The lines of ``source`` that import numpy or a submodule of it, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_numpy():
    nested = (
        "import numpyish, os\nfrom .numpy import x\n"
        "def f():\n    if x:\n        import os, numpy.linalg as la\n"
        "    class C:\n        from numpy import array\n"
    )
    assert numpy_imports(nested) == [5, 7]
    sources = {path.stem: path.read_text() for path in (SRC / "nestfire").glob("*.py")}
    assert {*MODULES, "cli", "__init__", "__main__"} <= set(sources)
    found = {name: numpy_imports(text) for name, text in sources.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_verify_table1_and_read_trace_load_no_numpy():
    result = child(
        "import contextlib, io, sys\n"
        "from nestfire import cli, read_trace, run, standard_scenario, write_trace\n"
        "from nestfire import golden_table, read_golden_fixture, table1_fixture\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.dispatch(['verify-table1'])\n"
        "text = write_trace(run(*standard_scenario()))\n"
        "print(out.getvalue().strip(), code, write_trace(read_trace(text)) == text)\n"
        "fixture = read_golden_fixture('neuron,t3,t4,t5\\n1,7.5,5.0,0.0\\n')\n"
        "print(golden_table(read_trace(text)) == table1_fixture(), fixture == [[7.5, 5.0, 0.0]])\n"
        "print(sorted(m for m in sys.modules if m.startswith(('nestfire.readback', 'numpy'))))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "pass max_abs_error=0 0 True",
        "True True",
        "['nestfire.readback']",
    ]


def test_verify_table1_runs_from_a_zip(tmp_path):
    # The fixture is read through the package's own loader, which reads a zip too.
    archive = tmp_path / "nestfire.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted((SRC / "nestfire").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zipped.write(path, path.relative_to(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", RUN_MODULE, "nestfire.readback", "verify-table1"],
        env=dict(os.environ, PYTHONPATH=str(archive)),
        capture_output=True,
        text=True,
    )
    assert (result.stdout, result.stderr) == (
        "pass max_abs_error=0\n",
        "loaded=['nestfire.readback'] exit=0\n",
    )


def test_import_and_numpy_free_names_load_no_numpy():
    result = child(
        "import sys, nestfire\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith(('nestfire.', 'numpy')))\n"
        "print(loaded())\n"
        "nestfire.CounterSpec\n"
        "print(loaded())\n"
        "nestfire.event_oracle, nestfire.ValidationError\n"
        "print(loaded())\n"
        "from nestfire import cli\n"
        "print(loaded())\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]",
        "['nestfire.counter', 'nestfire.errors', 'nestfire.topology']",
        "['nestfire.counter', 'nestfire.energy', 'nestfire.errors', 'nestfire.topology']",
        "['nestfire.cli', 'nestfire.counter', 'nestfire.energy', 'nestfire.errors',"
        " 'nestfire.topology']",
    ]


def test_unknown_names_are_missing():
    assert not hasattr(nestfire, "no_such_name")
    assert not hasattr(nestfire, "_no_such_name")
    # The old one-step driver and its state type are gone; ``run`` takes the drive.
    for name in ("SimState", "initial_state", "step", "with_drive"):
        assert not hasattr(nestfire, name) and name not in nestfire.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        nestfire.no_such_name


def test_dir_lists_every_public_name():
    # In a fresh interpreter: here, star imports have long bound every name.
    result = child("import nestfire; print(*dir(nestfire))")
    assert result.returncode == 0, result.stderr
    assert set(PUBLIC_NAMES) <= set(result.stdout.split())


def test_submodules_resolve_by_name():
    # In a fresh interpreter, where no submodule is bound yet.
    result = child(
        "import importlib, sys, nestfire\n"
        "for name in sys.argv[1:]:\n"
        "    print(getattr(nestfire, name) is importlib.import_module(f'nestfire.{name}'))\n",
        "cli",
        *MODULES,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True"] * (1 + len(MODULES))


def test_each_name_is_its_modules_own():
    for name in MODULES:
        module = importlib.import_module(f"nestfire.{name}")
        for public in module.__all__:
            assert getattr(nestfire, public) is getattr(module, public), public


# Starts nestfire the way its first argument names, ``module`` (``python -m
# nestfire``) or a ``package.module:function`` console-script target, and
# reports from an atexit hook, which runs after ``main`` returns, whether more
# objects were frozen out of the collector's reach than before nestfire was
# imported. Some interpreters (3.12.1) start with objects frozen already.
FROZEN_AT_EXIT = """
import atexit, gc, importlib, runpy, sys
before = gc.get_freeze_count()
atexit.register(lambda: print(f"frozen={gc.get_freeze_count() > before}", file=sys.stderr))
entry = sys.argv.pop(1)
sys.argv[0] = "nestfire"
if entry == "module":
    runpy.run_module("nestfire", run_name="__main__", alter_sys=True)
module, _, name = entry.partition(":")
sys.exit(getattr(importlib.import_module(module), name)())
"""


@pytest.mark.parametrize("entry", ["module", "script"])
def test_process_entry_freezes_the_start_up_heap(entry):
    if entry == "script":
        scripts = (SRC.parent / "pyproject.toml").read_text().split("[project.scripts]")[1]
        entry = re.search(r'^nestfire = "(.+)"$', scripts, re.MULTILINE).group(1)
    result = child(FROZEN_AT_EXIT, entry, "--version")
    assert result.returncode == 0
    assert (result.stdout, result.stderr) == (f"nestfire {nestfire.__version__}\n", "frozen=True\n")


def test_dispatch_leaves_the_heap_to_its_caller():
    # The count the interpreter starts with, which is not 0 on all of them.
    result = child(
        "import gc\n"
        "before = gc.get_freeze_count()\n"
        "from nestfire import cli\n"
        "code = cli.dispatch(['--version'])\n"
        "print(code, gc.get_freeze_count() - before, gc.isenabled())\n"
    )
    assert result.stdout == f"nestfire {nestfire.__version__}\n0 0 True\n", result.stderr
