"""nestfire: a deterministic simulator of nested neural pattern ensembles.

The package models groups of neurons ("patterns") nested inside one
another. Excitation circulates inside a pattern; inhibition flows from a
firing pattern to every pattern enclosing it. From those two rules it
builds:

* ``topology`` -- the nesting structure and its connectivity queries;
* ``dynamics`` -- the discrete-time firing simulation, one strength per
  pattern, with a golden-table extraction against the reference table;
* ``counter`` -- a timer/counter/battery over a nested chain, in closed form,
  its counts a ``range`` of levels;
* ``energy`` -- signal attenuation, capacitor-style multi-hop firing
  arithmetic, the multiplicative centering cost, and the inward-vs-outward
  layout economics with stigmergic reinforcement;
* ``scenario`` -- declarative scenario files and CSV trace writing;
* ``readback`` -- reading traces back, and golden comparison;
* ``cli`` -- the ``nestfire`` command.

Everything is pure-functional over immutable values; identical inputs give
byte-identical outputs.

Modules load on first use: ``import nestfire`` imports none of them, and a
public name such as ``nestfire.CounterSpec`` imports only the modules
searched to find it: ``errors``, ``topology``, ``counter`` and ``energy``
first, then ``dynamics``, ``scenario`` and ``readback``. Asking for
``__all__`` (or ``from nestfire import *``) loads them all. None of them
imports numpy as it loads: ``energy``, ``dynamics`` and ``readback`` import
it only inside the functions that build arrays (layouts, a trace's arrays,
``SimState`` and the public golden grids). A trace holds one strength per
pattern per step and its neurons as blocks, so ``run``,
``pattern_strength``, ``first_zero_step``, ``write_trace``, ``read_trace``
and ``compare_golden`` never load it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Searched in this order for a public name; one found early loads none after it.
_MODULES = ("errors", "topology", "counter", "energy", "dynamics", "scenario", "readback")


def __getattr__(name: str):
    if name == "__all__":
        value = ["__version__", *(n for m in _MODULES for n in _submodule(m).__all__)]
    elif name in _MODULES or name == "cli":
        value = _submodule(name)
    else:
        # No public name starts with "_", so probes for dunders load nothing.
        owners = () if name.startswith("_") else map(_submodule, _MODULES)
        owner = next((m for m in owners if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})


def _submodule(name: str):
    return import_module(f".{name}", __name__)
