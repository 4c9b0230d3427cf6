"""nestfire: a deterministic simulator of nested neural pattern ensembles.

The package models groups of neurons ("patterns") nested inside one
another. Excitation circulates inside a pattern; inhibition flows from a
firing pattern to every pattern enclosing it. From those two rules it
builds:

* ``topology`` -- the nesting structure and its connectivity queries;
* ``dynamics`` -- the discrete-time firing simulation, one strength per
  pattern, with a golden-table extraction against the reference table;
* ``counter`` -- a timer/counter/battery over a nested chain, in closed form;
* ``energy`` -- signal attenuation, capacitor-style multi-hop firing
  arithmetic, the multiplicative centering cost, and the inward-vs-outward
  layout economics with stigmergic reinforcement;
* ``scenario`` -- declarative scenario files, CSV traces, and golden
  comparison;
* ``cli`` -- the ``nestfire`` command.

Everything is pure-functional over immutable values; identical inputs give
byte-identical outputs.
"""

from . import counter, dynamics, energy, errors, scenario, topology
from .counter import *
from .dynamics import *
from .energy import *
from .errors import *
from .scenario import *
from .topology import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *topology.__all__,
    *dynamics.__all__,
    *counter.__all__,
    *energy.__all__,
    *scenario.__all__,
    *errors.__all__,
]
