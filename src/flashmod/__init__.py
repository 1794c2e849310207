"""Flash-memory modulation codes and their balls-into-bins analytics.

The package stores k-bit values in groups of q-level cells whose charge
can only be raised between block erasures.  Two rewriting codes are
provided: a self-randomized code that spreads writes uniformly, and a
load-balancing code that picks the less charged of two candidate cells
per write.  The ballsbins module holds the random-loading oracles and
analytic predictions the codes are measured against, and sim drives full
erasure-cycle experiments.

The codes are integer arithmetic (sums mod n, an affine map over
GF(2^m)) and import with core, field and codes alone.  ballsbins and sim
draw their randomness from NumPy, whose import costs several times more
than the rest of the package, so they load on first use: reading either
module or any name in its ``__all__`` from this package imports it.
"""

from importlib import import_module

from . import codes, core, field
from .codes import *
from .core import *
from .field import *

__version__ = "0.1.0"

_LAZY = ("ballsbins", "sim")


def _load(name):
    """Import the lazy module name and bind its public names here."""
    module = import_module(f"{__name__}.{name}")
    globals().update({n: getattr(module, n) for n in module.__all__})
    return module


def __getattr__(name):
    if name in _LAZY:
        return _load(name)
    modules = (core, field, codes, *map(_load, _LAZY))
    globals()["__all__"] = [n for module in modules for n in module.__all__]
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    __getattr__("__all__")  # binds every lazy module and name
    return sorted(globals())
