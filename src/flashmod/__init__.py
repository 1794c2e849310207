"""Flash-memory modulation codes and their balls-into-bins analytics.

The package stores k-bit values in groups of q-level cells whose charge
can only be raised between block erasures.  Two rewriting codes are
provided: a self-randomized code that spreads writes uniformly, and a
load-balancing code that picks the less charged of two candidate cells
per write.  The ballsbins module holds the random-loading oracles and
analytic predictions the codes are measured against, and sim drives full
erasure-cycle experiments.
"""

from . import ballsbins, codes, core, field, sim
from .ballsbins import *
from .codes import *
from .core import *
from .field import *
from .sim import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *field.__all__, *codes.__all__, *ballsbins.__all__, *sim.__all__]
