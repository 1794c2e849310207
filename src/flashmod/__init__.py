"""Flash-memory modulation codes and their balls-into-bins analytics.

The package stores k-bit values in groups of q-level cells whose charge
can only be raised between block erasures.  Two rewriting codes are
provided: a self-randomized code that spreads writes uniformly, and a
load-balancing code that picks the less charged of two candidate cells
per write.  The ballsbins module holds the random-loading oracles and
analytic predictions the codes are measured against, and sim drives full
erasure-cycle experiments.
"""

from .ballsbins import (
    LoadRegime,
    RegimePrediction,
    balls_until_overflow,
    collision_bound,
    lambert_w0,
    max_load_prediction,
    solve_dc,
    throw_balls,
)
from .codes import LoadBalancingCode, SelfRandomizedCode, make_code
from .core import (
    ERASE_REQUIRED,
    NOOP,
    CellState,
    CodeKind,
    CodeParams,
    WriteKind,
    WriteOutcome,
    cell_increment,
    written,
)
from .field import DEFAULT_POLYS, FieldSpec, gf_add, gf_inv, gf_mul
from .sim import (
    CycleStats,
    DistributionSpec,
    ExperimentStats,
    cycle_rng,
    gamma_upper_bounds,
    min_of_n_expectation,
    run_cycle,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CodeKind",
    "CodeParams",
    "CellState",
    "WriteKind",
    "WriteOutcome",
    "NOOP",
    "ERASE_REQUIRED",
    "written",
    "cell_increment",
    "FieldSpec",
    "DEFAULT_POLYS",
    "gf_add",
    "gf_mul",
    "gf_inv",
    "SelfRandomizedCode",
    "LoadBalancingCode",
    "make_code",
    "LoadRegime",
    "RegimePrediction",
    "throw_balls",
    "balls_until_overflow",
    "collision_bound",
    "max_load_prediction",
    "solve_dc",
    "lambert_w0",
    "DistributionSpec",
    "CycleStats",
    "ExperimentStats",
    "cycle_rng",
    "run_cycle",
    "run_experiment",
    "gamma_upper_bounds",
    "min_of_n_expectation",
]
