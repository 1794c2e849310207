"""Rewrite-lifecycle engine.

Drives a modulation code with i.i.d. inputs through erasure cycles and
aggregates the counters the storage metrics are built from: incrementing
rewrites per cycle, the loss factor eta (fraction of the n*(q-1) level
increments left unused when erasure is forced) and the storage
efficiency gamma (bits stored per available level increment).

Cycles are independent given their derived seeds, so they may run in any
order or concurrently; aggregation is a plain mean, which is order
independent.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codes import make_code
from .core import CellState, CodeParams, WriteKind

__all__ = [
    "DistributionSpec",
    "CycleStats",
    "ExperimentStats",
    "cycle_rng",
    "run_cycle",
    "run_experiment",
    "gamma_upper_bounds",
    "min_of_n_expectation",
]

_SAMPLE_BLOCK = 512


class DistributionSpec:
    """Categorical i.i.d. input law over {0, ..., size-1}.

    probs must be finite, non-negative and sum to 1 within 1e-9.
    entropy_bits, the Shannon entropy of the law, is the information
    credited per accepted write; for the uniform law over 2**k values it
    equals k.
    """

    __slots__ = ("probs", "entropy_bits", "_cum")

    TOLERANCE = 1e-9

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probs must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        total = float(p.sum())
        if abs(total - 1.0) >= self.TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.probs = p
        positive = p[p > 0]
        self.entropy_bits = float(-(positive * np.log2(positive)).sum())
        cum = np.cumsum(p)
        cum[-1] = 1.0
        self._cum = cum

    @classmethod
    def uniform(cls, size: int) -> "DistributionSpec":
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        return cls(np.full(size, 1.0 / size))

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @property
    def support_size(self) -> int:
        return int((self.probs > 0).sum())

    def sample_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count i.i.d. draws as an int array (inverse-CDF sampling)."""
        return np.searchsorted(self._cum, rng.random(count), side="right")


def cycle_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible per-cycle stream.

    The stream is default_rng(SeedSequence((master_seed, index))): the
    pair (master seed, cycle index) fully determines a cycle's inputs, so
    cycles can run in any order or in parallel and still agree.
    """
    return np.random.default_rng(np.random.SeedSequence((master_seed, index)))


@dataclass(frozen=True)
class CycleStats:
    """Counters for one erasure cycle."""

    r_inc: int  # writes that incremented a cell level
    r_total: int  # incrementing writes plus same-value no-ops
    final_max_level: int

    def __post_init__(self):
        if not 0 <= self.r_inc <= self.r_total:
            raise ValueError(f"inconsistent counts r_inc={self.r_inc}, r_total={self.r_total}")


@dataclass(frozen=True)
class ExperimentStats:
    """Aggregates over the independent cycles of one experiment."""

    params: CodeParams
    cycles: int
    mean_r_inc: float
    mean_r_total: float
    eta: float  # loss factor, fraction of n*(q-1) increments unused
    gamma: float  # bits stored per available level increment
    seed: int


def run_cycle(code, dist: DistributionSpec, rng: np.random.Generator) -> CycleStats:
    """Write i.i.d. inputs onto a fresh n-cell until an erase is forced.

    Writes that increment a cell count toward r_inc; writes whose value
    already matches the stored one are no-ops and count only toward
    r_total.  The write that triggers ERASE_REQUIRED is dropped entirely,
    since the erase wipes the block before the value could be stored.

    dist needs at least two support points: a single-value law would
    no-op forever after its first write and the cycle could not end.
    """
    params = code.params
    if dist.size != params.value_count:
        raise ValueError(f"dist has {dist.size} entries, code stores {params.value_count} values")
    if dist.support_size < 2:
        raise ValueError("dist needs >= 2 support points for the cycle to terminate")
    state = CellState.zeros(params.n, params.q)
    encode = code.encode
    r_inc = 0
    r_total = 0
    while True:
        for x in dist.sample_block(rng, _SAMPLE_BLOCK).tolist():
            kind = encode(state, x).kind
            if kind is WriteKind.WRITTEN:
                r_inc += 1
                r_total += 1
            elif kind is WriteKind.NOOP:
                r_total += 1
            else:
                return CycleStats(r_inc, r_total, state.max_level)


def run_experiment(
    params: CodeParams,
    dist: DistributionSpec,
    cycles: int,
    master_seed: int,
) -> ExperimentStats:
    """Run independent erasure cycles and aggregate the storage metrics.

    Cycle i consumes the stream cycle_rng(master_seed, i), so a repeat
    with the same master seed reproduces every cycle exactly.  eta and
    gamma are computed from incrementing writes only; same-value no-ops
    show up in mean_r_total.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    code = make_code(params)
    total_inc = 0
    total_all = 0
    for i in range(cycles):
        stats = run_cycle(code, dist, cycle_rng(master_seed, i))
        total_inc += stats.r_inc
        total_all += stats.r_total
    mean_inc = total_inc / cycles
    budget = params.total_levels
    return ExperimentStats(
        params=params,
        cycles=cycles,
        mean_r_inc=mean_inc,
        mean_r_total=total_all / cycles,
        eta=1.0 - mean_inc / budget,
        gamma=mean_inc * dist.entropy_bits / budget,
        seed=master_seed,
    )


def gamma_upper_bounds(k: int, l: int) -> tuple[float, float]:
    """Ceilings on storage efficiency, in bits per level increment.

    Returns (log2(k*l), k*log2(l)).  The first applies when a single one
    of the k variables may change per rewrite (k*l possible new values),
    the second when the whole k-variable may change arbitrarily (l**k
    possible new values).
    """
    if k < 1 or l < 2:
        raise ValueError(f"need k >= 1 and l >= 2, got k={k}, l={l}")
    return math.log2(k * l), k * math.log2(l)


def min_of_n_expectation(samples, n: int, resamples: int, rng: np.random.Generator) -> float:
    """Bootstrap estimate of E[min of n i.i.d. draws] from samples.

    Each resampling round draws n values with replacement from samples
    and keeps the minimum; the estimate is the mean over rounds.  n = 1
    reduces to a bootstrap mean; large n tends to the sample minimum.
    Used to turn one group's stopping-time samples into the expected
    first-failure time of n groups running side by side.
    """
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("samples must be a non-empty 1-d sequence")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    idx = rng.integers(0, values.size, size=(resamples, n))
    return float(values[idx].min(axis=1).mean())
