"""Rewrite-lifecycle engine.

Drives a modulation code with i.i.d. inputs through erasure cycles and
aggregates the counters the storage metrics are built from: incrementing
rewrites per cycle, the loss factor eta (core.loss_factor: the share of
the level increments left unused when erasure is forced) and the storage
efficiency gamma (bits stored per available level increment).

Cycles are independent given their streams, so they may run in any
order or concurrently; aggregation is a plain mean, which is order
independent.  Cycle i reads stream i of the master seed, forward and
in the blocks of _blocks; each point of a q sweep reads it from its
start, so a point's stats are those of a lone run at its q.
"""

import math
import sys
from collections.abc import Sequence
from operator import index, length_hint
from typing import NamedTuple

import numpy as np

from .codes import make_code
from .core import ERASE_REQUIRED, CellState, CodeParams, loss_factor, read_cells, read_count

__all__ = [
    "DistributionSpec",
    "CycleStats",
    "ExperimentStats",
    "cycle_rng",
    "cycle_rngs",
    "run_cycle",
    "run_experiment",
    "gamma_upper_bounds",
    "min_of_n_expectation",
]

_SAMPLE_BLOCK = 512
# DistributionSpec's guide-table buckets per law value, and their cap
_GUIDE_PER_VALUE, _GUIDE_MAX = 16, 1 << 20


def _finite_floats(values, name: str, entries: str) -> np.ndarray:
    """values as a new non-empty 1-d float array of finite entries; an int past float range is not finite."""
    try:
        out = np.array(values, dtype=float)
    except OverflowError:  # an int past float range reads as not finite
        out = np.array([math.inf])
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    if not np.isfinite(out).all():
        raise ValueError(f"{entries} must be finite")
    return out


class DistributionSpec:
    """Categorical i.i.d. input law over {0, ..., len(probs)-1}.

    probs must be finite, non-negative and sum to 1 within TOLERANCE,
    and at least two must exceed it: a law that draws one value only
    no-ops forever after its first write, so no cycle would end.
    entropy_bits, the Shannon entropy of the law, is the information
    credited per accepted write; for the uniform law over 2**k values it
    equals k.  probs is a read-only copy of the caller's sequence.

    Draws are inverse-CDF lookups through an exact guide table (Chen &
    Asau, 1974), not a binary search per draw.  [0, 1) is cut into B
    equal buckets, B the power of two at or above 16 per law value and at
    most 2**20 (8 MB).  A draw u falls in bucket j = floor(u*B), so
    j/B <= u < (j+1)/B, and its value is the count of CDF steps at or
    below u.  _guide[j] is that count at j/B, so _cum[_guide[j]] is the
    first step above the lower edge: the bucket's one step if it has one
    strictly inside, and at or past the upper edge if it has none.  A
    draw starts at _guide[j] and adds u >= _cum[its value]; that is
    exact in every bucket with at most one step inside, and a law with
    no step inside any bucket (a uniform one over 2**k values) compares
    nothing.  Only draws still at or past the next step, in buckets with
    two or more steps inside (the coincident steps of a zero mass count
    apart), are searched.  B is a power of two, so u*B and j/B are exact
    and every draw equals the search's.  The build reads the CDF scaled
    by B in place, also exact: a step is at or below j/B exactly when
    ceil(cum*B) <= j, so _guide is the running sum of one bincount of
    those ceilings, and the steps strictly inside a bucket are those
    where cum*B is not an integer.  Building holds one B-sized array, the
    table kept (8 MB at the cap), beside CDF-sized temporaries made one
    after another.
    """

    __slots__ = ("probs", "entropy_bits", "_cum", "_guide", "_compare", "_crowded")

    TOLERANCE = 1e-9

    def __init__(self, probs):
        p = _finite_floats(probs, "probs", "probabilities")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        total = float(p.sum())
        if abs(total - 1.0) >= self.TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if (p > self.TOLERANCE).sum() < 2:
            raise ValueError(f"the law needs >= 2 values with positive probability above {self.TOLERANCE:g}")
        p.flags.writeable = False
        self.probs = p
        terms = p[p > 0]  # each CDF-sized temporary is dropped before the next is made
        terms *= np.log2(terms)
        self.entropy_bits = float(-terms.sum())
        del terms
        cum = np.cumsum(p)
        # rounding can leave the sum short of 1 before trailing zero masses,
        # and a draw above it would land on a value the law never draws; a
        # sum past 1 is cut to it first, so the CDF stays sorted
        np.minimum(cum, 1.0, out=cum)
        cum[np.flatnonzero(p)[-1] :] = 1.0
        buckets = min(_GUIDE_MAX, 1 << (_GUIDE_PER_VALUE * p.size - 1).bit_length())
        cum *= buckets  # exact, and exactly undone below: buckets is a power of two
        step = cum.astype(np.intp)  # floor(cum*B): cum is non-negative
        inside = cum != step  # the steps strictly inside bucket floor(cum*B)
        step += inside  # ceil(cum*B): the first bucket whose lower edge is at or past the step
        guide = np.bincount(step, minlength=buckets + 1)  # the steps whose ceiling is each bucket
        self._guide = np.cumsum(guide, out=guide)[:-1]
        # two steps inside one bucket are adjacent in the sorted CDF, and a step
        # inside one whose ceiling its predecessor shares has that one inside too
        shared = step[1:] == step[:-1]
        shared &= inside[1:]
        self._compare, self._crowded = bool(inside.any()), bool(shared.any())
        cum /= buckets
        self._cum = cum

    @classmethod
    def uniform(cls, size: int) -> "DistributionSpec":
        """The uniform law over {0, ..., size-1}, for an int size in [2, 2**24], read before allocating."""
        size = read_cells(read_count(size, "size", 1), "size")  # no law a code stores is larger
        return cls(np.full(size, 1.0 / size))

    def sample_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count i.i.d. draws as an intp array, one rng.random(count) call."""
        u = rng.random(count)
        out = self._guide.take((u * len(self._guide)).astype(np.intp))
        if self._compare:
            out += u >= self._cum.take(out)
        if self._crowded:
            far = np.flatnonzero(u >= self._cum.take(out))
            out[far] = self._cum.searchsorted(u[far], side="right")
        return out


def cycle_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible per-cycle stream: cycle_rngs' stream index.

    The pair (master seed, cycle index) fully determines a cycle's
    inputs, so cycles can run in any order or in parallel and still agree.
    """
    return next(cycle_rngs(master_seed, index, 1))


def cycle_rngs(master_seed: int, start: int, count: int):
    """The per-cycle streams i = start .. start+count-1 of master_seed.

    Counter-based streams (Salmon et al., SC 2011): stream i is Philox4x64
    under Philox(master_seed)'s key, SeedSequence(master_seed)'s
    generate_state(2, uint64), started at counter i * 2**128, the words
    [0, 0, i mod 2**64, i >> 64]: disjoint runs of 2**128 blocks of one
    keyed sequence, for i < 2**128.
    One Generator is yielded again for every index, its counter set anew,
    so use each stream before asking for the next.  Memory is constant in
    count; the arguments are checked at the call, not at the first draw.
    """
    master_seed, start = read_count(master_seed, "master_seed", 0), read_count(start, "start", 0)
    return _streams(master_seed, start, start + _read_streams(count, "count", 0, start))


def _read_streams(count, name: str, low: int, start: int = 0) -> int:
    """count as read_count reads it, once streams start .. start+count-1 all lie below 2**128."""
    count = read_count(count, name, low)
    if start + count > 1 << 128:  # Philox's 256-bit counter holds 2**128 streams
        raise ValueError(f"stream indices must be below 2^128, got start={start}, count={count}")
    return count


def _streams(master_seed: int, start: int, stop: int):
    bits = np.random.Philox(master_seed)
    # a fresh state, which every set below restores: empty buffer, no half-used uint32
    rng, state = np.random.Generator(bits), bits.state
    counter = [0, 0, 0, 0]  # plain ints set faster than the state's arrays
    state["state"] = {"counter": counter, "key": state["state"]["key"].tolist()}
    state["buffer"] = [0] * 4
    for i in range(start, stop):
        counter[3], counter[2] = divmod(i, 1 << 64)
        bits.state = state
        yield rng


class CycleStats(NamedTuple):
    """Counters for one erasure cycle."""

    r_inc: int  # writes that incremented a cell level
    r_total: int  # incrementing writes plus same-value no-ops


class ExperimentStats(NamedTuple):
    """Aggregates over the independent cycles of one experiment."""

    params: CodeParams
    cycles: int
    mean_r_inc: float
    mean_r_total: float
    eta: float  # core.loss_factor of mean_r_inc
    gamma: float  # bits stored per available level increment
    seed: int


def _blocks(dist: DistributionSpec, rng: np.random.Generator, params: CodeParams):
    """dist's draws on rng as lists, in blocks doubling up to _SAMPLE_BLOCK.

    The one block rule of every input draw.  The first block holds
    min(total_levels + 1, _SAMPLE_BLOCK) draws: the most incrementing
    writes a cycle can make, plus its erase, so a short cycle samples
    few unused inputs.
    """
    block = min(params.total_levels + 1, _SAMPLE_BLOCK)
    while True:
        yield dist.sample_block(rng, block).tolist()
        block = min(2 * block, _SAMPLE_BLOCK)


def run_cycle(code, dist: DistributionSpec, rng: np.random.Generator) -> CycleStats:
    """Write i.i.d. inputs onto a fresh n-cell until an erase is forced.

    Writes that increment a cell count toward r_inc, which is therefore
    the level sum at the erase; same-value no-ops count only toward
    r_total.  The write that triggers ERASE_REQUIRED is dropped entirely,
    since the erase wipes the block before the value could be stored, so
    r_total is that write's position in the cycle, read once from its
    block's iterator: the loop counts no write.  Every write, that one
    included, is exactly one code.encode call.
    rng is the cycle's Generator, read on from where it stands through
    _blocks, whose blocks are dropped as the cycle goes.  The cycle ends
    because DistributionSpec admits only laws that draw two or more
    values.
    """
    params = code.params
    if len(dist.probs) != params.value_count:
        raise ValueError(f"dist has {len(dist.probs)} entries, code stores {params.value_count} values")
    state = CellState.zeros(params.n, params.q)
    encode = code.encode
    erase = ERASE_REQUIRED  # a local read is cheaper than a global one
    done = 0  # inputs in the finished blocks
    for values in _blocks(dist, rng, params):  # endless: only the erase ends the cycle
        left = iter(values)
        for x in left:
            if encode(state, x) is erase:
                # a list iterator's length hint is exact: what is left after x
                return CycleStats(state.level_sum, done + len(values) - 1 - length_hint(left))
        done += len(values)


def run_experiment(
    params: CodeParams | Sequence[CodeParams],
    dist: DistributionSpec,
    cycles: int,
    master_seed: int,
) -> ExperimentStats | list[ExperimentStats]:
    """Run independent erasure cycles and aggregate the storage metrics.

    params is one CodeParams, which returns one ExperimentStats, or a
    q sweep: a sequence of CodeParams of one code kind and k, which
    returns a list of one ExperimentStats per point, in order.  Any other
    difference raises ValueError.  Points run in the caller's order,
    each with a code built at its turn, through every cycle: cycle i
    reads the Philox stream cycle_rng(master_seed, i), taken from
    cycle_rngs, from its start, in a run_cycle of its own from a fresh
    CellState.  So a point's stats equal a lone run at its q whatever the
    other points are, and a repeat with the same seed reproduces every
    cycle.  eta and gamma count incrementing writes only, over the
    point's total_levels; same-value no-ops show up in mean_r_total.
    """
    cycles, master_seed = _read_streams(cycles, "cycles", 1), read_count(master_seed, "master_seed", 0)
    points = [params] if isinstance(params, CodeParams) else list(params)
    if not points or any((p.kind, p.k) != (points[0].kind, points[0].k) for p in points):
        raise ValueError("a sweep needs one or more points of one code kind and k; only q may differ")
    sweep = []
    for p in points:
        code, inc, total = make_code(p), 0, 0
        for rng in cycle_rngs(master_seed, 0, cycles):
            stats = run_cycle(code, dist, rng)
            inc += stats.r_inc
            total += stats.r_total
        mean_inc = inc / cycles
        sweep.append(
            ExperimentStats(
                params=p,
                cycles=cycles,
                mean_r_inc=mean_inc,
                mean_r_total=total / cycles,
                eta=loss_factor(mean_inc, p.n, p.q),
                gamma=mean_inc * dist.entropy_bits / p.total_levels,
                seed=master_seed,
            )
        )
    return sweep[0] if isinstance(params, CodeParams) else sweep


def gamma_upper_bounds(k: int, l: int) -> tuple[float, float]:
    """Ceilings on storage efficiency, in bits per level increment.

    Returns (log2(k*l), k*log2(l)).  The first applies when a single one
    of the k variables may change per rewrite (k*l possible new values),
    the second when the whole k-variable may change arbitrarily (l**k
    possible new values).  k and l are counts, so a float raises
    TypeError; they may not exceed sys.float_info.max, and neither may
    the second ceiling.
    """
    k, l, top = index(k), index(l), sys.float_info.max
    if not (1 <= k <= top and 2 <= l <= top):
        raise ValueError(f"need k >= 1 and l >= 2 within float range, got k={k}, l={l}")
    arbitrary = k * math.log2(l)
    if arbitrary > top:
        raise ValueError(f"k*log2(l) is beyond float range for k={k}, l={l}")
    return math.log2(k * l), arbitrary


def min_of_n_expectation(samples, n: int) -> float:
    """Exact E[min of n i.i.d. draws] from the empirical law of samples.

    With the M samples sorted ascending, the minimum of n draws reaches
    x_(i) exactly when every draw lands at rank i or above, so the tail
    sum gives E = x_(1) + sum_{i>=2} (x_(i) - x_(i-1)) * ((M-i+1)/M)**n.
    n = 1 gives the sample mean, large n tends to the sample minimum, and
    constant samples return their value exactly.  Used to turn one
    group's stopping-time samples into the expected first-failure time
    of n groups running side by side.
    """
    values = _finite_floats(samples, "samples", "samples")
    n = read_count(n, "n", 1)
    if n > sys.float_info.max:
        raise ValueError(f"n must be within float range, got {n}")
    values.sort()
    survive = (np.arange(values.size - 1, 0, -1) / values.size) ** n
    return float(values[0] + np.diff(values) @ survive)
