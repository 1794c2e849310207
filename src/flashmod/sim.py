"""Rewrite-lifecycle engine.

Drives a modulation code with i.i.d. inputs through erasure cycles and
aggregates the counters the storage metrics are built from: incrementing
rewrites per cycle, the loss factor eta (fraction of the n*(q-1) level
increments left unused when erasure is forced) and the storage
efficiency gamma (bits stored per available level increment).

Cycles are independent given their streams, so they may run in any
order or concurrently; aggregation is a plain mean, which is order
independent.  A q sweep reads one stream per cycle index: cycle i's
inputs are drawn once, onto an input tape that keeps at most _KEEP of
them, and replayed to every q point.
"""

import math
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .codes import make_code
from .core import ERASE_REQUIRED, CellState, CodeParams, read_count

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
# inputs an _InputTape keeps per cycle: 2**20 listed ints, at most ~36 MB
_KEEP = 1 << 20
# DistributionSpec's guide-table buckets per law value, and their cap
_GUIDE_PER_VALUE, _GUIDE_MAX = 16, 1 << 20


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
    j/B <= u < (j+1)/B, and its value, the count of CDF steps at or below
    u, lies between the counts at or below j/B and below (j+1)/B.  The
    table holds that value where the two are equal; only draws in the
    other buckets, which a CDF step crosses, are searched.  B is a power
    of two, so u*B and j/B are exact and every draw equals the search's.
    """

    __slots__ = ("probs", "entropy_bits", "_cum", "_buckets", "_guide", "_split")

    TOLERANCE = 1e-9

    def __init__(self, probs):
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probs must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        total = float(p.sum())
        if abs(total - 1.0) >= self.TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if (p > self.TOLERANCE).sum() < 2:
            raise ValueError(f"the law needs >= 2 values with positive probability above {self.TOLERANCE:g}")
        p.flags.writeable = False
        self.probs = p
        positive = p[p > 0]
        self.entropy_bits = float(-(positive * np.log2(positive)).sum())
        cum = np.cumsum(p)
        # rounding can leave the sum short of 1 before trailing zero masses,
        # and a draw above it would land on a value the law never draws
        cum[np.flatnonzero(p)[-1] :] = 1.0
        self._cum = cum
        buckets = min(_GUIDE_MAX, 1 << (_GUIDE_PER_VALUE * p.size - 1).bit_length())
        edges = np.arange(buckets + 1) / buckets
        guide = cum.searchsorted(edges[:-1], side="right")
        split = guide != cum.searchsorted(edges[1:], side="left")
        guide[split] = -1  # a CDF step falls inside the bucket: search its draws
        self._buckets, self._guide, self._split = buckets, guide, bool(split.any())

    @classmethod
    def uniform(cls, size: int) -> "DistributionSpec":
        size = read_count(size, "size", 1)
        return cls(np.full(size, 1.0 / size))

    def sample_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count i.i.d. draws as an intp array, one rng.random(count) call."""
        u = rng.random(count)
        out = self._guide.take((u * self._buckets).astype(np.intp))
        # a law with no crossed bucket (a uniform one over 2**k values) never searches
        if self._split:
            split = np.flatnonzero(out < 0)
            out[split] = self._cum.searchsorted(u[split], side="right")
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
    master_seed = read_count(master_seed, "master_seed", 0)
    start, count = read_count(start, "start", 0), read_count(count, "count", 0)
    if start + count > 1 << 128:  # Philox's 256-bit counter holds 2**128 streams
        raise ValueError(f"stream indices must be below 2^128, got start={start}, count={count}")
    return _streams(master_seed, start, start + count)


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
    eta: float  # loss factor, fraction of n*(q-1) increments unused
    gamma: float  # bits stored per available level increment
    seed: int


def _draws(dist: DistributionSpec, rng: np.random.Generator, block: int):
    """dist's draws from rng as lists, in blocks doubling from block up to _SAMPLE_BLOCK."""
    while True:
        yield dist.sample_block(rng, block).tolist()
        block = min(2 * block, _SAMPLE_BLOCK)


class _InputTape:
    """One cycle's inputs for every point of a sweep: drawn once, replayed.

    replay yields run_cycle's blocks from the start.  Blocks a point has
    read are kept, while they total at most _KEEP inputs, so a later
    point draws only past the longest prefix any earlier one read.  A
    point that reads past the kept prefix once the cap is reached derives
    the cycle's stream again and skips the prefix with one rng.random
    call.  Split draws continue one stream, so every point reads the
    inputs a lone run_cycle on the stream would.
    """

    __slots__ = ("_dist", "_rng", "_seed", "_index", "_kept", "_count", "_block")

    def __init__(self, dist: DistributionSpec, rng: np.random.Generator, n: int, master_seed: int, index: int):
        self._dist, self._rng, self._seed, self._index = dist, rng, master_seed, index
        self._kept, self._count = [], 0  # the kept blocks and their total length
        self._block = min(2 * n, _SAMPLE_BLOCK)  # the length of the next block

    def replay(self):
        yield from self._kept
        block = self._block
        while self._count + block <= _KEEP:
            values = self._dist.sample_block(self._rng, block).tolist()
            self._kept.append(values)
            self._count += block
            self._block = block = min(2 * block, _SAMPLE_BLOCK)
            yield values
        rng = cycle_rng(self._seed, self._index)
        rng.random(self._count)
        yield from _draws(self._dist, rng, block)


def run_cycle(code, dist: DistributionSpec, rng: np.random.Generator | _InputTape) -> CycleStats:
    """Write i.i.d. inputs onto a fresh n-cell until an erase is forced.

    Writes that increment a cell count toward r_inc, which is therefore
    the level sum at the erase; same-value no-ops count only toward
    r_total.  The write that triggers ERASE_REQUIRED is dropped entirely,
    since the erase wipes the block before the value could be stored.
    Every write, that one included, is exactly one code.encode call.
    Inputs are drawn in blocks that double from 2n up to _SAMPLE_BLOCK,
    so a short cycle does not sample hundreds of unused inputs; split
    draws continue one stream, so the block sizes never change an input.
    rng is the cycle's Generator, drawn as the cycle goes and dropped,
    or an _InputTape of dist's blocks from it, as run_experiment's
    sweeps pass.  The cycle ends because DistributionSpec admits only
    laws that draw two or more values.
    """
    params = code.params
    if len(dist.probs) != params.value_count:
        raise ValueError(f"dist has {len(dist.probs)} entries, code stores {params.value_count} values")
    if isinstance(rng, _InputTape):
        inputs = rng.replay()
    else:
        inputs = _draws(dist, rng, min(2 * params.n, _SAMPLE_BLOCK))
    state = CellState.zeros(params.n, params.q)
    encode = code.encode
    erase = ERASE_REQUIRED  # a local read is cheaper than a global one
    r_total = 0
    for values in inputs:  # endless: only the erase ends the cycle
        for x in values:
            if encode(state, x) is erase:
                return CycleStats(state.level_sum, r_total)
            r_total += 1


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
    difference raises ValueError.  Cycle i consumes the Philox stream
    cycle_rng(master_seed, i), drawn from cycle_rngs, at every point.
    A sweep draws it once per cycle, onto an input tape that keeps at
    most _KEEP = 2**20 inputs, and replays it to each point; a point
    that reads past a full tape draws the stream again past what it
    keeps.  A single point keeps nothing.  Each point still runs its own
    run_cycle per cycle, from a fresh CellState, so its stats equal a
    lone run at its q, and a repeat with the same master seed reproduces
    every cycle exactly.  eta and gamma are computed from incrementing
    writes only; same-value no-ops show up in mean_r_total.
    """
    cycles = read_count(cycles, "cycles", 1)
    points = [params] if isinstance(params, CodeParams) else list(params)
    if not points or any((p.kind, p.k) != (points[0].kind, points[0].k) for p in points):
        raise ValueError("a sweep needs one or more points of one code kind and k; only q may differ")
    codes = [make_code(p) for p in points]
    total_inc, total_all = [0] * len(points), [0] * len(points)
    for i, rng in enumerate(cycle_rngs(master_seed, 0, cycles)):
        inputs = rng if len(points) == 1 else _InputTape(dist, rng, points[0].n, master_seed, i)
        for j, code in enumerate(codes):
            stats = run_cycle(code, dist, inputs)
            total_inc[j] += stats.r_inc
            total_all[j] += stats.r_total
    sweep = []
    for p, inc, total in zip(points, total_inc, total_all):
        mean_inc = inc / cycles
        budget = p.total_levels
        sweep.append(
            ExperimentStats(
                params=p,
                cycles=cycles,
                mean_r_inc=mean_inc,
                mean_r_total=total / cycles,
                eta=1.0 - mean_inc / budget,
                gamma=mean_inc * dist.entropy_bits / budget,
                seed=master_seed,
            )
        )
    return sweep[0] if isinstance(params, CodeParams) else sweep


def gamma_upper_bounds(k: int, l: int) -> tuple[float, float]:
    """Ceilings on storage efficiency, in bits per level increment.

    Returns (log2(k*l), k*log2(l)).  The first applies when a single one
    of the k variables may change per rewrite (k*l possible new values),
    the second when the whole k-variable may change arbitrarily (l**k
    possible new values).  k and l may not exceed sys.float_info.max, and
    neither may the second ceiling.
    """
    top = sys.float_info.max
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
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("samples must be a non-empty 1-d sequence")
    n = read_count(n, "n", 1)
    values = np.sort(values)
    m = values.size
    survive = (np.arange(m - 1, 0, -1) / m) ** n
    return float(values[0] + np.diff(values) @ survive)
