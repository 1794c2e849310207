"""Rewrite-lifecycle engine.

Drives a modulation code with i.i.d. inputs through erasure cycles and
aggregates the counters the storage metrics are built from: incrementing
rewrites per cycle, the loss factor eta (core.loss_factor: the share of
the level increments left unused when erasure is forced) and the storage
efficiency gamma (bits stored per available level increment).

Cycles are independent given their streams, so they may run in any
order or concurrently; aggregation is a plain mean, which is order
independent.  A run reads one stream per cycle index, forward and
once, in the blocks of _blocks: cycle i's inputs are drawn onto an
input tape and replayed to every q point in ascending q, a lone run
being a one-point sweep; all but the last point keep what they draw.
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
    u, is the count at or below j/B plus the steps inside the bucket that
    u reaches.  A bucket with no step strictly inside holds that count.
    One with exactly one, at c, also holds c in a second table, of 2.0
    elsewhere (no draw reaches it), and its draws take the count plus
    u >= c; that table is kept only when some bucket needs it, at most
    8 MB more.  Only draws in buckets with two or more steps inside (the
    coincident steps of a zero mass count apart) are searched.  B is a
    power of two, so u*B and j/B are exact and every draw equals the
    search's.
    """

    __slots__ = ("probs", "entropy_bits", "_cum", "_buckets", "_guide", "_step", "_split")

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
        inside = cum.searchsorted(edges[1:], side="left") - guide  # CDF steps strictly inside each bucket
        one = inside == 1
        step = None
        if one.any():
            step = np.full(buckets, 2.0)
            step[one] = cum[guide[one]]  # the bucket's one step: the first above its lower edge
        split = inside > 1
        guide[split] = -1  # two or more steps inside the bucket: search its draws
        self._buckets, self._guide, self._step, self._split = buckets, guide, step, bool(split.any())

    @classmethod
    def uniform(cls, size: int) -> "DistributionSpec":
        size = read_cells(read_count(size, "size", 1), "size")  # no law a code stores is larger
        return cls(np.full(size, 1.0 / size))

    def sample_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count i.i.d. draws as an intp array, one rng.random(count) call."""
        u = rng.random(count)
        j = (u * self._buckets).astype(np.intp)
        out = self._guide.take(j)
        # a law with no one-step bucket (a uniform one over 2**k values) compares nothing
        if self._step is not None:
            out += u >= self._step.take(j)
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


def _blocks(dist: DistributionSpec, rng: np.random.Generator, n: int, stop=math.inf):
    """dist's draws on rng as lists, in blocks doubling from 2n up to _SAMPLE_BLOCK.

    The one block rule of every input draw, so a short cycle samples few
    unused inputs; blocks come while their total stays at most stop.
    """
    block, total = min(2 * n, _SAMPLE_BLOCK), 0
    while total + block <= stop:
        yield dist.sample_block(rng, block).tolist()
        total, block = total + block, min(2 * block, _SAMPLE_BLOCK)


class _InputTape:
    """One cycle's inputs, drawn once and replayed to each of readers.

    The tape holds one _blocks prefix of rng, capped at _KEEP inputs.
    A reader replays the kept blocks, then pulls the prefix on, keeping
    what it pulls unless it is the last, so a later reader draws only
    past the longest prefix any earlier one read.  The first reader to
    run the prefix out saves rng's state there; every reader past the cap
    restores it and draws on through _blocks, keeping nothing.  Split
    draws continue one stream, so each reads what a lone run_cycle would.
    """

    __slots__ = ("_dist", "_rng", "_n", "_readers", "_kept", "_prefix", "_resume")

    def __init__(self, dist: DistributionSpec, rng: np.random.Generator, n: int, readers: int):
        self._dist, self._rng, self._n, self._readers = dist, rng, n, readers  # _readers: replays yet to start
        self._kept, self._prefix, self._resume = [], _blocks(dist, rng, n, _KEEP), None  # _resume: rng's state at the cap

    def replay(self):
        self._readers -= 1
        yield from self._kept
        for values in self._prefix:  # not yield from: a reader that stops leaves the prefix open
            if self._readers:
                self._kept.append(values)
            yield values
        self._resume = self._resume or self._rng.bit_generator.state  # counter, buffer and half-used uint32
        self._rng.bit_generator.state = self._resume  # restored mid-cycle: safe, as cycle_rngs' next index resets rng
        yield from _blocks(self._dist, self._rng, self._n)


def run_cycle(code, dist: DistributionSpec, rng: np.random.Generator | _InputTape) -> CycleStats:
    """Write i.i.d. inputs onto a fresh n-cell until an erase is forced.

    Writes that increment a cell count toward r_inc, which is therefore
    the level sum at the erase; same-value no-ops count only toward
    r_total.  The write that triggers ERASE_REQUIRED is dropped entirely,
    since the erase wipes the block before the value could be stored, so
    r_total is that write's position in the cycle, read once from its
    block's iterator: the loop counts no write.  Every write, that one
    included, is exactly one code.encode call.
    rng is the cycle's Generator, read through _blocks and dropped as the
    cycle goes, or the _InputTape run_experiment passes; both read the
    same inputs.  The cycle ends because DistributionSpec admits only
    laws that draw two or more values.
    """
    params = code.params
    if len(dist.probs) != params.value_count:
        raise ValueError(f"dist has {len(dist.probs)} entries, code stores {params.value_count} values")
    blocks = rng.replay() if isinstance(rng, _InputTape) else _blocks(dist, rng, params.n)
    state = CellState.zeros(params.n, params.q)
    encode = code.encode
    erase = ERASE_REQUIRED  # a local read is cheaper than a global one
    done = 0  # inputs in the finished blocks
    for values in blocks:  # endless: only the erase ends the cycle
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
    difference raises ValueError.  Cycle i consumes the Philox stream
    cycle_rng(master_seed, i), drawn from cycle_rngs, forward and once,
    onto an input tape replayed to each point in ascending q, repeats in
    their order.  Encoding reads q only at a full cell, so a larger q
    reads every input a smaller one reads: the last point keeps nothing,
    the others what they draw, up to _KEEP = 2**20 inputs, and a point
    past a full tape resumes the stream from the state saved there.  Each
    point runs its own run_cycle per cycle, from a fresh CellState, so
    its stats equal a lone run at its q, and a repeat with the same seed
    reproduces every cycle.  eta and gamma are computed from incrementing
    writes only; same-value no-ops show up in mean_r_total.
    """
    cycles, master_seed = _read_streams(cycles, "cycles", 1), read_count(master_seed, "master_seed", 0)
    points = [params] if isinstance(params, CodeParams) else list(params)
    if not points or any((p.kind, p.k) != (points[0].kind, points[0].k) for p in points):
        raise ValueError("a sweep needs one or more points of one code kind and k; only q may differ")
    codes = [make_code(p) for p in points]
    total_inc, total_all = [0] * len(points), [0] * len(points)
    ascending = sorted(range(len(points)), key=lambda j: points[j].q)  # stable: repeats keep their order
    for rng in cycle_rngs(master_seed, 0, cycles):
        inputs = _InputTape(dist, rng, points[0].n, len(points))
        for j in ascending:
            stats = run_cycle(codes[j], dist, inputs)
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
                eta=loss_factor(mean_inc, p.n, p.q),
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
    try:
        values = np.asarray(samples, dtype=float)
    except OverflowError:  # an int past float range
        raise ValueError("samples must be finite") from None
    if values.ndim != 1 or values.size == 0:
        raise ValueError("samples must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError("samples must be finite")
    n = read_count(n, "n", 1)
    if n > sys.float_info.max:
        raise ValueError(f"n must be within float range, got {n}")
    values = np.sort(values)
    m = values.size
    survive = (np.arange(m - 1, 0, -1) / m) ** n
    return float(values[0] + np.diff(values) @ survive)
