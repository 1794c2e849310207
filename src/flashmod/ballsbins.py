"""Random-loading oracles and max-load analytics for balls into bins.

The simulation half places balls sequentially with d random choices per
ball: each ball samples d distinct bins uniformly at random (all bins,
when d >= n) and lands in the least loaded of them, ties going to the
lowest bin index.  d=1 is plain uniform placement; d=2 is the
two-random-choices rule the load-balancing code imitates, whose two
candidate cells are always distinct.  overflow_survival is the exact
law of balls_until_overflow's count, where its chain is small enough to
walk, and survival_mean_eta its mean and eta.  The analytic half
predicts the maximum load in the regimes the codes operate in, plus the
root solver the m = c*n*ln(n) prediction needs and the Lambert W that
checks it.

All randomness comes from caller-supplied numpy Generators, so trials
parallelize with independently seeded streams.
"""

import math
import sys
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import loss_factor, read_cells, read_count

__all__ = [
    "LoadRegime",
    "RegimePrediction",
    "throw_balls",
    "balls_until_overflow",
    "overflow_survival",
    "survival_mean_eta",
    "collision_bound",
    "max_load_prediction",
    "solve_dc",
    "lambert_w0",
]

_CHUNK = 1 << 14
_CHAIN_STATES = 500_000  # load profiles overflow_survival may walk


class LoadRegime(Enum):
    """Ball-count regime a max-load prediction belongs to."""

    LINEAR_M = "linear-m"  # m below n*ln(n)
    N_LOG_N = "n-log-n"  # m = c*n*ln(n)
    TWO_CHOICE = "two-choice"  # d >= 2 random choices


class RegimePrediction(NamedTuple):
    regime: LoadRegime
    predicted_max_load: float


def _place(n: int, d: int, rng: np.random.Generator, balls: int, cap: int) -> list[int]:
    """Sequential d-choice placement of up to balls balls into n bins.

    Each ball's candidate pair goes to its less loaded member, ties to
    the lower bin index.  d above n means every bin, so d = min(d, n).
    d <= 2 draws in blocks of min(balls left to draw, _CHUNK): the first
    members over all n bins, then for d=2 the second members over the
    other n-1 bins, each pair then sorted low bin first; for d=1 the
    second member is the first.  d>2 draws rng.choice(n, d) per ball and
    lets its least loaded candidate stand in as both members of the
    pair.  Placement stops before the first ball whose bin already holds
    cap balls.  Returns the bin loads; they sum to the balls placed.

    A block is read in place, through memoryviews of its int64 draws, so
    only a placed ball's bins become Python ints and a run that stops
    converts nothing past its stop.  A d=2 block holds two int64 arrays
    of its size (256 KiB at _CHUNK), three while its pairs are sorted.
    """
    d = min(d, n)
    counts = [0] * n
    drawn = 0
    while drawn < balls:
        if d <= 2:
            size = min(balls - drawn, _CHUNK)
            first = rng.integers(0, n, size=size)
            if d == 2:
                second = rng.integers(0, n - 1, size=size)
                second += second >= first
                first, second = np.minimum(first, second), np.maximum(first, second, out=second)
            else:
                second = first
            pairs = zip(memoryview(first), memoryview(second))
        else:
            size = 1
            best = min(rng.choice(n, size=d, replace=False).tolist(), key=lambda c: (counts[c], c))
            pairs = ((best, best),)
        drawn += size
        for c0, c1 in pairs:
            l0 = counts[c0]
            l1 = counts[c1]
            if l1 < l0:  # a pair is sorted, so a tie keeps the lower bin
                c0, l0 = c1, l1
            if l0 == cap:
                return counts
            counts[c0] = l0 + 1
    return counts


def throw_balls(n: int, m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Throw m balls into n bins with d random choices per ball.

    Each ball samples d distinct bins uniformly at random (every bin once
    d >= n) and lands in the least loaded of them, ties to the lowest bin
    index.  Returns the int64 bin loads, which sum to m.  With a fixed
    generator the result is reproducible bit for bit.  Draws come in
    blocks of at most _CHUNK balls, each read in place, so memory does
    not grow with m and only placed balls become Python ints; a block
    holds at most three int64 arrays of its size (384 KiB at _CHUNK).
    d values above 2 take a per-ball sampling path and are only meant
    for small experiments.
    """
    n, d, m = read_cells(n), read_count(d, "d", 1), read_count(m, "m", 0)
    if d == 1:
        # uniform placement is exchangeable: loads are the draw histogram
        loads = np.zeros(n, dtype=np.int64)
        for start in range(0, m, _CHUNK):
            np.add.at(loads, rng.integers(0, n, size=min(_CHUNK, m - start)), 1)
        return loads
    # no bin can hold m balls before the last one lands, so cap=m never stops
    return np.fromiter(_place(n, d, rng, m, m), dtype=np.int64, count=n)


def balls_until_overflow(n: int, q: int, d: int, rng: np.random.Generator) -> int:
    """Balls placed before some bin would exceed q-1.

    Placement follows the throw_balls rule; the count excludes the first
    placement whose selected bin already holds q-1 balls (the placement
    that forces the overflow).  This mirrors an n-cell filling up: the
    result is the incrementing-rewrite count of one erasure cycle under
    ideal random loading.  Each trial runs the placement kernel on a
    budget of n*(q-1)+1 balls.
    """
    n, d, q = read_cells(n), read_count(d, "d", 1), read_count(q, "q", 2)
    qm1 = q - 1
    # after n*(q-1)+1 balls some bin has been chosen q times, so that
    # budget always holds the stopping point
    return sum(_place(n, d, rng, n * qm1 + 1, qm1))


def overflow_survival(n: int, q: int, d: int) -> list[float]:
    """P(T >= t) for t = 0, 1, ..., T being balls_until_overflow(n, q, d)'s count, exactly.

    Under d distinct uniform choices the load profile (c_0, ..., c_{q-1}),
    the bins at each load, is a Markov chain, whatever the tie rule.  With
    S_j the bins at load >= j, a ball lands on level j with probability
    [C(S_j, d) - C(S_{j+1}, d)] / C(n, d), and landing on level q-1 ends
    the trial.  The chain is walked in floats one layer per ball, so the
    mass left after t balls is P(T >= t); the list ends with the first
    empty layer's 0, within n*(q-1)+2 entries.  d above n reads as n.  A
    chain of more than _CHAIN_STATES profiles, C(n+q-1, q-1), is refused
    before any layer is built.
    """
    n, d, q = read_cells(n), read_count(d, "d", 1), read_count(q, "q", 2)
    k = min(n, q - 1)
    # C(n+q-1, k) >= C(2k, k) is past the cap from k = 20, where expanding it could take minutes
    states = math.comb(n + q - 1, k) if k < 20 else f"C({n + q - 1}, {k})"
    if k >= 20 or states > _CHAIN_STATES:
        raise ValueError(f"the load-profile chain of n={n}, q={q} has {states} states, more than {_CHAIN_STATES}")
    d = min(d, n)
    total = math.comb(n, d)
    ways = [math.comb(s, d) for s in range(n + 1)]  # exact, so each probability is one rounding
    layer, masses = {(n,) + (0,) * (q - 1): 1.0}, [1.0]
    while layer:
        nxt = {}
        for profile, mass in layer.items():
            above = n  # S_j, then S_{j+1}
            for j in range(q - 1):  # level q-1 ends the trial
                below, above = above, above - profile[j]
                if moved := ways[below] - ways[above]:
                    key = profile[:j] + (profile[j] - 1, profile[j + 1] + 1) + profile[j + 2 :]
                    nxt[key] = nxt.get(key, 0.0) + mass * (moved / total)
        layer = nxt
        # where no mass stops, rounding could lift the sum by an ulp
        masses.append(min(masses[-1], math.fsum(layer.values())))
    return masses


def survival_mean_eta(masses: list[float], n: int, q: int) -> tuple[float, float]:
    """E[T] = sum over t >= 1 of P(T >= t), from survival masses, and its eta by core.loss_factor."""
    mean = math.fsum(masses[1:])
    return mean, loss_factor(mean, n, q)


def collision_bound(m: float, n: float, k: float) -> float:
    """Upper bound on the chance one given bin collects at least k balls.

    Evaluates min(1, (m*e/(n*k))**k) in log space so large k cannot
    overflow.  m balls, n bins, threshold k (k may be fractional).
    """
    if not all(1 <= v <= sys.float_info.max for v in (m, n, k)):  # ints past float range too
        raise ValueError(f"need finite m, n, k >= 1, got m={m}, n={n}, k={k}")
    log_bound = k * (1.0 + math.log(m) - math.log(n) - math.log(k))
    if log_bound >= 0.0:
        return 1.0
    return math.exp(log_bound)


def max_load_prediction(n: int, m: float, d: int) -> RegimePrediction:
    """Point prediction of the maximum load after m balls in n bins.

    Parameters
    ----------
    n : bins, at least 3 (so ln(ln(n)) is defined and positive).
    m : balls, at least 1.
    d : random choices per ball.

    n and m may not exceed sys.float_info.max, so every step runs in
    floats.

    Returns
    -------
    RegimePrediction
        d=1 with m below n*ln(n): ln(n) / ln(n*ln(n)/m), which reduces to
        ln(n)/ln(ln(n)) at m=n.  d=1 with m = c*n*ln(n): (dc(c)-1)*ln(n)
        with dc from solve_dc.  d>=2: m/n + ln(ln(n))/ln(d).  Each is
        held between ceil(m/n) and m: some bin always holds at least
        ceil(m/n) balls, and none holds more than the m thrown.

    These are leading-order point estimates: at moderate n the d=1 value
    undershoots the observed mean noticeably (the next-order corrections
    are large), so compare with generous tolerances.
    """
    top = sys.float_info.max  # also rejects nan, inf and ints past float range
    if not 3 <= n <= top:
        raise ValueError(f"n must be >= 3 and within float range, got {n}")
    if not 1 <= m <= top:
        raise ValueError(f"m must be >= 1 and within float range, got {m}")
    d = read_count(d, "d", 1)  # d=1.5 would fall into the d=1 branch
    ln_n = math.log(n)
    n_log_n = n * ln_n
    if d >= 2:
        regime, load = LoadRegime.TWO_CHOICE, m / n + math.log(ln_n) / math.log(d)
    elif n_log_n / m > 1.0:  # m below n*ln(n) by more than rounding, so the log is positive
        regime, load = LoadRegime.LINEAR_M, ln_n / math.log(n_log_n / m)
    else:
        regime, load = LoadRegime.N_LOG_N, (solve_dc(m / n_log_n) - 1.0) * ln_n
    return RegimePrediction(regime, min(max(load, float(math.ceil(m / n))), float(m)))


def _bisect(f, lo: float, hi: float) -> float:
    """Halve [lo, hi], f(lo) < 0 <= f(hi), to adjacent floats; return the end with smaller |f|."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi if abs(f(hi)) < abs(f(lo)) else lo


def solve_dc(c: float) -> float:
    """Largest positive root of g(x) = x*(ln(c) - ln(x) + 1) + 1 - c.

    This root scales the maximum load in the m = c*n*ln(n) regime.  g
    peaks at x = c with g(c) = 1 and decreases monotonically beyond, so
    the largest root is c*e**t with t > 0.  There g = 1 - c*h(t), where
    h(t) = t*e**t - expm1(t) = t**2/2 + t**3/3 + ... (summed as a series
    for small t), and t is bisected on c*h(t) = 1 to machine precision:
    g itself would cancel away the gap dc - c, about sqrt(2c) for large
    c.  The result satisfies c = -dc * W0(-exp(-1 - 1/dc)) and is within
    1e-13 of the root, relatively, for every c.  Its gap over c is
    rounded to ulp(c), so the gap is good to 1e-6 up to c = 1e20, and dc
    exceeds c only up to c of about 1e32; beyond that dc rounds to c.
    """
    if not 0 < c <= sys.float_info.max:
        raise ValueError(f"c must be positive and finite, got {c}")
    ln_c = math.log(c)

    def excess(t: float) -> float:  # c*h(t) - 1 = x*(t - 1) + c - 1 at x = c*e**t
        if t > 0.1:
            return math.exp(ln_c + t) * (t - 1.0) + c - 1.0
        h, term, j = 0.0, t * t / 2.0, 2  # term = t**j / j!
        while h + (j - 1) * term != h:
            h += (j - 1) * term
            j += 1
            term *= t / j
        return c * h - 1.0

    hi = min(2.0 * math.sqrt(2.0 / c), 1.0)  # t < 1 for c >= 1, near sqrt(2/c) for large c
    while excess(hi) < 0.0:
        hi *= 2.0
    t = _bisect(excess, 0.0, hi)  # excess(0) = -1 < 0
    return c + c * math.expm1(t) if t <= 0.1 else math.exp(ln_c + t)


_BRANCH_POINT = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function.

    Returns the w >= -1 with w*exp(w) = x, defined for x >= -1/e.  W0(x)
    lies between max(-1, min(0, e*x)) and log1p(x), where w*exp(w) - x
    increases in w, so it is bisected there to adjacent floats, which
    keeps its relative precision from subnormal x to the float maximum.

    Raises
    ------
    ValueError
        If x lies below the branch point -1/e or is not finite.
    """
    if not _BRANCH_POINT <= x <= sys.float_info.max:
        raise ValueError(f"lambert_w0 needs finite x >= -1/e ~= {_BRANCH_POINT:.9f}, got {x}")
    return _bisect(lambda w: w * math.exp(w) - x, max(-1.0, min(0.0, math.e * x)), math.log1p(x))
