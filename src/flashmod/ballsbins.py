"""Random-loading oracles and max-load analytics for balls into bins.

The simulation half places balls sequentially with d random choices per
ball: each ball samples d distinct bins uniformly at random (all bins,
when d >= n) and lands in the least loaded of them, ties going to the
lowest bin index.  d=1 is plain uniform placement; d=2 is the
two-random-choices rule the load-balancing code imitates, whose two
candidate cells are always distinct.  The analytic half predicts the
maximum load in the regimes the codes operate in, plus the root solver
and Lambert W evaluation the m = c*n*ln(n) prediction needs.

All randomness comes from caller-supplied numpy Generators, so trials
parallelize with independently seeded streams.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LoadRegime",
    "RegimePrediction",
    "throw_balls",
    "balls_until_overflow",
    "collision_bound",
    "max_load_prediction",
    "solve_dc",
    "lambert_w0",
]

_CHUNK = 1 << 14


class LoadRegime(Enum):
    """Ball-count regime a max-load prediction belongs to."""

    LINEAR_M = "linear-m"  # m below n*ln(n)
    N_LOG_N = "n-log-n"  # m = c*n*ln(n)
    POLYNOMIAL = "polynomial"  # m polynomial in n; only tail bounds here
    TWO_CHOICE = "two-choice"  # d >= 2 random choices


@dataclass(frozen=True)
class RegimePrediction:
    regime: LoadRegime
    predicted_max_load: float

    def __post_init__(self):
        if not self.predicted_max_load > 0:
            raise ValueError(f"non-positive prediction {self.predicted_max_load}")


def _check_bins(n: int, d: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")


def _round_robin_loads(n: int, m: int) -> np.ndarray:
    # d >= n means every bin is a candidate, so placement is the
    # deterministic least-loaded/lowest-index rotation
    base, extra = divmod(m, n)
    loads = np.full(n, base, dtype=np.int64)
    loads[:extra] += 1
    return loads


def _place(n: int, d: int, rng: np.random.Generator, balls: int, cap: int) -> list[int]:
    """Sequential d-choice placement of up to balls balls into n bins.

    Each ball's candidate pair goes to its less loaded member, ties to
    the lower bin index.  d=2 draws distinct pairs in blocks of
    min(balls left to draw, _CHUNK); d>2 draws rng.choice(n, d) per ball
    and lets its least loaded candidate stand in as both members of the
    pair.  Placement stops before the first ball whose bin already
    holds cap balls.  Returns the bin loads; they sum to the balls placed.
    """
    counts = [0] * n
    drawn = 0
    while drawn < balls:
        if d == 2:
            size = min(balls - drawn, _CHUNK)
            first = rng.integers(0, n, size=size)
            second = rng.integers(0, n - 1, size=size)
            second += second >= first
            pairs = zip(first.tolist(), second.tolist())
        else:
            size = 1
            best = min(rng.choice(n, size=d, replace=False).tolist(), key=lambda c: (counts[c], c))
            pairs = ((best, best),)
        drawn += size
        for c0, c1 in pairs:
            l0 = counts[c0]
            l1 = counts[c1]
            if l1 < l0 or (l1 == l0 and c1 < c0):
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
    generator the result is reproducible bit for bit.  d values above 2
    take a per-ball sampling path and are only meant for small
    experiments.
    """
    _check_bins(n, d)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if d == 1:
        # uniform placement is exchangeable: loads are the draw histogram
        if m == 0:
            return np.zeros(n, dtype=np.int64)
        return np.bincount(rng.integers(0, n, size=m), minlength=n).astype(np.int64)
    if d >= n:
        return _round_robin_loads(n, m)
    # no bin can hold m balls before the last one lands, so cap=m never stops
    return np.asarray(_place(n, d, rng, m, m), dtype=np.int64)


def balls_until_overflow(n: int, q: int, d: int, rng: np.random.Generator) -> int:
    """Balls placed before some bin would exceed q-1.

    Placement follows the throw_balls rule; the count excludes the first
    placement whose selected bin already holds q-1 balls (the placement
    that forces the overflow).  This mirrors an n-cell filling up: the
    result is the incrementing-rewrite count of one erasure cycle under
    ideal random loading.
    """
    _check_bins(n, d)
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    qm1 = q - 1
    if d == 1:
        # after n*(q-1)+1 draws some bin has been drawn q times, so a
        # fixed-size stream always contains the stopping point: it is the
        # earliest position that is the q-th occurrence of its bin
        cap = n * qm1 + 1
        draws = rng.integers(0, n, size=cap)
        order = np.argsort(draws, kind="stable")
        sorted_draws = draws[order]
        bins = np.arange(n)
        starts = np.searchsorted(sorted_draws, bins, side="left")
        ends = np.searchsorted(sorted_draws, bins, side="right")
        qth = starts + qm1
        reached = qth < ends
        return int(order[qth[reached]].min())
    if d >= n:
        # deterministic rotation fills every bin to q-1, then stalls
        return n * qm1
    # the stop fires within n*(q-1)+1 balls; a budget of whole _CHUNK
    # blocks above that keeps every d=2 draw a full block
    return sum(_place(n, d, rng, _CHUNK * (n * qm1 // _CHUNK + 1), qm1))


def collision_bound(m: float, n: float, k: float) -> float:
    """Upper bound on the chance one given bin collects at least k balls.

    Evaluates min(1, (m*e/(n*k))**k) in log space so large k cannot
    overflow.  m balls, n bins, threshold k (k may be fractional).
    """
    if m < 1 or n < 1 or k < 1:
        raise ValueError(f"need m, n, k >= 1, got m={m}, n={n}, k={k}")
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

    Returns
    -------
    RegimePrediction
        d=1 with m below n*ln(n): ln(n) / ln(n*ln(n)/m), which reduces to
        ln(n)/ln(ln(n)) at m=n.  d=1 with m = c*n*ln(n): (dc(c)-1)*ln(n)
        with dc from solve_dc.  d>=2: m/n + ln(ln(n))/ln(d).

    These are leading-order point estimates: at moderate n the d=1 value
    undershoots the observed mean noticeably (the next-order corrections
    are large), so compare with generous tolerances.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    ln_n = math.log(n)
    if d >= 2:
        return RegimePrediction(LoadRegime.TWO_CHOICE, m / n + math.log(ln_n) / math.log(d))
    n_log_n = n * ln_n
    if m < n_log_n:
        return RegimePrediction(LoadRegime.LINEAR_M, ln_n / math.log(n_log_n / m))
    c = m / n_log_n
    return RegimePrediction(LoadRegime.N_LOG_N, (solve_dc(c) - 1.0) * ln_n)


def solve_dc(c: float) -> float:
    """Largest positive root of g(x) = x*(ln(c) - ln(x) + 1) + 1 - c.

    This root scales the maximum load in the m = c*n*ln(n) regime.  g
    peaks at x = c with g(c) = 1 and decreases monotonically beyond, so
    the largest root lies in (c, inf); it is bracketed there and bisected
    to machine precision.  The result always exceeds c and satisfies the
    implicit identity c = -dc * W0(-exp(-1 - 1/dc)).
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    ln_c = math.log(c)

    def g(x: float) -> float:
        return x * (ln_c - math.log(x) + 1.0) + 1.0 - c

    lo = c  # g(lo) = 1 > 0
    hi = c + 40.0
    while g(hi) > 0.0:
        hi = c + 2.0 * (hi - c)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi if abs(g(hi)) < abs(g(lo)) else lo


_BRANCH_POINT = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function.

    Returns the w >= -1 with w*exp(w) = x, defined for x >= -1/e.  A
    series guess near the branch point (a log-based guess elsewhere) is
    refined with Halley iterations until the residual w*exp(w) - x sits
    at machine level.

    Raises
    ------
    ValueError
        If x lies below the branch point -1/e.
    """
    if x < _BRANCH_POINT:
        raise ValueError(f"lambert_w0 needs x >= -1/e ~= {_BRANCH_POINT:.9f}, got {x}")
    if x == 0.0:
        return 0.0
    if x < -0.3:
        # expansion in p = sqrt(2(e*x + 1)) around w(-1/e) = -1
        p = math.sqrt(max(2.0 * (math.e * x + 1.0), 0.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif x <= math.e:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-14 * max(1.0, abs(x)):
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            w = -1.0 + 1e-12
            continue
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        if w < -1.0:
            w = -1.0
    return w
