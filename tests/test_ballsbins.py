import math

import numpy as np
import pytest
import scipy.special

from flashmod.ballsbins import (
    _CHUNK,
    LoadRegime,
    _place,
    _round_robin_loads,
    balls_until_overflow,
    collision_bound,
    lambert_w0,
    max_load_prediction,
    solve_dc,
    throw_balls,
)
from flashmod.sim import cycle_rng


def test_throw_balls_trivial_cases():
    assert throw_balls(4, 0, 1, cycle_rng(0, 0)).tolist() == [0, 0, 0, 0]
    for d in (1, 2, 5):
        lv = throw_balls(1, 5, d, cycle_rng(0, d))
        assert lv.tolist() == [5]
        assert lv.max() == 5 and lv.sum() == 5


def test_throw_balls_conserves_balls_and_reproduces():
    for d in (1, 2, 3):
        a = throw_balls(50, 400, d, cycle_rng(123, d))
        b = throw_balls(50, 400, d, cycle_rng(123, d))
        assert a.sum() == 400
        assert a.tolist() == b.tolist()


def test_throw_balls_validates_args():
    rng = cycle_rng(0, 0)
    with pytest.raises(ValueError):
        throw_balls(0, 1, 1, rng)
    with pytest.raises(ValueError):
        throw_balls(4, -1, 1, rng)
    with pytest.raises(ValueError):
        throw_balls(4, 1, 0, rng)


def test_all_bins_as_candidates_round_robins():
    # d >= n makes every bin a candidate, so placement is deterministic
    lv = throw_balls(4, 10, 4, cycle_rng(0, 0))
    assert lv.tolist() == [3, 3, 2, 2]


def test_uniform_placement_mean_max_load():
    """Monte Carlo oracle for n = m = 10^4 single-choice placement.

    The observed mean maximum load sits near 6.7 (Poisson tail estimate:
    sum_j P(max >= j) with P(bin >= j) from Poisson(1)), well above the
    leading-order ln n/ln ln n ~ 4.15, whose lower-order corrections are
    large at this scale.
    """
    n = m = 10_000
    maxima = [throw_balls(n, m, 1, cycle_rng(77, t)).max() for t in range(60)]
    mean = float(np.mean(maxima))
    assert 6.2 <= mean <= 7.2


def test_two_choice_mean_max_load():
    # two choices concentrate the maximum near 1 + ln ln n / ln 2
    n = m = 10_000
    maxima = [throw_balls(n, m, 2, cycle_rng(78, t)).max() for t in range(60)]
    mean = float(np.mean(maxima))
    pred = max_load_prediction(n, m, 2).predicted_max_load
    assert abs(mean - pred) <= 1.5


def test_two_choices_beat_one_choice():
    d1 = [throw_balls(256, 256, 1, cycle_rng(5, t)).max() for t in range(100)]
    d2 = [throw_balls(256, 256, 2, cycle_rng(5, t)).max() for t in range(100)]
    assert np.mean(d2) < np.mean(d1)
    # per-trial reversals are rare
    assert sum(b > a for a, b in zip(d1, d2)) <= 5


def test_balls_until_overflow_deterministic_cases():
    assert balls_until_overflow(1, 3, 1, cycle_rng(0, 0)) == 2
    # two distinct choices always find the empty bin, then both are full
    assert all(balls_until_overflow(2, 2, 2, cycle_rng(1, t)) == 2 for t in range(25))
    # d >= n rotates deterministically through all bins
    assert balls_until_overflow(5, 4, 5, cycle_rng(0, 0)) == 15


def test_balls_until_overflow_matches_sequential_reference():
    # the vectorized d=1 path agrees with a plain sequential replay of
    # the same stopping rule on the same stream
    def reference(n, q, rng):
        counts = [0] * n
        placed = 0
        draws = rng.integers(0, n, size=n * (q - 1) + 1).tolist()
        for b in draws:
            if counts[b] == q - 1:
                return placed
            counts[b] += 1
            placed += 1
        raise AssertionError("stream exhausted")

    for t in range(30):
        n, q = 8, 5
        fast = balls_until_overflow(n, q, 1, cycle_rng(200, t))
        slow = reference(n, q, cycle_rng(200, t))
        assert fast == slow


def _sequential_place(n, d, rng, balls, cap, block):
    """Plain replay of the documented draws, one ball at a time.

    d=2 takes distinct pairs from blocks of block(balls left to draw)
    draws; d>2 takes one rng.choice(n, d, replace=False) per ball.  The
    ball goes to its least loaded candidate, ties to the lowest index,
    unless that bin already holds cap balls, which ends the run.  Returns
    the bin loads.
    """
    counts = [0] * n
    candidates = []
    for _ in range(balls):
        if d == 2:
            if not candidates:
                size = block(balls - sum(counts))
                first = rng.integers(0, n, size=size)
                second = rng.integers(0, n - 1, size=size)
                second[second >= first] += 1
                candidates = [[int(a), int(b)] for a, b in zip(first, second)][::-1]
            cands = candidates.pop()
        else:
            cands = [int(c) for c in rng.choice(n, size=d, replace=False)]
        best = min(cands, key=lambda c: (counts[c], c))
        if counts[best] == cap:
            break
        counts[best] += 1
    return counts


def test_placement_kernel_matches_sequential_reference():
    # throw draws d=2 blocks of min(remaining, _CHUNK), overflow full
    # _CHUNK blocks; both public entry points must replay the reference
    def throw_block(left):
        return min(left, _CHUNK)

    def overflow_block(left):
        return _CHUNK

    for t in range(30):
        n = (5, 17, 40)[t % 3]
        d = 2 + t % 2
        m = _CHUNK + 700 if t in (0, 2) else 50 + 37 * t  # two d=2 throws cross a block
        q = 2 + t % 5
        want = _sequential_place(n, d, cycle_rng(400, t), m, m, throw_block)
        assert sum(want) == m
        assert _place(n, d, cycle_rng(400, t), m, m) == want
        assert throw_balls(n, m, d, cycle_rng(400, t)).tolist() == want

        want = _sequential_place(n, d, cycle_rng(500, t), n * (q - 1) + 1, q - 1, overflow_block)
        assert balls_until_overflow(n, q, d, cycle_rng(500, t)) == sum(want)

    # d >= n: every bin is a candidate and the kernel rotates like the
    # deterministic shortcut the public functions take
    for t in range(3):
        want = _sequential_place(4, 4, cycle_rng(600, t), 10, 10, throw_block)
        assert _place(4, 4, cycle_rng(600, t), 10, 10) == want == _round_robin_loads(4, 10).tolist()


def test_rewrite_count_scaling_at_large_q():
    """At q = 4096 and n = 8, nearly every trial reaches n*(q - q^(2/3))."""
    n, q = 8, 4096
    floor = n * (q - round(q ** (2 / 3)))  # 8 * 3840
    hits = sum(balls_until_overflow(n, q, 1, cycle_rng(300, t)) >= floor for t in range(100))
    assert hits >= 95


def test_collision_bound_examples():
    assert collision_bound(100, 100, math.e) == 1.0
    assert collision_bound(8, 2, 8) == 1.0  # (e/2)^8 ~ 11.6 before the clamp
    assert collision_bound(10_000, 10_000, 20) <= 1e-17
    with pytest.raises(ValueError):
        collision_bound(0, 1, 1)


def test_collision_bound_holds_per_bin_empirically():
    # fraction of (trial, bin) pairs at or above k stays under the bound
    n = m = 1000
    loads = np.stack([throw_balls(n, m, 1, cycle_rng(31, t)) for t in range(200)])
    for k in (4, 6):
        assert (loads >= k).mean() <= collision_bound(m, n, k)


def test_max_load_prediction_formulas():
    n = 10_000
    ln_n = math.log(n)
    p = max_load_prediction(n, n, 1)
    assert p.regime is LoadRegime.LINEAR_M
    assert p.predicted_max_load == pytest.approx(ln_n / math.log(ln_n), abs=1e-12)
    p = max_load_prediction(n, n * ln_n, 1)
    assert p.regime is LoadRegime.N_LOG_N
    assert p.predicted_max_load == pytest.approx((math.e - 1.0) * ln_n, abs=1e-9)
    p = max_load_prediction(n, n, 2)
    assert p.regime is LoadRegime.TWO_CHOICE
    assert p.predicted_max_load == pytest.approx(1.0 + math.log(ln_n) / math.log(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        max_load_prediction(2, 1, 1)


def test_solve_dc_closed_form_and_residuals():
    assert solve_dc(1.0) == pytest.approx(math.e, abs=1e-9)
    for c in (0.5, 1.0, 2.0, 5.0, 20.0):
        d = solve_dc(c)
        assert d > c
        residual = d * (math.log(c) - math.log(d) + 1.0) + 1.0 - c
        assert abs(residual) < 1e-12
    with pytest.raises(ValueError):
        solve_dc(0.0)


def test_solve_dc_small_c_still_brackets():
    # the largest root drops below 1 for tiny c; the solver must keep up
    for c in (0.05, 0.1, 0.15):
        d = solve_dc(c)
        assert d > c
        assert abs(d * (math.log(c) - math.log(d) + 1.0) + 1.0 - c) < 1e-12


def test_solve_dc_lambert_identity():
    for c in (0.5, 1.0, 2.0, 5.0):
        d = solve_dc(c)
        recovered = -d * lambert_w0(-math.exp(-1.0 - 1.0 / d))
        assert abs(recovered - c) <= 1e-6


def test_lambert_w0_examples():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)
    x = -math.exp(-1.0 - 1.0 / math.e)
    assert lambert_w0(x) == pytest.approx(-1.0 / math.e, abs=1e-12)
    assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(ValueError):
        lambert_w0(-0.4)


def test_lambert_w0_residual_on_grid():
    grid = np.linspace(-math.exp(-1.0) + 1e-6, 10.0, 100)
    for x in grid.tolist():
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) < 1e-12


def test_lambert_w0_matches_scipy():
    grid = np.linspace(-math.exp(-1.0) + 1e-6, 10.0, 57)
    for x in grid.tolist():
        assert lambert_w0(x) == pytest.approx(scipy.special.lambertw(x).real, abs=1e-10)
