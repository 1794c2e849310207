import math
import re
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from flashmod.ballsbins import (
    _CHUNK,
    LoadRegime,
    _place,
    balls_until_overflow,
    collision_bound,
    lambert_w0,
    max_load_prediction,
    overflow_survival,
    solve_dc,
    survival_mean_eta,
    throw_balls,
)
from flashmod.sim import cycle_rng, cycle_rngs


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


def test_throw_balls_returns_a_new_int64_array():
    # README promises int64 loads; each call returns its own writable array
    for n, d in ((30, 1), (30, 2), (30, 3), (1, 2)):
        a = throw_balls(n, 40, d, cycle_rng(9, d))
        b = throw_balls(n, 40, d, cycle_rng(9, d))
        assert type(a) is np.ndarray and a.dtype == np.int64 and a.shape == (n,), (n, d)
        assert a.flags.writeable and a.flags.owndata and not np.shares_memory(a, b), (n, d)
        a += 1
        assert b.sum() == 40 and a.sum() == 40 + n, (n, d)
    for d in (1, 2, 3):
        assert type(balls_until_overflow(16, 4, d, cycle_rng(9, d))) is int


def test_throw_balls_validates_args():
    rng = cycle_rng(0, 0)
    for n, m, d, message in ((0, 1, 1, "n must be in"), (4, -1, 1, "m must be >= 0, got -1"), (4, 1, 0, "d must be >= 1")):
        with pytest.raises(ValueError, match=message):
            throw_balls(n, m, d, rng)
    for n, q, d, message in ((0, 2, 1, "n must be in"), (4, 1, 1, "q must be >= 2, got 1"), (4, 2, 0, "d must be >= 1")):
        with pytest.raises(ValueError, match=message):
            balls_until_overflow(n, q, d, rng)
    # one bin past 2^MAX_LOG2_N is refused before the load vector is allocated
    with pytest.raises(ValueError, match="2\\^24"):
        throw_balls(2**24 + 1, 1, 1, rng)
    with pytest.raises(ValueError, match="2\\^24"):
        balls_until_overflow(2**24 + 1, 2, 2, rng)
    # a float count is refused, not used as given or sent on to NumPy
    for n, m_or_q, d in ((16, 20, 2.0), (16.0, 20, 2), (16, 20.0, 1), (16, 4.5, 2)):
        with pytest.raises(TypeError):
            throw_balls(n, m_or_q, d, rng)
        with pytest.raises(TypeError):
            balls_until_overflow(n, m_or_q, d, rng)
    assert throw_balls(np.int64(4), np.int32(3), np.uint8(2), rng).sum() == 3
    assert 2 <= balls_until_overflow(np.int64(4), np.int32(3), np.uint8(2), rng) <= 8


def test_all_bins_as_candidates_round_robins():
    # d >= n makes every bin a candidate, so placement is deterministic
    for d in (4, 9):
        for t in range(3):
            assert throw_balls(4, 10, d, cycle_rng(t, d)).tolist() == [3, 3, 2, 2], (d, t)


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
    assert balls_until_overflow(5, 4, 8, cycle_rng(0, 0)) == 15


def test_balls_until_overflow_matches_sequential_reference():
    # the blocked d=1 path agrees with a plain sequential replay of
    # the same stopping rule on one draw of the whole budget
    n, q = 8, 5
    for t in range(30):
        fast = balls_until_overflow(n, q, 1, cycle_rng(200, t))
        slow = sum(_sequential_place(n, 1, cycle_rng(200, t), n * (q - 1) + 1, q - 1))
        assert fast == slow


def exact_overflow_mean(n, q, d):
    """E[T] for balls_until_overflow(n, q, d), exactly, from the load-profile chain.

    The profile (c_0, ..., c_{q-1}) counts the bins at each load; under d
    distinct uniform choices it is a Markov chain, whatever the tie rule.
    With S_j the bins at load >= j, a ball lands on level j with
    probability [C(S_j, d) - C(S_{j+1}, d)] / C(n, d); landing on level
    q-1 stops the trial.  Each placement adds one ball, so the live mass
    after t placements is P(T >= t), and E[T] is its sum over t >= 1.
    """
    total = math.comb(n, d)
    layer = {(n,) + (0,) * (q - 1): Fraction(1)}
    mean = Fraction(0)
    while layer:
        nxt = {}
        for profile, mass in layer.items():
            at_least = [sum(profile[j:]) for j in range(q)] + [0]
            for j in range(q - 1):  # level q-1 stops the trial
                ways = math.comb(at_least[j], d) - math.comb(at_least[j + 1], d)
                if ways:
                    moved = list(profile)
                    moved[j] -= 1
                    moved[j + 1] += 1
                    key = tuple(moved)
                    nxt[key] = nxt.get(key, 0) + mass * Fraction(ways, total)
        layer = nxt
        mean += sum(layer.values())
    return mean


def test_overflow_oracles_match_the_exact_chain():
    # eta = 1 - E[T] / (n(q-1)), the values of the float prototype of the chain
    for (n, q, d), eta in (((8, 4, 1), 0.4810), ((8, 4, 2), 0.1673), ((16, 2, 2), 0.4849), ((16, 4, 2), 0.2420)):
        mean = exact_overflow_mean(n, q, d)
        assert round(1 - float(mean) / (n * (q - 1)), 4) == eta, (n, q, d)
        # 4000 trials of one fixed seed land within 4 standard errors of E[T]
        trials = np.array([balls_until_overflow(n, q, d, rng) for rng in cycle_rngs(4242, 0, 4000)])
        z = (trials.mean() - float(mean)) / (trials.std(ddof=1) / math.sqrt(trials.size))
        assert abs(z) <= 4, (n, q, d, z)


def test_overflow_survival_matches_the_exact_chain():
    # the library's float chain against the Fraction reference, and the prototype's eta values
    for (n, q, d), eta in (((8, 4, 1), 0.4810), ((8, 4, 2), 0.1673), ((16, 2, 2), 0.4849), ((16, 4, 2), 0.2420), ((8, 8, 2), 0.0764)):
        masses = overflow_survival(n, q, d)
        mean, got = survival_mean_eta(masses, n, q)
        assert mean == pytest.approx(float(exact_overflow_mean(n, q, d)), rel=1e-12, abs=0), (n, q, d)
        assert round(got, 4) == eta, (n, q, d)
        # P(T >= 0) = 1, never rising, down to the first empty layer's 0
        assert masses[0] == 1.0 and masses[-1] == 0.0 and len(masses) <= n * (q - 1) + 2
        assert all(later <= earlier for earlier, later in zip(masses, masses[1:])), (n, q, d)
    # d above n reads as every bin, as the placement kernel reads it
    assert overflow_survival(4, 4, 9) == overflow_survival(4, 4, 4)


def test_overflow_survival_refuses_big_chains_and_bad_args():
    # C(31, 15) ~ 3e8 profiles, and one chain too big even to expand its count: refused before any layer
    for (n, q), count in (((16, 16), "300540195"), ((2**24, 10**100), f"C({2**24 + 10**100 - 1}, {2**24})")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"n={n}, q={q} has {re.escape(count)} states, more than 500000"):
            overflow_survival(n, q, 2)
        assert time.perf_counter() - start < 1.0
    for n, q, d, message in ((0, 2, 1, "n must be in"), (4, 1, 1, "q must be >= 2, got 1"), (4, 2, 0, "d must be >= 1")):
        with pytest.raises(ValueError, match=message):
            overflow_survival(n, q, d)
    with pytest.raises(ValueError, match="2\\^24"):
        overflow_survival(2**24 + 1, 2, 2)
    with pytest.raises(TypeError):
        overflow_survival(8, 4.0, 2)
    with pytest.raises(ValueError, match="q must be >= 2"):
        survival_mean_eta([1.0, 0.0], 4, 1)


def _sequential_place(n, d, rng, balls, cap):
    """Plain replay of the documented draws, one ball at a time.

    d=2 takes distinct pairs from blocks of min(balls left to draw,
    _CHUNK) draws; d=1 takes all its draws in one rng.integers call,
    which the kernel's blocks must reproduce exactly; d>2 takes one
    rng.choice(n, d, replace=False) per ball.  The ball goes to its
    least loaded candidate, ties to the lowest index, unless that bin
    already holds cap balls, which ends the run.  Returns the bin loads.
    """
    counts = [0] * n
    candidates = []
    for _ in range(balls):
        if d <= 2:
            if not candidates:
                size = balls if d == 1 else min(balls - sum(counts), _CHUNK)
                first = rng.integers(0, n, size=size)
                if d == 1:
                    candidates = [[int(a)] for a in first][::-1]
                else:
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
    # throw and overflow both draw blocks of min(balls left, _CHUNK), the
    # overflow budget being n*(q-1)+1; both public entry points must
    # replay the reference
    for t in range(30):
        n = (5, 17, 40)[t % 3]
        d = 2 + t % 2
        m = _CHUNK + 700 if t in (0, 2) else 50 + 37 * t  # two d=2 throws cross a block
        q = 2 + t % 5
        want = _sequential_place(n, d, cycle_rng(400, t), m, m)
        assert sum(want) == m
        assert _place(n, d, cycle_rng(400, t), m, m) == want
        assert throw_balls(n, m, d, cycle_rng(400, t)).tolist() == want

        want = _sequential_place(n, d, cycle_rng(500, t), n * (q - 1) + 1, q - 1)
        assert balls_until_overflow(n, q, d, cycle_rng(500, t)) == sum(want)

    # d=1: the kernel's blocks replay one whole draw of the budget
    for t in range(3):
        # a budget of 8*4095+1 balls that stops past the first block
        want = _sequential_place(8, 1, cycle_rng(700, t), 8 * 4095 + 1, 4095)
        assert sum(want) > _CHUNK
        assert balls_until_overflow(8, 4096, 1, cycle_rng(700, t)) == sum(want)
        # a chunked throw equals the histogram of one draw of all m balls
        m = 2 * _CHUNK + 5
        hist = np.bincount(cycle_rng(800, t).integers(0, 17, size=m), minlength=17)
        assert throw_balls(17, m, 1, cycle_rng(800, t)).tolist() == hist.tolist()

    # d >= n: every bin is a candidate and the kernel rotates
    # deterministically through the bins, lowest index first
    for t in range(3):
        want = _sequential_place(4, 4, cycle_rng(600, t), 10, 10)
        assert _place(4, 4, cycle_rng(600, t), 10, 10) == want == [3, 3, 2, 2]


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
    for m, n, k in ((0, 1, 1), (math.nan, 1, 1), (1, math.inf, 1), (1, 1, math.inf), (1, 1, math.nan)):
        with pytest.raises(ValueError):
            collision_bound(m, n, k)


def test_collision_bound_refuses_ints_past_float_range():
    for m, n, k in ((10**400, 2, 2), (2, 10**400, 2), (2, 2, 10**400)):
        with pytest.raises(ValueError, match="need finite m, n, k >= 1"):
            collision_bound(m, n, k)


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
    # no regime predicts below the pigeonhole floor ceil(m/n) ...
    for n, m, d, regime, floor in (
        (3, 1, 1, LoadRegime.LINEAR_M, 1.0),
        (3, 1, 2, LoadRegime.TWO_CHOICE, 1.0),
        (10, 2, 1, LoadRegime.LINEAR_M, 1.0),
        (3, 7, 2, LoadRegime.TWO_CHOICE, 3.0),
        # ... nor above the pigeonhole ceiling m: no bin holds more balls than were thrown
        (1_000_000, 1, 2, LoadRegime.TWO_CHOICE, 1.0),
        (64, 266, 1, LoadRegime.LINEAR_M, 266.0),
    ):
        p = max_load_prediction(n, m, d)
        assert (p.regime, p.predicted_max_load) == (regime, floor), (n, m, d)
    bad = ((2, 1), (math.nan, 100), (math.inf, 100), (100, math.nan), (100, math.inf), (10**400, 100), (100, 10**400))
    for n, m in bad:
        with pytest.raises(ValueError):
            max_load_prediction(n, m, 1)
    with pytest.raises(TypeError):  # not the d=1 prediction
        max_load_prediction(100, 100, 1.5)
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        max_load_prediction(100, 100, 0)
    assert max_load_prediction(100, 100, np.int64(2)) == max_load_prediction(100, 100, 2)
    # an integer m a few units below n*ln(n) rounds onto it: no division by a zero log
    n = 10**17
    p = max_load_prediction(n, int(n * math.log(n)) - 1, 1)
    assert p.regime is LoadRegime.N_LOG_N and math.isfinite(p.predicted_max_load)


def test_solve_dc_closed_form_and_residuals():
    assert solve_dc(1.0) == pytest.approx(math.e, abs=1e-9)
    for c in (0.5, 1.0, 2.0, 5.0, 20.0):
        d = solve_dc(c)
        assert d > c
        residual = d * (math.log(c) - math.log(d) + 1.0) + 1.0 - c
        assert abs(residual) < 1e-12
    for c in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_dc(c)


def test_solve_dc_refuses_an_int_past_float_range():
    with pytest.raises(ValueError, match="c must be positive and finite"):
        solve_dc(10**400)


def test_solve_dc_keeps_the_gap_at_large_c():
    # dc - c, about sqrt(2c), against mpmath's root of g at 80 digits
    for c, gap in ((1e14, 14142135.9570643), (1e15, 44721359.8833291), (1e20, 14142135624.0643)):
        assert solve_dc(c) - c == pytest.approx(gap, rel=1e-6), c


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
    for x in (-0.4, math.nan, math.inf):
        with pytest.raises(ValueError):
            lambert_w0(x)


def test_lambert_w0_refuses_an_int_past_float_range():
    with pytest.raises(ValueError, match="lambert_w0 needs finite x"):
        lambert_w0(10**400)


def test_lambert_w0_residual_on_grid():
    grid = np.linspace(-math.exp(-1.0) + 1e-6, 10.0, 100)
    for x in grid.tolist():
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) < 1e-12


def test_lambert_w0_matches_scipy():
    # near -1/e the problem itself is ill-conditioned, so this grid is held to an absolute tolerance
    grid = np.linspace(-math.exp(-1.0) + 1e-6, 10.0, 57)
    for x in grid.tolist():
        assert lambert_w0(x) == pytest.approx(scipy.special.lambertw(x).real, abs=1e-10)
    # away from it W0 is well conditioned: relative accuracy from subnormal x to the float maximum
    positive = np.exp(np.linspace(math.log(5e-324), math.log(sys.float_info.max), 201))
    positive[[0, -1]] = 5e-324, sys.float_info.max
    negative = -np.exp(np.linspace(math.log(1e-300), math.log(1e-2), 101))
    for x in positive.tolist() + negative.tolist():
        assert lambert_w0(x) == pytest.approx(scipy.special.lambertw(x).real, rel=1e-13, abs=0.0), x
