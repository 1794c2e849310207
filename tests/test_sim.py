import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_codes import reference_lb_encode, reference_sr_encode

import flashmod.sim as sim
from flashmod.codes import make_code
from flashmod.core import ERASE_REQUIRED, WRITTEN, CellState, CodeKind, CodeParams
from flashmod.field import FieldSpec
from flashmod.sim import (
    DistributionSpec,
    cycle_rng,
    gamma_upper_bounds,
    min_of_n_expectation,
    run_cycle,
    run_experiment,
)


def uniform(k):
    return DistributionSpec.uniform(2**k)


class TestDistributionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec([0.5, 0.6])
        with pytest.raises(ValueError):
            DistributionSpec([1.5, -0.5])
        with pytest.raises(ValueError):
            DistributionSpec([])
        with pytest.raises(ValueError, match="size must be >= 1, got 0"):
            DistributionSpec.uniform(0)
        with pytest.raises(TypeError):
            DistributionSpec.uniform(4.0)
        DistributionSpec([0.25, 0.25, 0.25, 0.25 + 5e-10])  # inside tolerance
        # a NaN entry makes the sum NaN, which slips past the tolerance test
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                DistributionSpec([0.5, bad, 0.5, 0.0])

    def test_probs_is_a_read_only_copy(self):
        caller = np.array([0.5, 0.5, 0.0, 0.0])
        dist = DistributionSpec(caller)
        caller[:] = [0.0, 0.0, 0.5, 0.5]  # must move neither probs nor the sampler
        assert dist.probs.tolist() == [0.5, 0.5, 0.0, 0.0]
        assert set(dist.sample_block(cycle_rng(6, 0), 200).tolist()) == {0, 1}
        with pytest.raises(ValueError):
            dist.probs[0] = 1.0

    def test_entropy_examples(self):
        assert uniform(3).entropy_bits == pytest.approx(3.0, abs=1e-12)
        assert DistributionSpec([0.5, 0.5, 0, 0]).entropy_bits == 1.0  # zero masses add nothing
        assert DistributionSpec([0.5, 0.25, 0.25]).entropy_bits == pytest.approx(1.5, abs=1e-12)

    def test_support_size(self):
        "A law must draw two values or more: a point mass no-ops forever, so its cycles never end."
        # 1e-300 is too small ever to be drawn
        for probs in ([0, 0, 0, 1], [1.0], [1e-300, 1.0], [1, 1e-300]):
            with pytest.raises(ValueError, match="positive probability"):
                DistributionSpec(probs)
        with pytest.raises(ValueError, match="positive probability"):
            DistributionSpec.uniform(1)

    def test_point_mass_rejected(self):
        "The two-value rule counts masses strictly above TOLERANCE, at any position and size."
        tol = DistributionSpec.TOLERANCE
        for size in range(1, 7):
            for pos in range(size):
                probs = [0.0] * size
                probs[pos] = 1.0
                with pytest.raises(ValueError, match="positive probability"):
                    DistributionSpec(probs)
        with pytest.raises(ValueError, match="positive probability"):
            DistributionSpec([1.0 - tol, tol])
        DistributionSpec([1.0 - 2 * tol, 2 * tol])  # just above the tolerance: drawn, if rarely


class KeyRng:
    """A stand-in Generator whose random(count) returns fixed keys."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=float)

    def random(self, count):
        assert count == self.keys.size
        return self.keys.copy()


def assert_draws_are_searched(dist, rng, keys):
    "sample_block's draws from rng equal the search of its keys, element for element."
    draws = dist.sample_block(rng, len(keys))
    assert draws.dtype == np.intp
    assert draws.tolist() == dist._cum.searchsorted(keys, side="right").tolist()


@st.composite
def laws(draw):
    """Laws of 2-64 values: uniform, dyadic or weighted, with zeros and tiny masses."""
    size = draw(st.integers(2, 60))
    family = draw(st.sampled_from(["uniform", "dyadic", "weights"]))
    if family == "uniform":
        probs = [1.0 / size] * size
    elif family == "dyadic":
        # halve a mass size-1 times: every mass is 2**-e and the sum is exactly 1
        probs = [1.0]
        for _ in range(size - 1):
            i = draw(st.integers(0, len(probs) - 1))
            probs[i : i + 1] = [probs[i] / 2, probs[i] / 2]
    else:
        mass = st.one_of(st.just(0.0), st.floats(1e-11, 1e-9), st.floats(1e-3, 1.0))
        weights = np.array([1.0, 1.0] + draw(st.lists(mass, min_size=size - 2, max_size=size - 2)))
        probs = draw(st.permutations((weights / weights.sum()).tolist()))
    # zero masses inside the law and at its end
    for at in draw(st.lists(st.integers(0, len(probs)), max_size=4)):
        probs.insert(at, 0.0)
    return probs


class TestSampling:
    def test_zero_probability_values_never_drawn(self):
        dist = DistributionSpec([0.5, 0.5, 0, 0])
        draws = dist.sample_block(cycle_rng(1, 0), 5000)
        assert set(np.unique(draws)) <= {0, 1}

    def test_trailing_zero_mass_never_drawn_below_a_short_sum(self):
        "A sum just short of 1 must not hand the gap to a zero mass after it."

        class StubRng:
            def random(self, count):
                return np.array([0.0, 0.4999999999, 0.5, 0.9999999994, 0.9999999996, np.nextafter(1.0, 0.0)])[:count]

        dist = DistributionSpec([0.5, 0.4999999995, 0.0])
        assert dist.sample_block(StubRng(), 6).tolist() == [0, 0, 1, 1, 1, 1]

    @given(law=laws(), seed=st.integers(0, 2**32 - 1))
    @example(law=[0.5, 0.4999999995, 0.0], seed=0)
    @example(law=[0.25, 0.0, 0.25, 0.0, 0.5, 0.0, 0.0], seed=1)
    @example(law=[1e-11] * 8 + [0.5 - 4e-11, 0.5 - 4e-11], seed=2)
    @example(law=[0.125] * 8, seed=3)
    def test_guide_table_equals_the_search(self, law, seed):
        "Every draw equals the inverse-CDF binary search, at each CDF step and just below it."
        dist = DistributionSpec(law)
        below_one = dist._cum[dist._cum < 1.0]
        # only a bucket with a CDF step strictly inside it is searched; a step on
        # a bucket edge (every step of a uniform law over 2**k values) crosses none
        scaled = below_one * dist._buckets
        crossed = set(scaled[scaled % 1 != 0].astype(int).tolist())
        assert set(np.flatnonzero(dist._guide < 0).tolist()) == crossed
        assert dist._split == bool(crossed)
        keys = np.concatenate(([0.0], below_one, np.nextafter(below_one, 0.0), [np.nextafter(1.0, 0.0)]))
        assert_draws_are_searched(dist, KeyRng(keys), keys)
        assert_draws_are_searched(dist, cycle_rng(seed, 0), cycle_rng(seed, 0).random(2000))

    def test_guide_table_is_capped(self):
        "A law of more than 2**16 values fills the capped table and still draws as the search does."
        weights = cycle_rng(12, 0).random(70_000)
        weights[::7] = 0.0
        dist = DistributionSpec(weights / weights.sum())
        assert dist._guide.size == 1 << 20
        assert_draws_are_searched(dist, cycle_rng(12, 1), cycle_rng(12, 1).random(50_000))

    def test_uniform_frequencies_within_3_sigma(self):
        dist = uniform(2)
        draws = dist.sample_block(cycle_rng(2, 0), 100_000)
        counts = np.bincount(draws, minlength=4)
        sigma = (100_000 * 0.25 * 0.75) ** 0.5
        assert np.all(np.abs(counts - 25_000) <= 3 * sigma)

    @given(a=st.integers(0, 400).map(lambda i: 2 * i + 1), b=st.integers(0, 801), seed=st.integers(0, 2**32 - 1))
    @example(a=1, b=0, seed=0)
    @example(a=511, b=1024, seed=1)
    def test_split_draws_continue_one_stream(self, a, b, seed):
        "Draws of a then b equal draws of a + b: what lets run_cycle's blocks and a replayed tape agree."
        dist = hot_law(16)
        assert dist._split  # crossed buckets: the searched path is exercised too
        split = cycle_rng(seed, 0)
        parts = np.concatenate((dist.sample_block(split, a), dist.sample_block(split, b)))
        assert parts.tolist() == dist.sample_block(cycle_rng(seed, 0), a + b).tolist()


class TestRunCycle:
    def test_counts_and_bounds(self):
        params = CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
        stats = run_cycle(make_code(params), uniform(2), cycle_rng(3, 0))
        assert 1 <= stats.r_inc <= params.total_levels
        assert stats.r_inc <= stats.r_total

    def test_one_increment_per_cell_at_q2(self):
        params = CodeParams(k=3, l=2, q=2, kind=CodeKind.SELF_RANDOMIZED)
        for i in range(20):
            stats = run_cycle(make_code(params), uniform(3), cycle_rng(4, i))
            assert stats.r_inc <= params.n

    def test_deterministic_given_stream(self):
        params = CodeParams(k=1, l=2, q=3, kind=CodeKind.LOAD_BALANCING)
        code = make_code(params)
        a = run_cycle(code, uniform(1), cycle_rng(5, 7))
        b = run_cycle(code, uniform(1), cycle_rng(5, 7))
        assert a == b

    def test_dist_size_must_match(self):
        params = CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
        with pytest.raises(ValueError):
            run_cycle(make_code(params), uniform(1), cycle_rng(0, 0))


def reference_run_cycle(params, dist, rng):
    """(r_inc, r_total) of one cycle, written by the reference codes in test_codes."""
    if params.kind is CodeKind.LOAD_BALANCING:
        field = FieldSpec(params.k + 1)
        encode = lambda cells, x: reference_lb_encode(params, field, cells, x)  # noqa: E731
    else:
        encode = lambda cells, x: reference_sr_encode(params, cells, x)  # noqa: E731
    state = CellState.zeros(params.n, params.q)
    r_inc = r_total = 0
    while True:
        for x in dist.sample_block(rng, 512).tolist():
            out = encode(state, x)
            if out is ERASE_REQUIRED:
                return r_inc, r_total
            r_inc += out is WRITTEN
            r_total += 1


def hot_law(size):
    """p(0) = 0.7, the last value never drawn (from size 3 on), the rest uniform."""
    probs = np.zeros(size)
    rest = size - 1 if size == 2 else size - 2
    probs[1 : 1 + rest] = 0.3 / rest
    probs[0] = 0.7
    return DistributionSpec(probs)


@settings(max_examples=40)
@given(
    kind=st.sampled_from(list(CodeKind)),
    k=st.integers(1, 10),
    q=st.sampled_from([2, 4, 16]),
    hot=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, 1000),
)
@example(kind=CodeKind.LOAD_BALANCING, k=10, q=16, hot=True, seed=7, index=3)
@example(kind=CodeKind.SELF_RANDOMIZED, k=10, q=4, hot=False, seed=8, index=0)
# n = 2 and n = 4 cells: run_cycle's blocks double from 2n, so these cycles
# cross several block boundaries while the reference draws 512 at a time
@example(kind=CodeKind.SELF_RANDOMIZED, k=1, q=16, hot=False, seed=9, index=1)
@example(kind=CodeKind.LOAD_BALANCING, k=1, q=16, hot=True, seed=10, index=2)
def test_run_cycle_matches_reference_loop(kind, k, q, hot, seed, index):
    "CycleStats equal a reference loop's on the same stream: same draws, outcomes and counts."
    params = CodeParams(k=k, l=2, q=q, kind=kind)
    dist = hot_law(params.value_count) if hot else uniform(k)
    stats = run_cycle(make_code(params), dist, cycle_rng(seed, index))
    assert (stats.r_inc, stats.r_total) == reference_run_cycle(params, dist, cycle_rng(seed, index))


class TestRunExperiment:
    def test_single_cycle_equals_run_cycle(self):
        params = CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
        dist = uniform(2)
        single = run_cycle(make_code(params), dist, cycle_rng(11, 0))
        stats = run_experiment(params, dist, cycles=1, master_seed=11)
        assert stats.mean_r_inc == single.r_inc
        assert stats.mean_r_total == single.r_total

    def test_validation(self):
        params = CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
        with pytest.raises(ValueError, match="cycles must be >= 1, got 0"):
            run_experiment(params, uniform(2), 0, 1)
        with pytest.raises(TypeError):
            run_experiment(params, uniform(2), 2.0, 1)
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            run_experiment(params, uniform(2), 2, -1)

    def test_repeatable_for_fixed_seed(self):
        params = CodeParams(k=2, l=2, q=8, kind=CodeKind.LOAD_BALANCING)
        a = run_experiment(params, uniform(2), 50, 21)
        b = run_experiment(params, uniform(2), 50, 21)
        assert a == b

    def test_metric_formulas(self):
        params = CodeParams(k=2, l=2, q=8, kind=CodeKind.SELF_RANDOMIZED)
        dist = uniform(2)
        stats = run_experiment(params, dist, 40, 31)
        budget = params.total_levels
        assert stats.eta == pytest.approx(1.0 - stats.mean_r_inc / budget, abs=1e-15)
        assert stats.gamma == pytest.approx(stats.mean_r_inc * dist.entropy_bits / budget, abs=1e-15)
        assert 0.0 <= stats.eta < 1.0
        assert stats.gamma <= params.k * math.log2(params.l)

    def test_eta_tracks_single_choice_oracle(self):
        # light version of the random-loading equivalence: one grid point
        from flashmod.ballsbins import balls_until_overflow

        params = CodeParams(k=3, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
        stats = run_experiment(params, uniform(3), 1000, 41)
        oracle = np.mean([balls_until_overflow(8, 4, 1, cycle_rng(42, t)) for t in range(1000)])
        eta_oracle = 1.0 - oracle / params.total_levels
        assert abs(stats.eta - eta_oracle) <= 0.02


def sweep_points(kind, k, qs):
    return [CodeParams(k=k, l=2, q=q, kind=kind) for q in qs]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(CodeKind)),
    k=st.integers(1, 6),
    qs=st.lists(st.integers(2, 24), min_size=1, max_size=5),
    hot=st.booleans(),
    cycles=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind=CodeKind.SELF_RANDOMIZED, k=3, qs=[32, 2, 8, 2], hot=False, cycles=3, seed=91)
@example(kind=CodeKind.LOAD_BALANCING, k=2, qs=[16, 4, 16, 2], hot=True, cycles=2, seed=7)
def test_sweep_equals_a_lone_run_per_point(kind, k, qs, hot, cycles, seed):
    "Every point of a q sweep, unsorted and with repeats, reads as a lone run_experiment at its q."
    points = sweep_points(kind, k, qs)
    dist = hot_law(2**k) if hot else uniform(k)
    sweep = run_experiment(points, dist, cycles, seed)
    assert [s._asdict() for s in sweep] == [run_experiment(p, dist, cycles, seed)._asdict() for p in points]


@pytest.mark.parametrize("kind", list(CodeKind))
def test_sweep_past_the_kept_prefix(kind, monkeypatch):
    "With the cap low, points read past the kept inputs and still equal lone runs; no tape keeps more than the cap."
    cap = 40
    monkeypatch.setattr(sim, "_KEEP", cap)
    kept, past = [], []
    lone_cycle = sim.run_cycle

    def run_cycle(code, dist, rng):
        stats = lone_cycle(code, dist, rng)
        kept.append(sum(map(len, rng._kept)))
        past.append(stats.r_total + 1 > kept[-1])  # the erase write is read too
        return stats

    monkeypatch.setattr(sim, "run_cycle", run_cycle)
    points = sweep_points(kind, 2, (64, 3, 64, 16))
    dist = hot_law(4)
    sweep = run_experiment(points, dist, 6, 5)
    monkeypatch.undo()
    assert sweep == [run_experiment(p, dist, 6, 5) for p in points]
    assert len(kept) == 6 * len(points) and max(kept) <= cap
    assert sum(past) >= 6 * 2  # the q=64 points of every cycle, at least


def test_sweep_refuses_mixed_points():
    "Only q may differ between the points of one sweep."
    dist = uniform(2)
    for points in (
        [],
        sweep_points(CodeKind.SELF_RANDOMIZED, 2, (4,)) + sweep_points(CodeKind.SELF_RANDOMIZED, 3, (4,)),
        sweep_points(CodeKind.SELF_RANDOMIZED, 2, (4,)) + sweep_points(CodeKind.LOAD_BALANCING, 2, (4,)),
    ):
        with pytest.raises(ValueError, match="only q may differ"):
            run_experiment(points, dist, 2, 1)


def test_cycle_rng_is_stable_and_independent():
    a = cycle_rng(9, 0).integers(0, 1 << 30, size=4)
    b = cycle_rng(9, 0).integers(0, 1 << 30, size=4)
    c = cycle_rng(9, 1).integers(0, 1 << 30, size=4)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


def test_gamma_upper_bounds_examples():
    single, arbitrary = gamma_upper_bounds(3, 2)
    assert single == pytest.approx(math.log2(6), abs=1e-12)
    assert arbitrary == pytest.approx(3.0, abs=1e-12)
    assert gamma_upper_bounds(1, 2) == (1.0, 1.0)
    assert gamma_upper_bounds(2, 2) == (2.0, 2.0)
    # past float range: k or l, and then a finite k whose ceiling k*log2(l) is not
    for k, l in ((0, 2), (2, 1), (10**400, 2), (2, 10**400), (int(1.7e308), 4)):
        with pytest.raises(ValueError):
            gamma_upper_bounds(k, l)


class TestMinOfN:
    def test_constant_samples(self):
        for n in (1, 3, 10):
            assert min_of_n_expectation([4.0] * 8, n) == 4.0

    def test_n1_matches_sample_mean(self):
        samples = cycle_rng(1, 0).normal(10.0, 2.0, size=400)
        assert min_of_n_expectation(samples, 1) == pytest.approx(samples.mean(), rel=1e-12)

    def test_large_n_tends_to_minimum(self):
        assert min_of_n_expectation([2.0, 1.0], 2) == 1.25
        assert min_of_n_expectation([1.0, 2.0], 50) == pytest.approx(1.0, abs=1e-12)
        # every ordered triple of draws from a small sample, ties included
        samples = [3.0, 1.0, 4.0, 1.0, 5.0]
        brute = np.mean([min(t) for t in itertools.product(samples, repeat=3)])
        assert min_of_n_expectation(samples, 3) == pytest.approx(brute, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            min_of_n_expectation([], 1)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            min_of_n_expectation([1.0], 0)
        with pytest.raises(TypeError):
            min_of_n_expectation([1, 2, 3], 2.5)
