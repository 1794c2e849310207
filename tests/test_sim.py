import math

import numpy as np
import pytest

from flashmod.codes import make_code
from flashmod.core import CodeKind, CodeParams
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
        DistributionSpec([0.25, 0.25, 0.25, 0.25 + 5e-10])  # inside tolerance
        # a NaN entry makes the sum NaN, which slips past the tolerance test
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                DistributionSpec([0.5, bad, 0.5, 0.0])

    def test_entropy_examples(self):
        assert uniform(3).entropy_bits == pytest.approx(3.0, abs=1e-12)
        assert DistributionSpec([0, 0, 0, 1]).entropy_bits == 0.0
        assert DistributionSpec([0.5, 0.25, 0.25]).entropy_bits == pytest.approx(1.5, abs=1e-12)

    def test_support_size(self):
        assert DistributionSpec([0.5, 0.5, 0, 0]).support_size == 2
        assert uniform(2).support_size == 4


class TestSampling:
    def test_point_mass(self):
        dist = DistributionSpec([0, 0, 0, 1])
        rng = cycle_rng(0, 0)
        assert all(int(dist.sample_block(rng, 1)[0]) == 3 for _ in range(50))

    def test_zero_probability_values_never_drawn(self):
        dist = DistributionSpec([0.5, 0.5, 0, 0])
        draws = dist.sample_block(cycle_rng(1, 0), 5000)
        assert set(np.unique(draws)) <= {0, 1}

    def test_uniform_frequencies_within_3_sigma(self):
        dist = uniform(2)
        draws = dist.sample_block(cycle_rng(2, 0), 100_000)
        counts = np.bincount(draws, minlength=4)
        sigma = (100_000 * 0.25 * 0.75) ** 0.5
        assert np.all(np.abs(counts - 25_000) <= 3 * sigma)


class TestRunCycle:
    def test_counts_and_bounds(self):
        params = CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
        stats = run_cycle(make_code(params), uniform(2), cycle_rng(3, 0))
        assert 1 <= stats.r_inc <= params.total_levels
        assert stats.r_inc <= stats.r_total
        assert stats.final_max_level == params.q - 1

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

    def test_point_mass_rejected(self):
        params = CodeParams(k=1, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
        with pytest.raises(ValueError):
            run_cycle(make_code(params), DistributionSpec([0, 1]), cycle_rng(0, 0))

    def test_dist_size_must_match(self):
        params = CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
        with pytest.raises(ValueError):
            run_cycle(make_code(params), uniform(1), cycle_rng(0, 0))


class TestRunExperiment:
    def test_single_cycle_equals_run_cycle(self):
        params = CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
        dist = uniform(2)
        single = run_cycle(make_code(params), dist, cycle_rng(11, 0))
        stats = run_experiment(params, dist, cycles=1, master_seed=11)
        assert stats.mean_r_inc == single.r_inc
        assert stats.mean_r_total == single.r_total

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
    with pytest.raises(ValueError):
        gamma_upper_bounds(0, 2)


class TestMinOfN:
    def test_constant_samples(self):
        for n in (1, 3, 10):
            assert min_of_n_expectation([4.0] * 8, n, 200, cycle_rng(0, n)) == 4.0

    def test_n1_matches_sample_mean(self):
        rng = cycle_rng(1, 0)
        samples = rng.normal(10.0, 2.0, size=400)
        est = min_of_n_expectation(samples, 1, 4000, cycle_rng(1, 1))
        sigma = samples.std() / math.sqrt(4000)
        assert abs(est - samples.mean()) <= 3 * sigma

    def test_large_n_tends_to_minimum(self):
        est = min_of_n_expectation([1.0, 2.0], 50, 2000, cycle_rng(2, 0))
        assert est == pytest.approx(1.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            min_of_n_expectation([], 1, 10, cycle_rng(0, 0))
        with pytest.raises(ValueError):
            min_of_n_expectation([1.0], 0, 10, cycle_rng(0, 0))
