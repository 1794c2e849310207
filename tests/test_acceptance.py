"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they go (pytest hides stdout of passing tests
otherwise).  Heavy experiment sweeps are shared through module-scoped
fixtures.  Everything is seeded, so outcomes repeat exactly.
"""

import math

import numpy as np
import pytest
from test_codes import lb_params, sr_params
from test_field import broken_axioms, mul_oracle

from flashmod.ballsbins import (
    balls_until_overflow,
    collision_bound,
    lambert_w0,
    solve_dc,
    throw_balls,
)
from flashmod.cli import run_cli
from flashmod.codes import make_code
from flashmod.field import FieldSpec, gf_mul
from flashmod.sim import DistributionSpec, cycle_rng, run_cycle, run_experiment

FIG2_Q_GRID = (2, 4, 8, 16, 32)
BIG_Q_GRID = (4, 8, 16)


def max_load_oracle(n, m):
    """Mean and s.d. of the max load when m balls each go to one of n random bins.

    Poisson approximation (Raab & Steger 1998): the n loads are taken as
    independent Poisson(m/n) draws, so P(max < k) = P(Pois(m/n) < k)^n,
    E[max] = sum_{k>=1} P(max >= k) and E[max^2] = sum_{k>=1} (2k-1) P(max >= k).
    At n = m = 10^4 this gives mean 6.6722, s.d. 0.688.

    The exact mean there is 6.6721.  It de-Poissonizes the same tail:
    P(max <= k) = P(Pois(1) <= k)^n * P(S'_n = m) / P(S_n = m), where S_n
    sums n Poisson(1) draws and S'_n sums n Poisson(1) draws conditioned on
    <= k.  The n-fold convolution power of that truncated pmf was computed
    exactly, by repeated squaring with direct convolution.
    """
    lam = m / n
    pmf = math.exp(-lam)
    below = 0.0  # P(Pois(lam) < k)
    mean = second = 0.0
    k = 1
    while True:
        below += pmf
        tail = 1.0 - below**n  # P(max >= k)
        if tail < 1e-12:
            break
        mean += tail
        second += (2 * k - 1) * tail
        pmf *= lam / k
        k += 1
    return mean, math.sqrt(second - mean * mean)


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fig2_runs():
    """k=3 sweep over q with 1000 cycles per point, plus matched oracles."""
    uni = DistributionSpec.uniform(8)
    srs = run_experiment([sr_params(3, q) for q in FIG2_Q_GRID], uni, 1000, 1101)
    lbs = run_experiment([lb_params(3, q) for q in FIG2_Q_GRID], uni, 1000, 1202)
    runs = {}
    for i, (q, sr, lb) in enumerate(zip(FIG2_Q_GRID, srs, lbs)):
        d1 = np.mean(
            [balls_until_overflow(8, q, 1, cycle_rng(1303, i * 1000 + t)) for t in range(1000)]
        )
        d2 = np.mean(
            [balls_until_overflow(16, q, 2, cycle_rng(1404, i * 1000 + t)) for t in range(1000)]
        )
        runs[q] = {
            "sr": sr,
            "lb": lb,
            "eta_d1": 1.0 - d1 / (8 * (q - 1)),
            "eta_d2": 1.0 - d2 / (16 * (q - 1)),
        }
    return runs


@pytest.fixture(scope="module")
def scaling_cycles():
    """Self-randomized k=2, q=4096: 100 cycles of incrementing writes."""
    params = sr_params(2, 4096)
    uni = DistributionSpec.uniform(4)
    code = make_code(params)
    return params, [run_cycle(code, uni, cycle_rng(2001, i)).r_inc for i in range(100)]


@pytest.fixture(scope="module")
def big_n_runs():
    """Both codes at n = 2**10 (k=10 vs k=9), 200 cycles per q."""
    srs = run_experiment([sr_params(10, q) for q in BIG_Q_GRID], DistributionSpec.uniform(1024), 200, 3001)
    lbs = run_experiment([lb_params(9, q) for q in BIG_Q_GRID], DistributionSpec.uniform(512), 200, 3002)
    return {q: {"sr": sr, "lb": lb} for q, sr, lb in zip(BIG_Q_GRID, srs, lbs)}


def test_criterion_1_round_trip_decodability(capsys):
    # the shipped command's default grid: both codes, k = 1, 2, 3, q = 4, 8, 16,
    # 10^4 writes per point with a decode after every write
    rc = run_cli(["roundtrip", "--seed", "5001"])
    lines = capsys.readouterr().out.splitlines()
    points = [line for line in lines if "failures=" in line]
    _report(
        "criterion 1 (round-trip decodability)",
        rc == 0 and len(points) == 18 and lines[-1].endswith("total failures: 0 [PASS]"),
        f"exit {rc}, {len(points)} grid points x 10^4 writes; {lines[-1] if lines else 'no report'}",
    )


def test_criterion_2_rewrite_count_scaling(scaling_cycles):
    params, r_incs = scaling_cycles
    floor = 4 * (4096 - 256)  # n * (q - q^(2/3))
    hits = sum(r >= floor for r in r_incs)
    _report(
        "criterion 2 (rewrite scaling at q=4096)",
        hits >= 95,
        f"{hits}/100 cycles reached r_inc >= {floor} (need >= 95); min={min(r_incs)}",
    )


def test_criterion_3_eta_matches_random_loading(fig2_runs):
    worst_sr = max(abs(v["sr"].eta - v["eta_d1"]) for v in fig2_runs.values())
    worst_lb = max(abs(v["lb"].eta - v["eta_d2"]) for v in fig2_runs.values())
    detail = ", ".join(
        f"q={q}: sr {abs(v['sr'].eta - v['eta_d1']):.4f} lb {abs(v['lb'].eta - v['eta_d2']):.4f}"
        for q, v in fig2_runs.items()
    )
    _report(
        "criterion 3 (loss factor equals random loading, tol 0.02)",
        worst_sr <= 0.02 and worst_lb <= 0.02,
        detail,
    )


@pytest.fixture(scope="module")
def maxload_trials():
    n = m = 10_000
    d1_loads = np.stack([throw_balls(n, m, 1, cycle_rng(4001, t)) for t in range(200)])
    d2_max = [throw_balls(n, m, 2, cycle_rng(4002, t)).max() for t in range(200)]
    return n, m, d1_loads, np.asarray(d2_max)


def test_criterion_4a_single_choice_mean_max_load(maxload_trials):
    n, m, d1_loads, _ = maxload_trials
    maxima = d1_loads.max(axis=1)
    mean_max = float(maxima.mean())
    expected, sd = max_load_oracle(n, m)
    assert abs(expected - 6.6721) <= 0.01, f"oracle mean {expected:.4f} is not the exact 6.6721"
    bound = 4.0 * sd / math.sqrt(len(maxima))
    # ln n/ln ln n is only the leading term; its gap is reported, not judged
    leading = math.log(n) / math.log(math.log(n))
    _report(
        "criterion 4a (d=1 mean max load within 4 standard errors of the Poisson oracle)",
        abs(mean_max - expected) <= bound,
        f"mean={mean_max:.3f}, oracle={expected:.3f}, |diff|={abs(mean_max - expected):.3f}, bound={bound:.3f}; "
        f"ln n/ln ln n={leading:.3f} is {expected - leading:.3f} below the oracle",
    )


def test_criterion_4b_two_choice_mean_max_load(maxload_trials):
    n, m, _, d2_max = maxload_trials
    mean_max = float(d2_max.mean())
    predicted = 1.0 + math.log(math.log(n)) / math.log(2.0)
    _report(
        "criterion 4b (d=2 mean max load within +/-1.5 of 1 + ln ln n/ln 2)",
        abs(mean_max - predicted) <= 1.5,
        f"mean={mean_max:.3f}, predicted={predicted:.3f}, |diff|={abs(mean_max - predicted):.3f}",
    )


def test_criterion_4c_load_tail_bounds(maxload_trials):
    n, m, d1_loads, _ = maxload_trials
    details = []
    ok = True
    for k in (6, 8, 10):
        bound = collision_bound(m, n, k)
        per_bin = float((d1_loads >= k).mean())
        max_tail = float((d1_loads.max(axis=1) >= k).mean())
        union_bound = min(1.0, n * bound)
        ok = ok and per_bin <= bound and max_tail <= union_bound
        details.append(f"k={k}: bin {per_bin:.2e}<={bound:.2e}, max {max_tail:.2e}<={union_bound:.2e}")
    _report("criterion 4c (load tail under the per-bin bound)", ok, "; ".join(details))


def test_criterion_5_analytic_solvers():
    checks = []
    checks.append(("dc(1)=e", abs(solve_dc(1.0) - math.e) <= 1e-9))
    worst_identity = max(
        abs(-solve_dc(c) * lambert_w0(-math.exp(-1.0 - 1.0 / solve_dc(c))) - c)
        for c in (0.5, 1.0, 2.0, 5.0)
    )
    checks.append((f"implicit identity {worst_identity:.2e}", worst_identity <= 1e-6))
    grid = np.linspace(-math.exp(-1.0) + 1e-6, 10.0, 100)
    worst_residual = max(abs(lambert_w0(float(x)) * math.exp(lambert_w0(float(x))) - float(x)) for x in grid)
    checks.append((f"W residual {worst_residual:.2e}", worst_residual < 1e-12))
    _report(
        "criterion 5 (analytic solvers)",
        all(ok for _, ok in checks),
        "; ".join(name for name, _ in checks),
    )


def test_criterion_6_load_balancing_outperforms(big_n_runs):
    ok = all(v["lb"].gamma > v["sr"].gamma for v in big_n_runs.values())
    detail = ", ".join(
        f"q={q}: gamma_lb={v['lb'].gamma:.3f} > gamma_sr={v['sr'].gamma:.3f}" for q, v in big_n_runs.items()
    )
    _report("criterion 6 (gamma ordering at n=2^10)", ok, detail)


def test_criterion_7_efficiency_bound(scaling_cycles, fig2_runs, big_n_runs):
    params, r_incs = scaling_cycles
    gammas = [
        (
            "scaling k=2",
            float(np.mean(r_incs)) * params.k * math.log2(params.l) / params.total_levels,
            params.k * math.log2(params.l),
        )
    ]
    for q, v in fig2_runs.items():
        for label in ("sr", "lb"):
            s = v[label]
            gammas.append((f"fig2 {label} q={q}", s.gamma, s.params.k * math.log2(s.params.l)))
    for q, v in big_n_runs.items():
        for label in ("sr", "lb"):
            s = v[label]
            gammas.append((f"big {label} q={q}", s.gamma, s.params.k * math.log2(s.params.l)))
    violations = [(name, g, b) for name, g, b in gammas if not g <= b]
    _report(
        "criterion 7 (gamma <= k log2 l in every experiment)",
        not violations,
        f"{len(gammas)} experiments checked" + (f"; violations: {violations}" if violations else ""),
    )


def test_criterion_8_field_correctness():
    spec16 = FieldSpec(4)
    mismatches = sum(
        gf_mul(spec16, a, b) != mul_oracle(a, b, spec16.poly) for a in range(16) for b in range(16)
    )

    axiom_failures = 0
    for m in range(2, 13):
        spec = FieldSpec(m)
        rng = np.random.default_rng(6000 + m)
        triples = rng.integers(0, spec.order, size=(10_000, 3)).tolist()
        axiom_failures += sum(bool(broken_axioms(spec, a, b, c)) for a, b, c in triples)
    _report(
        "criterion 8 (field correctness)",
        mismatches == 0 and axiom_failures == 0,
        f"GF(16) oracle mismatches={mismatches}/256, axiom failures={axiom_failures} "
        f"over m=2..12 x 10^4 triples",
    )


def test_criterion_9_determinism(tmp_path):
    params = lb_params(2, 8)
    uni = DistributionSpec.uniform(4)
    same_stats = run_experiment(params, uni, 100, 7001) == run_experiment(params, uni, 100, 7001)

    args = ["simulate", "--code", "load-balancing", "--k", "2", "--q", "4,8", "--cycles", "50", "--seed", "7001"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = run_cli(args + ["--out", str(a)])
    rc2 = run_cli(args + ["--out", str(b)])
    same_bytes = rc1 == 0 and rc2 == 0 and a.read_bytes() == b.read_bytes()
    _report(
        "criterion 9 (determinism)",
        same_stats and same_bytes,
        f"identical stats: {same_stats}, byte-identical CSV: {same_bytes}",
    )
