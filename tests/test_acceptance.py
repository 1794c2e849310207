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

from flashmod.ballsbins import (
    balls_until_overflow,
    collision_bound,
    lambert_w0,
    solve_dc,
    throw_balls,
)
from flashmod.cli import run_cli
from flashmod.codes import make_code
from flashmod.core import CellState, CodeKind, CodeParams, WriteKind
from flashmod.field import FieldSpec, gf_add, gf_inv, gf_mul
from flashmod.sim import DistributionSpec, cycle_rng, run_cycle, run_experiment

FIG2_Q_GRID = (2, 4, 8, 16, 32)
BIG_Q_GRID = (4, 8, 16)


def sr_params(k, q):
    return CodeParams(k=k, l=2, q=q, kind=CodeKind.SELF_RANDOMIZED)


def lb_params(k, q):
    return CodeParams(k=k, l=2, q=q, kind=CodeKind.LOAD_BALANCING)


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fig2_runs():
    """k=3 sweep over q with 1000 cycles per point, plus matched oracles."""
    uni = DistributionSpec.uniform(8)
    runs = {}
    for i, q in enumerate(FIG2_Q_GRID):
        sr = run_experiment(sr_params(3, q), uni, 1000, 1101)
        lb = run_experiment(lb_params(3, q), uni, 1000, 1202)
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
    runs = {}
    for q in BIG_Q_GRID:
        sr = run_experiment(sr_params(10, q), DistributionSpec.uniform(1024), 200, 3001)
        lb = run_experiment(lb_params(9, q), DistributionSpec.uniform(512), 200, 3002)
        runs[q] = {"sr": sr, "lb": lb}
    return runs


def test_criterion_1_round_trip_decodability():
    failures = 0
    writes_per_point = 10_000
    stream = 0
    for kind in CodeKind:
        for k in (1, 2, 3):
            for q in (4, 8, 16):
                params = CodeParams(k=k, l=2, q=q, kind=kind)
                code = make_code(params)
                rng = cycle_rng(5001, stream)
                stream += 1
                state = CellState.zeros(params.n, params.q)
                done = 0
                while done < writes_per_point:
                    for x in rng.integers(0, params.value_count, size=512).tolist():
                        if done >= writes_per_point:
                            break
                        out = code.encode(state, x)
                        if out.kind is WriteKind.ERASE_REQUIRED:
                            state = CellState.zeros(params.n, params.q)
                            continue
                        if code.decode(state) != x:
                            failures += 1
                        done += 1
    _report(
        "criterion 1 (round-trip decodability)",
        failures == 0,
        f"{failures} decode mismatches over 18 grid points x {writes_per_point} writes",
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
    mean_max = float(d1_loads.max(axis=1).mean())
    predicted = math.log(n) / math.log(math.log(n))
    _report(
        "criterion 4a (d=1 mean max load within +/-2.0 of ln n/ln ln n)",
        abs(mean_max - predicted) <= 2.0,
        f"mean={mean_max:.3f}, predicted={predicted:.3f}, |diff|={abs(mean_max - predicted):.3f}",
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

    def mul_oracle(a, b, poly):
        acc = 0
        shift = 0
        while b:
            if b & 1:
                acc ^= a << shift
            b >>= 1
            shift += 1
        while acc and acc.bit_length() >= poly.bit_length():
            acc ^= poly << (acc.bit_length() - poly.bit_length())
        return acc

    mismatches = sum(
        gf_mul(spec16, a, b) != mul_oracle(a, b, spec16.poly) for a in range(16) for b in range(16)
    )

    axiom_failures = 0
    for m in range(2, 13):
        spec = FieldSpec(m)
        rng = np.random.default_rng(6000 + m)
        triples = rng.integers(0, spec.order, size=(10_000, 3)).tolist()
        for a, b, c in triples:
            ok = (
                gf_add(spec, a, b) == gf_add(spec, b, a)
                and gf_mul(spec, a, b) == gf_mul(spec, b, a)
                and gf_mul(spec, gf_mul(spec, a, b), c) == gf_mul(spec, a, gf_mul(spec, b, c))
                and gf_mul(spec, a, gf_add(spec, b, c))
                == gf_add(spec, gf_mul(spec, a, b), gf_mul(spec, a, c))
                and gf_add(spec, a, 0) == a
                and gf_mul(spec, a, 1) == a
            )
            if ok and a:
                ok = gf_mul(spec, a, gf_inv(spec, a)) == 1
            if not ok:
                axiom_failures += 1
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
