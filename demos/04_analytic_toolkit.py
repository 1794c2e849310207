"""The analytic side: efficiency ceilings, the d(c) root, Lambert W,
and the exact min-of-N order statistic for multi-group blocks.
"""

import math

import numpy as np

from flashmod import (
    CodeKind,
    CodeParams,
    DistributionSpec,
    cycle_rng,
    gamma_upper_bounds,
    lambert_w0,
    min_of_n_expectation,
    run_cycle,
    make_code,
    solve_dc,
)

print("storage-efficiency ceilings (bits per level increment)")
print(f"{'k':>3} {'single-variable change':>23} {'arbitrary change':>17}")
for k in (1, 2, 3, 5, 8):
    single, arbitrary = gamma_upper_bounds(k, 2)
    print(f"{k:>3} {single:>23.3f} {arbitrary:>17.3f}")
print("the arbitrary-change ceiling grows linearly in k, which is why the")
print("codes here store whole k-variables.")

print()
print("d(c): the largest root of x(ln c - ln x + 1) + 1 - c = 0, and the")
print("implicit identity c = -d W0(-exp(-1 - 1/d)) recovered through W:")
print(f"{'c':>5} {'d(c)':>10} {'recovered c':>12}")
for c in (0.5, 1.0, 2.0, 5.0):
    d = solve_dc(c)
    back = -d * lambert_w0(-math.exp(-1.0 - 1.0 / d))
    print(f"{c:>5.1f} {d:>10.6f} {back:>12.9f}")
print(f"d(1) = e = {solve_dc(1.0):.12f}")

print()
print("min-of-N order statistic: a block holding N groups dies with the first")
print("group, so the expected rewrites shrink as N grows.")
params = CodeParams(k=3, l=2, q=8, kind=CodeKind.SELF_RANDOMIZED)
code = make_code(params)
uni = DistributionSpec.uniform(8)
samples = [run_cycle(code, uni, cycle_rng(31, i)).r_inc for i in range(400)]
print(f"per-group rewrite samples: mean={np.mean(samples):.1f}, min={min(samples)}")
for n_groups in (1, 2, 8, 64):
    est = min_of_n_expectation(samples, n_groups)
    print(f"  expected rewrites until first of N={n_groups:>2} groups fills: {est:.1f}")
