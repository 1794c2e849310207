"""Loss factor and storage efficiency across the q grid.

Reproduces the headline comparison at desk scale: each code's loss
factor eta (unused level increments at erase time) tracks the matching
random-loading oracle, and per level increment the load-balancing code
stores more bits than the self-randomized one once n is large.
"""

import numpy as np

from flashmod import (
    CodeKind,
    CodeParams,
    DistributionSpec,
    balls_until_overflow,
    cycle_rngs,
    loss_factor,
    run_experiment,
)

CYCLES = 300  # bump to 1000 for smoother curves
SR, LB = CodeKind.SELF_RANDOMIZED, CodeKind.LOAD_BALANCING


def sweep(kind, k, qs, seed):
    """One run_experiment call per code: every q point reads the same cycle streams."""
    points = [CodeParams(k=k, l=2, q=q, kind=kind) for q in qs]
    return run_experiment(points, DistributionSpec.uniform(2**k), CYCLES, seed)


def oracle(n, q, d, seed):
    """Mean balls placed until one of n bins would pass q-1, over CYCLES seeded trials."""
    return np.mean([balls_until_overflow(n, q, d, rng) for rng in cycle_rngs(seed, 0, CYCLES)])


print("k=3, l=2: eta of each code vs its random-loading oracle")
print(f"{'q':>3} {'eta_sr':>8} {'d=1 oracle':>11} {'eta_lb':>8} {'d=2 oracle':>11}")
qs = (2, 4, 8, 16, 32)
for q, sr, lb in zip(qs, sweep(SR, 3, qs, 11), sweep(LB, 3, qs, 12)):
    d1, d2 = oracle(8, q, 1, 13), oracle(16, q, 2, 14)
    print(
        f"{q:>3} {sr.eta:>8.4f} {loss_factor(d1, 8, q):>11.4f} "
        f"{lb.eta:>8.4f} {loss_factor(d2, 16, q):>11.4f}"
    )

print()
print("matched cell budget n=2^7: gamma (bits per level increment)")
print(f"{'q':>3} {'self-randomized k=7':>20} {'load-balancing k=6':>20}")
qs = (4, 8, 16)
for q, sr, lb in zip(qs, sweep(SR, 7, qs, 21), sweep(LB, 6, qs, 22)):
    print(f"{q:>3} {sr.gamma:>20.3f} {lb.gamma:>20.3f}")

print()
print("Spending one extra bit of redundancy (k=6 in 128 cells instead of")
print("k=7) buys two candidate cells per write and more than pays for itself.")
