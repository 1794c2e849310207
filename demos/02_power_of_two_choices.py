"""The power of two random choices, measured and predicted.

Throw n balls into n bins with one random choice per ball and the
maximum load grows like ln n/ln ln n; give each ball two choices and it
collapses to about ln ln n/ln 2.  The same effect is why the
load-balancing code wastes so few cell levels.
"""

import numpy as np

from flashmod import collision_bound, cycle_rng, max_load_prediction, throw_balls

TRIALS = 100

print(f"{'n':>7} {'d=1 mean max':>13} {'pred':>6} {'d=2 mean max':>13} {'pred':>6}")
for n in (100, 1_000, 10_000):
    d1 = np.mean([throw_balls(n, n, 1, cycle_rng(1, t)).max() for t in range(TRIALS)])
    d2 = np.mean([throw_balls(n, n, 2, cycle_rng(2, t)).max() for t in range(TRIALS)])
    p1 = max_load_prediction(n, n, 1).predicted_max_load
    p2 = max_load_prediction(n, n, 2).predicted_max_load
    print(f"{n:>7} {d1:>13.2f} {p1:>6.2f} {d2:>13.2f} {p2:>6.2f}")

print()
print("The d=1 prediction is the leading asymptotic term only; the observed")
print("mean sits a couple of balls above it at these sizes, while d=2 hugs")
print("its prediction. The per-bin tail bound (me/nk)^k is never violated:")
print()

n = m = 10_000
loads = np.stack([throw_balls(n, m, 1, cycle_rng(3, t)) for t in range(TRIALS)])
print(f"{'k':>3} {'per-bin freq':>13} {'bound':>10}")
for k in (4, 6, 8, 10):
    freq = (loads >= k).mean()
    print(f"{k:>3} {freq:>13.3e} {collision_bound(m, n, k):>10.3e}")
