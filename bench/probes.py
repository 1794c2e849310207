"""Micro probes: per-layer costs measured on fixed inputs.

They do not depend on the workload or its seed.  Each probe times a
batch several times and keeps the median batch.
"""

import statistics
from time import perf_counter

import numpy as np

from flashmod.core import CellState
from flashmod.field import FieldSpec, gf_inv, gf_mul
from flashmod.sim import cycle_rng

REPEATS = 5


def _seconds_per_op(batch, ops: int) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        batch()
        times.append(perf_counter() - t0)
    return statistics.median(times) / ops


def run_probes() -> dict[str, float]:
    spec = FieldSpec(10)
    pairs = np.random.default_rng(0).integers(0, spec.order, size=(20_000, 2)).tolist()
    elements = range(1, spec.order)

    def muls():
        for a, b in pairs:
            gf_mul(spec, a, b)

    def invs():
        for a in elements:
            gf_inv(spec, a)

    def zeros():
        for _ in range(20_000):
            CellState.zeros(16, 16)

    def rngs():
        for i in range(2_000):
            cycle_rng(12345, i)

    return {
        "field.gf_mul.ns_per_op": _seconds_per_op(muls, len(pairs)) * 1e9,
        "field.gf_inv.us_per_op": _seconds_per_op(invs, len(elements)) * 1e6,
        "field.FieldSpec.ms.m10": _seconds_per_op(lambda: [FieldSpec(10) for _ in range(100)], 100) * 1e3,
        "field.FieldSpec.ms.m24": _seconds_per_op(lambda: FieldSpec(24), 1) * 1e3,
        "core.CellState.zeros.us": _seconds_per_op(zeros, 20_000) * 1e6,
        "sim.cycle_rng.us": _seconds_per_op(rngs, 2_000) * 1e6,
    }
