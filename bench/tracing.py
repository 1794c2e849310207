"""Per-layer tracing from outside the package.

The tracer replaces the public names each layer calls into with
wrappers, in the module (or class) that looks them up, and restores them
afterwards.  Timed wrappers keep, per span name, the call count, the
total time and the self time (total minus the time of timed spans
nested inside).  Counted wrappers only count, so their time stays in the
caller's self time.  Spans are aggregated in memory rather than kept one
by one, because a load-balancing pass makes millions of gf_mul calls.
"""

import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import flashmod.cli as cli
import flashmod.codes as codes
import flashmod.sim as sim
from flashmod.core import WriteKind

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class Span:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = None


class CountingRng:
    """Proxy for a caller-supplied numpy Generator that counts integer draws."""

    def __init__(self, rng):
        self._rng = rng
        self.drawn = 0

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.drawn += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.spans = defaultdict(Span)
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def keep_durations(self, name: str) -> None:
        self.spans[name].durations = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            inner = stack.pop()
            span = self.spans[name]
            span.calls += 1
            span.total_s += dt
            span.self_s += dt - inner
            if span.durations is not None:
                span.durations.append(dt)
            if stack:
                stack[-1] += dt

    def timed(self, name: str, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return wrapper

    def counted(self, name: str, fn, weigh=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += 1 if weigh is None else weigh(out)
            return out

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr with make(original) until restore()."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _trials(tracer: Tracer, kind: str, fn):
    """Span per ballsbins trial, split by d, with the rng behind a counting proxy."""

    def wrapper(n, x, d, rng):
        proxy = CountingRng(rng)
        out = tracer.call(f"ballsbins.{kind}.d{d}", fn, n, x, d, proxy)
        if d == 2:
            tracer.counts["ballsbins.pairs.d2"] += proxy.drawn // 2
            tracer.counts["ballsbins.placed.d2"] += out if kind == "overflow" else x
        return out

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary a CLI pass crosses."""
    tracer.keep_durations("sim.run_cycle")

    def encode(fn):
        written = tracer.counted("codes.written", fn, weigh=lambda out: out.kind is WriteKind.WRITTEN)
        return tracer.timed("codes.encode", written)

    for code_cls in (codes.LoadBalancingCode, codes.SelfRandomizedCode):
        tracer.patch(code_cls, "encode", encode)
        tracer.patch(code_cls, "decode", lambda fn: tracer.counted("codes.decode", fn))
    tracer.patch(codes, "gf_mul", lambda fn: tracer.timed("field.gf_mul", fn))
    tracer.patch(codes, "cell_increment", lambda fn: tracer.counted("core.cell_increment", fn))
    tracer.patch(sim, "run_cycle", lambda fn: tracer.timed("sim.run_cycle", fn))
    tracer.patch(sim, "make_code", lambda fn: tracer.timed("codes.make_code", fn))
    tracer.patch(sim.DistributionSpec, "sample_block", lambda fn: tracer.counted("sim.inputs_sampled", fn, weigh=len))
    tracer.patch(cli, "run_experiment", lambda fn: tracer.timed("sim.run_experiment", fn))
    tracer.patch(cli, "cycle_rng", lambda fn: tracer.timed("sim.cycle_rng", fn))
    tracer.patch(cli, "max_load_prediction", lambda fn: tracer.timed("ballsbins.max_load_prediction", fn))
    tracer.patch(cli, "throw_balls", lambda fn: _trials(tracer, "throw", fn))
    tracer.patch(cli, "balls_until_overflow", lambda fn: _trials(tracer, "overflow", fn))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_call(span: Span, scale: float) -> float:
    return _ratio(span.total_s, span.calls) * scale


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (times include the tracer's cost)."""
    s, c = tracer.spans, tracer.counts
    encode = s["codes.encode"]
    return {
        "field.gf_mul.calls": s["field.gf_mul"].calls,
        "field.gf_mul.self_s": s["field.gf_mul"].self_s,
        "codes.encode.calls": encode.calls,
        "codes.encode.self_s": encode.self_s,
        "codes.decode.calls": c["codes.decode"],
        "codes.written_ratio": _ratio(c["codes.written"], encode.calls),
        "codes.make_code.ms": _per_call(s["codes.make_code"], 1e3),
        "core.cell_increment.calls": c["core.cell_increment"],
        "sim.run_cycle.self_s": s["sim.run_cycle"].self_s,
        "sim.sample_use_ratio": _ratio(encode.calls, c["sim.inputs_sampled"]),
        "ballsbins.overflow.us_per_trial.d1": _per_call(s["ballsbins.overflow.d1"], 1e6),
        "ballsbins.overflow.us_per_trial.d2": _per_call(s["ballsbins.overflow.d2"], 1e6),
        "ballsbins.throw.ms_per_trial.d1": _per_call(s["ballsbins.throw.d1"], 1e3),
        "ballsbins.throw.ms_per_trial.d2": _per_call(s["ballsbins.throw.d2"], 1e3),
        "ballsbins.draw_use_ratio.d2": _ratio(c["ballsbins.placed.d2"], c["ballsbins.pairs.d2"]),
        "cli.self_s": s["cli.run_cli"].self_s,
    }


def cycle_percentiles(durations: list[float]) -> dict[str, float]:
    """p50 and the highest ladder percentile with >= 10 samples beyond it."""
    n = len(durations)

    def rank(p: float) -> int:  # nearest-rank index of the p-th percentile
        return max(0, math.ceil(p / 100.0 * n) - 1)

    tail = max((p for p in TAIL_LADDER if n - 1 - rank(p) >= 10), default=TAIL_LADDER[0])
    return {
        "sim.run_cycle.ms_p50": statistics.median(durations) * 1e3,
        "sim.run_cycle.ms_tail": sorted(durations)[rank(tail)] * 1e3,
        "sim.run_cycle.tail_pct": tail,
        "sim.run_cycle.samples": n,
    }
