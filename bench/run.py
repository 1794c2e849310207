"""flashmod benchmark: CLI sweep throughput with a traced per-layer breakdown.

    python3 bench/run.py --workload lb-bign --seed 1 --seconds 30 --trace 0

Runs the workload's flashmod CLI calls in-process through
``flashmod.cli.run_cli``: one warm-up pass, then passes at the same seed
until --seconds have gone by (at least three).  Every output is checked.
One process, no worker threads; set-up time is measured in fresh
interpreters started one after another.

--trace 0 reports the end-to-end metrics.  Their times are scaled to a
reference machine speed: a fixed pure-Python calibration loop, which
runs no flashmod code, is timed before and after every CLI call and
set-up run, and each time is multiplied by CAL_REF_S over the
calibration time around it.  On a shared host the speed of the machine drifts by tens of
per cent over seconds; the calibration drifts with it and cancels it.
The unscaled figures are printed as raw.*.

--trace 1 alternates traced and untraced passes and reports the
per-layer metrics, the micro probes and the tracing overhead, unscaled.
Every metric is printed by name and unit; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics, the
metrics being those BENCHMARK.json lists for the mode.  Exit code 2 when
the flashmod sources are not next to the benchmark.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Checks, call_seed, expected_counts, work_done, write_hot_law

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_PASSES = 3
MIN_SETUPS = 7
SETUP_EVERY_S = 2.0
# one calibration unit takes CAL_REF_S at the reference machine speed
CAL_REF_S = 0.008
CAL_STEPS = 30_000
CAL_UNITS = 3

UNITS = {
    "wall_s": "s",
    "writes_per_s": "1/s",
    "cycles_per_s": "1/s",
    "oracle_balls_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "calibration_ms": "ms",
    "field.gf_mul.calls": "count",
    "field.gf_mul.self_s": "s",
    "field.gf_mul.ns_per_op": "ns",
    "field.gf_inv.us_per_op": "us",
    "field.FieldSpec.ms.m10": "ms",
    "field.FieldSpec.ms.m24": "ms",
    "codes.encode.calls": "count",
    "codes.encode.self_s": "s",
    "codes.decode.calls": "count",
    "codes.written_ratio": "ratio",
    "codes.make_code.ms": "ms",
    "core.cell_increment.calls": "count",
    "core.CellState.zeros.us": "us",
    "sim.run_cycle.ms_p50": "ms",
    "sim.run_cycle.ms_tail": "ms",
    "sim.run_cycle.tail_pct": "pct",
    "sim.run_cycle.samples": "count",
    "sim.run_cycle.self_s": "s",
    "sim.cycle_rng.us": "us",
    "sim.sample_use_ratio": "ratio",
    "ballsbins.overflow.us_per_trial.d1": "us",
    "ballsbins.overflow.us_per_trial.d2": "us",
    "ballsbins.throw.ms_per_trial.d1": "ms",
    "ballsbins.throw.ms_per_trial.d2": "ms",
    "ballsbins.draw_use_ratio.d2": "ratio",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# hand-measured single runs quoted in ROADMAP.md, for comparison only
ROADMAP_BASELINES = {
    ("lb-bign", "writes_per_s"): (96e3, "LB k=9 q=16 uniform"),
    ("sr-bign-hot", "writes_per_s"): (414e3, "SR, uniform law (this workload's law is hot)"),
    (None, "field.gf_mul.ns_per_op"): (1400.0, "gf_mul"),
    (None, "ballsbins.throw.ms_per_trial.d2"): (1.4, "throw_balls(1e4, 1e4, d=2)"),
    (None, "ballsbins.overflow.us_per_trial.d2"): (460.0, "balls_until_overflow(16, 16, d=2)"),
}

SETUP_CHILD = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
from flashmod import CodeKind, CodeParams, make_code
for code, k, q in {specs!r}:
    make_code(CodeParams(k=k, l=2, q=q, kind=CodeKind(code)))
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(numpy_version: str) -> dict:
    """What makes a run on a shared machine readable later."""
    env = {
        "git_rev": "unknown",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "loadavg": "unknown",
    }
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if git.returncode == 0:
            env["git_rev"] = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown")
        with open("/proc/loadavg", encoding="utf-8") as fh:
            env["loadavg"] = " ".join(fh.read().split()[:3])
    except OSError:
        pass
    return env


class Runner:
    """Runs passes of one workload at one seed and checks every output."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.law = work / "hot-law.txt"
        for call in workload.calls:
            if getattr(call, "hot", False):
                write_hot_law(self.law, 2**call.k)
        self.checks = Checks()
        self.reference = None

    def run_pass(self, run_cli, after_call=lambda: None):
        """One pass: (CSV bytes or None per call, seconds per call)."""
        outputs, seconds = [], []
        for i, call in enumerate(self.workload.calls):
            out = self.work / f"call{i}.csv"
            argv = call.argv(call_seed(self.seed, i), str(out), str(self.law))
            t0 = perf_counter()
            rc = run_cli(argv)
            seconds.append(perf_counter() - t0)
            outputs.append(out.read_bytes() if rc == 0 and out.is_file() else None)
            out.unlink(missing_ok=True)
            after_call()
        return outputs, seconds

    def check(self, outputs, label: str):
        """Output checks plus byte-identity with the first pass; returns parsed rows."""
        parsed = self.workload.check(outputs, self.checks)
        if self.reference is None:
            self.reference = outputs
        else:
            for i, (got, ref) in enumerate(zip(outputs, self.reference)):
                self.checks.expect(got is not None and got == ref,
                                   f"call {i}: {label} CSV byte-identical to the first pass at this seed")
        return parsed

    def rates(self, parsed, seconds) -> dict[str, float]:
        done = work_done(self.workload, parsed)
        kinds = [call.kind for call in self.workload.calls]
        sim_s = sum(s for s, k in zip(seconds, kinds) if k == "simulate")
        balls_s = sum(s for s, k in zip(seconds, kinds) if k != "simulate")
        out = {"wall_s": sum(seconds), "writes_per_s": done["writes"] / sim_s, "cycles_per_s": done["cycles"] / sim_s}
        if balls_s:
            out["oracle_balls_per_s"] = done["balls"] / balls_s
        return out


def medians(dicts: list[dict], median=statistics.median) -> dict[str, float]:
    return {key: median(d[key] for d in dicts) for key in dicts[0]}


def setup_run(code: str) -> float:
    """Seconds a fresh interpreter takes to import flashmod and build the codes."""
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                           text=True, timeout=120, check=True)
    return float(child.stdout.strip().splitlines()[-1])


class _Cell:
    __slots__ = ("levels", "total", "weighted")

    def __init__(self):
        self.levels = [0] * 1024
        self.total = 0
        self.weighted = 0


def _bump(cell: _Cell, j: int, interned: dict):
    levels = cell.levels
    if levels[j] == 15:
        return None
    levels[j] += 1
    cell.total += 1
    cell.weighted += j
    out = interned.get(j)
    return out if out is not None else interned.setdefault(j, (j,))


def _calibration_unit() -> None:
    # a tight integer/list loop, then an object-and-call loop shaped like a
    # rewrite code; together they slow down with the host much as the
    # workloads do (each alone tracks some workloads less well)
    levels = [0] * 1024
    acc = 0
    for i in range(CAL_STEPS):
        j = (i * 40503) & 1023
        levels[j] += 1
        acc ^= (j << 1) ^ (acc >> 3)
    cell, interned = _Cell(), {}
    for i in range(CAL_STEPS // 5):
        r = cell.total
        current = (cell.weighted - r * (r + 1) // 2) % 1024
        value = (i * 40503) & 1023
        if current != value and _bump(cell, (value - current + r + 1) % 1024, interned) is None:
            cell = _Cell()


def calibrate() -> float:
    """Median seconds of the calibration unit, fixed work that runs no flashmod code."""
    times = []
    for _ in range(CAL_UNITS):
        t0 = perf_counter()
        _calibration_unit()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure_end_to_end(runner: Runner, seconds: float, run_cli) -> dict[str, float]:
    setup_code = SETUP_CHILD.format(src=str(SRC), specs=runner.workload.code_specs())
    deadline = perf_counter() + seconds
    runner.check(runner.run_pass(run_cli)[0], "warm-up")
    cals = [calibrate()]
    passes, raw_passes, setups, raw_setups = [], [], [], []

    def scale(i: int) -> float:
        """Reference speed over the speed of calibrations i-1 and i."""
        return CAL_REF_S / statistics.mean(cals[i - 1:i + 1])

    def set_up() -> None:
        raw_setups.append(setup_run(setup_code))
        cals.append(calibrate())
        setups.append(raw_setups[-1] * scale(len(cals) - 1))

    # every CLI call and every set-up run sits between two calibrations;
    # set-up runs are spread over the run, so they see the same machine
    next_setup = 0.0
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        first = len(cals)
        outputs, times = runner.run_pass(run_cli, after_call=lambda: cals.append(calibrate()))
        parsed = runner.check(outputs, "repeat")
        passes.append(runner.rates(parsed, [t * scale(first + i) for i, t in enumerate(times)]))
        raw_passes.append(runner.rates(parsed, times))
        if perf_counter() >= next_setup:
            set_up()
            next_setup = perf_counter() + SETUP_EVERY_S
    while len(setups) < MIN_SETUPS:
        set_up()
    print(f"passes: 1 warm-up + {len(passes)} timed; wall_s per pass: " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    print(f"set-up runs: {len(setups)}; setup_s per run: " + " ".join(f"{t:.4f}" for t in setups))
    metrics = medians(passes)
    metrics["setup_s"] = statistics.median(setups)
    metrics.update({f"raw.{k}": v for k, v in medians(raw_passes).items()})
    metrics["raw.setup_s"] = statistics.median(raw_setups)
    metrics["calibration_ms"] = statistics.median(cals) * 1e3
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def measure_layers(runner: Runner, seconds: float, run_cli) -> dict[str, float]:
    # both import flashmod, which main() has put on the path by now
    import probes
    import tracing

    deadline = perf_counter() + seconds
    runner.check(runner.run_pass(run_cli)[0], "warm-up")
    plain, traced, cycle_times = [], [], []
    while not (plain and traced) or len(plain) + len(traced) < MIN_PASSES or perf_counter() < deadline:
        if len(traced) > len(plain):
            outputs, times = runner.run_pass(run_cli)
            runner.check(outputs, "untraced")
            plain.append(sum(times))
            continue
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            outputs, times = runner.run_pass(tracer.timed("cli.run_cli", run_cli))
        finally:
            tracer.restore()
        parsed = runner.check(outputs, "traced")
        reconcile(runner.checks, tracer, expected_counts(runner.workload, parsed))
        traced.append((sum(times), tracing.pass_metrics(tracer)))
        cycle_times.extend(tracer.spans["sim.run_cycle"].durations)
    print(f"passes: 1 warm-up + {len(plain)} untraced + {len(traced)} traced")
    # the low median keeps counts whole
    metrics = medians([m for _, m in traced], statistics.median_low)
    metrics.update(tracing.cycle_percentiles(cycle_times))
    metrics["trace.overhead_ratio"] = statistics.median(t for t, _ in traced) / statistics.median(plain)
    metrics.update(probes.run_probes())
    return metrics


def reconcile(checks: Checks, tracer, expected: dict[str, int]) -> None:
    """Traced call counts must equal what the outputs imply."""
    seen = {name: span.calls for name, span in tracer.spans.items()}
    seen["core.cell_increment"] = tracer.counts["core.cell_increment"]
    for name, want in expected.items():
        got = seen.get(name, 0)
        checks.expect(got == want, f"trace: {name} calls {got} != {want} implied by the outputs")


def report(workload: str, metrics: dict, checks: Checks) -> None:
    for name in sorted(metrics):
        value = metrics[name]
        unit = UNITS[name.removeprefix("raw.")]
        print(f"  {name} = {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    for (wl, name), (base, what) in ROADMAP_BASELINES.items():
        value = metrics.get(f"raw.{name}", metrics.get(name))
        if wl in (None, workload) and value:
            print(f"  roadmap: {name} {value:.6g} unscaled vs {base:.6g} by hand ({what}): x{value / base:.2f}")
    failed = len(checks.failures)
    print(f"checks: {checks.attempted} attempted, {failed} failed, failed_ratio = {failed / checks.attempted:.6g} ratio")
    for what in checks.failures[:20]:
        print(f"  FAILED {what}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flashmod" / "__init__.py").is_file():
        print(f"error: flashmod sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import flashmod
    from flashmod.cli import run_cli

    if Path(flashmod.__file__).resolve().parent != SRC / "flashmod":
        print(f"error: flashmod imported from {flashmod.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workload = WORKLOADS[args.workload]
    print(f"flashmod benchmark: workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == workload.name))
    print("env " + json.dumps(environment(numpy.__version__)))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        runner = Runner(workload, args.seed, work)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(runner, args.seconds, run_cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    checks = runner.checks
    report(workload.name, metrics, checks)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
