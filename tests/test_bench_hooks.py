"""The benchmark still finds the flashmod names it uses.

bench/tracing.py wraps flashmod names from outside the package, and
bench/run.py times a set-up snippet that builds each workload's codes
in a fresh interpreter.  A refactor that drops or renames a name or a
constructor argument they use would crash the benchmark, or leave a
layer uncounted, without any other test going red.
"""

from pathlib import Path

from flashmod.cli import run_cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_mode_counts_every_patched_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        out = tmp_path / "lb.csv"
        argv = "simulate --code load-balancing --k 3 --q 4 --cycles 2 --seed 5".split()
        assert run_cli(argv + ["--out", str(out)]) == 0
    finally:
        tracer.restore()
    metrics = tracing.pass_metrics(tracer)
    for name in ("field.gf_mul.calls", "codes.encode.calls", "core.cell_increment.calls"):
        assert metrics[name] > 0, name


def test_traced_simulate_meets_the_trace_contract(tmp_path, monkeypatch):
    "Traced counts equal the outputs' implied counts: encode per write, run_cycle per cycle, a span per trial."
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracing
    from workloads import MaxLoad, Overflow, Simulate, Workload

    workload = Workload(
        "trace-contract",
        (
            # every hot call shares one law file, so they share k
            Simulate("load-balancing", 2, (2, 4), 3),
            Simulate("load-balancing", 3, (16,), 2, hot=True),
            Simulate("self-randomized", 4, (4,), 3),
            Simulate("self-randomized", 3, (2, 16), 2, hot=True),
            # ballsbins trials cross cli.balls_until_overflow and cli.throw_balls
            Overflow(8, (2, 4), 2, 3),
            MaxLoad(64, 256, (1, 2), 4),
        ),
    )
    runner = run.Runner(workload, 5, tmp_path)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        outputs, _ = runner.run_pass(tracer.timed("cli.run_cli", run_cli))
    finally:
        tracer.restore()
    parsed = runner.check(outputs, "traced")
    expected = run.expected_counts(workload, parsed)
    assert expected["sim.run_cycle"] == 3 * 2 + 2 + 3 + 2 * 2
    assert (expected["ballsbins.overflow.d2"], expected["ballsbins.throw.d1"], expected["ballsbins.throw.d2"]) == (6, 4, 4)
    run.reconcile(runner.checks, tracer, expected)
    assert runner.checks.failures == []
    assert runner.checks.attempted > len(expected)


def test_setup_snippet_builds_every_workload_code(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    for workload in run.WORKLOADS.values():
        snippet = run.SETUP_CHILD.format(src=str(run.SRC), specs=workload.code_specs())
        seconds = run.setup_run(snippet)
        assert isinstance(seconds, float) and seconds > 0, workload.name
