"""The benchmark's trace mode still finds the names it patches.

bench/tracing.py wraps flashmod names from outside the package.  A
refactor that drops or renames one of them would crash trace mode, or
leave a layer uncounted, without any other test going red.
"""

from pathlib import Path

from flashmod.cli import run_cli


def test_trace_mode_counts_every_patched_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
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
