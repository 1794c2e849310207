"""Command line front end: sweeps, analytic queries, CSV/JSON emission.

Each subcommand handler checks all of its inputs, then returns the run
as a zero-argument callable.  ``run_cli`` alone maps errors to exit
codes: 2 for a flag argparse rejects or an error raised while a handler
checks, so always before any output; 1 for an error raised by the run
and for failed ``roundtrip`` decodes; 0 otherwise.  An --out in a
missing directory is an error while checking; an --out that cannot be
opened for writing fails in the run.  A flag's syntax is its argparse
type, and its domain is stated once, in the library: a count flag's type
applies the reader the library checks that count with (core.read_count,
or core.read_cells for --n), so it fails with the library's message
while parsing, and any other flag is checked by the function the
handler passes it to.  Every input comes from argv (and a --dist file
it names); no environment variable is read.
"""

import argparse
import functools
import json
import os
import sys

from .ballsbins import (
    balls_until_overflow,
    collision_bound,
    lambert_w0,
    max_load_prediction,
    solve_dc,
    throw_balls,
)
from .codes import make_code
from .core import ERASE_REQUIRED, CellState, CodeKind, CodeParams, read_cells, read_count
from .sim import DistributionSpec, cycle_rng, cycle_rngs, gamma_upper_bounds, run_experiment

__all__ = ["run_cli", "main", "emit_records", "SIMULATE_COLUMNS"]

SIMULATE_COLUMNS = (
    "code",
    "k",
    "l",
    "q",
    "n",
    "cycles",
    "mean_r_inc",
    "mean_r_total",
    "eta",
    "gamma",
    "seed",
)

MAXLOAD_COLUMNS = ("mode", "n", "m", "d", "trials", "mean_max_load", "predicted_max_load", "seed")
OVERFLOW_COLUMNS = ("mode", "n", "q", "d", "trials", "mean_rewrites", "eta_oracle", "seed")


def _fmt(value) -> str:
    # floats carry 12 significant digits in every output format
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(rows, columns, fmt: str, path: str) -> None:
    """Write rows, tuples in the order of columns, as CSV or a JSON array."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(map(_fmt, row)) for row in rows)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = [
            {c: float(_fmt(v)) if isinstance(v, float) else v for c, v in zip(columns, row)}
            for row in rows
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def emit_records(stats, fmt: str, path: str) -> None:
    """Write experiment records as CSV (fixed header) or a JSON array.

    Floats are rendered identically in both formats, so a CSV and a JSON
    emission of the same stats carry field-by-field equal values.  An
    unknown fmt raises ValueError before anything is written.
    """
    rows = [
        (s.params.kind.value, s.params.k, s.params.l, s.params.q, s.params.n, s.cycles,
         s.mean_r_inc, s.mean_r_total, s.eta, s.gamma, s.seed)
        for s in stats
    ]
    _emit(rows, SIMULATE_COLUMNS, fmt, path)


def _integer(read, *rule):
    """argparse type: one integer, checked by the library's reader read(value, *rule)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        try:
            return read(value, *rule)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _commas(item, names: str | None = None):
    """argparse type: a non-empty comma list, each value read by item;
    blank items are skipped.  With names (e.g. "N,M,D"), the list must
    have one value per name."""

    def parse(text: str) -> list:
        try:
            values = [item(part) for part in text.split(",") if part.strip()]
        except ValueError:  # from int or float; an item's ArgumentTypeError passes through
            raise argparse.ArgumentTypeError(f"non-numeric entry in {text!r}") from None
        if not values or (names is not None and len(values) != names.count(",") + 1):
            raise argparse.ArgumentTypeError(f"expected {names or 'a comma-separated list'}, got {text!r}")
        return values

    return parse


def _load_dist(spec: str | None, size: int) -> DistributionSpec:
    """Input law from a file (probabilities one per line or comma-separated,
    '#' comments), an inline comma list, or the uniform default."""
    if spec is None:
        return DistributionSpec.uniform(size)
    if os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            spec_text = ",".join(line.split("#", 1)[0] for line in fh)
    elif "," in spec:
        spec_text = spec
    else:
        raise ValueError(f"distribution {spec!r} is neither a readable file nor an inline comma list")
    try:
        probs = [float(part) for part in spec_text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"distribution {spec!r} contains a non-numeric entry") from None
    if len(probs) != size:
        raise ValueError(f"distribution has {len(probs)} entries, need {size}")
    return DistributionSpec(probs)


@functools.cache  # parsing leaves the parser as it was, so one serves every run_cli call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashmod",
        description="Flash modulation code experiments and balls-into-bins analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    codes = sorted(kind.value for kind in CodeKind)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed",
        type=_integer(read_count, "master_seed", 0),
        default=0,
        help="master seed (default: 0)",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", required=True, help="output file")
    output.add_argument("--format", choices=("csv", "json"), default="csv")

    sim = sub.add_parser("simulate", parents=[seeded, output], help="sweep q for one code and record eta/gamma")
    sim.add_argument("--code", choices=codes, default="self-randomized")
    sim.add_argument("--k", type=int, required=True, help="variables per group")
    sim.add_argument("--q", type=_commas(int), required=True, help="comma-separated q sweep, e.g. 2,4,8,16,32")
    sim.add_argument("--cycles", type=_integer(read_count, "cycles", 1), default=1000, help="erasure cycles per sweep point")
    sim.add_argument("--dist", default=None, help="input law: file (one prob per line or comma) or inline p0,p1,...")

    balls = sub.add_parser("ballsbins", parents=[seeded, output], help="d-choice random loading sweeps")
    balls.add_argument("--mode", choices=("maxload", "overflow"), default="maxload")
    balls.add_argument("--n", type=_integer(read_cells), required=True, help="bins")
    balls.add_argument("--m", type=int, default=None, help="balls per trial (maxload mode)")
    balls.add_argument("--q", type=_commas(_integer(read_count, "q", 2)), default=None, help="comma-separated level counts (overflow mode)")
    balls.add_argument("--d", type=_commas(_integer(read_count, "d", 1)), default="1", help="comma-separated choice counts, e.g. 1,2")
    balls.add_argument("--trials", type=_integer(read_count, "trials", 1), default=100)

    bounds = sub.add_parser("bounds", help="evaluate the analytic formulas")
    # every bounds flag may repeat; flags print in this order, a flag's values in argv order
    bounds.add_argument("--gamma-bounds", type=_commas(int, "K,L"), action="append", metavar="K,L",
                        help="storage efficiency ceilings")
    bounds.add_argument("--max-load", type=_commas(int, "N,M,D"), action="append", metavar="N,M,D",
                        help="max-load point prediction")
    bounds.add_argument("--collision", type=_commas(float, "M,N,K"), action="append", metavar="M,N,K",
                        help="per-bin load tail bound")
    bounds.add_argument("--dc", type=float, action="append", metavar="C", help="largest root scaling the c*n*ln(n) regime")
    bounds.add_argument("--lambertw", type=float, action="append", metavar="X", help="principal Lambert W at X")

    rt = sub.add_parser("roundtrip", parents=[seeded], help="random-write decodability check")
    rt.add_argument("--code", choices=("both", *codes), default="both")
    rt.add_argument("--k", type=_commas(int), default="1,2,3", help="comma-separated k values")
    rt.add_argument("--q", type=_commas(int), default="4,8,16", help="comma-separated q values")
    rt.add_argument("--writes", type=_integer(read_count, "writes", 1), default=10000, help="writes per (code, k, q) point")

    return parser


def _check_out_dir(path: str) -> None:
    """Reject an empty --out, or one whose directory is missing, before any work runs."""
    if not path:
        raise ValueError("output directory: --out is empty, so it names no file")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} does not exist")


def _cmd_simulate(args):
    _check_out_dir(args.out)
    params_list = [CodeParams(k=args.k, l=2, q=q, kind=CodeKind(args.code)) for q in args.q]
    dist = _load_dist(args.dist, params_list[0].value_count)
    return lambda: emit_records(run_experiment(params_list, dist, args.cycles, args.seed), args.format, args.out)


def _cmd_ballsbins(args):
    _check_out_dir(args.out)

    def trial_mean(sweep_index: int, trial) -> float:
        rngs = cycle_rngs(args.seed, sweep_index * args.trials, args.trials)
        return sum(trial(rng) for rng in rngs) / args.trials

    if args.mode == "maxload":
        if args.m is None:
            raise ValueError("maxload mode needs --m")
        if args.q is not None:
            raise ValueError("maxload mode takes no --q")
        predictions = [max_load_prediction(args.n, args.m, d).predicted_max_load for d in args.d]

        def rows():
            for sweep_index, (d, predicted) in enumerate(zip(args.d, predictions)):
                mean = trial_mean(sweep_index, lambda rng: int(throw_balls(args.n, args.m, d, rng).max()))
                yield args.mode, args.n, args.m, d, args.trials, mean, predicted, args.seed

        return lambda: _emit(rows(), MAXLOAD_COLUMNS, args.format, args.out)
    if args.q is None:
        raise ValueError("overflow mode needs --q")
    if args.m is not None:
        raise ValueError("overflow mode takes no --m")

    def rows():
        for sweep_index, (q, d) in enumerate((q, d) for q in args.q for d in args.d):
            mean = trial_mean(sweep_index, lambda rng: balls_until_overflow(args.n, q, d, rng))
            yield args.mode, args.n, q, d, args.trials, mean, 1.0 - mean / (args.n * (q - 1)), args.seed

    return lambda: _emit(rows(), OVERFLOW_COLUMNS, args.format, args.out)


def _cmd_bounds(args):
    lines = []
    for k, l in args.gamma_bounds or ():
        single, arbitrary = gamma_upper_bounds(k, l)
        lines.append(f"gamma_bounds(k={k}, l={l}): single_change={_fmt(single)} arbitrary_change={_fmt(arbitrary)}")
    for n, m, d in args.max_load or ():
        pred = max_load_prediction(n, m, d)
        lines.append(f"max_load(n={n}, m={m}, d={d}) = {_fmt(pred.predicted_max_load)} [{pred.regime.value}]")
    for m, n, k in args.collision or ():
        bound = collision_bound(m, n, k)
        lines.append(f"collision_bound(m={_fmt(m)}, n={_fmt(n)}, k={_fmt(k)}) = {_fmt(bound)}")
    for c in args.dc or ():
        lines.append(f"dc({_fmt(c)}) = {_fmt(solve_dc(c))}")
    for x in args.lambertw or ():
        lines.append(f"lambert_w0({_fmt(x)}) = {_fmt(lambert_w0(x))}")
    if not lines:
        raise ValueError("bounds needs at least one of --gamma-bounds/--max-load/--collision/--dc/--lambertw")
    return lambda: print("\n".join(lines))


def _roundtrip_point(params: CodeParams, writes: int, seed: int, stream: int) -> int:
    """Random writes with a decode check after each one; returns failures."""
    code = make_code(params)
    rng = cycle_rng(seed, stream)
    state = CellState.zeros(params.n, params.q)
    failures = 0
    done = 0
    values = params.value_count
    while done < writes:
        for x in rng.integers(0, values, size=256).tolist():
            if done >= writes:
                break
            if code.encode(state, x) is ERASE_REQUIRED:
                state = CellState.zeros(params.n, params.q)  # new cycle, write not counted
                continue
            if code.decode(state) != x:
                failures += 1
            done += 1
    return failures


def _cmd_roundtrip(args):
    names = sorted(kind.value for kind in CodeKind) if args.code == "both" else [args.code]
    points = [CodeParams(k=k, l=2, q=q, kind=CodeKind(name)) for name in names for k in args.k for q in args.q]

    def run() -> int:
        total_failures = 0
        for stream, params in enumerate(points):
            failures = _roundtrip_point(params, args.writes, args.seed, stream)
            total_failures += failures
            print(f"roundtrip code={params.kind.value} k={params.k} q={params.q} writes={args.writes}: failures={failures}")
        verdict = "PASS" if total_failures == 0 else "FAIL"
        print(f"roundtrip total failures: {total_failures} [{verdict}]")
        return 0 if total_failures == 0 else 1

    return run


_HANDLERS = {
    "simulate": _cmd_simulate,
    "ballsbins": _cmd_ballsbins,
    "bounds": _cmd_bounds,
    "roundtrip": _cmd_roundtrip,
}


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return 0 if exc.code in (0, None) else 2
    exit_code = 2  # until the handler has checked every input and returned the run
    try:
        run = _HANDLERS[args.command](args)
        exit_code = 1
        return run() or 0  # a run returns None, or 1 for failed roundtrip decodes
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
