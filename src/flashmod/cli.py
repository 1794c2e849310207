"""Command line front end: sweeps, analytic queries, CSV/JSON emission.

Each subcommand handler checks all of its inputs, then returns the run
as a zero-argument callable.  ``run_cli`` alone maps errors to exit
codes: 2 for a flag argparse rejects or an error raised while a handler
checks, so always before any output; 1 for an error raised by the run
and for failed ``roundtrip`` decodes; 0 otherwise.  An --out in a
missing directory is an error while checking; an --out that cannot be
opened for writing fails in the run.  A flag's domain is
stated once: by its argparse type, or, for the values of ``bounds``
(whose comma tuples the handler splits), by the function the handler
passes them to.  --seed defaults to the FLASHMOD_SEED environment
variable, then to 0; that default passes through the same type check as
the flag.
"""

import argparse
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
from .core import ERASE_REQUIRED, MAX_LOG2_N, CellState, CodeKind, CodeParams
from .sim import DistributionSpec, cycle_rng, gamma_upper_bounds, run_experiment

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


def _at_least(minimum: int, maximum: int | None = None):
    """argparse type: one integer >= minimum (and <= maximum, if given)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


def _list_of(minimum: int):
    """argparse type: a non-empty comma list of integers, each >= minimum."""
    item = _at_least(minimum)

    def parse(text: str) -> list[int]:
        values = [item(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}")
        return values

    return parse


def _load_dist(spec: str | None, size: int) -> DistributionSpec:
    """Input law from a file (one probability per line, '#' comments),
    an inline comma list, or the uniform default."""
    if spec is None:
        return DistributionSpec.uniform(size)
    if os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
        tokens = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line)
    elif "," in spec:
        tokens = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        raise ValueError(f"distribution {spec!r} is neither a readable file nor an inline comma list")
    try:
        probs = [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"distribution {spec!r} contains a non-numeric entry") from None
    if len(probs) != size:
        raise ValueError(f"distribution has {len(probs)} entries, need {size}")
    dist = DistributionSpec(probs)
    if dist.support_size < 2:  # a cycle under a point mass never reaches an erase
        raise ValueError("distribution needs >= 2 values with positive probability")
    return dist


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
        type=_at_least(0),
        default=os.environ.get("FLASHMOD_SEED", "0"),
        help="master seed (default: $FLASHMOD_SEED, then 0)",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", required=True, help="output file")
    output.add_argument("--format", choices=("csv", "json"), default="csv")

    sim = sub.add_parser("simulate", parents=[seeded, output], help="sweep q for one code and record eta/gamma")
    sim.add_argument("--code", choices=codes, default="self-randomized")
    sim.add_argument("--k", type=int, required=True, help="variables per group")
    sim.add_argument("--q", type=_list_of(2), required=True, help="comma-separated q sweep, e.g. 2,4,8,16,32")
    sim.add_argument("--cycles", type=_at_least(1), default=1000, help="erasure cycles per sweep point")
    sim.add_argument("--dist", default=None, help="input law: file (one prob per line) or inline p0,p1,...")

    balls = sub.add_parser("ballsbins", parents=[seeded, output], help="d-choice random loading sweeps")
    balls.add_argument("--mode", choices=("maxload", "overflow"), default="maxload")
    balls.add_argument("--n", type=_at_least(1, 1 << MAX_LOG2_N), required=True, help="bins")
    balls.add_argument("--m", type=_at_least(1), default=None, help="balls per trial (maxload mode)")
    balls.add_argument("--q", type=_list_of(2), default=None, help="comma-separated level counts (overflow mode)")
    balls.add_argument("--d", type=_list_of(1), default="1", help="comma-separated choice counts, e.g. 1,2")
    balls.add_argument("--trials", type=_at_least(1), default=100)

    bounds = sub.add_parser("bounds", help="evaluate the analytic formulas")
    bounds.add_argument("--gamma-bounds", metavar="K,L", help="storage efficiency ceilings")
    bounds.add_argument("--max-load", metavar="N,M,D", help="max-load point prediction")
    bounds.add_argument("--collision", metavar="M,N,K", help="per-bin load tail bound")
    bounds.add_argument("--dc", type=float, metavar="C", help="largest root scaling the c*n*ln(n) regime")
    bounds.add_argument("--lambertw", type=float, metavar="X", help="principal Lambert W at X")

    rt = sub.add_parser("roundtrip", parents=[seeded], help="random-write decodability check")
    rt.add_argument("--code", choices=("both", *codes), default="both")
    rt.add_argument("--k", type=_list_of(1), default="1,2,3", help="comma-separated k values")
    rt.add_argument("--q", type=_list_of(2), default="4,8,16", help="comma-separated q values")
    rt.add_argument("--writes", type=_at_least(1), default=10000, help="writes per (code, k, q) point")

    return parser


def _check_out_dir(path: str) -> None:
    """Reject an --out whose directory is missing before any work runs."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} does not exist")


def _cmd_simulate(args):
    _check_out_dir(args.out)
    params_list = [CodeParams(k=args.k, l=2, q=q, kind=CodeKind(args.code)) for q in args.q]
    dist = _load_dist(args.dist, params_list[0].value_count)
    return lambda: emit_records(
        [run_experiment(p, dist, args.cycles, args.seed) for p in params_list], args.format, args.out
    )


def _cmd_ballsbins(args):
    _check_out_dir(args.out)

    def trial_mean(sweep_index: int, trial) -> float:
        first = sweep_index * args.trials
        return sum(trial(cycle_rng(args.seed, first + t)) for t in range(args.trials)) / args.trials

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


def _parse_fields(text: str, names: tuple[str, ...], cast) -> list:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(names):
        raise ValueError(f"expected {','.join(names)}, got {text!r}")
    try:
        return [cast(part) for part in parts]
    except ValueError:
        raise ValueError(f"non-numeric entry in {text!r}") from None


def _cmd_bounds(args):
    lines = []
    if args.gamma_bounds:
        k, l = _parse_fields(args.gamma_bounds, ("K", "L"), int)
        single, arbitrary = gamma_upper_bounds(k, l)
        lines.append(f"gamma_bounds(k={k}, l={l}): single_change={_fmt(single)} arbitrary_change={_fmt(arbitrary)}")
    if args.max_load:
        n, m, d = _parse_fields(args.max_load, ("N", "M", "D"), int)
        pred = max_load_prediction(n, m, d)
        lines.append(f"max_load(n={n}, m={m}, d={d}) = {_fmt(pred.predicted_max_load)} [{pred.regime.value}]")
    if args.collision:
        m, n, k = _parse_fields(args.collision, ("M", "N", "K"), float)
        bound = collision_bound(m, n, k)
        lines.append(f"collision_bound(m={_fmt(m)}, n={_fmt(n)}, k={_fmt(k)}) = {_fmt(bound)}")
    if args.dc is not None:
        lines.append(f"dc({_fmt(args.dc)}) = {_fmt(solve_dc(args.dc))}")
    if args.lambertw is not None:
        lines.append(f"lambert_w0({_fmt(args.lambertw)}) = {_fmt(lambert_w0(args.lambertw))}")
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
