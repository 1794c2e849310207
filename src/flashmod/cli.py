"""Command line front end: sweeps, analytic queries, CSV/JSON emission.

Each subcommand handler checks all of its inputs, then returns the run
as a zero-argument callable.  ``run_cli`` alone maps errors to exit
codes: 2 for a flag argparse rejects or an error raised while a handler
checks, so always before any output; 1 for an error raised by the run
and for failed ``roundtrip`` decodes; 0 otherwise.  An empty --out, one
that names a directory and one in a missing directory are errors while
checking; an --out that cannot be opened for writing fails in the run.
Both sweep commands read seeded streams by one rule: cycle t of every
``simulate`` q point, and trial t of every ``ballsbins`` point, reads
stream t of the master seed, so a row depends on its own point, the seed
and the cycle or trial count, never on the other points of the list.
A flag's syntax is its argparse type, and its domain is stated once, in
the library: a count flag's type applies the reader the library checks
that count with (core.read_count, core.read_cells for --n, and sim's
stream reader, below the 2^128 streams of a seed, for --cycles and
--trials), so it fails with the library's message while parsing, and
any other flag is checked by the function the handler passes it to.
Every input comes from argv (and a --dist file it names); no
environment variable is read.
"""

import argparse
import functools
import itertools
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
from .core import ERASE_REQUIRED, CellState, CodeKind, CodeParams, loss_factor, read_cells, read_count
from .sim import DistributionSpec, _blocks, _read_streams, cycle_rng, cycle_rngs, gamma_upper_bounds, run_experiment

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

_CODE_NAMES = tuple(sorted(kind.value for kind in CodeKind))  # --code's choices, and roundtrip's "both"
MAXLOAD_COLUMNS = ("mode", "n", "m", "d", "trials", "mean_max_load", "predicted_max_load", "seed")
OVERFLOW_COLUMNS = ("mode", "n", "q", "d", "trials", "mean_rewrites", "eta_oracle", "seed")


def _fmt(value) -> str:
    # floats carry 12 significant digits in every output format
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(rows, columns, fmt: str, path: str) -> None:
    """Write rows, tuples in the order of columns, as CSV or a JSON array; a row that fails to serialize writes no file."""
    if fmt == "csv":
        text = "\n".join([",".join(columns), *(",".join(map(_fmt, row)) for row in rows)])
    elif fmt == "json":
        payload = [
            {c: float(_fmt(v)) if isinstance(v, float) else v for c, v in zip(columns, row)}
            for row in rows
        ]
        text = json.dumps(payload, indent=2)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


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
    '#' comments), an inline comma list, or the uniform default.  A file is
    read only up to the law's size: the first entry past it raises."""
    if spec is None:
        return DistributionSpec.uniform(size)
    if os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8-sig") as fh:  # skips the byte-order mark spreadsheet exports lead with
            return _read_law(spec, (line.split("#", 1)[0] for line in fh), size)
    if "," in spec:
        return _read_law(spec, [spec], size)
    raise ValueError(f"distribution {spec!r} is neither a readable file nor an inline comma list")


def _read_law(spec: str, texts, size: int) -> DistributionSpec:
    """The law in the comma lists of texts, read one entry at a time and refused at the first past size."""
    probs = []
    for part in (part for text in texts for part in text.split(",") if part.strip()):
        if len(probs) == size:
            raise ValueError(f"distribution has more than {size} entries, need {size}")
        try:
            probs.append(float(part))
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
    sim.set_defaults(handler=_cmd_simulate)
    sim.add_argument("--code", choices=_CODE_NAMES, default="self-randomized")
    sim.add_argument("--k", type=int, required=True, help="variables per group")
    sim.add_argument("--q", type=_commas(int), required=True, help="comma-separated q sweep, e.g. 2,4,8,16,32")
    sim.add_argument("--cycles", type=_integer(_read_streams, "cycles", 1), default=1000, help="erasure cycles per sweep point")
    sim.add_argument("--dist", default=None, help="input law: file (one prob per line or comma) or inline p0,p1,...")

    balls = sub.add_parser("ballsbins", parents=[seeded, output], help="d-choice random loading sweeps")
    balls.set_defaults(handler=_cmd_ballsbins)
    balls.add_argument("--mode", choices=("maxload", "overflow"), default="maxload")
    balls.add_argument("--n", type=_integer(read_cells), required=True, help="bins")
    balls.add_argument("--m", type=int, default=None, help="balls per trial (maxload mode)")
    balls.add_argument("--q", type=_commas(_integer(read_count, "q", 2)), default=None, help="comma-separated level counts (overflow mode)")
    balls.add_argument("--d", type=_commas(_integer(read_count, "d", 1)), default="1", help="comma-separated choice counts, e.g. 1,2")
    balls.add_argument("--trials", type=_integer(_read_streams, "trials", 1), default=100)

    bounds = sub.add_parser("bounds", help="evaluate the analytic formulas")
    bounds.set_defaults(handler=_cmd_bounds)
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
    rt.set_defaults(handler=_cmd_roundtrip)
    rt.add_argument("--code", choices=("both", *_CODE_NAMES), default="both")
    rt.add_argument("--k", type=_commas(int), default="1,2,3", help="comma-separated k values")
    rt.add_argument("--q", type=_commas(int), default="4,8,16", help="comma-separated q values")
    rt.add_argument("--writes", type=_integer(read_count, "writes", 1), default=10000, help="writes per (code, k, q) point")

    return parser


def _check_out_dir(path: str) -> None:
    """Reject an empty --out, a directory, or a file in a missing directory, before any work runs."""
    if not path:
        raise ValueError("output directory: --out is empty, so it names no file")
    if os.path.isdir(path):
        raise ValueError(f"output {path!r} is a directory, not a file")
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
    needs, takes_no = ("m", "q") if args.mode == "maxload" else ("q", "m")
    if getattr(args, needs) is None:
        raise ValueError(f"{args.mode} mode needs --{needs}")
    if getattr(args, takes_no) is not None:
        raise ValueError(f"{args.mode} mode takes no --{takes_no}")

    def trial_mean(trial) -> float:  # trial t of every point reads stream t
        return sum(trial(rng) for rng in cycle_rngs(args.seed, 0, args.trials)) / args.trials

    if args.mode == "maxload":
        predictions = [max_load_prediction(args.n, args.m, d).predicted_max_load for d in args.d]

        def rows():
            for d, predicted in zip(args.d, predictions):
                mean = trial_mean(lambda rng: int(throw_balls(args.n, args.m, d, rng).max()))
                yield args.mode, args.n, args.m, d, args.trials, mean, predicted, args.seed

        return lambda: _emit(rows(), MAXLOAD_COLUMNS, args.format, args.out)

    def rows():
        for q, d in itertools.product(args.q, args.d):
            mean = trial_mean(lambda rng: balls_until_overflow(args.n, q, d, rng))
            yield args.mode, args.n, q, d, args.trials, mean, loss_factor(mean, args.n, q), args.seed

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
    law, rng = DistributionSpec.uniform(params.value_count), cycle_rng(seed, stream)
    state = CellState.zeros(params.n, params.q)
    failures = done = 0
    for x in itertools.chain.from_iterable(_blocks(law, rng, params)):
        if code.encode(state, x) is ERASE_REQUIRED:
            state = CellState.zeros(params.n, params.q)  # new cycle, write not counted
            continue
        if code.decode(state) != x:
            failures += 1
        done += 1
        if done == writes:
            return failures


def _cmd_roundtrip(args):
    names = _CODE_NAMES if args.code == "both" else [args.code]
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


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return 0 if exc.code in (0, None) else 2
    exit_code = 2  # until the handler has checked every input and returned the run
    try:
        run = args.handler(args)
        exit_code = 1
        return run() or 0  # a run returns None, or 1 for failed roundtrip decodes
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
