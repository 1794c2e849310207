"""Command line front end: sweeps, analytic queries, CSV/JSON emission.

Exit codes: 0 on success, 2 on flag or configuration errors, 1 on
runtime failures.  When --seed is omitted the FLASHMOD_SEED environment
variable is used, and failing that, seed 0.
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
from .core import CellState, CodeKind, CodeParams, WriteKind
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

_CODE_NAMES = {
    "self-randomized": CodeKind.SELF_RANDOMIZED,
    "load-balancing": CodeKind.LOAD_BALANCING,
}


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _fmt(value) -> str:
    # floats carry 12 significant digits in every output format
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(rows, columns, fmt: str, path: str) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(row[c]) for c in columns) for row in rows)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = [
            {c: float(_fmt(v)) if isinstance(v, float) else v for c, v in ((c, row[c]) for c in columns)}
            for row in rows
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise UsageError(f"unknown format {fmt!r}")


def emit_records(stats, fmt: str, path: str) -> None:
    """Write experiment records as CSV (fixed header) or a JSON array.

    Floats are rendered identically in both formats, so a CSV and a JSON
    emission of the same stats carry field-by-field equal values.
    """
    rows = []
    for s in stats:
        p = s.params
        rows.append(
            {
                "code": p.kind.value,
                "k": p.k,
                "l": p.l,
                "q": p.q,
                "n": p.n,
                "cycles": s.cycles,
                "mean_r_inc": s.mean_r_inc,
                "mean_r_total": s.mean_r_total,
                "eta": s.eta,
                "gamma": s.gamma,
                "seed": s.seed,
            }
        )
    _emit(rows, SIMULATE_COLUMNS, fmt, path)


def _int_list(text: str, name: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"{name} must be a comma-separated list of integers, got {text!r}") from None
    if not values:
        raise UsageError(f"{name} list is empty")
    return values


def _resolve_seed(flag_value) -> int:
    if flag_value is None:
        env = os.environ.get("FLASHMOD_SEED")
        if env is None:
            return 0
        try:
            flag_value = int(env)
        except ValueError:
            raise UsageError(f"FLASHMOD_SEED must be an integer, got {env!r}") from None
    if flag_value < 0:
        raise UsageError(f"seed must be non-negative, got {flag_value}")
    return flag_value


def _load_dist(spec: str | None, size: int) -> DistributionSpec:
    """Input law from a file (one probability per line, '#' comments),
    an inline comma list, or the uniform default."""
    if spec is None:
        return DistributionSpec.uniform(size)
    if os.path.isfile(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read distribution file {spec!r}: {exc}") from None
        tokens = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line)
    elif "," in spec:
        tokens = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        raise UsageError(f"distribution {spec!r} is neither a readable file nor an inline comma list")
    try:
        probs = [float(tok) for tok in tokens]
    except ValueError:
        raise UsageError(f"distribution {spec!r} contains a non-numeric entry") from None
    if len(probs) != size:
        raise UsageError(f"distribution has {len(probs)} entries, need {size}")
    try:
        return DistributionSpec(probs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashmod",
        description="Flash modulation code experiments and balls-into-bins analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sweep q for one code and record eta/gamma")
    sim.add_argument("--code", choices=sorted(_CODE_NAMES), default="self-randomized")
    sim.add_argument("--k", type=int, required=True, help="variables per group")
    sim.add_argument("--l", type=int, default=2, help="alphabet size (only 2)")
    sim.add_argument("--q", required=True, help="comma-separated q sweep, e.g. 2,4,8,16,32")
    sim.add_argument("--cycles", type=int, default=1000, help="erasure cycles per sweep point")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--dist", default=None, help="input law: file (one prob per line) or inline p0,p1,...")
    sim.add_argument("--out", required=True, help="output file")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")

    balls = sub.add_parser("ballsbins", help="d-choice random loading sweeps")
    balls.add_argument("--mode", choices=("maxload", "overflow"), default="maxload")
    balls.add_argument("--n", type=int, required=True, help="bins")
    balls.add_argument("--m", type=int, default=None, help="balls per trial (maxload mode)")
    balls.add_argument("--q", default=None, help="comma-separated level counts (overflow mode)")
    balls.add_argument("--d", default="1", help="comma-separated choice counts, e.g. 1,2")
    balls.add_argument("--trials", type=int, default=100)
    balls.add_argument("--seed", type=int, default=None)
    balls.add_argument("--out", required=True, help="output file")
    balls.add_argument("--format", choices=("csv", "json"), default="csv")

    bounds = sub.add_parser("bounds", help="evaluate the analytic formulas")
    bounds.add_argument("--gamma-bounds", metavar="K,L", help="storage efficiency ceilings")
    bounds.add_argument("--max-load", metavar="N,M,D", help="max-load point prediction")
    bounds.add_argument("--collision", metavar="M,N,K", help="per-bin load tail bound")
    bounds.add_argument("--dc", type=float, metavar="C", help="largest root scaling the c*n*ln(n) regime")
    bounds.add_argument("--lambertw", type=float, metavar="X", help="principal Lambert W at X")

    rt = sub.add_parser("roundtrip", help="random-write decodability check")
    rt.add_argument("--code", choices=("both", *sorted(_CODE_NAMES)), default="both")
    rt.add_argument("--k", default="1,2,3", help="comma-separated k values")
    rt.add_argument("--q", default="4,8,16", help="comma-separated q values")
    rt.add_argument("--writes", type=int, default=10000, help="writes per (code, k, q) point")
    rt.add_argument("--seed", type=int, default=None)

    return parser


def _cmd_simulate(args) -> int:
    kind = _CODE_NAMES[args.code]
    q_values = _int_list(args.q, "q")
    if any(q < 2 for q in q_values):
        raise UsageError("q values must be >= 2")
    if args.cycles < 1:
        raise UsageError("cycles must be >= 1")
    seed = _resolve_seed(args.seed)
    try:
        params_list = [CodeParams(k=args.k, l=args.l, q=q, kind=kind) for q in q_values]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    dist = _load_dist(args.dist, params_list[0].value_count)
    stats = [run_experiment(p, dist, args.cycles, seed) for p in params_list]
    emit_records(stats, args.format, args.out)
    return 0


def _cmd_ballsbins(args) -> int:
    if args.n < 1:
        raise UsageError("n must be >= 1")
    if args.trials < 1:
        raise UsageError("trials must be >= 1")
    d_values = _int_list(args.d, "d")
    if any(d < 1 for d in d_values):
        raise UsageError("d values must be >= 1")
    seed = _resolve_seed(args.seed)
    rows = []
    if args.mode == "maxload":
        if args.m is None or args.m < 1:
            raise UsageError("maxload mode needs --m >= 1")
        try:  # configuration errors surface before any trial runs
            predictions = [max_load_prediction(args.n, args.m, d) for d in d_values]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        for sweep_index, (d, prediction) in enumerate(zip(d_values, predictions)):
            total = 0
            for t in range(args.trials):
                rng = cycle_rng(seed, sweep_index * args.trials + t)
                total += int(throw_balls(args.n, args.m, d, rng).max())
            rows.append(
                {
                    "mode": "maxload",
                    "n": args.n,
                    "m": args.m,
                    "d": d,
                    "trials": args.trials,
                    "mean_max_load": total / args.trials,
                    "predicted_max_load": prediction.predicted_max_load,
                    "seed": seed,
                }
            )
        _emit(rows, MAXLOAD_COLUMNS, args.format, args.out)
        return 0
    if args.q is None:
        raise UsageError("overflow mode needs --q")
    q_values = _int_list(args.q, "q")
    if any(q < 2 for q in q_values):
        raise UsageError("q values must be >= 2")
    for sweep_index, (q, d) in enumerate((q, d) for q in q_values for d in d_values):
        total = 0
        for t in range(args.trials):
            rng = cycle_rng(seed, sweep_index * args.trials + t)
            total += balls_until_overflow(args.n, q, d, rng)
        mean_rewrites = total / args.trials
        rows.append(
            {
                "mode": "overflow",
                "n": args.n,
                "q": q,
                "d": d,
                "trials": args.trials,
                "mean_rewrites": mean_rewrites,
                "eta_oracle": 1.0 - mean_rewrites / (args.n * (q - 1)),
                "seed": seed,
            }
        )
    _emit(rows, OVERFLOW_COLUMNS, args.format, args.out)
    return 0


def _parse_fields(text: str, names: tuple[str, ...], caster) -> list:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(names):
        raise UsageError(f"expected {','.join(names)}, got {text!r}")
    try:
        return [cast(part) for cast, part in zip(caster, parts)]
    except ValueError:
        raise UsageError(f"non-numeric entry in {text!r}") from None


def _cmd_bounds(args) -> int:
    lines = []
    try:
        if args.gamma_bounds:
            k, l = _parse_fields(args.gamma_bounds, ("K", "L"), (int, int))
            single, arbitrary = gamma_upper_bounds(k, l)
            lines.append(f"gamma_bounds(k={k}, l={l}): single_change={_fmt(single)} arbitrary_change={_fmt(arbitrary)}")
        if args.max_load:
            n, m, d = _parse_fields(args.max_load, ("N", "M", "D"), (int, int, int))
            pred = max_load_prediction(n, m, d)
            lines.append(f"max_load(n={n}, m={m}, d={d}) = {_fmt(pred.predicted_max_load)} [{pred.regime.value}]")
        if args.collision:
            m, n, k = _parse_fields(args.collision, ("M", "N", "K"), (float, float, float))
            bound = collision_bound(m, n, k)
            lines.append(f"collision_bound(m={_fmt(m)}, n={_fmt(n)}, k={_fmt(k)}) = {_fmt(bound)}")
        if args.dc is not None:
            lines.append(f"dc({_fmt(args.dc)}) = {_fmt(solve_dc(args.dc))}")
        if args.lambertw is not None:
            lines.append(f"lambert_w0({_fmt(args.lambertw)}) = {_fmt(lambert_w0(args.lambertw))}")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not lines:
        raise UsageError("bounds needs at least one of --gamma-bounds/--max-load/--collision/--dc/--lambertw")
    print("\n".join(lines))
    return 0


def _roundtrip_point(kind: CodeKind, k: int, q: int, writes: int, seed: int, stream: int) -> int:
    """Random writes with a decode check after each one; returns failures."""
    params = CodeParams(k=k, l=2, q=q, kind=kind)
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
            outcome = code.encode(state, x)
            if outcome.kind is WriteKind.ERASE_REQUIRED:
                state = CellState.zeros(params.n, params.q)  # new cycle, write not counted
                continue
            if code.decode(state) != x:
                failures += 1
            done += 1
    return failures


def _cmd_roundtrip(args) -> int:
    if args.writes < 1:
        raise UsageError("writes must be >= 1")
    k_values = _int_list(args.k, "k")
    q_values = _int_list(args.q, "q")
    if any(q < 2 for q in q_values):
        raise UsageError("q values must be >= 2")
    seed = _resolve_seed(args.seed)
    names = sorted(_CODE_NAMES) if args.code == "both" else [args.code]
    total_failures = 0
    stream = 0
    for name in names:
        for k in k_values:
            for q in q_values:
                try:
                    failures = _roundtrip_point(_CODE_NAMES[name], k, q, args.writes, seed, stream)
                except ValueError as exc:
                    raise UsageError(str(exc)) from None
                stream += 1
                total_failures += failures
                print(f"roundtrip code={name} k={k} q={q} writes={args.writes}: failures={failures}")
    verdict = "PASS" if total_failures == 0 else "FAIL"
    print(f"roundtrip total failures: {total_failures} [{verdict}]")
    return 0 if total_failures == 0 else 1


_HANDLERS = {
    "simulate": _cmd_simulate,
    "ballsbins": _cmd_ballsbins,
    "bounds": _cmd_bounds,
    "roundtrip": _cmd_roundtrip,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
