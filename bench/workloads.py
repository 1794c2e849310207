"""The three benchmark workloads and the checks on their outputs.

A workload is a fixed list of flashmod CLI calls.  One pass runs every
call once through ``flashmod.cli.run_cli``; the benchmark repeats passes
at one seed, so every pass must write byte-identical CSVs.  No check
below depends on the exact random stream: each one holds for any seed
(ranges, ceilings, a tolerance of five standard errors, determinism).
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

# eta of one erasure cycle at k=3 has a standard deviation below
# 0.4/sqrt(q) for both codes and both matched oracles on the q grid
# (measured over 2000 cycles per point); the oracle check allows five
# standard errors of the difference of two means
ETA_SD_SCALE = 0.4
ORACLE_SIGMAS = 5.0

FIG2_Q = (2, 4, 8, 16, 32)
HOT_P0 = 0.7


def call_seed(seed: int, index: int) -> int:
    """CLI --seed of call `index` in a pass, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def write_hot_law(path, size: int) -> None:
    """--dist file: value 0 with probability HOT_P0, the other values uniform."""
    rest = (1.0 - HOT_P0) / (size - 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# hot law: p(0)={HOT_P0}, other {size - 1} values uniform\n")
        fh.writelines(f"{p!r}\n" for p in [HOT_P0] + [rest] * (size - 1))


class Checks:
    """Counts output checks; a failure keeps its description."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def parse_csv(data: bytes, columns: tuple[str, ...]) -> list[dict]:
    """Rows of a CLI CSV as dicts; the named columns must parse as numbers."""
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    missing = set(columns) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"missing columns {sorted(missing)}")
    return [{c: float(raw[c]) for c in columns} for raw in reader]


@dataclass(frozen=True)
class Simulate:
    code: str
    k: int
    qs: tuple[int, ...]
    cycles: int
    hot: bool = False

    columns = ("k", "q", "cycles", "mean_r_inc", "mean_r_total", "eta", "gamma")

    kind = "simulate"

    def argv(self, seed: int, out: str, law: str) -> list[str]:
        argv = ["simulate", "--code", self.code, "--k", str(self.k), "--q", _join(self.qs),
                "--cycles", str(self.cycles), "--seed", str(seed), "--out", out]
        return argv + (["--dist", law] if self.hot else [])

    def check(self, rows, checks: Checks) -> None:
        if not checks.expect([int(r["q"]) for r in rows] == list(self.qs), f"{self.code}: one row per q"):
            return
        ceiling = self.k * math.log2(2)
        for r in rows:
            tag = f"{self.code} k={self.k} q={int(r['q'])}"
            checks.expect(r["k"] == self.k and r["cycles"] == self.cycles, f"{tag}: echoes k and cycles")
            checks.expect(0.0 <= r["eta"] < 1.0, f"{tag}: 0 <= eta < 1, got {r['eta']}")
            checks.expect(0.0 < r["gamma"] <= ceiling, f"{tag}: 0 < gamma <= k*log2(l), got {r['gamma']}")
            checks.expect(r["mean_r_inc"] <= r["mean_r_total"], f"{tag}: r_inc <= r_total")


@dataclass(frozen=True)
class Overflow:
    n: int
    qs: tuple[int, ...]
    d: int
    trials: int

    columns = ("n", "q", "d", "trials", "mean_rewrites", "eta_oracle")

    kind = "overflow"

    def argv(self, seed: int, out: str, law: str) -> list[str]:
        return ["ballsbins", "--mode", "overflow", "--n", str(self.n), "--q", _join(self.qs),
                "--d", str(self.d), "--trials", str(self.trials), "--seed", str(seed), "--out", out]

    def check(self, rows, checks: Checks) -> None:
        if not checks.expect([int(r["q"]) for r in rows] == list(self.qs), f"overflow d={self.d}: one row per q"):
            return
        for r in rows:
            tag = f"overflow n={self.n} d={self.d} q={int(r['q'])}"
            checks.expect(r["trials"] == self.trials, f"{tag}: echoes trials")
            checks.expect(0.0 <= r["eta_oracle"] < 1.0, f"{tag}: 0 <= eta_oracle < 1, got {r['eta_oracle']}")


@dataclass(frozen=True)
class MaxLoad:
    n: int
    m: int
    ds: tuple[int, ...]
    trials: int

    columns = ("n", "m", "d", "trials", "mean_max_load")

    kind = "maxload"

    def argv(self, seed: int, out: str, law: str) -> list[str]:
        return ["ballsbins", "--mode", "maxload", "--n", str(self.n), "--m", str(self.m),
                "--d", _join(self.ds), "--trials", str(self.trials), "--seed", str(seed), "--out", out]

    def check(self, rows, checks: Checks) -> None:
        if not checks.expect([int(r["d"]) for r in rows] == list(self.ds), "maxload: one row per d"):
            return
        for r in rows:
            tag = f"maxload d={int(r['d'])}"
            checks.expect(r["trials"] == self.trials, f"{tag}: echoes trials")
            checks.expect(self.m / self.n <= r["mean_max_load"] <= self.m, f"{tag}: m/n <= max load <= m")
        loads = {int(r["d"]): r["mean_max_load"] for r in rows}
        if 1 in loads and 2 in loads:
            checks.expect(loads[2] < loads[1], f"maxload: d=2 max load {loads[2]} below d=1 {loads[1]}")


def _join(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    # (simulate calls, overflow calls) whose pooled etas must agree
    oracle_groups: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    def code_specs(self) -> list[tuple[str, int, int]]:
        """(code, k, q) of every code object the workload builds."""
        specs = [(c.code, c.k, q) for c in self.calls if c.kind == "simulate" for q in c.qs]
        return list(dict.fromkeys(specs))

    def check(self, outputs: list[bytes | None], checks: Checks) -> list[list[dict] | None]:
        """Check one pass's CSVs; returns the parsed rows (None where unusable)."""
        parsed = []
        for i, (call, data) in enumerate(zip(self.calls, outputs)):
            rows = None
            if checks.expect(data is not None, f"call {i} ({call.kind}): exit 0 and an output file"):
                try:
                    rows = parse_csv(data, call.columns)
                except (ValueError, KeyError, UnicodeDecodeError) as exc:
                    checks.expect(False, f"call {i} ({call.kind}): CSV parses ({exc})")
                else:
                    checks.expect(True, f"call {i}: CSV parses")
                    call.check(rows, checks)
            parsed.append(rows)
        for sims, orcs in self.oracle_groups:
            if any(parsed[i] is None for i in sims + orcs):
                continue
            code, d = self.calls[sims[0]].code, self.calls[orcs[0]].d
            cycles = sum(self.calls[i].cycles for i in sims)
            trials = sum(self.calls[i].trials for i in orcs)
            eta = _pooled(parsed, sims, "cycles", "eta")
            oracle = _pooled(parsed, orcs, "trials", "eta_oracle")
            for q in sorted(eta.keys() & oracle.keys()):
                tol = ORACLE_SIGMAS * ETA_SD_SCALE / math.sqrt(q) * math.sqrt(1 / cycles + 1 / trials)
                gap = abs(eta[q] - oracle[q])
                checks.expect(gap <= tol, f"{code} q={q}: |eta - oracle d={d}| = {gap:.4f} > {tol:.4f}")
        return parsed


def _pooled(parsed, indices, weight: str, column: str) -> dict[int, float]:
    """Per-q mean of column over several calls' rows, weighted by cycles or trials."""
    sums, weights = {}, {}
    for i in indices:
        for r in parsed[i]:
            q = int(r["q"])
            sums[q] = sums.get(q, 0.0) + r[weight] * r[column]
            weights[q] = weights.get(q, 0.0) + r[weight]
    return {q: sums[q] / weights[q] for q in sums}


def work_done(workload: Workload, parsed) -> dict[str, float]:
    """Writes, cycles and balls one pass performed, from its outputs."""
    done = {"writes": 0.0, "cycles": 0.0, "balls": 0.0}
    for call, rows in zip(workload.calls, parsed):
        for r in rows or ():
            if call.kind == "simulate":
                done["writes"] += r["cycles"] * r["mean_r_total"]
                done["cycles"] += r["cycles"]
            elif call.kind == "overflow":
                done["balls"] += r["trials"] * r["mean_rewrites"]
            else:
                done["balls"] += r["trials"] * r["m"]
    return done


def expected_counts(workload: Workload, parsed) -> dict[str, int]:
    """Layer call counts a traced pass must show, derived from its outputs.

    Each cycle ends with one more encode call than mean_r_total counts:
    the write that hits ERASE_REQUIRED.  That write and every WRITTEN one
    reach cell_increment.
    """
    counts = {"codes.encode": 0, "core.cell_increment": 0, "sim.run_cycle": 0}
    for call, rows in zip(workload.calls, parsed):
        if call.kind == "simulate":
            for r in rows or ():
                counts["codes.encode"] += round(r["cycles"] * (r["mean_r_total"] + 1))
                counts["core.cell_increment"] += round(r["cycles"] * (r["mean_r_inc"] + 1))
                counts["sim.run_cycle"] += int(r["cycles"])
        elif call.kind == "overflow":
            key = f"ballsbins.overflow.d{call.d}"
            counts[key] = counts.get(key, 0) + call.trials * len(call.qs)
        else:
            for d in call.ds:
                key = f"ballsbins.throw.d{d}"
                counts[key] = counts.get(key, 0) + call.trials
    return counts


# Why each workload exists, and which layer it stresses or bypasses, is
# recorded next to its name in BENCHMARK.json.  The large-n workloads split
# a pass into short calls, each with its own seed: short calls keep the
# calibration samples around them close in time, and averaging over more
# cycles keeps the work per pass nearly the same from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        # large n: field.gf_mul and LB encode/decode dominate; 20 cycles
        Workload("lb-bign", (Simulate("load-balancing", 9, (16,), 4),) * 5),
        # large n without field; the hot law makes half the writes no-ops; 100 cycles
        Workload("sr-bign-hot", (Simulate("self-randomized", 10, (16,), 25, hot=True),) * 4),
        # short cycles: per-cycle set-up and the ballsbins trial loops dominate;
        # the two long calls are split in three like the large-n passes
        Workload(
            "smalln-oracles",
            (
                Simulate("self-randomized", 3, FIG2_Q, 300),
                *(Simulate("load-balancing", 3, FIG2_Q, 100),) * 3,
                Overflow(8, FIG2_Q, 1, 300),
                *(Overflow(16, FIG2_Q, 2, 100),) * 3,
                MaxLoad(10_000, 10_000, (1, 2), 100),
            ),
            oracle_groups=(((0,), (4,)), ((1, 2, 3), (5, 6, 7))),
        ),
    )
}
