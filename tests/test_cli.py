import csv
import json

import pytest

from flashmod.cli import SIMULATE_COLUMNS, emit_records, run_cli
from flashmod.core import CodeKind, CodeParams
from flashmod.sim import DistributionSpec, run_experiment


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_sweep_writes_one_row_per_q(tmp_path):
    out = tmp_path / "eta.csv"
    rc = run_cli(
        [
            "simulate",
            "--code",
            "self-randomized",
            "--k",
            "3",
            "--l",
            "2",
            "--q",
            "2,4,8,16,32",
            "--cycles",
            "50",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == list(SIMULATE_COLUMNS)
    assert len(rows) == 6
    assert [r[3] for r in rows[1:]] == ["2", "4", "8", "16", "32"]
    first = rows[1]
    assert first[0] == "self-randomized" and first[4] == "8"
    assert 0.0 <= float(first[8]) < 1.0


def test_simulate_is_byte_identical_for_same_seed(tmp_path):
    args = ["simulate", "--k", "2", "--q", "4,8", "--cycles", "30", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_csv_and_json_carry_equal_values(tmp_path):
    args = ["simulate", "--k", "2", "--q", "4,8", "--cycles", "20", "--seed", "3"]
    c, j = tmp_path / "r.csv", tmp_path / "r.json"
    assert run_cli(args + ["--out", str(c), "--format", "csv"]) == 0
    assert run_cli(args + ["--out", str(j), "--format", "json"]) == 0
    rows = read_csv(c)
    records = json.loads(j.read_text())
    assert len(records) == len(rows) - 1
    for row, record in zip(rows[1:], records):
        for column, cell in zip(SIMULATE_COLUMNS, row):
            value = record[column]
            if isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value


def test_simulate_rejects_bad_q(tmp_path):
    rc = run_cli(["simulate", "--k", "2", "--q", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = run_cli(["simulate", "--k", "2", "--q", "abc", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_simulate_dist_file(tmp_path):
    dist = tmp_path / "dist.txt"
    dist.write_text("# skewed law over 4 values\n0.7\n0.1\n0.1\n0.1\n")
    out = tmp_path / "skew.csv"
    rc = run_cli(
        ["simulate", "--k", "2", "--q", "4", "--cycles", "20", "--dist", str(dist), "--out", str(out)]
    )
    assert rc == 0
    assert len(read_csv(out)) == 2


def test_simulate_dist_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    missing = str(tmp_path / "nope.txt")
    assert run_cli(["simulate", "--k", "2", "--q", "4", "--dist", missing, "--out", out]) == 2
    bad_sum = tmp_path / "bad.txt"
    bad_sum.write_text("0.5\n0.4\n0.0\n0.0\n")
    assert run_cli(["simulate", "--k", "2", "--q", "4", "--dist", str(bad_sum), "--out", out]) == 2
    short = tmp_path / "short.txt"
    short.write_text("0.5\n0.5\n")
    assert run_cli(["simulate", "--k", "2", "--q", "4", "--dist", str(short), "--out", out]) == 2
    assert run_cli(["simulate", "--k", "2", "--q", "4", "--dist", "0.5,0.5,0.25", "--out", out]) == 2
    capsys.readouterr()
    for law in ("0.5,nan,0.5,0", "inf,0,0,0", "0.5,0.5,-inf,inf"):
        assert run_cli(["simulate", "--k", "2", "--q", "4", "--dist", law, "--out", out]) == 2
        assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_inline_dist(tmp_path):
    out = tmp_path / "inline.csv"
    rc = run_cli(
        ["simulate", "--k", "1", "--q", "4", "--cycles", "10", "--dist", "0.5,0.5", "--out", str(out)]
    )
    assert rc == 0


def test_missing_subcommand_or_flags_exit_2(tmp_path):
    assert run_cli([]) == 2
    assert run_cli(["simulate"]) == 2  # --k/--q/--out required
    assert run_cli(["nonsense"]) == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    out1, out2, out3 = (tmp_path / f"{i}.csv" for i in range(3))
    base = ["simulate", "--k", "2", "--q", "4", "--cycles", "20"]
    monkeypatch.setenv("FLASHMOD_SEED", "99")
    assert run_cli(base + ["--out", str(out1)]) == 0
    assert run_cli(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert run_cli(base + ["--seed", "99", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()  # flag and env agree
    monkeypatch.setenv("FLASHMOD_SEED", "not-a-number")
    assert run_cli(base + ["--out", str(out1)]) == 2


def test_emit_records_empty_and_single(tmp_path):
    empty = tmp_path / "empty.csv"
    emit_records([], "csv", str(empty))
    assert read_csv(empty) == [list(SIMULATE_COLUMNS)]

    params = CodeParams(k=1, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
    stats = run_experiment(params, DistributionSpec.uniform(2), 5, 1)
    one = tmp_path / "one.csv"
    emit_records([stats], "csv", str(one))
    rows = read_csv(one)
    assert len(rows) == 2
    assert rows[1][0] == "self-randomized"


def test_bounds_prints_dc(capsys):
    assert run_cli(["bounds", "--dc", "1"]) == 0
    out = capsys.readouterr().out
    assert "2.718281828" in out


def test_bounds_all_flags(capsys):
    rc = run_cli(
        [
            "bounds",
            "--gamma-bounds",
            "3,2",
            "--max-load",
            "10000,10000,2",
            "--collision",
            "10000,10000,10",
            "--lambertw",
            "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma_bounds(k=3, l=2)" in out and "arbitrary_change=3" in out
    assert "[two-choice]" in out
    assert "collision_bound" in out
    assert "lambert_w0(0) = 0" in out


def test_bounds_requires_a_flag():
    assert run_cli(["bounds"]) == 2


def test_bounds_domain_errors_exit_2():
    assert run_cli(["bounds", "--dc", "-1"]) == 2
    assert run_cli(["bounds", "--lambertw", "-1"]) == 2


def test_roundtrip_command(capsys):
    rc = run_cli(["roundtrip", "--code", "both", "--k", "1,2", "--q", "4", "--writes", "500", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "failures=0" in out
    assert "[PASS]" in out


def test_ballsbins_maxload_rows(tmp_path):
    out = tmp_path / "loads.csv"
    rc = run_cli(
        ["ballsbins", "--mode", "maxload", "--n", "100", "--m", "100", "--d", "1,2", "--trials", "20", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert rows[0][0] == "mode"
    d1, d2 = float(rows[1][5]), float(rows[2][5])
    assert d2 <= d1


def test_ballsbins_overflow_rows(tmp_path):
    out = tmp_path / "overflow.json"
    rc = run_cli(
        ["ballsbins", "--mode", "overflow", "--n", "8", "--q", "2,4", "--d", "1", "--trials", "25", "--seed", "3", "--out", str(out), "--format", "json"]
    )
    assert rc == 0
    records = json.loads(out.read_text())
    assert len(records) == 2
    assert all(0.0 <= r["eta_oracle"] < 1.0 for r in records)


def test_ballsbins_flag_validation(tmp_path, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran before the configuration check")

    monkeypatch.setattr("flashmod.cli.throw_balls", no_trials)
    monkeypatch.setattr("flashmod.cli.balls_until_overflow", no_trials)
    out = str(tmp_path / "x.csv")
    assert run_cli(["ballsbins", "--mode", "maxload", "--n", "10", "--out", out]) == 2  # no --m
    assert run_cli(["ballsbins", "--mode", "overflow", "--n", "10", "--out", out]) == 2  # no --q
    assert run_cli(["ballsbins", "--mode", "overflow", "--n", "10", "--q", "1", "--out", out]) == 2
    # the max-load prediction needs n >= 3
    assert run_cli(["ballsbins", "--mode", "maxload", "--n", "2", "--m", "4", "--d", "1,2", "--out", out]) == 2


def test_unwritable_output_is_runtime_failure(tmp_path):
    rc = run_cli(["simulate", "--k", "1", "--q", "4", "--cycles", "5", "--out", str(tmp_path / "no" / "dir.csv")])
    assert rc == 1
