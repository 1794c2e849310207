import contextlib
import csv
import io
import json
import os
import re
import shlex
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashmod.ballsbins import balls_until_overflow, throw_balls
from flashmod.cli import SIMULATE_COLUMNS, build_parser, emit_records, run_cli
from flashmod.codes import LoadBalancingCode, SelfRandomizedCode
from flashmod.core import CellState, CodeKind, CodeParams
from flashmod.sim import DistributionSpec, cycle_rngs, run_experiment

README = Path(__file__).resolve().parent.parent / "README.md"
HUGE = "1" + "0" * 400  # an integer literal beyond float range
NEAR_MAX = str(int(1.7e308))  # within float range, but k*log2(4) = 2k is not


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


def test_one_parser_serves_every_call(tmp_path):
    "A refused argv leaves the cached parser as it was: the next simulate writes what a fresh parser's does."
    argv = ["simulate", "--k", "2", "--q", "8,2", "--cycles", "20", "--seed", "3", "--dist", "0.4,0.3,0.2,0.1", "--out"]
    build_parser.cache_clear()
    fresh = tmp_path / "fresh.csv"
    assert run_cli(argv + [str(fresh)]) == 0
    refused = ["simulate", "--code", "load-balancing", "--format", "json", "--k", "3", "--q", "4", "--cycles", "0",
               "--out", str(tmp_path / "x.json")]
    assert run_cli(refused) == 2
    again = tmp_path / "again.csv"
    assert run_cli(argv + [str(again)]) == 0
    assert again.read_bytes() == fresh.read_bytes()
    assert build_parser() is build_parser()


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


def test_simulate_rejects_bad_q(tmp_path, monkeypatch, capsys):
    rc = run_cli(["simulate", "--k", "2", "--q", "4,1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "q must be >= 2" in capsys.readouterr().err  # the range CodeParams states
    rc = run_cli(["simulate", "--k", "2", "--q", "abc", "--out", str(tmp_path / "x.csv")])
    assert rc == 2

    def no_cells(*args):
        raise AssertionError("cells were allocated before the size check")

    monkeypatch.setattr(CellState, "zeros", no_cells)
    capsys.readouterr()
    # n above 2^24 cells is a usage error, raised before any allocation
    for code, k in (("self-randomized", "25"), ("self-randomized", "40"), ("load-balancing", "24")):
        assert run_cli(["simulate", "--code", code, "--k", k, "--q", "4", "--out", str(tmp_path / "x.csv")]) == 2
        assert "2^24" in capsys.readouterr().err
    assert run_cli(["simulate", "--k", "2", "--q", "4", "--cycles", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_simulate_dist_file(tmp_path):
    dist = tmp_path / "dist.txt"
    # a file line may hold several comma-separated values, as an inline list does
    dist.write_text("# skewed law over 4 values\n0.7,0.1  # p0, p1\n0.1\n0.1\n")
    out, inline = tmp_path / "skew.csv", tmp_path / "inline.csv"
    base = ["simulate", "--k", "2", "--q", "4", "--cycles", "20"]
    assert run_cli(base + ["--dist", str(dist), "--out", str(out)]) == 0
    assert len(read_csv(out)) == 2
    assert run_cli(base + ["--dist", "0.7,0.1,0.1,0.1", "--out", str(inline)]) == 0
    assert out.read_bytes() == inline.read_bytes()


def test_simulate_dist_errors_exit_2(tmp_path, monkeypatch, capsys):
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
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"\xff0.5\n0.5\n0\n0\n")
    assert run_cli(["simulate", "--k", "2", "--q", "4", "--dist", str(not_utf8), "--out", out]) == 2
    not_numeric = tmp_path / "not_numeric.txt"
    not_numeric.write_text("0.5\nabc\n0.25\n0.25\n")
    capsys.readouterr()
    for law in ("0.5,x,0.25,0.25", str(not_numeric)):
        assert run_cli(["simulate", "--k", "2", "--q", "4", "--dist", law, "--out", out]) == 2, law
        captured = capsys.readouterr()
        assert captured.out == "" and "non-numeric" in captured.err, law
    for law in ("0.5,nan,0.5,0", "inf,0,0,0", "0.5,0.5,-inf,inf"):
        assert run_cli(["simulate", "--k", "2", "--q", "4", "--dist", law, "--out", out]) == 2
        assert "finite" in capsys.readouterr().err

    def no_runs(*args):
        raise AssertionError("a cycle ran under a law that cannot end it")

    monkeypatch.setattr("flashmod.cli.run_experiment", no_runs)
    # a point mass never forces an erase, nor does a second mass too small ever to be drawn
    for k, law in (("2", "1,0,0,0"), ("2", "0,0,1,0"), ("1", "1e-300,1"), ("1", "1,1e-300")):
        assert run_cli(["simulate", "--k", k, "--q", "4", "--cycles", "2", "--dist", law, "--out", out]) == 2, law
        assert "positive probability" in capsys.readouterr().err, law
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


def test_seed_comes_from_argv_alone(tmp_path, monkeypatch):
    base = ["simulate", "--k", "2", "--q", "4", "--cycles", "20"]
    seeded = tmp_path / "seeded.csv"
    assert run_cli(base + ["--seed", "0", "--out", str(seeded)]) == 0
    # no environment variable stands in for --seed: an unseeded run is seed 0
    for env in ("99", "not-a-number"):
        monkeypatch.setenv("FLASHMOD_SEED", env)
        unseeded = tmp_path / f"unseeded-{env}.csv"
        assert run_cli(base + ["--out", str(unseeded)]) == 0, env
        assert unseeded.read_bytes() == seeded.read_bytes(), env

    def no_runs(*args):
        raise AssertionError("a cycle ran before the seed check")

    monkeypatch.setattr("flashmod.cli.run_experiment", no_runs)
    bad = tmp_path / "bad.csv"
    assert run_cli(base + ["--seed", "-1", "--out", str(bad)]) == 2
    assert not bad.exists()


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

    # an unknown format is a library error a caller can catch, and writes nothing
    xml = tmp_path / "one.xml"
    with pytest.raises(ValueError, match="unknown format"):
        emit_records([stats], "xml", str(xml))
    assert not xml.exists()


def test_bounds_prints_dc(capsys):
    assert run_cli(["bounds", "--dc", "1"]) == 0
    out = capsys.readouterr().out
    assert "2.718281828" in out


def test_bounds_max_load_respects_the_pigeonhole_floor(capsys):
    # one ball in three bins has max load 1, whatever the leading-order formula says
    assert run_cli(["bounds", "--max-load", "3,1,1"]) == 0
    assert capsys.readouterr().out == "max_load(n=3, m=1, d=1) = 1 [linear-m]\n"
    # nor can a bin hold more than the m balls thrown, near the linear-m singularity too
    assert run_cli(["bounds", "--max-load", "64,266,1"]) == 0
    assert capsys.readouterr().out == "max_load(n=64, m=266, d=1) = 266 [linear-m]\n"


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
    # at the top of float range --lambertw keeps every printed digit
    assert run_cli(["bounds", "--lambertw=1e308"]) == 0
    assert capsys.readouterr().out == "lambert_w0(1e+308) = 702.641362034\n"
    # a repeated flag prints each value, in argv order, and flags keep their fixed order
    argv = "bounds --dc 1 --max-load 10000,10000,1 --dc 2 --max-load 10000,10000,2"
    assert run_cli(argv.split()) == 0
    assert capsys.readouterr().out.splitlines() == [
        "max_load(n=10000, m=10000, d=1) = 4.1481913138 [linear-m]",
        "max_load(n=10000, m=10000, d=2) = 4.2032544727 [two-choice]",
        "dc(1) = 2.71828182846",
        "dc(2) = 4.311070407",
    ]


def test_bounds_requires_a_flag():
    assert run_cli(["bounds"]) == 2


def test_bounds_domain_errors_exit_2(capsys):
    assert run_cli(["bounds", "--dc", "-1"]) == 2
    assert run_cli(["bounds", "--lambertw", "-1"]) == 2
    # non-finite input fails loudly instead of printing nan, inf or a plausible 0
    for argv in (
        "--dc nan",
        "--dc inf",
        "--lambertw nan",
        "--lambertw inf",
        "--collision nan,1,1",
        "--collision 1,1,inf",
        # integers past float range fail the same way, not with an OverflowError
        f"--max-load 10,{HUGE},2",
        f"--max-load {HUGE},10,1",
        f"--gamma-bounds {HUGE},2",
        f"--gamma-bounds {NEAR_MAX},4",  # a finite k whose ceiling k*log2(l) is not
    ):
        assert run_cli(["bounds", *argv.split()]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: "), argv
    # a bad value among repeats fails the call, as does a tuple of the wrong arity or a non-number
    for argv in ("--dc -1 --dc 1", "--max-load 3,1", "--collision 1,x,1"):
        assert run_cli(["bounds", *argv.split()]) == 2, argv
        assert capsys.readouterr().out == "", argv

#: bounds flags and how many comma-separated numbers each takes
BOUNDS_ARITY = {"--gamma-bounds": 2, "--max-load": 3, "--collision": 3, "--dc": 1, "--lambertw": 1}

numeric_tokens = st.one_of(
    st.integers(-3, 40),  # around every flag's lower edge
    st.integers(10**300, 10**400),  # up to and past float range
    st.floats(),  # nan, inf and subnormals included
    st.sampled_from([HUGE, "-" + HUGE, "nan", "-inf", "5e-324", "1.7976931348623157e308"]),
).map(str)


@st.composite
def bounds_argv(draw):
    flag = draw(st.sampled_from(sorted(BOUNDS_ARITY)))
    tokens = draw(st.lists(numeric_tokens, min_size=BOUNDS_ARITY[flag], max_size=BOUNDS_ARITY[flag]))
    return ["bounds", f"{flag}={','.join(tokens)}"]  # '=' keeps a leading '-' a value


@settings(max_examples=200)
@given(bounds_argv())
@example(["bounds", f"--gamma-bounds={NEAR_MAX},4"])
def test_bounds_argv_exits_0_or_2(argv):
    "Any numbers on a bounds flag give a finite result or exit 2; never a traceback or exit 1."
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = run_cli(argv)
    assert rc in (0, 2), argv
    if rc == 0:
        assert "inf" not in stdout.getvalue() and "nan" not in stdout.getvalue(), argv


class ExampleTimeout(Exception):
    """An example ran past its deadline.  Not an OSError (as TimeoutError
    is), so run_cli does not turn it into an exit code."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt the block once it has run for seconds of wall time."""

    def expire(signum, frame):
        raise ExampleTimeout(f"example ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# small sizes keep every run short, and the 2..5 branch makes valid argv common;
# junk and non-finite strings must exit 2
size_tokens = st.one_of(
    st.integers(-3, 5).map(str),
    st.integers(2, 5).map(str),
    st.sampled_from(["nan", "inf", ",", "1,,2", "abc", "2.0"]),
)
# 10^400 only where the domain rejects it (--k, --n, --m) or absorbs it (--seed)
huge_tokens = size_tokens | st.just(HUGE)
codes = st.sampled_from([kind.value for kind in CodeKind])
formats = st.sampled_from(["csv", "json"])


def comma_list(tokens):
    return st.lists(tokens, min_size=1, max_size=2).map(",".join)


#: per subcommand, each flag and the values it draws; {dir} is the example's temporary directory
RUN_FLAGS = {
    "simulate": {
        "--code": codes,
        "--k": huge_tokens,
        "--q": comma_list(size_tokens),
        "--cycles": size_tokens,
        "--seed": huge_tokens,
        "--dist": st.sampled_from(
            ["0.5,0.5", "0.25,0.25,0.25,0.25", "nan,1", "1,0", "0.5", "{dir}/law.txt", "{dir}/missing.txt", "{dir}"]
        ),
        "--format": formats,
    },
    "ballsbins": {
        "--mode": st.sampled_from(["maxload", "overflow"]),
        "--n": huge_tokens,
        "--m": huge_tokens,
        "--q": comma_list(size_tokens),
        "--d": comma_list(size_tokens),
        "--trials": size_tokens,
        "--seed": huge_tokens,
        "--format": formats,
    },
    "roundtrip": {
        "--code": st.sampled_from(["both", *(kind.value for kind in CodeKind)]),
        "--k": comma_list(huge_tokens),
        "--q": comma_list(size_tokens),
        "--writes": size_tokens,
        "--seed": huge_tokens,
    },
}
#: given in every example: the required flags, and the work sizes, so no run
#: falls back to a large default (1000 cycles, 10000 writes); other flags are optional
ALWAYS = {"simulate": {"--k", "--q", "--cycles"}, "ballsbins": {"--n", "--trials"}, "roundtrip": {"--writes"}}


@settings(max_examples=300)
@given(st.sampled_from(sorted(RUN_FLAGS)), st.data())
def test_run_argv_exits_0_1_or_2(command, data):
    "Any argv exits 0, 1 or 2, never with a traceback; exit 2 prints nothing and writes no --out file."
    flags = RUN_FLAGS[command]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "law.txt").write_text("0.5\n0.5\n")
        argv = [command] + [
            f"{flag}={data.draw(values).format(dir=tmp)}"
            for flag, values in flags.items()
            if flag in ALWAYS[command] or data.draw(st.booleans())
        ]
        out = data.draw(st.sampled_from([f"{tmp}/out.csv", f"{tmp}/no/out.csv"]))
        if command != "roundtrip":
            argv.append(f"--out={out}")
        stdout = io.StringIO()
        with deadline(10.0), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = run_cli(argv)
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert stdout.getvalue() == "", argv
            assert not os.path.exists(out), argv


def test_roundtrip_command(capsys, monkeypatch):
    rc = run_cli(["roundtrip", "--code", "both", "--k", "1,2", "--q", "4", "--writes", "500", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "failures=0" in out
    assert "[PASS]" in out

    # a decoder that is off by one fails every check, and the command says so;
    # encode never calls decode, so what it writes is still right
    for cls, name in ((SelfRandomizedCode, "self-randomized"), (LoadBalancingCode, "load-balancing")):
        true_decode = cls.decode

        def off_by_one(self, state, true_decode=true_decode):
            return (true_decode(self, state) + 1) % self.params.value_count

        monkeypatch.setattr(cls, "decode", off_by_one)
        assert run_cli(f"roundtrip --code {name} --k 2 --q 4 --writes 50".split()) == 1, name
        out = capsys.readouterr().out
        assert "failures=50" in out, name
        assert "[FAIL]" in out, name


def test_roundtrip_configuration_errors_print_nothing(capsys):
    for argv, error in (
        ("roundtrip --code self-randomized --k 1,0 --q 4 --writes 10", "k must be >= 1"),
        ("roundtrip --code both --k 2,24 --q 4 --writes 10", "2^24"),  # load-balancing k=24 needs 2^25 cells
        ("roundtrip --k 1 --q 4 --writes 0", "must be >= 1"),
        ("roundtrip --k 1 --q 1,4 --writes 10", "q must be >= 2"),
    ):
        assert run_cli(argv.split()) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and error in captured.err, argv


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


def test_ballsbins_flag_validation(tmp_path, monkeypatch, capsys):
    def no_trials(*args):
        raise AssertionError("a trial ran before the configuration check")

    monkeypatch.setattr("flashmod.cli.throw_balls", no_trials)
    monkeypatch.setattr("flashmod.cli.balls_until_overflow", no_trials)
    out = str(tmp_path / "x.csv")
    assert run_cli(["ballsbins", "--mode", "maxload", "--n", "10", "--out", out]) == 2  # no --m
    assert run_cli(["ballsbins", "--mode", "overflow", "--n", "10", "--out", out]) == 2  # no --q
    assert run_cli(["ballsbins", "--mode", "overflow", "--n", "10", "--q", "1", "--out", out]) == 2
    # each mode rejects the other mode's flag instead of dropping it
    assert run_cli(["ballsbins", "--mode", "maxload", "--n", "10", "--m", "10", "--q", "4", "--out", out]) == 2
    assert run_cli(["ballsbins", "--mode", "overflow", "--n", "8", "--m", "99", "--q", "4", "--out", out]) == 2
    # the max-load prediction needs n >= 3
    assert run_cli(["ballsbins", "--mode", "maxload", "--n", "2", "--m", "4", "--d", "1,2", "--out", out]) == 2
    maxload = ["ballsbins", "--mode", "maxload", "--n", "10", "--m", "10", "--out", out]
    for flags in (["--trials", "0"], ["--n", "0"], ["--d", "0"], ["--d", "1,0"], ["--m", "0"], ["--seed", "-1"]):
        assert run_cli(maxload + flags) == 2, flags
    capsys.readouterr()
    # --m is a plain int: max_load_prediction states its range, and overflow mode takes none
    assert run_cli(maxload + ["--m", "0"]) == 2
    assert "m must be >= 1" in capsys.readouterr().err
    assert run_cli(["ballsbins", "--mode", "overflow", "--n", "8", "--m", "-1", "--q", "4", "--out", out]) == 2
    assert "takes no --m" in capsys.readouterr().err
    # more bins than 2^MAX_LOG2_N exit 2 before any load vector is allocated
    for n in (16_777_217, 1_099_511_627_776):
        assert run_cli(maxload + ["--n", str(n), "--m", "1"]) == 2, n
    # a ball count beyond float range exits 2, not with an OverflowError
    assert run_cli(maxload + ["--m", HUGE, "--d", "1", "--trials", "1"]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_count_flags_fail_with_the_library_message(tmp_path, monkeypatch, capsys):
    "A count flag's type applies the library's reader, so it exits 2 with the library's message before any trial."
    messages = []
    for call in (
        lambda: throw_balls(0, 1, 1, None),
        lambda: balls_until_overflow(2**24 + 1, 2, 1, None),
        lambda: run_experiment(CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED), None, 0, 0),
        lambda: cycle_rngs(-1, 0, 1),
    ):
        with pytest.raises(ValueError) as error:
            call()
        messages.append(str(error.value))
    assert messages[0] == "n must be in [1, 2^24], got 0"

    def no_work(*args, **kwargs):
        raise AssertionError("a trial ran before the flags were checked")

    for name in ("throw_balls", "balls_until_overflow", "run_experiment", "cycle_rngs"):
        monkeypatch.setattr(f"flashmod.cli.{name}", no_work)
    out = str(tmp_path / "x.csv")
    ballsbins = ["ballsbins", "--mode", "overflow", "--q", "4", "--out", out]
    simulate = ["simulate", "--k", "2", "--q", "4", "--out", out]
    argvs = (ballsbins + ["--n", "0"], ballsbins + ["--n", "16777217"], simulate + ["--cycles", "0"], simulate + ["--seed", "-1"])
    for argv, message in zip(argvs, messages):
        assert run_cli(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f": {message}\n" in captured.err, (argv, captured.err)
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_output_is_runtime_failure(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "no" / "dir.csv")
    simulate = ["simulate", "--k", "1", "--q", "4", "--cycles", "5", "--out"]
    ballsbins = ["ballsbins", "--mode", "overflow", "--n", "8", "--q", "4", "--trials", "2", "--out"]

    def no_work(*args, **kwargs):
        raise AssertionError("an empty --out or one in a missing directory must exit before any work")

    # a missing directory or an empty path is a configuration error: exit 2 before any cycle or trial
    with monkeypatch.context() as m:
        m.setattr("flashmod.cli.run_experiment", no_work)
        m.setattr("flashmod.cli.balls_until_overflow", no_work)
        for out in (missing, ""):
            for argv in (simulate, ballsbins):
                assert run_cli(argv + [out]) == 2, (argv[0], out)
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("error: output directory"), (argv[0], out)
    assert not (tmp_path / "no").exists()
    # an --out naming a directory fails only when the run opens it: exit 1
    for argv in (simulate, ballsbins):
        assert run_cli(argv + [str(tmp_path)]) == 1, argv[0]


def test_readme_command_lines_run(tmp_path, monkeypatch):
    "Every flashmod line of README's command-line block runs and exits 0."
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("flashmod ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run_cli(shlex.split(line)[1:]) == 0, line
