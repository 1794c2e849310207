"""Byte-for-byte CLI goldens.

Each case reruns one command line and compares what it writes with the
file of the same name under tests/golden/.  Together the cases cover
both codes (the load-balancing one up to GF(2^10), the field of a
1024-cell block), the inline input law, CSV and JSON emission, every
case of the one ballsbins placement kernel (d=1, d=2, d>2 and d >= n,
which the kernel reads as d = n, in both modes, with a d=2 throw longer
than one draw block) and the roundtrip report, so a refactor that keeps
these files keeps the fixed-seed output contract.

To regenerate a file after a deliberate output change, run its command
line by hand, writing to the golden path, e.g.

    PYTHONPATH=src python -m flashmod.cli simulate --code self-randomized \\
        --k 3 --q 2,4,8,16 --cycles 60 --seed 11 --out tests/golden/simulate_sr_k3.csv

and, for the roundtrip case, redirect stdout to tests/golden/roundtrip.txt.
"""

from pathlib import Path

import pytest

from flashmod.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"

FILE_CASES = {
    "simulate_sr_k3.csv": "simulate --code self-randomized --k 3 --q 2,4,8,16 --cycles 60 --seed 11",
    "simulate_lb_k3.csv": "simulate --code load-balancing --k 3 --q 2,4,8,16 --cycles 60 --seed 11",
    "simulate_lb_k4.json": "simulate --code load-balancing --k 4 --q 4,8 --cycles 20 --seed 12 --format json",
    "simulate_lb_k9.csv": "simulate --code load-balancing --k 9 --q 4 --cycles 3 --seed 14",
    "simulate_sr_dist.csv": "simulate --code self-randomized --k 2 --q 4,8 --cycles 60 --seed 13 --dist 0.7,0.1,0.1,0.1",
    "simulate_lb_dist.csv": "simulate --code load-balancing --k 2 --q 4,8 --cycles 60 --seed 13 --dist 0.7,0.1,0.1,0.1",
    "overflow_n16.csv": "ballsbins --mode overflow --n 16 --q 2,4,8 --d 1,2,3,16 --trials 20 --seed 14",
    "overflow_n8.json": "ballsbins --mode overflow --n 8 --q 4,8 --d 1,2,3 --trials 30 --seed 15 --format json",
    "maxload_n64.csv": "ballsbins --mode maxload --n 64 --m 256 --d 1,2,3,64 --trials 20 --seed 16",
    "maxload_n500.csv": "ballsbins --mode maxload --n 500 --m 20000 --d 2 --trials 5 --seed 17",
}

ROUNDTRIP = "roundtrip --k 1,2,3 --q 2,4 --writes 500 --seed 18"


@pytest.mark.parametrize("name", sorted(FILE_CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert run_cli(FILE_CASES[name].split() + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_roundtrip_report_matches_golden(capsys):
    assert run_cli(ROUNDTRIP.split()) == 0
    assert capsys.readouterr().out == (GOLDEN / "roundtrip.txt").read_text(encoding="utf-8")
