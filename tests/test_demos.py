"""Smoke test: every demo runs to completion in-process."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    ["01_code_walkthrough.py", "02_power_of_two_choices.py", "03_efficiency_sweep.py", "04_analytic_toolkit.py"],
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
