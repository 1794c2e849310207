"""Smoke test: the quick demos run to completion in-process.

demos/03_efficiency_sweep.py is left out on purpose: its sweep takes
about 10 s, more than the rest of this module's cost many times over.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    ["01_code_walkthrough.py", "02_power_of_two_choices.py", "04_analytic_toolkit.py"],
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
