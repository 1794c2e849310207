"""Every demo runs to completion in-process and prints its golden stdout.

The demos are seeded, so their output repeats exactly.  To regenerate a
golden after a deliberate output change, run the demo by hand, e.g.

    PYTHONPATH=src python demos/03_efficiency_sweep.py > tests/golden/demo_03_efficiency_sweep.txt
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS, GOLDEN = ROOT / "demos", ROOT / "tests" / "golden"


@pytest.mark.parametrize(
    "script",
    ["01_code_walkthrough.py", "02_power_of_two_choices.py", "03_efficiency_sweep.py", "04_analytic_toolkit.py"],
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    golden = GOLDEN / f"demo_{Path(script).stem}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
