"""The package namespace: the codes import without NumPy or dataclasses, sim and ballsbins on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import flashmod
from flashmod import ballsbins, codes, core, field, sim

SRC = Path(flashmod.__file__).resolve().parent.parent
MODULES = (core, field, codes, ballsbins, sim)

# what the codes must not load: NumPy, and dataclasses with the heaviest of
# its imports (a site hook may load typing at startup; a bare interpreter
# does not)
HEAVY = ("numpy", "dataclasses", "inspect", "typing")

FRESH_CHILD = """
import sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import flashmod
from flashmod import ERASE_REQUIRED, CellState, CodeKind, CodeParams, make_code
for kind in CodeKind:
    code = make_code(CodeParams(k=3, l=2, q=4, kind=kind))
    state = CellState.zeros(code.params.n, code.params.q)
    assert code.encode(state, 5) is not ERASE_REQUIRED and code.decode(state) == 5
print([name for name in {heavy!r} if name in set(sys.modules) - before])
flashmod.DistributionSpec
print("numpy" in sys.modules)
"""


def test_codes_run_without_numpy_until_a_lazy_name_is_read():
    code = FRESH_CHILD.format(src=str(SRC), heavy=HEAVY)
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "True"]


def test_star_import_binds_every_module_name_in_order():
    assert flashmod.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(flashmod.__all__) == len(set(flashmod.__all__)) == 32
    namespace = {}
    exec("from flashmod import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(flashmod.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_its_defining_module_object(module):
    for name in module.__all__:
        assert getattr(flashmod, name) is getattr(module, name), name
    assert set(module.__all__) <= set(dir(flashmod))


def test_lazy_modules_resolve_and_unknown_names_raise():
    assert flashmod.sim is sim and flashmod.ballsbins is ballsbins
    assert {"sim", "ballsbins"} <= set(dir(flashmod))
    with pytest.raises(AttributeError, match="'nope'"):
        flashmod.nope
    with pytest.raises(ImportError):
        from flashmod import nope  # noqa: F401
    for module in ("flashmod", "flashmod.core"):  # outcomes are WriteKind members, not records
        with pytest.raises(ImportError, match="WriteOutcome"):
            exec(f"from {module} import WriteOutcome", {})
