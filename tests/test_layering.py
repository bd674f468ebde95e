"""Design rules of the library, checked on its source.

Dense quadrature (frft_eval) is a test oracle only: no library code calls
it. Off-grid evaluation goes through the one resampler: only grids.py calls
sample_at (as resample's fallback). The library needs numpy alone: importing
the CLI loads no scipy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "frwave"

# function -> the one module allowed to call it
CALLERS = {"frft_eval": None, "sample_at": "grids.py"}


def calls_in(path: Path) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in CALLERS:
                out.append((name, node.lineno))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_oracle_and_resampler_calls_stay_in_place(path):
    stray = [f"{path.name}:{line} calls {name}" for name, line in calls_in(path)
             if CALLERS[name] != path.name]
    assert not stray


def test_rule_sees_the_calls_it_guards():
    # the check is live: grids.py's resample does call sample_at
    assert [name for name, _ in calls_in(SRC / "grids.py")] == ["sample_at"]


def test_library_runs_on_numpy_alone():
    code = "import sys, frwave.cli; print('scipy' in sys.modules)"
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
