"""Design rules of the library, checked on its source.

Dense quadrature (frft_eval) is a test oracle only: no library code calls
it. Off-grid evaluation goes through the one resampler: only grids.py calls
sample_at (as resample's fallback). The library needs numpy alone: importing
the CLI loads no scipy. Every name the package exports is used by the
library itself, or is public API for a reason named in PUBLIC_API. No
module of the library or of its tests imports a name it never reads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "frwave"

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


# exported names that no library code uses, each with what it serves
PUBLIC_API = {
    "frft_eval": "the dense oracle of spectrum_on_grid",
    "level_atom": "a span of bench/tracer.py; acceptance criterion 6",
    "dual_scaling": "the dual benchmark workload; acceptance criteria 4 and 5",
    "expand_reconstruct": "the verify benchmark workload; acceptance criterion 8",
    "admissibility_constant": "the transform benchmark workload",
    "admissibility_refinement": "acceptance criterion 9",
    "parseval_defect": "acceptance criterion 1",
    "refine_cascade": "acceptance criterion 7",
    "two_scale_defect": "acceptance criterion 7",
    "cross_level_orthogonality": "acceptance criterion 8",
}


def exported_names() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def loaded_names() -> set[str]:
    """Names and attributes that library code outside __init__ reads."""
    out = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def test_every_export_is_used_or_listed_public():
    unused = exported_names() - loaded_names() - set(PUBLIC_API)
    assert not unused, f"exported, used by no library code, not in PUBLIC_API: {sorted(unused)}"
    assert not set(PUBLIC_API) - exported_names()


def test_library_runs_on_numpy_alone():
    code = "import sys, frwave.cli; print('scipy' in sys.modules)"
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def unread_imports(source: str) -> list[str]:
    """Names the source imports and never reads; from __future__ is exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


# __init__.py imports to re-export
@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert not unread_imports(path.read_text())


def test_import_rule_sees_unread_names():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n")
    assert unread_imports(source) == ["line 2: os", "line 4: pi"]
