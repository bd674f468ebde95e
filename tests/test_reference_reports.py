"""Regression gate: the built-in banks' reports against checked-in references.

tests/data/reports holds the output of `frwave report haar|cdf53 --alpha
pi/2|pi/3 --seed 3`: report.json and its three CSVs per report. Each report
is regenerated in process. Every pass flag must equal the reference's, and
every number of report.json and every CSV sample must lie within 1e-12
relative of it, with a 1e-15 absolute floor. Byte equality is printed
(visible with `pytest -s`), not required.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from frwave.cli import main

REFS = Path(__file__).resolve().parent / "data" / "reports"
CSVS = ("gram_profile.csv", "biortho_profile.csv", "residual_vs_j.csv")
REL, FLOOR = 1e-12, 1e-15


def leaves(doc, path=()):
    """(path, value) for every bool and number of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, path + (key,))
    elif isinstance(doc, (bool, int, float)):
        yield path, doc


def group(path) -> str:
    """The verdict a report.json entry belongs to, else its top-level key."""
    return path[1] if path[0] == "verdicts" else path[0]


@pytest.mark.parametrize("bank", ["haar", "cdf53"])
@pytest.mark.parametrize("alpha", ["pi/2", "pi/3"])
def test_report_matches_reference(bank, alpha, tmp_path):
    ref_dir = REFS / f"{bank}-{alpha.replace('/', '_')}"
    ref = json.loads((ref_dir / "report.json").read_text())
    code = main(["report", bank, "--alpha", alpha, "--seed", "3",
                 "--out-dir", str(tmp_path)])

    got = dict(leaves(json.loads((tmp_path / "report.json").read_text())))
    want = dict(leaves(ref))
    assert got.keys() == want.keys()
    flips = [path for path, value in want.items()
             if isinstance(value, bool) and got[path] is not value]
    # per verdict (or CSV): the largest move, in units of its tolerance
    moves = {}
    for path, value in want.items():
        if not isinstance(value, bool):
            move = abs(got[path] - value) / max(REL * abs(value), FLOOR)
            moves[group(path)] = max(moves.get(group(path), 0.0), move)
    for name in CSVS:
        new = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)
        old = np.loadtxt(ref_dir / name, delimiter=",", skiprows=1, ndmin=2)
        assert new.shape == old.shape, name
        moves[name] = float(np.max(np.abs(new - old)
                                   / np.maximum(REL * np.abs(old), FLOOR)))

    same = [name for name in ("report.json",) + CSVS
            if (tmp_path / name).read_bytes() == (ref_dir / name).read_bytes()]
    print(f"{bank} {alpha}: {len(same)} of 4 files byte-identical")
    table = "\n".join(f"  {name}: {move:.3g} x tolerance"
                      for name, move in sorted(moves.items()))
    assert not flips and max(moves.values()) <= 1.0, \
        f"pass flags changed: {flips}\nlargest move per verdict:\n{table}"
    assert code == (0 if ref["pass"] else 1)
