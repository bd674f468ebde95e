"""The report on banks it must refuse, and its values across the angle.

Negative controls: perfect-reconstruction banks (or nearly so) that break
one of the paper's hypotheses. Each is built from taps at the angle it is
saved at, and the report reads that angle from the file. None may pass.

Angle invariance: chirp multiplication is unitary, so every verdict of the
built-in banks is the classical verdict on the dechirped generators. Each
pass flag at a regular angle, including angles within 0.05 of 0, pi and
2 pi, must equal its pi/2 value, and each value must lie within 1e-12 of it.
"""

import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frwave import cdf53_taps, fractional_taps, haar_taps, make_bank, save_bank
from frwave.cli import main

SQ2 = math.sqrt(2.0)
ANGLES = [math.pi / 2, math.pi / 3, 2.5]


def stretched_haar(alpha):
    # h = (1, 0, 0, 1)/sqrt 2: orthonormal QMF, phi = box on [0, 3] / 3, whose
    # Gram symbol (3 + 4 cos w + 2 cos 2w)/9 vanishes at w = 2 pi/3
    return make_bank(fractional_taps(np.array([1.0, 0.0, 0.0, 1.0]) / SQ2, 0, alpha))


def lazy_primal(alpha):
    # h = sqrt(2) delta with the Haar dual: phi is a Dirac, not in L^2
    return make_bank(fractional_taps(np.array([SQ2]), 0, alpha),
                     fractional_taps(*haar_taps(), alpha))


def shifted_cdf53(alpha):
    # the cdf53 dual two taps later: L(u) is a constant times a pure phase
    h, off, hd, offd = cdf53_taps()
    return make_bank(fractional_taps(h, off, alpha), fractional_taps(hd, offd + 2, alpha))


def run_report(tmp_path, bank, capsys):
    """Exit code, failed verdicts and stderr of a report on the saved bank, run
    with no --alpha."""
    path = tmp_path / "bank.json"
    save_bank(path, bank)
    out = tmp_path / "out"
    code = main(["report", str(path), "--seed", "3", "--out-dir", str(out)])
    failed = set()
    if (out / "report.json").exists():
        verdicts = json.loads((out / "report.json").read_text())["verdicts"]
        failed = {name for name, v in verdicts.items() if not v["pass"]}
    return code, failed, capsys.readouterr().err


@pytest.mark.parametrize("alpha", ANGLES)
def test_stretched_haar_is_refused(tmp_path, alpha, capsys):
    code, failed, _ = run_report(tmp_path, stretched_haar(alpha), capsys)
    assert code == 1
    assert failed == {"riesz_lower_positive", "scaling_biortho", "wavelet_biortho",
                      "cross_orthogonality", "level_split", "decay"}


@pytest.mark.parametrize("alpha", ANGLES)
def test_lazy_primal_is_refused(tmp_path, alpha, capsys):
    code, _, err = run_report(tmp_path, lazy_primal(alpha), capsys)
    assert code == 3
    assert "TailTooFat" in err


@pytest.mark.parametrize("alpha", ANGLES)
def test_shifted_cdf53_dual_is_refused(tmp_path, alpha, capsys):
    # the shift breaks perfect reconstruction: the matrix condition fails
    code, failed, _ = run_report(tmp_path, shifted_cdf53(alpha), capsys)
    assert code == 1
    assert failed == {"matrix_condition", "scaling_biortho", "wavelet_biortho",
                      "level_split"}


def report_doc(bank: str, alpha: float) -> dict:
    with tempfile.TemporaryDirectory() as out:
        code = main(["report", bank, f"--alpha={alpha!r}", "--seed", "3",
                     "--out-dir", out])
        doc = json.loads((Path(out) / "report.json").read_text())
    doc["exit"] = code
    return doc


@functools.cache
def quarter_turn(bank: str) -> dict:
    return report_doc(bank, math.pi / 2)


# regular angles, and angles 1e-3 to 0.05 from 0, pi and 2 pi
REGULAR_ANGLES = st.one_of(
    st.floats(0.05, math.pi - 0.05),
    st.floats(math.pi + 0.05, 2.0 * math.pi - 0.05),
    st.builds(lambda c, sign, d: c + sign * d,
              st.sampled_from([0.0, math.pi, 2.0 * math.pi]),
              st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 0.05)))


@pytest.mark.parametrize("bank", ["haar", "cdf53"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(alpha=REGULAR_ANGLES)
def test_report_is_angle_invariant(bank, alpha):
    want, got = quarter_turn(bank), report_doc(bank, alpha)
    assert got["exit"] == want["exit"] == 0
    assert got["verdicts"].keys() == want["verdicts"].keys()
    for name, verdict in want["verdicts"].items():
        assert got["verdicts"][name]["pass"] == verdict["pass"], name
        assert abs(got["verdicts"][name]["value"] - verdict["value"]) <= 1e-12, name
