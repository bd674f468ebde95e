import json
import math

import numpy as np
import pytest

from frwave import InputError, load_bank, read_signal_csv, write_signal_csv
from frwave.cli import main, parse_angle

from conftest import gaussian_signal, max_abs

GRID = (-8.0, 2.0 ** -6, 1024)


def write_gaussian(tmp_path, name="in.csv", **kw):
    p = tmp_path / name
    write_signal_csv(p, gaussian_signal(GRID, **kw))
    return p


def test_parse_angle():
    assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
    assert parse_angle("2pi") == pytest.approx(2 * math.pi)
    assert parse_angle("0.75") == 0.75
    with pytest.raises(InputError):
        parse_angle("two pies")


def test_frft_roundtrip_via_cli(tmp_path):
    src = write_gaussian(tmp_path, sigma=1.0, carrier=1.0)
    spec = tmp_path / "spec.csv"
    back = tmp_path / "back.csv"
    assert main(["frft", str(src), "-o", str(spec), "--alpha", "pi/3"]) == 0
    assert main(["frft", str(spec), "-o", str(back), "--alpha", "pi/3",
                 "--inverse"]) == 0
    orig = read_signal_csv(src)
    rec = read_signal_csv(back)
    assert max_abs(orig.values, rec.values) < 1e-6


def test_frwt_emits_coefficient_rows(tmp_path):
    src = write_gaussian(tmp_path, sigma=1.0)
    out = tmp_path / "coef.csv"
    rc = main(["frwt", str(src), "-o", str(out), "--alpha", "pi/4",
               "--mother", "mexican", "--scale", "0.5", "--b-range=-2:2:17"])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "b,re,im"
    assert len(rows) == 18


def test_riesz_check_pass_and_report_fields(tmp_path):
    from frwave import haar_system
    phi, _ = haar_system(math.pi / 2)
    src = tmp_path / "phi.csv"
    write_signal_csv(src, phi)
    out = tmp_path / "riesz.json"
    assert main(["riesz-check", str(src), "-o", str(out),
                 "--alpha", "pi/2"]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["bounds"]["lower"] > 0.9
    assert doc["criterion"] == "riesz_bounds"


def test_input_error_exit_code(tmp_path):
    out = tmp_path / "x.json"
    assert main(["riesz-check", str(tmp_path / "missing.csv"),
                 "-o", str(out), "--alpha", "pi/2"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["riesz-check", str(bad), "-o", str(out),
                 "--alpha", "pi/2"]) == 2


def test_numerical_error_exit_code(tmp_path):
    src = write_gaussian(tmp_path)
    out = tmp_path / "x.json"
    # degenerate angle is a numerical-configuration error
    assert main(["riesz-check", str(src), "-o", str(out), "--alpha", "0"]) == 3
    # grossly under-truncated periodization sum trips the tail gate
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": math.pi / 2, "kmax": 1,
                               "tolerances": {"tail": 1e-6}}))
    from frwave import haar_system
    phi, _ = haar_system(math.pi / 2)
    psrc = tmp_path / "phi.csv"
    write_signal_csv(psrc, phi)
    assert main(["riesz-check", str(psrc), "-o", str(out),
                 "--config", str(cfg)]) == 3


def test_biortho_check_cli(tmp_path):
    from frwave import haar_system
    phi, _ = haar_system(math.pi / 3)
    src = tmp_path / "phi.csv"
    write_signal_csv(src, phi)
    out = tmp_path / "bio.json"
    assert main(["biortho-check", str(src), str(src), "-o", str(out),
                 "--alpha", "pi/3"]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["constant"] == pytest.approx(1.0, abs=1e-2)


def test_config_alpha_kept_unless_alpha_given(tmp_path):
    from frwave import haar_system
    phi, _ = haar_system(math.pi / 3)
    src = tmp_path / "phi.csv"
    write_signal_csv(src, phi)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": math.pi / 3}))
    out = tmp_path / "bio.json"
    args = ["biortho-check", str(src), str(src), "-o", str(out), "--config", str(cfg)]
    assert main(args) == 0
    assert json.loads(out.read_text())["config"]["alpha"] == math.pi / 3
    assert main(args + ["--alpha", "-pi/3"]) in (0, 1)
    assert json.loads(out.read_text())["config"]["alpha"] == -math.pi / 3


def test_mra_filter_emits_loadable_bank(tmp_path):
    from frwave import haar_system
    phi, _ = haar_system(math.pi / 3, dt=2.0 ** -12)
    src = tmp_path / "phi.csv"
    write_signal_csv(src, phi)
    out = tmp_path / "bank.json"
    assert main(["mra-filter", str(src), "-o", str(out), "--support=-4:5",
                 "--alpha", "pi/3", "--tol", "tail=0.05"]) == 0
    bank = load_bank(out)
    assert abs(bank.h.tap(0) - 1.0 / math.sqrt(2.0)) < 1e-3
    assert abs(bank.h.tap(1)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)


def test_wavelet_build_outputs(tmp_path):
    out = tmp_path / "build"
    assert main(["wavelet-build", "haar", "--out-dir", str(out),
                 "--alpha", "pi/3"]) == 0
    assert (out / "psi.csv").exists()
    assert (out / "psi_dual.csv").exists()
    doc = json.loads((out / "report.json").read_text())
    assert doc["pass"] is True


def test_frame_bounds_cli(tmp_path):
    out = tmp_path / "fb.json"
    assert main(["frame-bounds", "haar", "-o", str(out), "--alpha", "pi/2"]) == 0
    doc = json.loads(out.read_text())
    assert doc["duality_ok"] is True
    assert 0.8 < doc["A"] <= doc["B"] < 1.2


def test_report_cdf53(tmp_path):
    out = tmp_path / "rep"
    assert main(["report", "cdf53", "--out-dir", str(out),
                 "--alpha", "pi/3"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["pass"] is True
    assert (out / "gram_profile.csv").exists()
    assert (out / "residual_vs_j.csv").exists()


def test_report_timings_flag_breaks_determinism_only_by_timings(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["report", "haar", "--alpha", "pi/2", "--out-dir", str(out1),
                 "--timings"]) == 0
    assert main(["report", "haar", "--alpha", "pi/2", "--out-dir", str(out2)]) == 0
    d1 = json.loads((out1 / "report.json").read_text())
    d2 = json.loads((out2 / "report.json").read_text())
    assert "timings" in d1 and "timings" not in d2
    d1.pop("timings")
    assert d1 == d2


def test_negative_alpha_as_separate_token(tmp_path):
    # argparse alone takes `-pi/3` after --alpha for an option and exits 2
    out = tmp_path / "rep"
    assert main(["report", "haar", "--alpha", "-pi/3", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["alpha"] == pytest.approx(-math.pi / 3)
    src = write_gaussian(tmp_path, sigma=1.0)
    spec = tmp_path / "spec.csv"
    assert main(["frft", str(src), "-o", str(spec), "--alpha", "-1e-1"]) == 0
    assert json.loads(spec.with_suffix(".json").read_text())["alpha"] == -0.1
