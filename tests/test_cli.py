import json
import math

import pytest

from frwave import (
    InputError,
    cdf53_taps,
    fractional_taps,
    load_bank,
    make_bank,
    read_signal_csv,
    save_bank,
    write_signal_csv,
)
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


@pytest.mark.parametrize("row", ["0.5,1", "0.5,1,0,7"], ids=["short", "long"])
def test_ragged_csv_row_is_an_input_error(tmp_path, row, capsys):
    src = write_gaussian(tmp_path)
    lines = src.read_text().splitlines()
    lines[5] = row
    src.write_text("\n".join(lines) + "\n")
    spec = tmp_path / "spec.csv"
    assert main(["frft", str(src), "-o", str(spec), "--alpha", "pi/3"]) == 2
    assert "InputError" in capsys.readouterr().err
    assert not spec.exists()


@pytest.mark.parametrize("column, cell", [(0, "nan"), (1, "nan"), (1, "inf"), (2, "-inf")],
                         ids=["t-nan", "re-nan", "re-inf", "im-minus-inf"])
def test_non_finite_csv_cell_is_an_input_error(tmp_path, column, cell, capsys):
    # a nan abscissa passes every step comparison; a nan value gives an
    # all-nan spectrum
    src = write_gaussian(tmp_path)
    lines = src.read_text().splitlines()
    cells = lines[100].split(",")
    cells[column] = cell
    lines[100] = ",".join(cells)
    src.write_text("\n".join(lines) + "\n")
    spec = tmp_path / "spec.csv"
    assert main(["frft", str(src), "-o", str(spec), "--alpha", "pi/3"]) == 2
    assert "InputError" in capsys.readouterr().err
    assert not spec.exists()


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


def test_biortho_check_records_tail_tolerance(tmp_path):
    from frwave import haar_system
    phi, _ = haar_system(math.pi / 3)
    src = tmp_path / "phi.csv"
    write_signal_csv(src, phi)
    out = tmp_path / "bio.json"
    assert main(["biortho-check", str(src), str(src), "-o", str(out),
                 "--alpha", "pi/3", "--tol", "tail=0.04"]) == 0
    tols = json.loads(out.read_text())["config"]["tolerances"]
    assert tols == {"biortho": 2e-2, "tail": 0.04}


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


@pytest.mark.parametrize("command, option", [
    ("mra-filter", "--support=-8"), ("mra-filter", "--support=a:b"),
    ("mra-filter", "--support=3:-3"), ("frwt", "--b-range=0:1"),
    ("frwt", "--b-range=0:1:x"), ("frwt", "--b-range=0:1:-3"),
    ("frwt", "--b-range=0:1:0"), ("frwt", "--scale=0"), ("frwt", "--scale=-1"),
    ("frwt", "--scale=nan"),
], ids=lambda v: v.lstrip("-"))
def test_bad_range_or_scale_is_an_input_error(tmp_path, command, option, capsys):
    # exit 1 means a failed criterion and 0 a pass: a malformed, empty or
    # non-finite argument is neither
    src = write_gaussian(tmp_path)
    out = tmp_path / "out"
    assert main([command, str(src), "-o", str(out), option, "--alpha", "pi/3"]) == 2
    assert "InputError" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("bank", ["haar", "cdf53"])
def test_report_takes_each_biortho_profile_once(tmp_path, bank, monkeypatch):
    # biortho_profile.csv is the profile the scaling verdict judged, not a
    # second stack of the same generators
    from frwave import riesz
    pairs = []
    real = riesz.biortho_profile

    def spy(phi, phi_dual, *args, **kwargs):
        pairs.append((id(phi), id(phi_dual)))
        return real(phi, phi_dual, *args, **kwargs)

    monkeypatch.setattr(riesz, "biortho_profile", spy)
    assert main(["report", bank, "--alpha", "pi/3", "--out-dir", str(tmp_path)]) == 0
    assert len(pairs) == 2 and len(set(pairs)) == 2


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
    # one wall time per verdict stage, keyed by the verdict's name
    assert sorted(d1["timings"]) == sorted(d1["verdicts"])
    assert all(v > 0.0 for v in d1["timings"].values())
    d1.pop("timings")
    assert d1 == d2


@pytest.mark.parametrize("value", ["abc", "inf", "nan", "-inf"])
def test_tol_value_must_be_a_finite_number(tmp_path, value, capsys):
    out = tmp_path / "rep"
    assert main(["report", "haar", "--tol", f"tail={value}",
                 "--out-dir", str(out)]) == 2
    assert "InputError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    ["--tol", "biorth=1e-12"],
    {"alpha": math.pi / 3, "kmx": 32},
    {"alpha": math.pi / 3, "grid": {"t0": -2.0, "dt": 0.5, "n": 16}},
], ids=["tolerance_name", "config_key", "config_grid"])
def test_unknown_settings_are_refused(tmp_path, setting, capsys):
    out = tmp_path / "rep"
    argv = ["report", "haar", "--alpha", "pi/3", "--out-dir", str(out)]
    if isinstance(setting, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        setting = ["--config", str(cfg)]
    assert main(argv + setting) == 2
    assert "InputError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    {"kmax": 0}, {"grid_count": 0}, {"battery_size": 0}, {"n_gram": -1},
    {"k_proj": -3}, {"kmax": 1.5},
    ["--seed", "-1"], ["--alpha", "nan"], ["--alpha", "inf"], ["--alpha", "pi/0"],
], ids=["kmax=0", "grid_count=0", "battery_size=0", "n_gram=-1", "k_proj=-3",
        "kmax=1.5", "seed=-1", "alpha=nan", "alpha=inf", "alpha=pi/0"])
def test_out_of_range_settings_are_input_errors(tmp_path, setting, capsys):
    # exit 1 means a criterion failed: a setting no run can use is exit 2,
    # and a non-integral count is refused, not truncated
    out = tmp_path / "rep"
    argv = ["report", "haar", "--out-dir", str(out)]
    if isinstance(setting, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": math.pi / 3, **setting}))
        setting = ["--config", str(cfg)]
    assert main(argv + setting) == 2
    assert "InputError" in capsys.readouterr().err
    assert not out.exists()


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


def saved_cdf53(tmp_path, alpha):
    h, off, hd, offd = cdf53_taps()
    path = tmp_path / "bank.json"
    save_bank(path, make_bank(fractional_taps(h, off, alpha),
                              fractional_taps(hd, offd, alpha)))
    return path


@pytest.mark.parametrize("command", ["report", "wavelet-build", "frame-bounds"])
def test_bank_file_angle_mismatch_is_an_input_error(tmp_path, command, capsys):
    # a bank saved at pi/3 and judged at pi/2 gives wrong numbers silently
    bank = saved_cdf53(tmp_path, math.pi / 3)
    out = ["-o", str(tmp_path / "fb.json")] if command == "frame-bounds" \
        else ["--out-dir", str(tmp_path / "out")]
    assert main([command, str(bank), "--alpha", "pi/2"] + out) == 2
    assert "InputError" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.5}))
    assert main([command, str(bank), "--config", str(cfg)] + out) == 2


def test_bank_file_angle_is_the_run_angle(tmp_path):
    bank = saved_cdf53(tmp_path, math.pi / 3)
    outs = []
    for name, alpha in (("own", []), ("given", ["--alpha", "pi/3"]),
                        ("turn", ["--alpha", "7pi/3"])):
        out = tmp_path / name
        assert main(["report", str(bank), "--seed", "3", "--out-dir", str(out)]
                    + alpha) == 0
        outs.append(out)
    assert json.loads((outs[0] / "report.json").read_text())["config"]["alpha"] \
        == math.pi / 3
    for name in ("report.json", "gram_profile.csv", "biortho_profile.csv",
                 "residual_vs_j.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("taps", [
    {"h": [[0, 0], [0, 0]]},
    {"h": [[1, 0], [1, 0]]},
    {"h": [[0.7071067811865476, 0], [0.7071067811865476, 0]], "h_dual": [[1, 0], [1, 0]]},
], ids=["zero", "sum-2", "dual-sum-2"])
def test_unnormalized_lowpass_bank_is_an_input_error(tmp_path, taps, capsys):
    # a lowpass whose taps do not sum to sqrt(2) ran the whole pipeline and
    # ended in a verdict failure or an error about the battery
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"alpha": math.pi / 2, "h_offset": 0, **taps}))
    out = tmp_path / "out"
    assert main(["report", str(bank), "--out-dir", str(out)]) == 2
    assert "not sqrt(2)" in capsys.readouterr().err
    assert not out.exists()
