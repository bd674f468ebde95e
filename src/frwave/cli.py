"""Command-line front end.

Subcommands: frft, frwt, riesz-check, biortho-check, mra-filter,
wavelet-build, frame-bounds, report. Exit codes: 0 pass, 1 criterion fail,
2 input error, 3 numerical-configuration error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import banks, biortho, mra, riesz, wavelets
from .errors import FrwaveError, InputError
from .frft import CHIRP, DIRECT, FrFTPlan, frft, inverse_frft
from .grids import (
    SampledSignal,
    as_angle,
    read_signal_csv,
    read_spectrum_csv,
    write_signal_csv,
    write_spectrum_csv,
)
from .report import AnalysisReport, RunConfig, dumps_deterministic

_PI_RE = re.compile(r"^(-?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Accepts 'pi/2', '2pi/3', '2pi', '-pi/4', or a decimal in radians."""
    s = text.strip().replace(" ", "").lower()
    m = _PI_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        return sign * num * math.pi / den
    try:
        return float(s)
    except ValueError as exc:
        raise InputError(f"cannot parse angle {text!r}") from exc


def _write_json(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _config_from_args(args) -> RunConfig:
    doc = {}
    if args.config:
        import json
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise InputError(f"bad config file {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise InputError(f"bad config file {args.config}: not a JSON object")
    if args.alpha is not None:
        doc["alpha"] = parse_angle(args.alpha)
    doc.setdefault("alpha", math.pi / 2.0)
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = RunConfig.from_dict(doc)
    for spec in args.tol or []:
        name, _, val = spec.partition("=")
        if not val:
            raise InputError(f"--tol expects name=value, got {spec!r}")
        d = cfg.to_dict()
        d["tolerances"][name] = float(val)
        cfg = RunConfig.from_dict(d)
    return cfg


def cmd_frft(args) -> int:
    angle = as_angle(parse_angle(args.alpha))
    method = {"chirp": CHIRP, "direct": DIRECT}[args.method]
    if args.inverse:
        spec = read_spectrum_csv(args.input)
        m, du = spec.n, spec.du
        if spec.alpha.is_regular:
            dt = 2.0 * math.pi * abs(spec.alpha.sin_alpha) / (m * du)
        else:
            dt = du
        sig = inverse_frft(spec, (-(m // 2) * dt, dt, m), method)
        write_signal_csv(args.output, sig)
        return 0
    sig = read_signal_csv(args.input)
    plan = FrFTPlan.for_signal(sig, angle, method)
    write_spectrum_csv(args.output, frft(sig, plan))
    return 0


def cmd_frwt(args) -> int:
    sig = read_signal_csv(args.input)
    psi = wavelets.make_mother(args.mother)
    angle = as_angle(parse_angle(args.alpha))
    lo, hi, count = (float(x) for x in args.b_range.split(":"))
    bs = np.linspace(lo, hi, int(count))
    rows = []
    for b in bs:
        p = wavelets.ContinuousAtomParams(angle, args.scale, float(b))
        rows.append(wavelets.frwt_continuous(sig, psi, p))
    import csv
    with open(args.output, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(("b", "re", "im"))
        for b, c in zip(bs, rows):
            wr.writerow([f"{b:.17g}", f"{c.real:.17g}", f"{c.imag:.17g}"])
    return 0


def cmd_riesz_check(args) -> int:
    cfg = _config_from_args(args)
    phi = read_signal_csv(args.input)
    profile = riesz.periodization_gram(phi, cfg.alpha, cfg.grid_count, cfg.kmax,
                                       tail_tol=cfg.tol("tail"))
    bounds = riesz.riesz_bounds(profile)
    passed = bounds.lower > 1e-3
    doc = {
        "criterion": "riesz_bounds",
        "pass": passed,
        "constant": float(np.mean(profile.real_values())),
        "max_dev": float(np.max(profile.real_values())
                         - np.min(profile.real_values())),
        "bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "kmax": cfg.kmax,
        "grid_count": cfg.grid_count,
    }
    _write_json(Path(args.output), dumps_deterministic(doc))
    return 0 if passed else 1


def cmd_biortho_check(args) -> int:
    cfg = _config_from_args(args)
    phi = read_signal_csv(args.input)
    phi_dual = read_signal_csv(args.dual)
    rep = riesz.check_biorthogonal(phi, phi_dual, cfg.alpha,
                                   tol=cfg.tol("biortho"),
                                   grid_count=cfg.grid_count, kmax=cfg.kmax,
                                   n_gram=cfg.n_gram, tail_tol=cfg.tol("tail"))
    _write_json(Path(args.output), rep.to_json())
    return 0 if rep.overall_pass else 1


def cmd_mra_filter(args) -> int:
    cfg = _config_from_args(args)
    phi = read_signal_csv(args.input)
    phi_dual = read_signal_csv(args.dual) if args.dual else None
    nmin, nmax = (int(x) for x in args.support.split(":"))
    h = mra.scaling_filter(phi, cfg.alpha, (nmin, nmax), phi_dual)
    if phi_dual is not None:
        hd = mra.scaling_filter(phi_dual, cfg.alpha, (nmin, nmax), phi)
    else:
        hd = h
    bank = biortho.make_bank(h, hd)
    biortho.save_bank(args.output, bank)
    return 0


def _load_or_builtin_bank(spec: str, alpha: float) -> biortho.WaveletFilterBank:
    if spec == "haar":
        taps, off = banks.haar_taps()
        return biortho.make_bank(banks.fractional_taps(taps, off, alpha))
    if spec == "cdf53":
        h, off, hd, offd = banks.cdf53_taps()
        return biortho.make_bank(banks.fractional_taps(h, off, alpha),
                                 banks.fractional_taps(hd, offd, alpha))
    return biortho.load_bank(spec)


def _scaling_pair_for_bank(bank_spec: str, bank):
    """Generators for the bank: exact samplers where known, spectral otherwise."""
    alpha = bank.alpha
    if bank_spec == "haar":
        phi, _ = banks.haar_system(alpha)
        return phi, phi
    if bank_spec == "cdf53":
        phi, _, hd = banks.cdf53_system(alpha)
        grid = (phi.t0 - 2.0, phi.dt, phi.n + int(round(4.0 / phi.dt)))
        return phi, banks.spectral_scaling_from_filter(hd, grid)
    grid = (-8.0, 2.0 ** -10, int(16.0 / 2.0 ** -10) + 1)
    phi = banks.spectral_scaling_from_filter(bank.h, grid)
    phi_dual = banks.spectral_scaling_from_filter(bank.h_dual, grid)
    return phi, phi_dual


def cmd_wavelet_build(args) -> int:
    cfg = _config_from_args(args)
    bank = _load_or_builtin_bank(args.bank, cfg.alpha)
    phi, phi_dual = _scaling_pair_for_bank(args.bank, bank)
    pair = biortho.wavelet_synthesize(bank, phi, phi_dual)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_signal_csv(out / "psi.csv", pair.psi)
    write_signal_csv(out / "psi_dual.csv", pair.psi_dual)
    rep = _pipeline_report("wavelet-build", cfg, bank, phi, phi_dual, pair, out,
                           curves=False)
    _write_json(out / "report.json", rep.to_json())
    return 0 if rep.overall_pass else 1


def cmd_frame_bounds(args) -> int:
    cfg = _config_from_args(args)
    bank = _load_or_builtin_bank(args.bank, cfg.alpha)
    phi, phi_dual = _scaling_pair_for_bank(args.bank, bank)
    pair = biortho.wavelet_synthesize(bank, phi, phi_dual)
    grid = (-4.0, 2.0 ** -7, 1024)
    batt = wavelets.battery(cfg.seed, cfg.battery_size, grid, alpha=cfg.alpha,
                            band_min=1.0)
    bounds, _, _ = biortho.riesz_frame_bounds(pair, batt, (-3, 4), (-32, 32))
    doc = {"A": bounds.A, "B": bounds.B, "A_dual": bounds.A_dual,
           "B_dual": bounds.B_dual, "duality_ok": bounds.duality_ok()}
    _write_json(Path(args.output), dumps_deterministic(doc))
    return 0 if bounds.duality_ok() and bounds.A > 0 else 1


def _pipeline_report(command: str, cfg: RunConfig, bank,
                     phi, phi_dual, pair, out_dir: Path,
                     curves: bool = True) -> AnalysisReport:
    rep = AnalysisReport(command, cfg)
    tol_b = cfg.tol("biortho")

    gram = riesz.periodization_gram(phi, cfg.alpha, cfg.grid_count, cfg.kmax,
                                    tail_tol=cfg.tol("tail"))
    bounds = riesz.riesz_bounds(gram)
    rep.add("riesz_lower_positive", bounds.lower > 1e-3, bounds.lower,
            f"upper={bounds.upper:.6g}")

    bio = riesz.check_biorthogonal(phi, phi_dual, cfg.alpha, tol=tol_b,
                                   grid_count=cfg.grid_count, kmax=cfg.kmax,
                                   n_gram=cfg.n_gram, tail_tol=cfg.tol("tail"))
    rep.add("scaling_biortho", bio.overall_pass,
            max(v.value for v in bio.verdicts.values()),
            f"c={bio.extras['constant']:.6g}")

    mdef = biortho.matrix_condition_defect(bank, cfg.grid_count)
    rep.add("matrix_condition", mdef <= cfg.tol("matrix"), mdef)

    wbio = biortho.wavelet_biortho_check(pair, tol=tol_b, grid_count=cfg.grid_count,
                                         kmax=cfg.kmax, n_gram=cfg.n_gram,
                                         tail_tol=cfg.tol("tail"))
    rep.add("wavelet_biortho", wbio.overall_pass,
            max(v.value for v in wbio.verdicts.values()))

    xorth = biortho.cross_orthogonality_check(pair, phi, phi_dual, cfg.n_gram)
    rep.add("cross_orthogonality", xorth <= 1e-3, xorth)

    grid = (-4.0, 2.0 ** -7, 1024)
    batt = wavelets.battery(cfg.seed, min(cfg.battery_size, 5), grid,
                            alpha=cfg.alpha, band_min=1.0)
    split = biortho.level_split_defect(batt[0], pair, phi, phi_dual,
                                       k_proj=cfg.k_proj)
    rep.add("level_split", split <= cfg.tol("split"), split)

    decay = biortho.decay_check(pair, phi, phi_dual, eps=0.05)
    rep.add("decay", decay.pass_phi and decay.pass_phi_dual
            and decay.pass_psi_origin and decay.pass_psi_dual_origin, decay.C,
            f"eps={decay.epsilon}")

    fb, _, _ = biortho.riesz_frame_bounds(pair, batt, (-3, 4), (-32, 32))
    rep.add("frame_duality", fb.duality_ok(), fb.A,
            f"B={fb.B:.6g} A_dual={fb.A_dual:.6g} B_dual={fb.B_dual:.6g}")
    rep.extras["frame_bounds"] = {"A": fb.A, "B": fb.B,
                                  "A_dual": fb.A_dual, "B_dual": fb.B_dual}

    if curves:
        import csv
        prof = riesz.biortho_profile(phi, phi_dual, cfg.alpha, cfg.grid_count,
                                     cfg.kmax, tail_tol=cfg.tol("tail"))
        resid = mra.projection_residual_curve(batt[0], phi, phi_dual, cfg.alpha,
                                              range(0, 5), k_proj=cfg.k_proj)
        for name, xs, ys in (
                ("gram_profile", gram.grid, gram.values.real),
                ("biortho_profile", prof.grid, prof.values.real),
                ("residual_vs_j", list(range(0, 5)), resid)):
            with open(out_dir / f"{name}.csv", "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(("x", "y"))
                for x, y in zip(xs, ys):
                    wr.writerow([f"{float(x):.17g}", f"{float(y):.17g}"])
    return rep


def cmd_report(args) -> int:
    cfg = _config_from_args(args)
    bank = _load_or_builtin_bank(args.bank, cfg.alpha)
    phi, phi_dual = _scaling_pair_for_bank(args.bank, bank)
    pair = biortho.wavelet_synthesize(bank, phi, phi_dual)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rep = _pipeline_report("report", cfg, bank, phi, phi_dual, pair, out)
    _write_json(out / "report.json", rep.to_json(include_timings=args.timings))
    return 0 if rep.overall_pass else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="frwave", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alpha", help="angle: pi/2, 2pi/3, or radians; overrides "
                       "--config (default: the config's angle, else pi/2)")
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", action="append", metavar="NAME=VAL")

    p = sub.add_parser("frft", help="fractional Fourier transform of a CSV signal")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--method", choices=("chirp", "direct"), default="chirp")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=cmd_frft)

    p = sub.add_parser("frwt", help="continuous fractional wavelet coefficients")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--mother", default="gauss1",
                   choices=("gauss1", "mexican", "haar", "meyer"))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--b-range", default="-4:4:65", help="lo:hi:count")
    p.set_defaults(func=cmd_frwt)

    p = sub.add_parser("riesz-check", help="Riesz bounds of translate system")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=cmd_riesz_check)

    p = sub.add_parser("biortho-check", help="biorthogonality of two generators")
    p.add_argument("input")
    p.add_argument("dual")
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=cmd_biortho_check)

    p = sub.add_parser("mra-filter", help="extract scaling filter, emit bank JSON")
    p.add_argument("input")
    p.add_argument("--dual", default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--support", default="-8:8")
    common(p)
    p.set_defaults(func=cmd_mra_filter)

    p = sub.add_parser("wavelet-build", help="synthesize wavelet pair from a bank")
    p.add_argument("bank", help="haar | cdf53 | path to bank JSON")
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_wavelet_build)

    p = sub.add_parser("frame-bounds", help="empirical wavelet frame bounds")
    p.add_argument("bank")
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=cmd_frame_bounds)

    p = sub.add_parser("report", help="full analysis pipeline report")
    p.add_argument("bank")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--timings", action="store_true",
                   help="include timings (breaks byte determinism)")
    common(p)
    p.set_defaults(func=cmd_report)
    return ap


def _attach_negative_angles(argv: list[str]) -> list[str]:
    """Rewrite `--alpha -pi/3` as `--alpha=-pi/3`.

    argparse reads a separate token that starts with '-' and is not a plain
    number (such as -pi/3) as an option, not as the value of --alpha.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--alpha" and tok.startswith("-") and _is_angle(tok):
            out[-1] = f"--alpha={tok}"
        else:
            out.append(tok)
    return out


def _is_angle(text: str) -> bool:
    try:
        parse_angle(text)
    except InputError:
        return False
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_negative_angles(argv))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FrwaveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
