"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion, prints a single
``criterion N: PASS/FAIL`` line (visible with ``pytest -s`` or on failure),
and enforces its wall-clock budget.
"""

import json
import math
import time

import numpy as np

from frwave import (
    ContinuousAtomParams,
    FrFTPlan,
    MotherWavelet,
    SampledSignal,
    ScalingFilter,
    admissibility_refinement,
    as_angle,
    atom_continuous,
    auxiliary_function,
    battery,
    biortho_profile,
    cdf53_system,
    check_biorthogonal,
    chirp_modulate,
    cross_level_orthogonality,
    cross_orthogonality_check,
    decay_check,
    dual_scaling,
    expand_reconstruct,
    frft,
    frft_eval,
    frwt_continuous,
    haar_system,
    hat_signal,
    inverse_frft,
    level_atom,
    level_split_defect,
    make_bank,
    make_mother,
    matrix_condition_defect,
    parseval_defect,
    periodization_gram,
    refine_cascade,
    riesz_bounds,
    riesz_frame_bounds,
    scaling_filter,
    two_scale_defect,
    wavelet_biortho_check,
    wavelet_synthesize,
)
from frwave.banks import spectral_scaling_from_filter
from frwave.cli import main as cli_main
from frwave.grids import sample_at, trap_weights

from conftest import decay_bounds, gaussian_signal, max_abs

GRID = (-20.0, 40.0 / 1024, 1024)


class criterion:
    """Context manager: prints one PASS/FAIL line and checks the budget."""

    def __init__(self, num, budget_s):
        self.num, self.budget = num, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, etype, *_):
        dt = time.perf_counter() - self.t0
        verdict = "PASS" if etype is None and dt < self.budget else "FAIL"
        print(f"criterion {self.num}: {verdict} ({dt:.2f}s / budget {self.budget}s)")
        if etype is None:
            assert dt < self.budget, f"criterion {self.num} over budget: {dt:.2f}s"
        return False


def gaussian_battery():
    return [gaussian_signal(GRID, sigma=s, center=c, carrier=w)
            for s, c, w in ((1.0, 0.0, 0.0), (1.5, 0.5, 1.0),
                            (0.7, -1.0, -2.0), (2.0, 1.5, 0.5))]


def classical_ft_gaussian(xi, sigma, center, carrier):
    return (sigma * np.exp(-(sigma ** 2) * (xi - carrier) ** 2 / 2.0)
            * np.exp(-1j * center * (xi - carrier)))


def test_criterion_1_quarter_turn_battery():
    with criterion(1, 5.0):
        params = ((1.0, 0.0, 0.0), (1.5, 0.5, 1.0),
                  (0.7, -1.0, -2.0), (2.0, 1.5, 0.5))
        for (s, c, w), g in zip(params, gaussian_battery()):
            plan = FrFTPlan.for_signal(g, math.pi / 2)
            F = frft(g, plan)
            assert max_abs(F.values, classical_ft_gaussian(F.grid, s, c, w)) < 1e-8
            back = inverse_frft(F, GRID)
            assert max_abs(back.values, g.values) < 1e-6
            assert parseval_defect(g, plan) < 1e-6
            fd = frft_eval(g, math.pi / 2, F.grid)
            assert max_abs(F.values, fd) < 1e-5


def test_criterion_2_degenerate_angles():
    with criterion(2, 1.0):
        g = gaussian_signal(GRID, sigma=1.0, center=0.7, carrier=1.0)
        ident = frft(g, FrFTPlan.for_signal(g, 2.0 * math.pi))
        assert max_abs(ident.values, g.values) < 1e-12
        sym = (-16.0, 2.0 ** -5, 1025)
        h = gaussian_signal(sym, sigma=1.0, center=0.7)
        refl = frft(h, FrFTPlan.for_signal(h, math.pi))
        assert max_abs(refl.values, h.values[::-1]) < 1e-12


def test_criterion_3_atoms_and_continuous_transform():
    with criterion(3, 30.0):
        psi = make_mother("gauss1")
        ref = psi.signal.norm()
        grid = (-16.0, 2.0 ** -7, 4096)
        for alpha in (math.pi / 2, math.pi / 3, math.pi / 4, 2.0 * math.pi / 3):
            for a in (0.5, 1.0, 2.0):
                for b in (-1.0, 0.0, 1.5):
                    atom = atom_continuous(psi, ContinuousAtomParams(
                        as_angle(alpha), a, b), grid)
                    assert abs(atom.norm() - ref) < 1e-5

        # spectrum of a scaled/shifted atom via the dechirped mother
        angle = as_angle(math.pi / 3)
        cot, csc = angle.cot_alpha, angle.csc_alpha
        xi = np.linspace(-8.0, 8.0, 161)
        tm = psi.signal.grid
        dechirped = SampledSignal(psi.signal.t0, psi.signal.dt,
                                  psi.signal.values
                                  * np.exp(-1j * (cot / 2.0) * tm * tm))
        for a, b in ((0.5, 0.0), (2.0, 1.0), (1.0, -1.5)):
            atom = atom_continuous(psi, ContinuousAtomParams(angle, a, b), grid)
            lhs = frft_eval(atom, angle, xi)
            pref = math.sqrt(a) * np.exp(
                1j * ((b * b + xi * xi) * cot / 2.0 - b * xi * csc
                      - (a * a) * xi * xi * cot / 2.0))
            assert max_abs(lhs, pref * frft_eval(dechirped, angle, a * xi)) < 1e-4

        # coefficient = chirp-conjugated classical coefficient
        mx = make_mother("mexican")
        f = gaussian_signal(grid, sigma=1.5, carrier=1.0)
        t, w = f.grid, trap_weights(f.n, f.dt)
        for alpha in (math.pi / 3, math.pi / 4):
            ang = as_angle(alpha)
            for a, b in ((0.5, 0.25), (1.0, -1.0), (2.0, 1.5)):
                got = frwt_continuous(f, mx, ContinuousAtomParams(ang, a, b))
                chirped = f.values * np.exp(1j * (ang.cot_alpha / 2.0) * t * t)
                atom_vals = sample_at(mx.signal, (t - b) / a) / math.sqrt(a)
                classical = np.sum(w * chirped * np.conj(atom_vals))
                want = np.exp(-1j * (b * b) * ang.cot_alpha / 2.0) * classical
                assert abs(got - want) < 1e-8


def chirped_hat(alpha, dt=2.0 ** -9, margin=2.0):
    n = int(round((2.0 + 2.0 * margin) / dt)) + 1
    return chirp_modulate(hat_signal((-1.0 - margin, dt, n)), alpha, -1)


def test_criterion_4_biortho_verdict_battery():
    with criterion(4, 60.0):
        a2, a3 = as_angle(math.pi / 2), as_angle(math.pi / 3)
        haar2, _ = haar_system(a2)
        hat2, hat3 = chirped_hat(a2), chirped_hat(a3)
        gauss = gaussian_signal((-12.0, 2.0 ** -8, 24 * 256), sigma=1.0)
        pairs = [
            (haar2, haar2, a2, True),
            (hat2, dual_scaling(hat2, a2), a2, True),
            (hat3, dual_scaling(hat3, a3), a3, True),
            (gauss, gauss, a2, False),
            (haar2, hat2, a2, False),
            (hat2, hat2, a2, False),
        ]
        agreements = 0
        for phi, phid, ang, expect in pairs:
            rep = check_biorthogonal(phi, phid, ang, tol=2e-2)
            v = rep.verdicts
            if v["spectral_constancy"].passed == v["direct_gram"].passed:
                agreements += 1
            assert rep.overall_pass == expect
            if expect:
                prof = biortho_profile(phi, phid, ang, kmax=128)
                vals = np.abs(prof.values)
                spread = float(np.max(vals) - np.min(vals))
                assert spread <= 2e-2 * abs(prof.mean())
        assert agreements == 6


def test_criterion_5_dual_construction_bspline2():
    with criterion(5, 30.0):
        for alpha in (math.pi / 2, math.pi / 3):
            ang = as_angle(alpha)
            phi = chirped_hat(ang)
            dual = dual_scaling(phi, ang)
            rep = check_biorthogonal(phi, dual, ang, tol=2e-2)
            assert rep.overall_pass


def test_criterion_6_riesz_sandwich_haar():
    with criterion(6, 60.0):
        ang = as_angle(math.pi / 2)
        phi, _ = haar_system(ang)
        prof = periodization_gram(phi, ang)
        b = riesz_bounds(prof)
        const = float(np.mean(prof.real_values()))
        assert 0.95 * const <= b.lower <= b.upper <= 1.05 * const

        grid = (-12.0, 2.0 ** -7, 3072)
        atoms = [level_atom(phi, ang, 0, n, grid) for n in range(-4, 5)]
        rng = np.random.default_rng(2026)
        for _ in range(20):
            coefs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            vals = sum(c * a.values for c, a in zip(coefs, atoms))
            f = SampledSignal(grid[0], grid[1], vals)
            energy = float(np.sum(np.abs(coefs) ** 2))
            ratio = f.norm_sq() / energy
            assert 0.9 * b.lower <= ratio <= 1.1 * b.upper


def test_criterion_7_filter_extraction_and_cascade():
    with criterion(7, 60.0):
        # tap recovery: products of coincident-jump profiles carry O(dt)
        # quadrature error, so 1e-6 accuracy needs a very fine grid
        phi, _ = haar_system(math.pi / 2, dt=2.0 ** -20)
        h = scaling_filter(phi, math.pi / 2, (-2, 3), tau_tap=1e-4)
        root_half = 1.0 / math.sqrt(2.0)
        assert abs(h.tap(0) - root_half) < 1e-6
        assert abs(h.tap(1) - root_half) < 1e-6

        ang = as_angle(math.pi / 3)
        phi3, h3 = haar_system(ang)
        assert two_scale_defect(phi3, h3) < 1e-3

        u = np.linspace(0.0, abs(ang.period), 65)
        assert max_abs(auxiliary_function(h3, u),
                       auxiliary_function(h3, u + ang.period)) < 1e-10

        phi8, h8 = haar_system(ang, dt=2.0 ** -8)
        out, _ = refine_cascade(h8, (phi8.t0, phi8.dt, phi8.n), iterations=10)
        assert out.minus(phi8).norm() < 1e-3


def _bank_pair(name, alpha):
    if name == "haar":
        phi, h = haar_system(alpha)
        return make_bank(h), phi, phi
    phi, h, hd = cdf53_system(alpha)
    grid = (phi.t0 - 2.0, phi.dt, phi.n + int(round(4.0 / phi.dt)))
    return make_bank(h, hd), phi, spectral_scaling_from_filter(hd, grid)


def test_criterion_8_wavelet_pipeline():
    with criterion(8, 120.0):
        sig_grid = (-16.0, 2.0 ** -7, 4096)
        for name in ("haar", "cdf53"):
            for alpha in (math.pi / 2, math.pi / 3):
                ang = as_angle(alpha)
                bank, phi, phid = _bank_pair(name, ang)
                assert matrix_condition_defect(bank) < 1e-6
                pair = wavelet_synthesize(bank, phi, phid)
                assert wavelet_biortho_check(pair).overall_pass
                assert cross_orthogonality_check(pair, phi, phid) < 1e-3

                f0 = battery(3, 1, (-4.0, 2.0 ** -7, 1024), alpha=ang)[0]
                assert level_split_defect(f0, pair, phi, phid) < 1e-3
                assert cross_level_orthogonality(
                    pair, [(0, 1), (0, 2), (1, 2)]) < 2e-3

                f = gaussian_signal(sig_grid, sigma=3.0,
                                    carrier=2.0 * math.pi, alpha=ang)
                f = f.scaled(1.0 / f.norm())
                _, res = expand_reconstruct(f, pair, (-3, 6), (-128, 128))
                assert res < 0.05

                batt = battery(2026, 6, (-4.0, 2.0 ** -7, 1024), alpha=ang,
                               band_min=1.0)
                fb, _, _ = riesz_frame_bounds(pair, batt, (-3, 4), (-32, 32))
                assert fb.duality_ok()  # A >= 0.9 / B_dual


def test_criterion_9_negative_controls():
    with criterion(9, 30.0):
        ang = as_angle(math.pi / 3)
        phi, h = haar_system(ang)
        taps = h.taps.copy()
        taps[0] += 0.1
        bad = make_bank(ScalingFilter(taps, h.offset, ang))
        assert matrix_condition_defect(bad) >= 0.05
        pair = wavelet_synthesize(bad, phi, phi)
        f = battery(3, 1, (-4.0, 2.0 ** -7, 1024), alpha=ang)[0]
        assert level_split_defect(f, pair, phi, phi) >= 1e-2

        # spectrum nonvanishing at the origin: the admissibility integral
        # diverges as the origin exclusion shrinks
        g = gaussian_signal((-12.0, 2.0 ** -9, 24 * 512), sigma=1.0)
        vals = admissibility_refinement(MotherWavelet(g, "gauss0"),
                                        math.pi / 2, [1e-1, 1e-2, 1e-3], n=8192)
        assert vals[1] > 1.5 * vals[0] and vals[2] > 1.2 * vals[1]

        # the same profile used as a "wavelet" fails the sampled origin bound
        assert not decay_bounds(g, math.pi / 2)[1](1)
        # and from the taps: the lazy primal sqrt(2) delta with the Haar dual
        # is perfect reconstruction, but its g_dual does not vanish at 0
        lazy = make_bank(ScalingFilter(np.array([math.sqrt(2.0)]), 0, ang), h)
        assert matrix_condition_defect(lazy) < 1e-12
        assert not decay_check(lazy).passed


def test_criterion_10_report_determinism(tmp_path):
    with criterion(10, 10.0):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli_main(["report", "haar", "--alpha", "pi/2",
                             "--out-dir", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["pass"] is True
