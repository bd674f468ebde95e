import math

import numpy as np
import pytest

from frwave import (
    ContinuousAtomParams,
    EmptyBattery,
    GridCoverage,
    MotherWavelet,
    SampledSignal,
    admissibility_constant,
    admissibility_refinement,
    as_angle,
    atom_continuous,
    battery,
    chirp_modulate,
    frft_eval,
    frwt_continuous,
    level_atoms,
    make_mother,
)
from frwave.grids import sample_at, trap_weights

from conftest import gaussian_signal, max_abs


def test_mother_norms():
    # ||gauss1||^2 = int t^2 e^{-t^2} = sqrt(pi)/2
    assert make_mother("gauss1").signal.norm_sq() == pytest.approx(
        math.sqrt(math.pi) / 2.0, rel=1e-10)
    # ||mexican||^2 = int (1-t^2)^2 e^{-t^2} = (3/4) sqrt(pi)
    assert make_mother("mexican").signal.norm_sq() == pytest.approx(
        0.75 * math.sqrt(math.pi), rel=1e-10)
    # half-sample jump values make |psi|^2 quadrature O(dt) accurate only
    assert make_mother("haar").signal.norm_sq() == pytest.approx(1.0, abs=2e-3)
    assert make_mother("meyer").signal.norm_sq() == pytest.approx(1.0, rel=1e-6)


def _meyer_nu(x):
    x = np.clip(x, 0.0, 1.0)
    return x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3)


def test_meyer_matches_dense_inverse_integral():
    psi = make_mother("meyer").signal
    t = psi.grid[::64]
    w = np.linspace(-8.0 * math.pi / 3.0, 8.0 * math.pi / 3.0, 8192)
    aw = np.abs(w)
    hat = np.where(aw <= 4.0 * math.pi / 3.0,
                   np.sin(0.5 * math.pi * _meyer_nu(3.0 * aw / (2.0 * math.pi) - 1.0)),
                   np.cos(0.5 * math.pi * _meyer_nu(3.0 * aw / (4.0 * math.pi) - 1.0)))
    # rectangle sum of the unitary inverse Fourier integral
    dense = (np.exp(1j * np.outer(t, w)) @ (hat * np.exp(0.5j * w))
             * (w[1] - w[0]) / (2.0 * math.pi))
    assert max_abs(psi.values[::64], dense) < 1e-10 * np.max(np.abs(dense))


def test_meyer_has_zero_mean():
    m = make_mother("meyer").signal
    mean = np.sum(m.values * trap_weights(m.n, m.dt))
    assert abs(mean) < 1e-6


def test_atom_norm_preservation_sweep():
    psi = make_mother("gauss1")
    ref = psi.signal.norm()
    grid = (-16.0, 2.0 ** -7, 4096)
    for alpha in (math.pi / 2, math.pi / 3, math.pi / 4, 2.0 * math.pi / 3):
        for a in (0.5, 1.0, 2.0):
            for b in (-1.0, 0.0, 1.5):
                atom = atom_continuous(psi, ContinuousAtomParams(
                    as_angle(alpha), a, b), grid)
                assert abs(atom.norm() - ref) < 1e-5


def test_atom_quarter_turn_is_classical():
    psi = make_mother("mexican")
    grid = (-12.0, 2.0 ** -7, 3072)
    atom = atom_continuous(psi, ContinuousAtomParams(
        as_angle(math.pi / 2), 0.5, 1.0), grid)
    t = atom.grid
    classical = (1.0 - (2.0 * (t - 1.0)) ** 2) * np.exp(
        -(2.0 * (t - 1.0)) ** 2 / 2.0) / math.sqrt(0.5)
    assert max_abs(atom.values, classical) < 1e-10


def test_atom_spectrum_closed_form():
    # transform of the scaled/shifted chirped atom against the prefactored
    # transform of the dechirped mother at the scaled argument
    psi = make_mother("gauss1")
    grid = (-16.0, 2.0 ** -7, 4096)
    alpha = as_angle(math.pi / 3)
    cot, csc = alpha.cot_alpha, alpha.csc_alpha
    xi = np.linspace(-8.0, 8.0, 201)
    tpsi = psi.signal.grid
    dechirped = SampledSignal(
        psi.signal.t0, psi.signal.dt,
        psi.signal.values * np.exp(-1j * (cot / 2.0) * tpsi * tpsi))
    for a, b in ((0.5, 0.0), (2.0, 1.0), (1.0, -1.5)):
        atom = atom_continuous(psi, ContinuousAtomParams(alpha, a, b), grid)
        lhs = frft_eval(atom, alpha, xi)
        pref = math.sqrt(a) * np.exp(
            1j * ((b * b + xi * xi) * cot / 2.0 - b * xi * csc
                  - (a * a) * xi * xi * cot / 2.0))
        rhs = pref * frft_eval(dechirped, alpha, a * xi)
        assert max_abs(lhs, rhs) < 1e-4


def test_frwt_chirp_conjugation():
    # the fractional coefficient is the classical coefficient of the
    # chirp-modulated signal, times exp(-i b^2 cot/2); at a = 2, b = 0.3 the
    # atom's points fall between the mother's samples
    psi = make_mother("mexican")
    grid = (-16.0, 2.0 ** -7, 4096)
    f = gaussian_signal(grid, sigma=1.5, carrier=1.0)
    t = f.grid
    w = trap_weights(f.n, f.dt)
    for a, b in ((0.5, 0.25), (1.0, -1.0), (2.0, 1.5), (2.0, 0.3)):
        atom_vals = sample_at(psi.signal, (t - b) / a) / math.sqrt(a)
        for alpha in (math.pi / 3, math.pi / 4):
            angle = as_angle(alpha)
            cot = angle.cot_alpha
            got = frwt_continuous(f, psi, ContinuousAtomParams(angle, a, b))
            chirped = f.values * np.exp(1j * (cot / 2.0) * t * t)
            classical = np.sum(w * chirped * np.conj(atom_vals))
            want = np.exp(-1j * (b * b) * cot / 2.0) * classical
            assert abs(got - want) < 1e-8


def test_atom_coverage_error():
    psi = make_mother("gauss1")
    with pytest.raises(GridCoverage):
        atom_continuous(psi, ContinuousAtomParams(as_angle(math.pi / 3), 1.0, 30.0),
                        (-4.0, 2.0 ** -7, 1024))


def test_admissibility_mexican_stable_under_refinement():
    psi = make_mother("mexican")
    vals = admissibility_refinement(psi, math.pi / 2, [1e-1, 1e-2, 1e-3],
                                    n=8192)
    # spectrum vanishes quadratically at the origin: the constant converges
    assert vals[2] - vals[1] < 0.05 * vals[1]
    assert admissibility_constant(psi, math.pi / 3) > 0.0


def test_admissibility_matches_dense_reference():
    psi = make_mother("haar", (-2.0, 2.0 ** -8, 5 * 256))
    angle = as_angle(math.pi / 3)
    t = psi.signal.grid
    dechirped = SampledSignal(psi.signal.t0, psi.signal.dt, psi.signal.values
                              * np.exp(-0.5j * angle.cot_alpha * t * t))
    xi = np.linspace(-32.0, 32.0, 8192)
    vals = frft_eval(dechirped, angle, xi)
    keep = np.abs(xi) >= xi[1] - xi[0]
    ref = np.trapezoid(np.abs(vals[keep]) ** 2 / np.abs(xi[keep]), xi[keep])
    assert admissibility_constant(psi, angle, n=8192) == pytest.approx(ref, rel=1e-10)


def test_admissibility_flags_nonvanishing_origin():
    grid = (-12.0, 2.0 ** -9, 24 * 512)
    g = gaussian_signal(grid, sigma=1.0)
    not_a_wavelet = MotherWavelet(g, "gauss0")
    vals = admissibility_refinement(not_a_wavelet, math.pi / 2,
                                    [1e-1, 1e-2, 1e-3], n=8192)
    # logarithmic divergence as the origin exclusion shrinks
    assert vals[1] > 1.5 * vals[0]
    assert vals[2] > 1.2 * vals[1]


def meyer_frame_ratio(alpha):
    """sum over j in [-2, 3], |k| <= 128 of |<f, A[j,k] psi>|^2 / ||f||^2 for
    the chirped Meyer mother and a chirped Gaussian f: the dyadic atoms are
    level_atoms of the chirped mother."""
    angle = as_angle(alpha)
    psi = chirp_modulate(make_mother("meyer").signal, angle, -1)
    grid = (-32.0, 2.0 ** -6, 4096)
    f = gaussian_signal(grid, sigma=4.0, carrier=2.0, alpha=angle)
    energy = sum(np.sum(np.abs(level_atoms(psi, angle, j, -128, 128, grid)
                               .analyze(f.values)) ** 2) for j in range(-2, 4))
    return float(energy) / f.norm_sq()


def test_meyer_frame_is_tight_at_every_angle():
    # the Meyer wavelets are an orthonormal basis, and chirp multiplication
    # is unitary: f's band (around 2, width 1/4) lies inside levels -2..3
    ratios = [meyer_frame_ratio(a) for a in (math.pi / 2, math.pi / 3, 2.5, 0.05)]
    assert max(abs(r - 1.0) for r in ratios) < 1e-9
    assert max(ratios) - min(ratios) < 1e-12


def test_battery_determinism_and_errors():
    grid = (-4.0, 2.0 ** -7, 1024)
    b1 = battery(7, 3, grid, alpha=math.pi / 3)
    b2 = battery(7, 3, grid, alpha=math.pi / 3)
    for x, y in zip(b1, b2):
        assert np.array_equal(x.values, y.values)
        assert x.norm() == pytest.approx(1.0, rel=1e-12)
    assert not np.array_equal(b1[0].values, b1[1].values)
    with pytest.raises(EmptyBattery):
        battery(7, 0, grid)
