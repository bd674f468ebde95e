import cmath
import math

import numpy as np
import pytest

from frwave import (
    FrFTPlan,
    SampledSignal,
    as_angle,
    cdf53_system,
    chirp_modulate,
    frft,
    frft_eval,
    inverse_frft,
    kernel_constant,
    kernel_eval,
    parseval_defect,
    spectrum_on_grid,
)

from conftest import gaussian_signal, max_abs

GRID = (-20.0, 40.0 / 1024, 1024)


def classical_ft_gaussian(xi, sigma=1.0, center=0.0, carrier=0.0):
    """Unitary Fourier transform of exp(i*carrier*t - (t-center)^2/(2 sigma^2))."""
    return (sigma * np.exp(-(sigma ** 2) * (xi - carrier) ** 2 / 2.0)
            * np.exp(-1j * center * (xi - carrier)))


def test_kernel_constant_quarter_turn():
    c = kernel_constant(as_angle(math.pi / 2))
    assert c == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


def test_kernel_symmetry():
    a = as_angle(math.pi / 3)
    assert kernel_eval(a, 0.7, -1.3) == pytest.approx(kernel_eval(a, -1.3, 0.7))


def test_quarter_turn_matches_classical_ft():
    g = gaussian_signal(GRID, sigma=1.5, center=0.5, carrier=1.0)
    plan = FrFTPlan.for_signal(g, math.pi / 2)
    F = frft(g, plan)
    expect = classical_ft_gaussian(F.grid, 1.5, 0.5, 1.0)
    assert max_abs(F.values, expect) < 1e-10


def test_frft_eval_matches_mpmath_quadrature():
    mp = pytest.importorskip("mpmath")
    alpha = math.pi / 3
    angle = as_angle(alpha)
    g = gaussian_signal(GRID, sigma=1.0)
    for xi in (0.0, 0.8, -1.7):
        got = complex(frft_eval(g, angle, np.array([xi]))[0])
        cot, csc = angle.cot_alpha, angle.csc_alpha
        c = cmath.sqrt((1.0 - 1j * cot) / (2.0 * math.pi))

        def integrand(t, xi=xi):
            return mp.e ** (-t * t / 2
                            + 1j * ((t * t + xi * xi) * cot / 2 - t * xi * csc))

        want = c * complex(mp.quad(integrand, [-mp.inf, mp.inf]))
        assert abs(got - want) < 1e-10


def test_chirp_and_direct_methods_agree():
    g = gaussian_signal(GRID, sigma=0.8, carrier=2.0)
    for alpha in (math.pi / 3, 2.0 * math.pi / 3, -math.pi / 4):
        fc = frft(g, FrFTPlan.for_signal(g, alpha))
        fd = frft_eval(g, alpha, fc.grid)
        assert max_abs(fc.values, fd) < 1e-10


def test_unitary_and_invertible():
    g = gaussian_signal(GRID, sigma=1.2, center=-1.0)
    for alpha in (math.pi / 2, math.pi / 3, -math.pi / 5):
        plan = FrFTPlan.for_signal(g, alpha)
        assert parseval_defect(g, plan) < 1e-9
        F = frft(g, plan)
        back = inverse_frft(F, GRID)
        assert max_abs(back.values, g.values) < 1e-9


def test_angle_additivity():
    # two quarter-steps compose to the half turn on a Gaussian
    g = gaussian_signal(GRID, sigma=1.0, center=0.3)
    F1 = frft(g, FrFTPlan.for_signal(g, math.pi / 4))
    F2 = frft(F1.as_signal(), FrFTPlan.for_signal(F1.as_signal(), math.pi / 4))
    direct = frft_eval(g, math.pi / 2, F2.grid)
    assert max_abs(F2.values, direct) < 1e-6


def test_identity_and_reflection_branches():
    g = gaussian_signal(GRID, sigma=1.0, center=0.7)
    ident = frft(g, FrFTPlan.for_signal(g, 2.0 * math.pi))
    assert max_abs(ident.values, g.values) < 1e-12
    # symmetric grid: reflection is an exact sample permutation
    sym = (-16.0, 2.0 ** -5, 1025)
    h = gaussian_signal(sym, sigma=1.0, center=0.7)
    refl = frft(h, FrFTPlan.for_signal(h, math.pi))
    assert max_abs(refl.values, h.values[::-1]) < 1e-12


def test_chirp_plan_on_any_output_grid_matches_direct():
    # output grids off the natural one take the Bluestein path, a step
    # 1e-10 off the natural one included (a plain FFT there errs by ~1e-7)
    g = gaussian_signal(GRID, sigma=1.0)
    angle = as_angle(math.pi / 3)
    du = 2.0 * math.pi * angle.sin_alpha / (GRID[2] * GRID[1]) * (1.0 + 1e-10)
    for out in ((-10.0, 0.01, 1024), (-512 * du, du, 1024)):
        fc = frft(g, FrFTPlan(angle, out))
        fd = frft_eval(g, angle, fc.grid)
        assert max_abs(fc.values, fd) < 1e-10


def test_chirp_modulate_inverse_pair():
    g = gaussian_signal(GRID, sigma=1.0)
    back = chirp_modulate(chirp_modulate(g, math.pi / 3, +1), math.pi / 3, -1)
    assert max_abs(back.values, g.values) < 1e-14


def test_spectrum_on_grid_matches_direct_eval():
    g = gaussian_signal(GRID, sigma=0.9, carrier=-1.0)
    angle = as_angle(math.pi / 3)
    u0, du, m = -6.0, 0.05, 241
    fast = spectrum_on_grid(g, angle, u0, du, m)
    slow = frft_eval(g, angle, u0 + du * np.arange(m))
    assert max_abs(fast, slow) < 1e-10


def test_spectrum_on_grid_matches_direct_eval_on_a_riesz_stack():
    # the stacked spectrum riesz builds for cdf53 at pi/3 (grid_count 256,
    # kmax 64): a long grid whose chirp phase reaches ~1e4 radians
    phi, _, _ = cdf53_system(math.pi / 3)
    angle = as_angle(math.pi / 3)
    grid_count, kmax = 256, 64
    period = abs(angle.period)
    du, m = period / grid_count, (2 * kmax + 1) * grid_count
    u0 = -kmax * period
    fast = spectrum_on_grid(phi, angle, u0, du, m)
    k = np.r_[0:64, 5000:5064, m // 2 - 32:m // 2 + 32, m - 64:m]
    slow = frft_eval(phi, angle, u0 + du * k)
    assert np.max(np.abs(fast[k] - slow)) < 1e-10 * np.max(np.abs(fast))
