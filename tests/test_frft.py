import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frwave import (
    FrFTPlan,
    SampledSignal,
    as_angle,
    cdf53_system,
    chirp_modulate,
    frft,
    frft_eval,
    hat_signal,
    inverse_frft,
    kernel_constant,
    parseval_defect,
    spectrum_on_grid,
)
from frwave.frft import _chirp_sum

from conftest import gaussian_signal, max_abs

GRID = (-20.0, 40.0 / 1024, 1024)


def classical_ft_gaussian(xi, sigma=1.0, center=0.0, carrier=0.0):
    """Unitary Fourier transform of exp(i*carrier*t - (t-center)^2/(2 sigma^2))."""
    return (sigma * np.exp(-(sigma ** 2) * (xi - carrier) ** 2 / 2.0)
            * np.exp(-1j * center * (xi - carrier)))


def test_kernel_constant_quarter_turn():
    c = kernel_constant(as_angle(math.pi / 2))
    assert c == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


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


def test_chirp_plan_on_any_output_grid_matches_direct(bluestein_calls):
    # both grids take the Bluestein path: the first's step is no 2 pi/N with
    # N <= n + m - 1, and one FFT on a step 1e-10 off the natural one would
    # err by ~1e-7
    g = gaussian_signal(GRID, sigma=1.0)
    angle = as_angle(math.pi / 3)
    du = 2.0 * math.pi * angle.sin_alpha / (GRID[2] * GRID[1]) * (1.0 + 1e-10)
    for out in ((-10.0, 0.01, 1024), (-512 * du, du, 1024)):
        fc = frft(g, FrFTPlan(angle, out))
        fd = frft_eval(g, angle, fc.grid)
        assert max_abs(fc.values, fd) < 1e-10
    assert bluestein_calls == [1024, 1024]


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


def chirped_hat(angle, dt):
    # the benchmark's dual-workload hat: support [-1, 1] inside [-2, 2]
    n = int(round(4.0 / dt)) + 1
    return chirp_modulate(hat_signal((-2.0, dt, n)), angle, -1)


def assert_matches_dense(f, angle, u0, du, m, k):
    # spectrum_on_grid against frft_eval at the indices k, relative to the
    # peak; frft_eval takes ~2^20 kernel entries per call
    fast = spectrum_on_grid(f, angle, u0, du, m)
    step = max(1, 2 ** 20 // f.n)
    slow = np.concatenate([frft_eval(f, angle, u0 + du * k[i:i + step])
                           for i in range(0, k.size, step)])
    assert np.max(np.abs(fast[k] - slow)) < 1e-10 * np.max(np.abs(fast))


@pytest.mark.parametrize("alpha", [math.pi / 3, 4.0])
def test_riesz_stack_tiles_one_dft(alpha, bluestein_calls):
    # a 2^-7 hat's stack (grid_count 256, kmax 64): theta = +-2 pi/32768 with
    # n = 513 < N < m = 33024; sin(4.0) < 0 takes the inverse FFT
    angle = as_angle(alpha)
    phi = chirped_hat(angle, 2.0 ** -7)
    period = abs(angle.period)
    m = 129 * 256
    k = np.r_[0:m:17, m - 64:m]
    assert_matches_dense(phi, angle, -64 * period, period / 256, m, k)
    assert not bluestein_calls


def test_dual_inverse_folds_onto_one_dft(bluestein_calls):
    # dual_scaling's inverse shape: a 131 584-point stack (grid_count 512,
    # kmax 128) folded onto N = 32768, read on 1281 points of step 2^-6
    angle = as_angle(math.pi / 3)
    phi = chirped_hat(angle, 2.0 ** -6)
    period = abs(angle.period)
    u0, du = -128 * period, period / 512
    stack = spectrum_on_grid(phi, angle, u0, du, 257 * 512)
    spec = SampledSignal(u0, du, stack)
    assert_matches_dense(spec, angle.negated(), -10.0, 2.0 ** -6, 1281,
                         np.r_[0:1281:80, 600:616, 1265:1281])
    assert not bluestein_calls


def test_output_grid_shorter_than_the_dft(bluestein_calls):
    # n = 1024 zero-padded to N = 1536, read on m = 1200 < N points
    g = gaussian_signal(GRID, sigma=1.0, carrier=0.5)
    angle = as_angle(math.pi / 3)
    du = 2.0 * math.pi * angle.sin_alpha / (1536 * GRID[1])
    assert_matches_dense(g, angle, -600 * du, du, 1200, np.arange(1200))
    assert not bluestein_calls


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 120), m=st.integers(1, 120), data=st.data(),
       sign=st.sampled_from([1, -1]))
def test_chirp_sum_matches_dense_sum(n, m, data, sign):
    # N beyond n + m - 1 takes the Bluestein path; both must give the sum
    N = data.draw(st.integers(1, 2 * (n + m)), label="N")
    rng = np.random.default_rng([n, m, N])
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    theta = sign * 2.0 * math.pi / N
    want = np.exp(-1j * theta * np.outer(np.arange(m), np.arange(n))) @ x
    got = _chirp_sum(x, theta, m)
    assert max_abs(got, want) < 1e-10 * np.sum(np.abs(x))


def test_frft_peak_memory_within_three_arrays():
    # the chirp-z core holds ~2.5 complex arrays of the input's length at its
    # peak, result included; the budget is 3 (12.6 MB on 2^18 samples)
    n = 2 ** 18
    f = gaussian_signal((-(n // 2) * 2.0 ** -9, 2.0 ** -9, n), sigma=4.0)
    plan = FrFTPlan.for_signal(f, math.pi / 3)

    def peak(call):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        _, seen = peak(lambda: np.ones(n, dtype=np.complex128))
        F, forward = peak(lambda: frft(f, plan))
        _, inverse = peak(lambda: inverse_frft(F, (f.t0, f.dt, f.n)))
    finally:
        tracemalloc.stop()
    assert seen >= 16 * n, "tracemalloc does not see numpy's arrays"
    assert forward <= 3 * 16 * n
    assert inverse <= 3 * 16 * n


@pytest.mark.parametrize("case", ["natural", "folded", "bluestein", "identity",
                                  "reflection", "inverse"])
def test_transforms_leave_their_input_alone(case, bluestein_calls):
    # the core reuses its own buffers in place: the input's values stay
    # bitwise unchanged, a second call gives the same values, and the result
    # shares no memory with the input
    f = gaussian_signal(GRID, sigma=1.0, carrier=0.5)
    angle = as_angle(math.pi / 3)
    du = 2.0 * math.pi * angle.sin_alpha / (256 * f.dt)    # folds n = 1024 onto N = 256
    F = frft(f, FrFTPlan.for_signal(f, angle))
    source, call = {
        "natural": (f, lambda: frft(f, FrFTPlan.for_signal(f, angle)).values),
        "folded": (f, lambda: spectrum_on_grid(f, angle, -150 * du, du, 300)),
        "bluestein": (f, lambda: spectrum_on_grid(f, angle, -6.0, 0.05, 241)),
        "identity": (f, lambda: frft(f, FrFTPlan.for_signal(f, 2.0 * math.pi)).values),
        "reflection": (f, lambda: frft(f, FrFTPlan.for_signal(f, -math.pi)).values),
        "inverse": (F, lambda: inverse_frft(F, GRID).values),
    }[case]
    before = source.values.copy()
    bluestein_calls.clear()
    first, second = call(), call()
    assert source.values.tobytes() == before.tobytes()
    assert first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, source.values)
    assert bool(bluestein_calls) == (case == "bluestein")
