import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frwave import (
    BiorthoWaveletPair,
    RieszLowerBoundZero,
    SampledSignal,
    TailTooFat,
    as_angle,
    battery,
    biortho_profile,
    cdf53_system,
    check_biorthogonal,
    chirp_modulate,
    dual_scaling,
    haar_system,
    hat_signal,
    periodization_gram,
    riesz_bounds,
    riesz_frame_bounds,
    sample_at,
    spectrum_on_grid,
    translate_gram,
    wavelet_synthesize,
)
from frwave.cli import BATTERY_GRID, _builtin_bank, _scaling_pair_for_bank
from frwave.mra import level_atom, level_atoms

from conftest import gaussian_signal, max_abs


def chirped_hat(alpha, dt=2.0 ** -9, margin=2.0):
    n = int(round((2.0 + 2.0 * margin) / dt)) + 1
    return chirp_modulate(hat_signal((-1.0 - margin, dt, n)), alpha, -1)


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3, 2.0 * math.pi / 3])
def test_haar_periodization_is_one(alpha):
    phi, _ = haar_system(alpha)
    prof = periodization_gram(phi, alpha)
    vals = prof.real_values()
    assert max_abs(vals, 1.0) < 1e-2
    b = riesz_bounds(prof)
    assert 0.99 < b.lower <= b.upper < 1.001


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3])
def test_hat_periodization_matches_closed_form(alpha):
    # classical periodization of the hat: sum |hat(w+2pi k)|^2 = (2+cos w)/3;
    # at angle alpha the argument reads u*csc(alpha)
    angle = as_angle(alpha)
    phi = chirped_hat(angle)
    prof = periodization_gram(phi, angle)
    u = prof.grid
    want = (2.0 + np.cos(u * angle.csc_alpha)) / 3.0
    assert max_abs(prof.real_values(), want) < 1e-5
    b = riesz_bounds(prof)
    assert b.lower == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert b.upper == pytest.approx(1.0, abs=1e-5)


def test_tail_gate_fires_on_undertruncated_sum():
    phi, _ = haar_system(math.pi / 2)
    with pytest.raises(TailTooFat):
        periodization_gram(phi, math.pi / 2, kmax=2, tail_tol=1e-3)


def test_periodization_zero_detected_by_dual_construction():
    # width-2 box: its transform is 2 e^{-iw} sinc(w), which vanishes on the
    # whole shifted lattice at w = pi, so the periodization has a zero
    dt = 2.0 ** -8
    n = int(round(4.0 / dt)) + 1
    t = -1.0 + dt * np.arange(n)
    vals = np.zeros(n, dtype=np.complex128)
    vals[(t > 0.0) & (t < 2.0)] = 1.0
    vals[np.abs(t) < 1e-12] = 0.5
    vals[np.abs(t - 2.0) < 1e-12] = 0.5
    box2 = SampledSignal(-1.0, dt, vals)
    with pytest.raises(RieszLowerBoundZero):
        dual_scaling(box2, math.pi / 2, grid_count=128, kmax=32, tau_pos=1e-4)


def test_translate_gram_haar_identity():
    phi, _ = haar_system(math.pi / 3)
    g = translate_gram(phi, phi, math.pi / 3, n_gram=4)
    assert max_abs(g, np.eye(9)) < 2e-3


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3])
def test_dual_scaling_hat_biorthogonal(alpha):
    angle = as_angle(alpha)
    phi = chirped_hat(angle)
    dual = dual_scaling(phi, angle)
    rep = check_biorthogonal(phi, dual, angle, tol=2e-2)
    assert rep.overall_pass
    # the spectral-division dual comes out with constant 2 pi sin(alpha)
    assert rep.extras["constant"] == pytest.approx(abs(angle.period), rel=1e-3)


@pytest.mark.parametrize("dt", [2.0 ** -6, 2.0 ** -8])
@pytest.mark.parametrize("alpha", [2.5, 4.0, 5.5])
def test_dual_scaling_hat_biorthogonal_over_the_circle(alpha, dt):
    # the dual of a copy on dt against the hat on 2^-7; a 2^-6 hat against
    # its own dual aliases at the stack's ends (|k| = 64, the grid's period
    # 2 pi |sin a|/dt = 64 P) and is refused as TailTooFat
    angle = as_angle(alpha)
    phi = chirped_hat(angle, dt=2.0 ** -7, margin=1.0)
    dual = dual_scaling(chirped_hat(angle, dt=dt, margin=1.0), angle)
    rep = check_biorthogonal(phi, dual, angle, tol=2e-2)
    assert rep.overall_pass
    assert rep.extras["constant"] == pytest.approx(abs(angle.period), rel=1e-3)


def test_dual_workload_stacks_skip_bluestein(bluestein_calls):
    # a 2^-7 hat against the duals of its 2^-6 and 2^-8 copies: every stacked
    # spectrum is a periodic DFT (theta = +-2 pi/N, N <= n + m - 1) except the
    # 2^-8 dual's own biorthogonality stack, 5121 + 33024 points against
    # N = 65536
    angle = as_angle(math.pi / 3)
    phi = chirped_hat(angle, dt=2.0 ** -7, margin=1.0)
    coarse = dual_scaling(chirped_hat(angle, dt=2.0 ** -6, margin=1.0), angle)
    assert check_biorthogonal(phi, coarse, angle).overall_pass
    fine = dual_scaling(chirped_hat(angle, dt=2.0 ** -8, margin=1.0), angle)
    assert not bluestein_calls
    assert check_biorthogonal(phi, fine, angle).overall_pass
    assert bluestein_calls == [fine.n]


def test_check_biorthogonal_rejects_gaussian_pair():
    g = gaussian_signal((-12.0, 2.0 ** -8, 24 * 256), sigma=1.0)
    rep = check_biorthogonal(g, g, math.pi / 2)
    assert not rep.overall_pass
    # both criteria agree on the failure
    v = rep.verdicts
    assert not v["spectral_constancy"].passed
    assert not v["direct_gram"].passed


def test_translate_expansion_reconstructs_span_element():
    angle = as_angle(math.pi / 3)
    phi, _ = haar_system(angle)
    grid = (-12.0, 2.0 ** -7, 3072)
    rng = np.random.default_rng(5)
    coefs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = SampledSignal(grid[0], grid[1],
                      level_atoms(phi, angle, 0, -4, 4, grid).synthesize(coefs))
    # analysis on the translates |n| <= 8, synthesis over the Gram constant
    translates = level_atoms(phi, angle, 0, -8, 8, grid)
    a = translates.analyze(f.values)
    c = translate_gram(phi, phi, angle, 0)[0, 0]
    recon = SampledSignal(grid[0], grid[1], translates.synthesize(a / c))
    assert f.minus(recon).norm() < 1e-2 * f.norm()
    assert max_abs(a[4:13], coefs) < 1e-2 * float(np.max(np.abs(coefs)))


def test_biortho_profile_tail_reported():
    phi, _ = haar_system(math.pi / 2)
    prof = biortho_profile(phi, phi, math.pi / 2)
    assert 0.0 < prof.tail < 5e-2 * abs(prof.mean())


@pytest.fixture(scope="module")
def mixed_step_pair():
    """Chirped hat on 2^-7 and the dual of its 2^-6 copy at pi/3, with a
    grid on phi's step that holds their translates by |n| <= 4."""
    angle = as_angle(math.pi / 3)
    phi = chirped_hat(angle, dt=2.0 ** -7, margin=1.0)
    dual = dual_scaling(chirped_hat(angle, dt=2.0 ** -6, margin=1.0), angle)
    lo = min(phi.t0, dual.t0) - 5.0
    hi = max(phi.t_end, dual.t_end) + 5.0
    grid = (lo, phi.dt, int(math.ceil((hi - lo) / phi.dt)) + 1)
    return angle, phi, dual, grid


def test_translate_gram_mixed_steps_matches_pointwise_oracle(mixed_step_pair):
    angle, phi, dual, grid = mixed_step_pair
    t0, dt, count = grid
    t = t0 + dt * np.arange(count)

    def atoms(g):
        # A[0,n] g = g_c(t - n) e^{-i cot (t^2 - n^2)/2}, g_c = g e^{i s^2 cot/2}
        g_c = chirp_modulate(g, angle, 1)
        return np.stack([sample_at(g_c, t - n)
                         * np.exp(-0.5j * angle.cot_alpha * (t * t - n * n))
                         for n in range(-4, 5)])

    w = np.full(count, dt)
    w[[0, -1]] *= 0.5
    want = (atoms(phi) * w) @ np.conj(atoms(dual).T)
    got = translate_gram(phi, dual, angle, n_gram=4)
    assert max_abs(got, want) < 1e-12 * max_abs(want)


def test_translate_gram_off_dyadic_step_matches_dense_gram():
    # S = 1/dt is no integer: every lag row is resampled on its own. Entry
    # (n, m) is the trapezoid sum over phi's own samples, padded by one zero
    # each side and carried along with translate n, t = s + n
    angle = as_angle(math.pi / 3)
    phi = chirped_hat(angle, dt=0.003, margin=0.5)
    dual = dual_scaling(phi, angle, out_grid=(phi.t0, phi.dt, phi.n))
    s = phi.t0 + phi.dt * np.arange(-1, phi.n + 1)
    w = np.full(s.size, phi.dt)
    w[[0, -1]] *= 0.5
    phi_c = np.pad(chirp_modulate(phi, angle, 1).values, 1)
    dual_c = chirp_modulate(dual, angle, 1)
    lag = {d: sample_at(dual_c, s - d) for d in range(-4, 5)}
    half_cot = 0.5 * angle.cot_alpha
    want = np.empty((5, 5), dtype=complex)
    for n in range(-2, 3):
        t = s + n
        # A[0,n] g (t) = g_c(t - n) e^{-i cot (t^2 - n^2)/2}
        atom = phi_c * np.exp(-1j * half_cot * (t * t - n * n))
        for m in range(-2, 3):
            other = lag[m - n] * np.exp(-1j * half_cot * (t * t - m * m))
            want[n + 2, m + 2] = np.sum(w * atom * np.conj(other))
    got = translate_gram(phi, dual, angle, n_gram=2)
    assert max_abs(got, want) < 1e-12 * max_abs(want)


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3, 2.5])
@pytest.mark.parametrize("dt", [0.003, 0.0071, 2.0 ** -7])
def test_translate_gram_hat_matches_closed_form(alpha, dt):
    # the hat's integer-translate correlations are 2/3 at lag 0 and 1/6 at
    # lags +-1; the trapezoid sum of the piecewise-quadratic products is off
    # by O(dt^2), dt^2/3 at lag 0 when the kinks are grid points
    angle = as_angle(alpha)
    phi = chirped_hat(angle, dt=dt, margin=1.0)
    n = np.arange(-4, 5)[:, None]
    m = n.T
    lags = np.select([n == m, abs(n - m) == 1], [2.0 / 3.0, 1.0 / 6.0], 0.0)
    exact = np.exp(0.5j * angle.cot_alpha * (n * n - m * m)) * lags
    assert max_abs(translate_gram(phi, phi, angle, n_gram=4), exact) <= dt * dt / 2.0


def test_translate_gram_chirp_toeplitz_identity(mixed_step_pair):
    # G[n, m] exp(-i cot n (n - m)) depends on n - m only
    angle, phi, dual, grid = mixed_step_pair
    g = translate_gram(phi, dual, angle, n_gram=4)
    n = np.arange(-4, 5)[:, None]
    m = np.arange(-4, 5)[None, :]
    toeplitz = g * np.exp(-1j * angle.cot_alpha * n * (n - m))
    for d in range(-8, 9):
        diag = np.diagonal(toeplitz, -d)
        assert max_abs(diag, diag[0]) < 1e-12 * max_abs(g)


def full_gram(phi, dual, angle, n_gram):
    """translate_gram's sum as the full product of both translate families,
    on the finer step over both generators' supports and one more than
    n_gram on each side."""
    dt = min(phi.dt, dual.dt)
    lo = min(phi.t0, dual.t0) - n_gram - 1.0
    hi = max(phi.t_end, dual.t_end) + n_gram + 1.0
    span = (0, -n_gram, n_gram, (lo, dt, int(math.ceil((hi - lo) / dt)) + 1))
    return level_atoms(phi, angle, *span).gram(level_atoms(dual, angle, *span))


@pytest.fixture(scope="module", params=[
    (bank, alpha) for bank in ("haar", "cdf53") for alpha in (math.pi / 2, math.pi / 3, 2.5)],
    ids=lambda p: f"{p[0]}-{p[1]:.4f}")
def report_pairs(request):
    """The four generator pairs whose translate Grams a report takes."""
    name, alpha = request.param
    bank = _builtin_bank(name, alpha)
    phi, phi_dual = _scaling_pair_for_bank(name, bank)
    pair = wavelet_synthesize(bank, phi, phi_dual)
    return pair.alpha, [(phi, phi_dual), (pair.psi, pair.psi_dual),
                        (pair.psi, phi_dual), (pair.psi_dual, phi)]


def test_translate_gram_lags_match_full_product_on_report_pairs(report_pairs):
    angle, pairs = report_pairs
    for phi, dual in pairs:
        got = translate_gram(phi, dual, angle)
        want = full_gram(phi, dual, angle, 8)
        assert max_abs(got, want) < 1e-13 * phi.norm() * dual.norm()


def test_translate_gram_lags_on_either_generator(mixed_step_pair):
    # phi has the finer step: (dual, phi) takes the lags on phi's samples
    # and returns conj(G^T) of the (phi, dual) call
    angle, phi, dual, _ = mixed_step_pair
    forward = translate_gram(phi, dual, angle, n_gram=4)
    swapped = translate_gram(dual, phi, angle, n_gram=4)
    assert np.array_equal(swapped, np.conj(forward).T)
    for a, b, got in ((phi, dual, forward), (dual, phi, swapped)):
        assert max_abs(got, full_gram(a, b, angle, 4)) < 1e-13 * a.norm() * b.norm()


def test_translate_gram_of_a_generator_cut_at_nonzero_ends():
    # a Gaussian cut at +-4 keeps its end samples (3e-4): the lags' zero
    # padding gives them the full trapezoid weight they have on a grid that
    # holds every translate inside its ends
    angle = as_angle(math.pi / 3)
    g = gaussian_signal((-4.0, 2.0 ** -7, 1025), alpha=angle)
    got = translate_gram(g, g, angle, n_gram=2)
    assert max_abs(got, full_gram(g, g, angle, 2)) < 1e-13 * g.norm_sq()


def shifted_hat(angle, dt, shift):
    """Chirped max(0, 1 - |t - shift|) on [-2, 2] with step dt."""
    n = int(round(4.0 / dt)) + 1
    t = -2.0 + dt * np.arange(n)
    hat = SampledSignal(-2.0, dt, np.maximum(0.0, 1.0 - np.abs(t - shift)))
    return chirp_modulate(hat, angle, -1)


ANGLES = st.one_of(
    st.floats(1e-4, 2.0 * math.pi - 1e-4),
    # within 0.05 rad of 0 or pi, on either side
    st.tuples(st.sampled_from([0.0, math.pi]), st.sampled_from([1.0, -1.0]),
              st.floats(1e-4, 0.05)).map(lambda c: c[0] + c[1] * c[2]),
).filter(lambda a: as_angle(a).is_regular)
STEPS = st.sampled_from([2.0 ** -6, 2.0 ** -7, 2.0 ** -8])


@settings(max_examples=40, deadline=None)
@given(alpha=ANGLES, n_gram=st.integers(0, 8), dt=STEPS, dt_dual=STEPS,
       shift=st.floats(-0.5, 0.5))
def test_translate_gram_adjoint_and_chirp_toeplitz(alpha, n_gram, dt, dt_dual, shift):
    angle = as_angle(alpha)
    phi = shifted_hat(angle, dt, 0.0)
    dual = shifted_hat(angle, dt_dual, shift)
    g = translate_gram(phi, dual, angle, n_gram)
    scale = max_abs(g)
    assert max_abs(g, full_gram(phi, dual, angle, n_gram)) < 1e-13 * phi.norm() * dual.norm()
    assert max_abs(translate_gram(dual, phi, angle, n_gram), np.conj(g).T) < 1e-13 * scale
    n = np.arange(-n_gram, n_gram + 1)[:, None]
    toeplitz = g * np.exp(-1j * angle.cot_alpha * n * (n - n.T))
    # phases of up to |cot| (2 n_gram)^2 rad carry that times eps of
    # rounding: 5.7e-10 rad at alpha = 1e-4, n_gram = 8
    phase_err = np.finfo(float).eps * abs(angle.cot_alpha) * (2 * n_gram) ** 2
    for d in range(-2 * n_gram, 2 * n_gram + 1):
        diag = np.diagonal(toeplitz, -d)
        assert max_abs(diag, diag[0]) < (1e-12 + phase_err) * scale


def angle_free_moduli(alpha):
    """|translate Gram| of hats on 2^-7 and 2^-6, and the frame ratios of a
    pair of hats on 2^-6 and 2^-8 against a battery on 2^-7: every family
    but the lag generator's is resampled between the generator's samples."""
    angle = as_angle(alpha)
    gram = translate_gram(chirped_hat(angle, 2.0 ** -7, 1.0),
                          chirped_hat(angle, 2.0 ** -6, 1.0), angle, 8)
    # riesz_frame_bounds reads no bank
    pair = BiorthoWaveletPair(chirped_hat(angle, 2.0 ** -6, 1.0),
                              chirped_hat(angle, 2.0 ** -8, 1.0), angle, None)
    batt = battery(3, 3, BATTERY_GRID, alpha=angle, band_min=1.0)
    _, primal, dual = riesz_frame_bounds(pair, batt, (-3, 4), (-32, 32))
    return np.abs(gram), np.array(primal + dual)


@pytest.fixture(scope="module")
def quarter_turn_moduli():
    return angle_free_moduli(math.pi / 2)


@settings(max_examples=30, deadline=None)
@given(alpha=ANGLES)
def test_gram_modulus_and_frame_ratios_are_angle_free(quarter_turn_moduli, alpha):
    # chirp multiplication is unitary: both are the classical values of the
    # dechirped hats. The chirps that the generators, the battery and the
    # atoms carry are the same expressions of t and cancel, so no phase
    # rounding enters the moduli (resampling the chirped hats drifted 2.8e-4
    # at alpha = 0.005, 0.5 at 1e-4)
    gram0, ratios0 = quarter_turn_moduli
    gram, ratios = angle_free_moduli(alpha)
    assert max_abs(gram, gram0) < 1e-12 * max_abs(gram0)
    assert max_abs(ratios, ratios0) < 1e-12 * max_abs(ratios0)


@pytest.mark.parametrize("alpha", [math.pi / 3, 2.5])
def test_translate_spectrum_is_spectrum_of_translate_atom(alpha):
    angle = as_angle(alpha)
    phi, _, _ = cdf53_system(angle)
    grid = (-6.0, phi.dt, 11 * 1024 + 1)
    u0, du, m = -24.0, 0.05, 961
    u = u0 + du * np.arange(m)
    theta = spectrum_on_grid(phi, angle, u0, du, m)
    for n in (-3, 2):
        # the translate's transform: e^{i n^2 cot/2 - i n u csc} Theta(u)
        got = np.exp(1j * (n * n * angle.cot_alpha / 2.0)
                     - 1j * n * angle.csc_alpha * u) * theta
        want = spectrum_on_grid(level_atom(phi, angle, 0, n, grid), angle, u0, du, m)
        assert max_abs(got, want) < 1e-12 * max_abs(want)
