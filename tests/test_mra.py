import math

import numpy as np
import pytest

from frwave import (
    MRALevel,
    NonConvergent,
    SampledSignal,
    ScalingFilter,
    SupportTooSmall,
    as_angle,
    auxiliary_function,
    box_signal,
    cdf53_system,
    cdf53_taps,
    chirp_modulate,
    fractional_taps,
    haar_system,
    haar_taps,
    hat_signal,
    level_atom,
    level_atoms,
    project,
    projection_residual_curve,
    refine_cascade,
    sample_at,
    scaling_filter,
    spectrum_on_grid,
    two_scale_defect,
)
from frwave import mra

from conftest import gaussian_signal, max_abs


def test_level_zero_atom_is_chirped_translate():
    angle = as_angle(math.pi / 3)
    phi, _ = haar_system(angle)
    grid = (-6.0, 2.0 ** -10, 12 * 1024 + 1)
    t = grid[0] + grid[1] * np.arange(grid[2])
    a = level_atom(phi, angle, 0, 3, grid)
    b = sample_at(phi, t - 3) * np.exp(-3j * (t - 3) * angle.cot_alpha)
    assert max_abs(a.values, b) < 1e-12


def per_atom(phi, angle, j, k, grid):
    """A[j,k] phi by its defining formula, 2^(j/2) phi_c(s) e^{-i cot (t^2 - b^2)/2}
    with s = 2^j t - k, b = k 2^-j: one sample_at of the dechirped samples
    phi_c = phi e^{i s^2 cot/2} and one exp."""
    t0, dt, count = grid
    t = t0 + dt * np.arange(count)
    s = (2.0 ** j) * t - k
    b = k * 2.0 ** (-j)
    return (2.0 ** (j / 2.0)) * sample_at(chirp_modulate(phi, angle, 1), s) * np.exp(
        -1j * (angle.cot_alpha / 2.0) * (t * t - b * b))


# profile step, grid, and whether the rows are windows of one union grid
ATOM_CASES = {
    "same_step": (2.0 ** -7, (-4.0, 2.0 ** -7, 1025), True),
    "mixed_step": (2.0 ** -6, (-4.0, 2.0 ** -8, 2049), True),
    "off_dyadic": (2.0 ** -6, (-3.0, 0.003, 2001), False),
}


@pytest.mark.parametrize("j", [-3, -1, 0, 1, 3])
@pytest.mark.parametrize("case", sorted(ATOM_CASES))
def test_level_atoms_match_per_atom_formula(case, j):
    phi_dt, grid, windows = ATOM_CASES[case]
    angle = as_angle(math.pi / 3)
    phi, _, _ = cdf53_system(angle, dt=phi_dt)
    atoms = level_atoms(phi, angle, j, -2, 2, grid)
    # windows are a view of the union grid; per-row resampling owns its rows
    assert atoms.rows.flags.owndata is not windows
    want = np.stack([per_atom(phi, angle, j, k, grid) for k in range(-2, 3)])
    assert max_abs(atoms.values(), want) < 1e-13 * max_abs(want)


@pytest.mark.parametrize("j", [-1, 0, 1])
@pytest.mark.parametrize("alpha", [math.pi / 3, 0.05, 0.01, 0.005])
def test_level_atoms_of_a_hat_match_the_closed_form(alpha, j):
    # a chirped hat on 2^-6 read on a 2^-8 grid: every row is between its
    # samples. Resampling the dechirped hat leaves the sinc error of the hat's
    # kinks (2.96e-3 of the peak at j = -1, the same at every angle);
    # resampling the chirp itself lost 2.87e-2 at alpha = 0.005.
    angle = as_angle(alpha)
    phi = chirp_modulate(hat_signal((-2.0, 2.0 ** -6, 4 * 64 + 1)), angle, -1)
    grid = (-8.0, 2.0 ** -8, 16 * 256 + 1)
    t = grid[0] + grid[1] * np.arange(grid[2])
    ks = np.arange(-2, 3)[:, None]
    s = (2.0 ** j) * t - ks
    b = ks * 2.0 ** (-j)
    want = (2.0 ** (j / 2.0)) * np.maximum(0.0, 1.0 - np.abs(s)) * np.exp(
        -0.5j * angle.cot_alpha * (t * t - b * b))
    got = level_atoms(phi, angle, j, -2, 2, grid).values()
    assert max_abs(got, want) <= 3.0e-3 * max_abs(want)


@pytest.mark.parametrize("grid", [(-4.0, 2.0 ** -8, 2049), (-3.0, 0.003, 2001)],
                         ids=["union", "per-row"])
def test_level_atoms_dechirps_only_the_generators_own_samples(grid, monkeypatch):
    # phi_c = phi e^{i s^2 cot/2} is formed once on phi's samples and every
    # row is resampled from it; the only other exps are the row and column
    # phases, one per atom and one per grid point
    angle = as_angle(math.pi / 3)
    phi, _, _ = cdf53_system(angle, dt=2.0 ** -6)
    phi_c = chirp_modulate(phi, angle, 1)
    real_exp, real_resample = np.exp, mra.resample
    exp_sizes, sources = [], []
    monkeypatch.setattr(np, "exp", lambda x: exp_sizes.append(np.size(x)) or real_exp(x))
    monkeypatch.setattr(mra, "resample",
                        lambda sig, g: sources.append(sig) or real_resample(sig, g))
    for j in (-1, 0, 1):
        exp_sizes.clear()
        sources.clear()
        level_atoms(phi, angle, j, -2, 2, grid)
        assert sorted(exp_sizes) == sorted([phi.n, 5, grid[2]])
        assert sources and all(src is sources[0] for src in sources)
        assert (sources[0].t0, sources[0].dt) == (phi.t0, phi.dt)
        assert np.array_equal(sources[0].values, phi_c.values)


def test_project_matches_per_atom_oracle():
    angle = as_angle(math.pi / 3)
    phi, _, _ = cdf53_system(angle, dt=2.0 ** -7)
    box, _ = haar_system(angle, dt=2.0 ** -7)
    grid = (-4.0, 2.0 ** -7, 1025)
    f = gaussian_signal(grid, sigma=1.0, carrier=1.0, alpha=angle)
    want = np.zeros(grid[2], dtype=np.complex128)
    for k in range(-8, 9):
        dual = SampledSignal(grid[0], grid[1], per_atom(box, angle, 1, k, grid))
        want += f.inner(dual) * per_atom(phi, angle, 1, k, grid)
    got = project(f, MRALevel(1, phi, box, angle), k_proj=8)
    assert max_abs(got.values, want) < 1e-12 * max_abs(want)


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3, 3.0 * math.pi / 5])
def test_haar_two_scale_exact(alpha):
    phi, h = haar_system(alpha)
    assert two_scale_defect(phi, h) < 1e-12


def test_cdf53_two_scale_exact():
    phi, h, _ = cdf53_system(math.pi / 3)
    assert two_scale_defect(phi, h) < 1e-12


def test_haar_filter_recovery():
    phi, _ = haar_system(math.pi / 2, dt=2.0 ** -14)
    h = scaling_filter(phi, math.pi / 2, (-2, 3), tau_tap=1e-4)
    assert abs(h.tap(0) - 1.0 / math.sqrt(2.0)) < 1e-4
    assert abs(h.tap(1) - 1.0 / math.sqrt(2.0)) < 1e-4
    assert abs(h.tap(-1)) < 1e-4 and abs(h.tap(2)) < 1e-4


def test_cdf53_filter_recovery_biorthogonal():
    # analysis taps come out of the primal/dual cross inner products
    from frwave.banks import spectral_scaling_from_filter
    angle = as_angle(math.pi / 2)
    phi, h, hd = cdf53_system(angle, dt=2.0 ** -10)
    grid = (phi.t0 - 2.0, phi.dt, phi.n + int(round(4.0 / phi.dt)))
    phid = spectral_scaling_from_filter(hd, grid)
    got = scaling_filter(phi, angle, (-4, 4), phi_dual=phid, tau_tap=1e-3)
    for n in range(-4, 5):
        assert abs(got.tap(n) - h.tap(n)) < 1e-3


def test_scaling_filter_support_gate():
    phi, _ = haar_system(math.pi / 2, dt=2.0 ** -12)
    with pytest.raises(SupportTooSmall):
        scaling_filter(phi, math.pi / 2, (0, 1))


@pytest.mark.parametrize("alpha", [math.pi / 3, math.pi / 4, 2.0 * math.pi / 3])
def test_auxiliary_function_periodicity(alpha):
    angle = as_angle(alpha)
    _, h = haar_system(angle)
    u = np.linspace(0.0, abs(angle.period), 65)
    assert max_abs(auxiliary_function(h, u),
                   auxiliary_function(h, u + angle.period)) < 1e-10


def test_auxiliary_function_quarter_turn_is_classical_symbol():
    angle = as_angle(math.pi / 2)
    _, h = haar_system(angle)
    w = np.linspace(-math.pi, math.pi, 41)
    want = (1.0 + np.exp(-1j * w)) / 2.0  # Haar m0
    assert max_abs(auxiliary_function(h, w), want) < 1e-12


def test_two_scale_spectral_relation_haar():
    # Theta(u) = e^{i 3u^2 cot/8} Lambda(u/2) Theta(u/2) on [-P, P], P = 2 pi sin a
    angle = as_angle(math.pi / 3)
    phi, h = haar_system(angle)
    count = 512
    du = 2.0 * abs(angle.period) / count
    u = -abs(angle.period) + du * np.arange(count + 1)
    theta = spectrum_on_grid(phi, angle, u[0], du, u.size)
    theta_half = spectrum_on_grid(phi, angle, u[0] / 2.0, du / 2.0, u.size)
    chirp = np.exp(1j * (3.0 * angle.cot_alpha / 8.0) * u * u)
    assert max_abs(theta, chirp * auxiliary_function(h, u / 2.0) * theta_half) < 1e-6


def test_cascade_haar_reconverges():
    angle = as_angle(math.pi / 3)
    phi, h = haar_system(angle, dt=2.0 ** -8)
    out, inc = refine_cascade(h, (phi.t0, phi.dt, phi.n), iterations=10)
    assert out.minus(phi).norm() < 1e-3
    assert inc[-1] < 1e-10


def test_cascade_cdf53_primal_converges_to_hat():
    angle = as_angle(math.pi / 2)
    dt = 2.0 ** -8
    n = int(round(6.0 / dt)) + 1
    grid = (-3.0, dt, n)
    _, h, _ = cdf53_system(angle)
    out, inc = refine_cascade(h, grid, iterations=30)
    hat = chirp_modulate(hat_signal(grid), angle, -1)
    assert out.minus(hat).norm() < 1e-3
    assert inc[-1] < inc[0]


def test_cascade_rejects_bad_normalization():
    angle = as_angle(math.pi / 2)
    bad = ScalingFilter(np.array([1.0, 1.0]), 0, angle)  # sums to 2, not sqrt2
    with pytest.raises(NonConvergent):
        refine_cascade(bad, (-1.0, 2.0 ** -6, 129))


def test_projection_reproduces_resolution_element():
    angle = as_angle(math.pi / 3)
    phi, _ = haar_system(angle)
    grid = (-8.0, 2.0 ** -7, 2048)
    f = SampledSignal(grid[0], grid[1],
                      (level_atom(phi, angle, 0, 1, grid).values
                       - 0.5j * level_atom(phi, angle, 0, -2, grid).values))
    pf = project(f, MRALevel(0, phi, phi, angle), k_proj=16)
    assert pf.minus(f).norm() < 1e-2


def test_projection_residual_decreases_for_smooth_signal():
    angle = as_angle(math.pi / 3)
    phi, _ = haar_system(angle)
    grid = (-8.0, 2.0 ** -7, 2048)
    f = gaussian_signal(grid, sigma=1.0, carrier=1.0, alpha=angle)
    curve = projection_residual_curve(f, phi, phi, angle, range(0, 5), k_proj=128)
    assert curve[-1] < 0.2 * curve[0]
    assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))


def test_chirped_box_is_haar_scaling_profile():
    # the cascade's default start
    angle = as_angle(math.pi / 4)
    grid = (-1.0, 2.0 ** -8, 3 * 256 + 1)
    box = chirp_modulate(box_signal(grid), angle, -1)
    phi, _ = haar_system(angle, dt=2.0 ** -8)  # same grid by construction
    assert box.t0 == phi.t0 and box.n == phi.n
    assert max_abs(box.values, phi.values) < 1e-12


def test_classical_taps_undo_the_angle():
    h, off, hd, offd = cdf53_taps()
    for alpha in (math.pi / 2, math.pi / 3, 0.05, 3.1):
        assert max_abs(fractional_taps(h, off, alpha).classical_taps, h) < 1e-15
        assert max_abs(fractional_taps(hd, offd, alpha).classical_taps, hd) < 1e-13


def test_zero_order_counts_and_divides():
    # (1 + z)^2 (1 - z) (2 + z) = 2 + 3z - z^2 - 3z^3 - z^4
    coef = np.array([2.0, 3.0, -1.0, -3.0, -1.0])
    order, rest = mra.zero_order(coef, -1.0)
    assert order == 2 and max_abs(rest, [2.0, -1.0, -1.0]) < 1e-15
    assert mra.zero_order(coef, 1.0)[0] == 1
    assert mra.zero_order(np.array([1.0]), -1.0) == (0, np.array([1.0]))


SQ2 = math.sqrt(2.0)


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3, 2.5, 0.05, 3.1])
def test_decay_exponent_closed_forms(alpha):
    h, off, hd, offd = cdf53_taps()
    haar = fractional_taps(*haar_taps(), alpha)
    # the box decays like 1/w and the hat like 1/w^2: L = 1, so s = N exactly
    assert abs(mra.decay_exponent(haar) - 1.0) < 1e-12
    assert abs(mra.decay_exponent(fractional_taps(h, off, alpha)) - 2.0) < 1e-12
    # the cdf53 dual, L = 2 - cos w: below the exponent 2 - log2(5/2) = 0.678
    # that the cycle {2pi/3, 4pi/3} allows, above 1/2 + 0.05
    assert 0.65 < mra.decay_exponent(fractional_taps(hd, offd, alpha)) < 0.678
    # stretched Haar: |L| = 2 on the cycle, where the box's transform vanishes;
    # the lazy filter sqrt(2) delta has no zero at pi. Neither is certified.
    stretched = fractional_taps(np.array([1.0, 0.0, 0.0, 1.0]) / SQ2, 0, alpha)
    assert mra.decay_exponent(stretched) < 0.0
    assert mra.decay_exponent(fractional_taps(np.array([SQ2]), 0, alpha)) == 0.0
    # a symbol that vanishes everywhere has no scaling function to certify
    assert mra.decay_exponent(ScalingFilter(np.zeros(2), 0, as_angle(alpha))) == -math.inf
