import math

import numpy as np
import pytest

from frwave import (
    DegenerateAngle,
    FrFTPlan,
    InputError,
    SampledSignal,
    SpectrumSamples,
    as_angle,
    frft,
    read_signal_csv,
    read_spectrum_csv,
    resample,
    sample_at,
    write_signal_csv,
    write_spectrum_csv,
)
from frwave import grids
from frwave.grids import IDENTITY, REFLECTION, REGULAR, reflected, trap_weights

from conftest import gaussian_signal


def test_angle_classification():
    assert as_angle(math.pi / 2).klass == REGULAR
    assert as_angle(0.0).klass == IDENTITY
    assert as_angle(2.0 * math.pi).klass == IDENTITY
    assert as_angle(-4.0 * math.pi).klass == IDENTITY
    assert as_angle(math.pi).klass == REFLECTION
    assert as_angle(3.0 * math.pi).klass == REFLECTION
    assert as_angle(math.pi + 1e-12).klass == REFLECTION


def test_degenerate_angle_rejects_trig():
    a = as_angle(0.0)
    with pytest.raises(DegenerateAngle):
        a.require_regular()
    with pytest.raises(DegenerateAngle):
        _ = a.period


def test_angle_period_and_negation():
    a = as_angle(math.pi / 3)
    assert a.period == pytest.approx(2.0 * math.pi * math.sin(math.pi / 3))
    assert a.negated().alpha == -math.pi / 3
    assert a.cot_alpha == pytest.approx(1.0 / math.tan(math.pi / 3))


def test_trapezoid_norm_gaussian():
    # integral of exp(-t^2) over R is sqrt(pi)
    g = gaussian_signal((-12.0, 2.0 ** -7, 24 * 128), sigma=1.0)
    assert g.norm_sq() == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_inner_requires_shared_grid():
    a = SampledSignal(0.0, 0.5, np.ones(8))
    b = SampledSignal(0.25, 0.5, np.ones(8))
    with pytest.raises(ValueError):
        a.inner(b)


def test_sample_at_exact_hits():
    sig = SampledSignal(-1.0, 0.25, np.arange(9, dtype=np.complex128))
    got = sample_at(sig, np.array([-1.0, 0.0, 1.0]))
    assert np.allclose(got, [0.0, 4.0, 8.0])
    # off the grid but on a hit-aligned point outside: zero
    assert sample_at(sig, np.array([2.0]))[0] == 0.0


def test_sample_at_bandlimited_interpolation():
    # a signal band-limited below the grid Nyquist is reproduced off-grid
    grid = (-16.0, 0.25, 129)
    t = grid[0] + grid[1] * np.arange(grid[2])
    sig = SampledSignal(grid[0], grid[1], np.exp(1j * 2.0 * t))
    pts = np.array([0.1, -0.37, 1.234])
    got = sample_at(sig, pts)
    assert np.max(np.abs(got - np.exp(1j * 2.0 * pts))) < 2e-2


def test_reflected_and_resample():
    g = gaussian_signal((-8.0, 2.0 ** -5, 513), center=1.0)
    r = reflected(g)
    assert r.t0 == pytest.approx(-g.t_end)
    # reflected Gaussian is centered at -1
    t = r.grid
    assert np.allclose(r.values, np.exp(-(t + 1.0) ** 2 / 2.0), atol=1e-12)
    back = resample(r, (g.t0, g.dt, g.n))
    assert back.values.shape == g.values.shape


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# source: a modulated Gaussian with noise on (-3, 1/8, 49), so it is neither
# smooth nor band-limited and the sinc sum leaks well outside [-3, 3]
RESAMPLE_GRIDS = {
    "ratio 1/2": (-5.0, 0.0625, 300),
    "ratio 2": (-5.0, 0.25, 60),
    "ratio 2/3": (-5.0, 0.125 * 2.0 / 3.0, 300),
    "ratio 1, half-step offset": (-5.0625, 0.125, 120),
    "ratio 3/2, off-grid start": (-5.01, 0.1875, 90),
    "past both ends": (-40.0, 0.125 * 2.0 / 3.0, 1400),
    "irrational ratio": (-5.0, 0.125 / math.sqrt(2.0), 3000),
    "ratio 100": (-0.51, 12.5, 3),
    "two points": (-0.3, 0.0625, 2),
}
# ratios that are not a small rational p/q (p, q <= RESAMPLE_MAX_TERM)
FALLBACK = {"irrational ratio", "ratio 100"}


@pytest.mark.parametrize("name", list(RESAMPLE_GRIDS))
def test_resample_matches_sample_at(name, monkeypatch):
    rng = np.random.default_rng(11)
    t = np.linspace(-3.0, 3.0, 49)
    src = SampledSignal(-3.0, 0.125, np.exp(1j * t - t * t)
                        * (1.0 + 0.3 * rng.standard_normal(49)))
    t0, dt, n = grid = RESAMPLE_GRIDS[name]
    want = sample_at(src, t0 + dt * np.arange(n))

    calls = []
    monkeypatch.setattr(grids, "sample_at",
                        lambda *a: calls.append(a) or sample_at(*a))
    got = resample(src, grid)
    assert (got.t0, got.dt, got.n) == grid
    assert rel_err(got.values, want) < 1e-12
    assert len(calls) == (name in FALLBACK)
    if name == "past both ends":
        # out-of-range hits read 0, off-grid points far out still leak
        hits = np.arange(0, n, 3)
        outside = np.abs(t0 + dt * hits) > 3.5
        assert np.all(got.values[hits[outside]] == 0.0)
        assert np.all(np.abs(got.values[hits[outside] + 1]) > 0.0)


@pytest.mark.parametrize("complex_b", [False, True], ids=["real b", "complex b"])
@pytest.mark.parametrize("na, nb", [(1, 1), (1, 13), (7, 7), (97, 97), (13, 101),
                                    (31, 1009), (64, 1000), (2, 4097)])
def test_convolve_valid_matches_direct_convolution(na, nb, complex_b):
    rng = np.random.default_rng(na * nb)
    a = rng.standard_normal(na) + 1j * rng.standard_normal(na)
    b = rng.standard_normal(nb) + (1j * rng.standard_normal(nb) if complex_b else 0.0)
    want = np.convolve(a, b)[na - 1:nb]
    got = grids.convolve_valid(a, b)
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-12


def test_fast_len_is_least_five_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    want, k = [], 1
    for n in range(1, 5001):
        while not smooth(k) or k < n:
            k += 1
        want.append(k)
    assert [grids._fast_len(n) for n in range(1, 5001)] == want


def test_identity_frft_onto_offset_grid_matches_sample_at():
    g = gaussian_signal((-8.0, 2.0 ** -5, 513), center=0.5, carrier=2.0)
    grid = (-8.0 + 2.0 ** -6, 2.0 ** -5, 513)
    spec = frft(g, FrFTPlan(as_angle(0.0), grid))
    want = sample_at(g, grid[0] + grid[1] * np.arange(grid[2]))
    assert rel_err(spec.values, want) < 1e-12


def test_signal_csv_roundtrip(tmp_path):
    g = gaussian_signal((-4.0, 0.125, 65), carrier=1.5)
    p = tmp_path / "sig.csv"
    write_signal_csv(p, g)
    back = read_signal_csv(p)
    assert back.t0 == pytest.approx(g.t0)
    assert back.dt == pytest.approx(g.dt)
    assert np.allclose(back.values, g.values, atol=1e-15)


def test_spectrum_csv_roundtrip_with_sidecar(tmp_path):
    spec = SpectrumSamples(-2.0, 0.5, np.exp(1j * np.arange(9)),
                           as_angle(math.pi / 3))
    p = tmp_path / "spec.csv"
    write_spectrum_csv(p, spec)
    back = read_spectrum_csv(p)
    assert back.alpha.alpha == pytest.approx(math.pi / 3)
    assert np.allclose(back.values, spec.values)


def test_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,z\n1,2,3\n2,3,4\n")
    with pytest.raises(InputError):
        read_signal_csv(p)
    p.write_text("t,re,im\n0,1,0\n0.5,1,0\n1.2,1,0\n")
    with pytest.raises(InputError):
        read_signal_csv(p)  # non-uniform step
    with pytest.raises(InputError):
        read_signal_csv(tmp_path / "missing.csv")


def test_spectrum_csv_missing_sidecar(tmp_path):
    spec = SpectrumSamples(0.0, 1.0, np.ones(4), as_angle(math.pi / 2))
    p = tmp_path / "spec.csv"
    write_spectrum_csv(p, spec)
    (tmp_path / "spec.json").unlink()
    with pytest.raises(InputError):
        read_spectrum_csv(p)


def test_trap_weights_sum():
    w = trap_weights(11, 0.1)
    assert w.sum() == pytest.approx(1.0)
    assert w[0] == pytest.approx(0.05)
