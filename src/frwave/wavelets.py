"""Fractional wavelet atoms, the continuous transform, admissibility, batteries.

Atom conventions in this module:

    continuous:  (1/sqrt(a)) psi((t-b)/a) exp(-i (t^2 - b^2) cot(alpha)/2)
    dyadic:      2^(j/2) psi(2^j t - k) exp(-i (t^2 - (k 2^-j)^2) cot(alpha)/2)

so the dyadic family, which mra.level_atoms builds from the chirped mother
chirp_modulate(psi, alpha, -1), is the continuous one at a = 2^-j, b = k 2^-j.
Mother wavelets are sampled; off-grid values come from band-limited
interpolation (grid hits are read off exactly, which covers every dyadic
scale/shift combination used by the built-in grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBattery, GridCoverage
from .frft import chirp_modulate, spectrum_on_grid
from .grids import Angle, SampledSignal, as_angle, box_signal, resample

COVERAGE_TOL = 1e-3   # fraction of atom mass allowed to fall off-grid
BATTERY_BAND = 6.0    # largest frequency magnitude of a battery member


@dataclass(frozen=True)
class MotherWavelet:
    signal: SampledSignal
    label: str

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be nonempty")
        if not math.isfinite(self.signal.norm_sq()):
            raise ValueError("mother wavelet must have finite L2 norm")


@dataclass(frozen=True)
class ContinuousAtomParams:
    alpha: Angle
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("scale a must be positive")


_MOTHER_CACHE: dict = {}

# (t0, dt, n) defaults per built-in; smooth mothers are oversampled so the
# (alpha, a, b) sweeps used in tests land on grid samples
_MOTHER_GRIDS = {
    "gauss1": (-12.0, 2.0 ** -9, 24 * 512),
    "mexican": (-12.0, 2.0 ** -9, 24 * 512),
    "haar": (-2.0, 2.0 ** -10, 5 * 1024),
    "meyer": (-32.0, 2.0 ** -8, 64 * 256),
}


def make_mother(name: str, grid: tuple[float, float, int] | None = None) -> MotherWavelet:
    """Built-in mother wavelets: gauss1, mexican, haar, meyer."""
    if grid is None:
        grid = _MOTHER_GRIDS[name]
    key = (name, grid)
    if key in _MOTHER_CACHE:
        return _MOTHER_CACHE[key]
    t0, dt, n = grid
    t = t0 + dt * np.arange(n)
    if name == "gauss1":
        vals = -t * np.exp(-t * t / 2.0)
    elif name == "mexican":
        vals = (1.0 - t * t) * np.exp(-t * t / 2.0)
    elif name == "haar":
        # box(2t) - box(2t - 1), with box's half-sample values at the jumps
        vals = (box_signal((2.0 * t0, 2.0 * dt, n)).values
                - box_signal((2.0 * t0 - 1.0, 2.0 * dt, n)).values)
    elif name == "meyer":
        vals = _meyer_values(grid)
    else:
        raise ValueError(f"unknown mother wavelet {name!r}")
    mother = MotherWavelet(SampledSignal(t0, dt, vals), name)
    _MOTHER_CACHE[key] = mother
    return mother


def _meyer_nu(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3)


def _meyer_values(grid: tuple[float, float, int], n_omega: int = 8192) -> np.ndarray:
    # inverse unitary Fourier integral of the standard Meyer spectrum: the
    # transform at -pi/2; the spectrum vanishes at the ends, so the trapezoid
    # sum equals the rectangle sum
    w_max = 8.0 * math.pi / 3.0
    dw = 2.0 * w_max / (n_omega - 1)
    w = -w_max + dw * np.arange(n_omega)
    aw = np.abs(w)
    hat = np.zeros(w.size)
    band1 = (aw >= 2.0 * math.pi / 3.0) & (aw <= 4.0 * math.pi / 3.0)
    band2 = (aw > 4.0 * math.pi / 3.0) & (aw <= 8.0 * math.pi / 3.0)
    hat[band1] = np.sin(0.5 * math.pi * _meyer_nu(3.0 * aw[band1] / (2.0 * math.pi) - 1.0))
    hat[band2] = np.cos(0.5 * math.pi * _meyer_nu(3.0 * aw[band2] / (4.0 * math.pi) - 1.0))
    spec = SampledSignal(-w_max, dw, hat * np.exp(1j * w / 2.0) / math.sqrt(2.0 * math.pi))
    return spectrum_on_grid(spec, -math.pi / 2.0, *grid)


def _check_coverage(atom: SampledSignal, psi: MotherWavelet) -> None:
    ref = psi.signal.norm_sq()
    if ref > 0 and atom.norm_sq() < (1.0 - 10.0 * COVERAGE_TOL) * ref:
        raise GridCoverage("atom mass outside the requested grid")


def atom_continuous(psi: MotherWavelet, p: ContinuousAtomParams,
                    grid: tuple[float, float, int]) -> SampledSignal:
    """Scaled/shifted chirped atom on the requested grid."""
    alpha = as_angle(p.alpha).require_regular()
    t0, dt, n = grid
    t = t0 + dt * np.arange(n)
    # the points (t - b)/a form the uniform grid ((t0 - b)/a, dt/a, n)
    scaled = resample(psi.signal, ((t0 - p.b) / p.a, dt / p.a, n))
    base = scaled.values / math.sqrt(p.a)
    phase = np.exp(-1j * (alpha.cot_alpha / 2.0) * (t * t - p.b * p.b))
    atom = SampledSignal(t0, dt, base * phase)
    _check_coverage(atom, psi)
    return atom


def admissibility_constant(psi: MotherWavelet, alpha, u_max: float = 32.0,
                           n: int = 8192) -> float:
    """Integral of |F_alpha{dechirped psi}(xi)|^2 / |xi| over du <= |xi| <= u_max.

    du = 2 u_max / (n - 1) is the spectrum's grid step.
    """
    return admissibility_refinement(psi, alpha, [2.0 * u_max / (n - 1)], u_max, n)[0]


def admissibility_refinement(psi: MotherWavelet, alpha, xi_mins,
                             u_max: float = 32.0, n: int = 32768) -> list[float]:
    """Constant under shrinking singularity exclusion; growth flags non-admissibility."""
    xi, vals = _dechirped_spectrum(psi, alpha, u_max, n)
    out = []
    for xi_min in xi_mins:
        keep = np.abs(xi) >= xi_min
        integrand = np.abs(vals[keep]) ** 2 / np.abs(xi[keep])
        out.append(float(np.trapezoid(integrand, xi[keep])))
    return out


def _dechirped_spectrum(psi: MotherWavelet, alpha, u_max: float, n: int):
    angle = as_angle(alpha).require_regular()
    du = 2.0 * u_max / (n - 1)
    vals = spectrum_on_grid(chirp_modulate(psi.signal, angle, -1), angle, -u_max, du, n)
    return -u_max + du * np.arange(n), vals


def frwt_continuous(f: SampledSignal, psi: MotherWavelet,
                    p: ContinuousAtomParams) -> complex:
    """Continuous fractional wavelet coefficient <f, psi_(alpha,a,b)>."""
    atom = atom_continuous(psi, p, (f.t0, f.dt, f.n))
    return f.inner(atom)


def battery(seed: int, size: int, grid: tuple[float, float, int], alpha=None,
            band_min: float = 0.0) -> list[SampledSignal]:
    """Randomized band-limited test signals; chirped to the angle if given.

    Each member is a Gaussian-windowed random trigonometric polynomial with
    frequency magnitudes in [band_min, BATTERY_BAND], normalized to unit trapezoid
    norm. A positive band_min keeps the battery away from DC, which matters
    for wavelet-only expansions that drop the coarsest scaling layer.
    """
    if size <= 0:
        raise EmptyBattery("battery size must be positive")
    rng = np.random.default_rng(seed)
    t0, dt, n = grid
    t = t0 + dt * np.arange(n)
    width = (n - 1) * dt / 6.0
    window = np.exp(-(t - (t0 + (n - 1) * dt / 2.0)) ** 2 / (2.0 * width ** 2))
    half = np.linspace(band_min, BATTERY_BAND, 13)
    freqs = np.concatenate([-half[::-1], half]) if band_min > 0 \
        else np.linspace(-BATTERY_BAND, BATTERY_BAND, 25)
    out = []
    for _ in range(size):
        coef = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
        sig = SampledSignal(t0, dt, (np.exp(1j * np.outer(t, freqs)) @ coef) * window)
        if alpha is not None:
            sig = chirp_modulate(sig, alpha, -1)
        out.append(sig.scaled(1.0 / sig.norm()))
    return out
