"""Reference scaling functions and filter taps used throughout the tests/CLI.

A classical refinable profile phi_c with real taps h_c[n] yields, at angle
alpha, the chirped generator

    phi(t) = phi_c(t) exp(-i t^2 cot(alpha)/2)

with taps h[n] = h_c[n] exp(-i n^2 cot(alpha)/8); these satisfy the level-atom
two-scale relation of the mra module exactly, which is what makes the sampled
systems here usable as high-precision references at every regular angle.
"""

from __future__ import annotations

import math

import numpy as np

from .frft import spectrum_on_grid
from .grids import Angle, SampledSignal, as_angle
from .mra import ScalingFilter

SQ2 = math.sqrt(2.0)


def haar_taps() -> tuple[np.ndarray, int]:
    """Orthonormal two-tap lowpass: h = (1/sqrt2, 1/sqrt2) on n in {0,1}."""
    return np.array([1.0 / SQ2, 1.0 / SQ2]), 0


def cdf53_taps() -> tuple[np.ndarray, int, np.ndarray, int]:
    """5/3 biorthogonal spline taps: (h, h_offset, h_dual, h_dual_offset).

    h is the 3-tap synthesis lowpass whose scaling function is the centered
    hat; h_dual is the 5-tap analysis lowpass dual to it.
    """
    h = (SQ2 / 4.0) * np.array([1.0, 2.0, 1.0])
    hd = (SQ2 / 8.0) * np.array([-1.0, 2.0, 6.0, 2.0, -1.0])
    return h, -1, hd, -2


def fractional_taps(taps: np.ndarray, offset: int, alpha) -> ScalingFilter:
    """Carry classical taps onto the angle: h[n] -> h[n] e^{-i n^2 cot(a)/8}."""
    angle = as_angle(alpha).require_regular()
    n = offset + np.arange(len(taps))
    phased = np.asarray(taps, dtype=np.complex128) * np.exp(
        -1j * (angle.cot_alpha / 8.0) * n.astype(float) ** 2)
    return ScalingFilter(phased, offset, angle)


def fractional_scaling(classical: SampledSignal, alpha) -> SampledSignal:
    """Chirp a classical generator onto the angle: phi_c -> phi_c e^{-it^2 cot/2}."""
    angle = as_angle(alpha).require_regular()
    t = classical.grid
    return SampledSignal(
        classical.t0, classical.dt,
        classical.values * np.exp(-1j * (angle.cot_alpha / 2.0) * t * t))


def box_signal(grid: tuple[float, float, int]) -> SampledSignal:
    """Indicator of [0,1) with half-sample values at the jumps."""
    t0, dt, n = grid
    t = t0 + dt * np.arange(n)
    vals = np.zeros(n, dtype=np.complex128)
    vals[(t > 0.0) & (t < 1.0)] = 1.0
    vals[np.abs(t) < 1e-12] = 0.5
    vals[np.abs(t - 1.0) < 1e-12] = 0.5
    return SampledSignal(t0, dt, vals)


def hat_signal(grid: tuple[float, float, int]) -> SampledSignal:
    """Centered hat max(0, 1-|t|) — the order-2 B-spline scaling function."""
    t0, dt, n = grid
    t = t0 + dt * np.arange(n)
    return SampledSignal(t0, dt, np.maximum(0.0, 1.0 - np.abs(t)).astype(np.complex128))


def spectral_scaling(taps: np.ndarray, offset: int, alpha,
                     grid: tuple[float, float, int],
                     w_max: float = 64.0 * math.pi,
                     levels: int = 48) -> SampledSignal:
    """Band-limited scaling-function samples from the classical tap symbol.

    Evaluates the truncated infinite product prod_j m0(w / 2^j) for |w| <=
    w_max, inverts it by the trapezoid rule (the transform at -pi/2), and
    chirps the result onto the angle. For generators whose samples converge
    poorly under the cascade (rough duals), this gives samples of the
    band-limited projection, which reproduce every inner product against
    signals band-limited below w_max exactly.
    """
    angle = as_angle(alpha).require_regular()
    t0, dt, count = grid
    span = dt * (count - 1)
    dw = math.pi / max(span, 1.0)   # alias period twice the grid span
    m = 2 * int(math.ceil(w_max / dw)) + 1
    w = dw * (np.arange(m) - m // 2)
    n = offset + np.arange(len(taps))
    coef = np.asarray(taps, dtype=np.complex128) / SQ2
    hat = np.ones(m, dtype=np.complex128)
    for j in range(1, levels + 1):
        hat *= np.exp(-1j * np.outer(w / 2.0 ** j, n)) @ coef
    vals = spectrum_on_grid(SampledSignal(w[0], dw, hat), -math.pi / 2.0, t0, dt, count)
    classical = SampledSignal(t0, dt, vals / math.sqrt(2.0 * math.pi))
    return fractional_scaling(classical, angle)


def spectral_scaling_from_filter(h: ScalingFilter,
                                 grid: tuple[float, float, int],
                                 **kwargs) -> SampledSignal:
    """spectral_scaling driven by an angle-carried filter.

    Undoes the tap phase e^{-i n^2 cot(a)/8} to recover the flat-angle
    symbol, builds its generator by the truncated product, and re-chirps.
    """
    n = h.offset + np.arange(h.taps.size)
    classical = h.taps * np.exp(
        1j * (h.alpha.cot_alpha / 8.0) * n.astype(float) ** 2)
    return spectral_scaling(classical, h.offset, h.alpha, grid, **kwargs)


def haar_system(alpha, dt: float = 2.0 ** -10,
                margin: float = 1.0) -> tuple[SampledSignal, ScalingFilter]:
    """Chirped Haar generator and its taps on a tight grid around [0,1]."""
    angle = as_angle(alpha).require_regular()
    n = int(round((1.0 + 2.0 * margin) / dt)) + 1
    phi_c = box_signal((-margin, dt, n))
    taps, off = haar_taps()
    return fractional_scaling(phi_c, angle), fractional_taps(taps, off, angle)


def cdf53_system(alpha, dt: float = 2.0 ** -10, margin: float = 1.0,
                 ) -> tuple[SampledSignal, ScalingFilter, ScalingFilter]:
    """Chirped hat generator with CDF 5/3 primal and dual taps."""
    angle = as_angle(alpha).require_regular()
    n = int(round((2.0 + 2.0 * margin) / dt)) + 1
    phi_c = hat_signal((-1.0 - margin, dt, n))
    h, off, hd, offd = cdf53_taps()
    return (fractional_scaling(phi_c, angle),
            fractional_taps(h, off, angle),
            fractional_taps(hd, offd, angle))
