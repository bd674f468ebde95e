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

from .frft import chirp_modulate, spectrum_on_grid
from .grids import SampledSignal, as_angle, box_signal
from .mra import ScalingFilter, tap_symbol

SQ2 = math.sqrt(2.0)
MARGIN = 1.0    # zero samples on each side of the reference generators' supports


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
    coef = np.asarray(taps, dtype=np.complex128) / SQ2
    hat = np.ones(m, dtype=np.complex128)
    for j in range(1, levels + 1):
        hat *= tap_symbol(coef, offset, w / 2.0 ** j)
    vals = spectrum_on_grid(SampledSignal(w[0], dw, hat), -math.pi / 2.0, t0, dt, count)
    classical = SampledSignal(t0, dt, vals / math.sqrt(2.0 * math.pi))
    return chirp_modulate(classical, angle, -1)


def spectral_scaling_from_filter(h: ScalingFilter,
                                 grid: tuple[float, float, int]) -> SampledSignal:
    """spectral_scaling driven by an angle-carried filter.

    Builds the generator of the classical (dechirped) taps by the truncated
    product, and re-chirps it.
    """
    return spectral_scaling(h.classical_taps, h.offset, h.alpha, grid)


def haar_system(alpha, dt: float = 2.0 ** -10) -> tuple[SampledSignal, ScalingFilter]:
    """Chirped Haar generator and its taps on [-MARGIN, 1 + MARGIN]."""
    angle = as_angle(alpha).require_regular()
    n = int(round((1.0 + 2.0 * MARGIN) / dt)) + 1
    phi_c = box_signal((-MARGIN, dt, n))
    taps, off = haar_taps()
    return chirp_modulate(phi_c, angle, -1), fractional_taps(taps, off, angle)


def cdf53_system(alpha, dt: float = 2.0 ** -10,
                 ) -> tuple[SampledSignal, ScalingFilter, ScalingFilter]:
    """Chirped hat generator on [-1 - MARGIN, 1 + MARGIN], CDF 5/3 primal and dual taps."""
    angle = as_angle(alpha).require_regular()
    n = int(round((2.0 + 2.0 * MARGIN) / dt)) + 1
    phi_c = hat_signal((-1.0 - MARGIN, dt, n))
    h, off, hd, offd = cdf53_taps()
    return (chirp_modulate(phi_c, angle, -1),
            fractional_taps(h, off, angle),
            fractional_taps(hd, offd, angle))
