"""Fractional Fourier transform: kernel, plans, forward/inverse transforms.

Conventions. The transform of f at angle alpha is

    F(xi) = integral K(t, xi) f(t) dt,
    K(t, xi) = C * exp(i (t^2 + xi^2) cot(alpha)/2 - i t xi csc(alpha)),
    C = sqrt((1 - i cot(alpha)) / (2 pi))    (principal square root),

which is unitary for the trapezoid L2 norms used throughout. alpha = pi/2
is the unitary Fourier transform; alpha = 0 mod 2pi acts as the identity
and alpha = pi mod 2pi as reflection (handled by resampling, not as
distributions). The inverse is the transform at -alpha.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngle, GridMismatch
from .grids import (
    IDENTITY,
    REFLECTION,
    Angle,
    SampledSignal,
    SpectrumSamples,
    as_angle,
    reflected,
    resample,
    trap_weights,
)

DIRECT = "DirectQuadrature"
CHIRP = "ChirpFactored"

_CHUNK = 256


def kernel_constant(angle: Angle) -> complex:
    """C = sqrt((1 - i cot a)/(2 pi)), principal branch (Re >= 0)."""
    angle.require_regular()
    return cmath.sqrt((1.0 - 1j * angle.cot_alpha) / (2.0 * math.pi))


def kernel_eval(angle: Angle, t: float, xi: float) -> complex:
    """Pointwise kernel value K(t, xi); symmetric in t and xi."""
    angle = as_angle(angle).require_regular()
    c = kernel_constant(angle)
    phase = (t * t + xi * xi) * angle.cot_alpha / 2.0 - t * xi * angle.csc_alpha
    return c * cmath.exp(1j * phase)


@dataclass(frozen=True)
class FrFTPlan:
    """One transform configuration: angle, grids and evaluation method."""

    angle: Angle
    input_grid: tuple[float, float, int]   # (t0, dt, n)
    output_grid: tuple[float, float, int]  # (u0, du, m)
    method: str = CHIRP

    @classmethod
    def for_signal(cls, f: SampledSignal, alpha, method: str = CHIRP,
                   output_grid: tuple[float, float, int] | None = None) -> "FrFTPlan":
        """Plan with the natural centered output grid for this input."""
        angle = as_angle(alpha)
        in_grid = (f.t0, f.dt, f.n)
        if output_grid is None:
            if angle.is_regular:
                du = 2.0 * math.pi * abs(angle.sin_alpha) / (f.n * f.dt)
                output_grid = (-(f.n // 2) * du, du, f.n)
            else:
                output_grid = in_grid
        return cls(angle, in_grid, output_grid, method)

    def _check_chirp_compatible(self) -> None:
        t0, dt, n = self.input_grid
        u0, du, m = self.output_grid
        if m != n:
            raise GridMismatch("chirp factorization needs equal grid counts")
        s = abs(dt * du * self.angle.csc_alpha) * n / (2.0 * math.pi)
        if abs(s - 1.0) > 1e-9:
            raise GridMismatch(
                f"du must equal 2*pi*|sin(alpha)|/(n*dt); scale off by {s - 1.0:.3e}")


def frft(f: SampledSignal, plan: FrFTPlan) -> SpectrumSamples:
    """Forward fractional Fourier transform of sampled f under a plan."""
    angle = plan.angle
    u0, du, m = plan.output_grid
    if angle.klass == IDENTITY:
        g = resample(f, plan.output_grid)
        return SpectrumSamples(u0, du, g.values, angle)
    if angle.klass == REFLECTION:
        g = resample(reflected(f), plan.output_grid)
        return SpectrumSamples(u0, du, g.values, angle)

    if plan.method == DIRECT:
        u = u0 + du * np.arange(m)
        vals = frft_eval(f, angle, u)
        return SpectrumSamples(u0, du, vals, angle)

    plan._check_chirp_compatible()
    t0, dt, n = plan.input_grid
    cot, csc = angle.cot_alpha, angle.csc_alpha
    t = f.grid
    u = u0 + du * np.arange(m)
    w = trap_weights(n, dt)
    # K(t,u) factors as chirp(u) * exp(-i t u csc) * chirp(t); the middle
    # factor on compatible grids is an FFT (sign of csc picks the direction)
    a = f.values * w * np.exp(1j * (cot / 2.0) * t * t - 1j * csc * u0 * (t - t0))
    if dt * du * csc > 0:
        spec = np.fft.fft(a)
    else:
        spec = np.fft.ifft(a) * n
    c = kernel_constant(angle)
    vals = c * np.exp(1j * (cot / 2.0) * u * u - 1j * csc * t0 * u) * spec
    return SpectrumSamples(u0, du, vals, angle)


def frft_eval(f: SampledSignal, alpha, u_points: np.ndarray) -> np.ndarray:
    """Direct trapezoid evaluation of the transform at arbitrary points."""
    angle = as_angle(alpha).require_regular()
    u = np.asarray(u_points, dtype=np.float64)
    cot, csc = angle.cot_alpha, angle.csc_alpha
    t = f.grid
    g = f.values * trap_weights(f.n, f.dt) * np.exp(1j * (cot / 2.0) * t * t)
    c = kernel_constant(angle)
    out = np.empty(u.size, dtype=np.complex128)
    for lo in range(0, u.size, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, u.size))
        out[sl] = np.exp(-1j * csc * np.outer(u[sl], t)) @ g
    out *= c * np.exp(1j * (cot / 2.0) * u * u)
    return out.reshape(np.shape(u_points))


def inverse_frft(F: SpectrumSamples, grid: tuple[float, float, int],
                 method: str = CHIRP) -> SampledSignal:
    """Inversion via the conjugate kernel, i.e. the transform at -alpha."""
    g = F.as_signal()
    plan = FrFTPlan(F.alpha.negated(), (g.t0, g.dt, g.n), grid, method)
    back = frft(g, plan)
    return SampledSignal(grid[0], grid[1], back.values)


def chirp_modulate(f: SampledSignal, alpha, sign: int) -> SampledSignal:
    """Pointwise multiply by exp(sign * i * t^2 * cot(alpha)/2)."""
    angle = as_angle(alpha).require_regular()
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t = f.grid
    return SampledSignal(
        f.t0, f.dt, f.values * np.exp(1j * sign * (angle.cot_alpha / 2.0) * t * t))


def parseval_defect(f: SampledSignal, plan: FrFTPlan) -> float:
    """|  ||f||^2 - ||F f||^2  | under trapezoid norms."""
    return abs(f.norm_sq() - frft(f, plan).norm_sq())
