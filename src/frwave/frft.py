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

from .grids import (
    IDENTITY,
    REFLECTION,
    Angle,
    SampledSignal,
    SpectrumSamples,
    as_angle,
    convolve_valid,
    reflected,
    resample,
    trap_weights,
)

_CHUNK = 256


def kernel_constant(angle: Angle) -> complex:
    """C = sqrt((1 - i cot a)/(2 pi)), principal branch (Re >= 0)."""
    angle.require_regular()
    return cmath.sqrt((1.0 - 1j * angle.cot_alpha) / (2.0 * math.pi))


@dataclass(frozen=True)
class FrFTPlan:
    """One transform configuration: the angle and the output grid.

    The input grid is the transformed signal's own.
    """

    angle: Angle
    output_grid: tuple[float, float, int]  # (u0, du, m)

    @classmethod
    def for_signal(cls, f: SampledSignal, alpha) -> "FrFTPlan":
        """Plan with the natural centered output grid for this input."""
        angle = as_angle(alpha)
        if not angle.is_regular:
            return cls(angle, (f.t0, f.dt, f.n))
        du = 2.0 * math.pi * abs(angle.sin_alpha) / (f.n * f.dt)
        return cls(angle, (-(f.n // 2) * du, du, f.n))


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
    return SpectrumSamples(u0, du, spectrum_on_grid(f, angle, u0, du, m), angle)


def spectrum_on_grid(f: SampledSignal, alpha, u0: float, du: float,
                     m: int) -> np.ndarray:
    """Transform values on the uniform grid u0 + k*du, k < m, by chirp-z.

    Same trapezoid sum as frft_eval, in O((n+m) log(n+m)). K(t, u) factors
    as chirp(u) * exp(-i t u csc) * chirp(t); on t = t0 + j*dt the middle
    factor is exp(-i theta j k) up to phases in j and k alone, with the real
    step theta = csc*du*dt. When theta = +-2 pi/N with N <= n+m-1 (the
    natural grid, or a periodization stack sampled at du = P/grid_count on a
    step dt with grid_count/dt <= n+m-1), that sum is one length-N FFT of
    the input folded modulo N; otherwise it is a Bluestein convolution.
    """
    angle = as_angle(alpha).require_regular()
    cot, csc = angle.cot_alpha, angle.csc_alpha
    # outside _chirp_sum at most ~2.5 complex arrays of max(n, m) are live:
    # each phase is built in one real buffer, and each temporary is dropped
    # before the next is made. Operand order and expression shape keep the
    # values bit for bit those of values * w * exp(1j * arg): numpy's complex
    # products are not commutative bitwise, and numpy reuses a large
    # temporary operand in place, so C * temp is computed as temp *= C
    j = np.arange(f.n)
    t = f.t0 + f.dt * j
    arg = (cot / 2.0) * t
    arg *= t
    arg -= np.multiply(csc * u0 * f.dt, j, out=t)
    del t, j
    phase = _unit_phase(arg)
    del arg
    x = f.values * trap_weights(f.n, f.dt)
    x *= phase
    del phase
    spec = _chirp_sum(x, csc * du * f.dt, m)
    del x
    u = u0 + du * np.arange(m)
    arg = (cot / 2.0) * u
    arg *= u
    arg -= np.multiply(csc * f.t0, u, out=u)
    del u
    return kernel_constant(angle) * _unit_phase(arg) * spec


def _unit_phase(arg: np.ndarray) -> np.ndarray:
    """exp(1j * arg) for a real phase, in one complex buffer."""
    out = np.multiply(1j, arg)
    return np.exp(out, out=out)


def _chirp_sum(x: np.ndarray, theta: float, m: int) -> np.ndarray:
    """sum_j x[j] exp(-i theta j k) for k < m."""
    n = x.size
    # theta = +-2 pi/N makes the sum a length-N DFT of x folded modulo N, read
    # periodically in k; taking theta as 2 pi/N moves the phase of term (j, k)
    # by |theta - 2 pi/N| j k, at most 2 pi 1e-9 radians on (n-1)(m-1)
    N = round(2.0 * math.pi / abs(theta)) if theta else 0
    if 0 < N < n + m and (abs(abs(theta) - 2.0 * math.pi / N) * (n - 1) * (m - 1)
                          <= 2e-9 * math.pi):
        if n > N:
            x = np.pad(x, (0, -n % N)).reshape(-1, N).sum(axis=0)
        y = np.fft.fft(x, N) if theta > 0 else np.fft.ifft(x, N) * N
        return y[:m] if m <= N else np.tile(y, -(-m // N))[:m]
    # Bluestein: jk = (j^2 + k^2 - (k-j)^2)/2 turns the sum into lags
    # n-1 .. n+m-2 of the convolution of x * chirp with exp(i theta l^2/2),
    # l = -(n-1)..m-1; the chirp is the kernel's conjugate at l = -j and l = k
    l = np.arange(1 - n, m, dtype=np.float64)
    kern = np.exp(0.5j * theta * l * l)
    return np.conj(kern[n - 1:]) * convolve_valid(x * np.conj(kern[n - 1::-1]), kern)


def frft_eval(f: SampledSignal, alpha, u_points: np.ndarray) -> np.ndarray:
    """Direct trapezoid evaluation of the transform at arbitrary points.

    O(n*m) dense quadrature: the independent check of spectrum_on_grid.
    """
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


def inverse_frft(F: SpectrumSamples, grid: tuple[float, float, int]) -> SampledSignal:
    """Inversion via the conjugate kernel, i.e. the transform at -alpha."""
    back = frft(F.as_signal(), FrFTPlan(F.alpha.negated(), grid))
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
