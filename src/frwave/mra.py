"""Multiresolution machinery: level atoms, scaling filters, cascade, projectors.

Level atoms compose dyadic dilation with the angle's chirp bookkeeping:

    A[j,k] phi (t) = 2^(j/2) phi(2^j t - k)
                     * exp(-i [t^2 - (k 2^-j)^2 - (2^j t - k)^2] cot(alpha)/2)

applied to the chirped (fractional) scaling function. With this convention a
refinable classical profile carried on the chirp stays exactly refinable, and
the two-scale relation reads phi = sum_n h[n] A[1,n] phi with taps h[n].

The auxiliary symbol of a tap sequence is

    Lambda(u) = (1/sqrt 2) sum_n h[n] exp(i n^2 cot(a)/8) exp(-i n u csc(a)),

the unique 2 pi sin(alpha)-periodic symbol for which the two-scale relation
in the transform domain becomes

    Theta(u) = exp(i 3 u^2 cot(a)/8) Lambda(u/2) Theta(u/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBattery, NonConvergent, SupportTooSmall
from .frft import spectrum_on_grid
from .grids import Angle, SampledSignal, as_angle, sample_at

TAU_TAP = 1e-6


@dataclass(frozen=True)
class ScalingFilter:
    """Finitely supported taps h[n], n = offset..offset+len-1, with angle."""

    taps: np.ndarray = field(repr=False)
    offset: int
    alpha: Angle

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=np.complex128)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("taps must be a nonempty 1-d array")
        object.__setattr__(self, "taps", t)

    @property
    def indices(self) -> np.ndarray:
        return self.offset + np.arange(self.taps.size)

    def tap(self, n: int) -> complex:
        i = n - self.offset
        if 0 <= i < self.taps.size:
            return complex(self.taps[i])
        return 0.0


@dataclass(frozen=True)
class MRALevel:
    j: int
    phi: SampledSignal
    phi_dual: SampledSignal
    alpha: Angle


def level_atom(phi: SampledSignal, alpha, j: int, k: int,
               grid: tuple[float, float, int]) -> SampledSignal:
    """A[j,k] applied to phi, sampled on the requested grid."""
    angle = as_angle(alpha).require_regular()
    t0, dt, count = grid
    t = t0 + dt * np.arange(count)
    s = (2.0 ** j) * t - k
    b = k * 2.0 ** (-j)
    vals = (2.0 ** (j / 2.0)) * sample_at(phi, s) * np.exp(
        -1j * (angle.cot_alpha / 2.0) * (t * t - b * b - s * s))
    return SampledSignal(t0, dt, vals)


def scaling_filter(phi: SampledSignal, alpha, support: tuple[int, int],
                   phi_dual: SampledSignal | None = None,
                   tau_tap: float = TAU_TAP) -> ScalingFilter:
    """Taps h[n] = sqrt(2) <phi, A[1,n] phi_dual> for n in the support range.

    For orthonormal systems phi_dual defaults to phi itself; for biorthogonal
    systems pass the dual generator so the analysis taps come out right. The
    sqrt(2) of the atom normalization is the only sqrt(2) applied.
    """
    angle = as_angle(alpha).require_regular()
    other = phi if phi_dual is None else phi_dual
    grid = (phi.t0, phi.dt, phi.n)
    nmin, nmax = support
    taps = np.array([phi.inner(level_atom(other, angle, 1, n, grid))
                     for n in range(nmin, nmax + 1)])
    edge = max(abs(taps[0]), abs(taps[-1]))
    if edge > tau_tap:
        raise SupportTooSmall(f"boundary tap magnitude {edge:.3e} > {tau_tap:g}")
    return ScalingFilter(taps, nmin, angle)


def auxiliary_function(h: ScalingFilter, u) -> np.ndarray:
    """Lambda(u): periodic two-scale symbol of the taps (see module docstring)."""
    angle = h.alpha.require_regular()
    n = h.indices
    u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    coef = h.taps * np.exp(1j * (angle.cot_alpha / 8.0) * n * n) / math.sqrt(2.0)
    out = np.exp(-1j * angle.csc_alpha * np.outer(u_arr, n)) @ coef
    return out if np.ndim(u) else complex(out[0])


def two_scale_apply(phi: SampledSignal, h: ScalingFilter,
                    grid: tuple[float, float, int]) -> SampledSignal:
    """sum_n h[n] A[1,n] phi on the grid — one cascade/two-scale step."""
    angle = h.alpha
    acc = np.zeros(grid[2], dtype=np.complex128)
    for n, tap in zip(h.indices, h.taps):
        acc += tap * level_atom(phi, angle, 1, int(n), grid).values
    return SampledSignal(grid[0], grid[1], acc)


def two_scale_defect(phi: SampledSignal, h: ScalingFilter) -> float:
    """max_t |phi(t) - sum_n h[n] A[1,n] phi(t)| on phi's own grid."""
    recon = two_scale_apply(phi, h, (phi.t0, phi.dt, phi.n))
    return float(np.max(np.abs(phi.values - recon.values)))


def two_scale_spectral_defect(phi: SampledSignal, h: ScalingFilter,
                              u_max: float | None = None,
                              count: int = 512) -> float:
    """max_u |Theta(u) - e^{i 3u^2 cot/8} Lambda(u/2) Theta(u/2)|."""
    angle = h.alpha
    if u_max is None:
        u_max = abs(angle.period)
    du = 2.0 * u_max / count
    u = -u_max + du * np.arange(count + 1)
    theta_u = spectrum_on_grid(phi, angle, u[0], du, u.size)
    theta_half = spectrum_on_grid(phi, angle, u[0] / 2.0, du / 2.0, u.size)
    lam = auxiliary_function(h, u / 2.0)
    chirp = np.exp(1j * (3.0 * angle.cot_alpha / 8.0) * u * u)
    return float(np.max(np.abs(theta_u - chirp * lam * theta_half)))


def chirped_box(alpha, grid: tuple[float, float, int]) -> SampledSignal:
    """Indicator of [0,1) on the chirp, with half-sample jump values."""
    angle = as_angle(alpha).require_regular()
    t0, dt, count = grid
    t = t0 + dt * np.arange(count)
    vals = np.zeros(count, dtype=np.complex128)
    vals[(t > 0.0) & (t < 1.0)] = 1.0
    vals[np.abs(t) < 1e-12] = 0.5
    vals[np.abs(t - 1.0) < 1e-12] = 0.5
    vals = vals * np.exp(-1j * (angle.cot_alpha / 2.0) * t * t)
    return SampledSignal(t0, dt, vals)


def refine_cascade(h: ScalingFilter, grid: tuple[float, float, int],
                   iterations: int = 40,
                   start: SampledSignal | None = None,
                   lowpass_tol: float = 1e-6) -> tuple[SampledSignal, list[float]]:
    """Fixed-point iteration of the two-scale map from a box start.

    Returns the final iterate and the Cauchy increments ||phi_{m+1}-phi_m||.
    The start is the chirped box, whose dechirped integral is 1, which pins
    the limit's normalization at every angle.
    """
    angle = h.alpha
    gain = abs(np.sum(h.taps * np.exp(1j * (angle.cot_alpha / 8.0)
                                      * h.indices.astype(float) ** 2)))
    if abs(gain - math.sqrt(2.0)) > lowpass_tol * math.sqrt(2.0):
        raise NonConvergent(f"lowpass normalization sum is {gain:.6g}, not sqrt(2)")
    phi = chirped_box(angle, grid) if start is None else start
    increments: list[float] = []
    rising = 0
    for _ in range(iterations):
        nxt = two_scale_apply(phi, h, grid)
        inc = nxt.minus(phi).norm()
        if increments and inc > increments[-1] and inc > 1e-12:
            rising += 1
            if rising >= 5:
                raise NonConvergent("cascade increments rose 5 iterations in a row")
        else:
            rising = 0
        increments.append(inc)
        phi = nxt
        if inc < 1e-13:
            break
    return phi, increments


def project(f: SampledSignal, level: MRALevel, k_proj: int = 64) -> SampledSignal:
    """P_j f = sum_k <f, dual atom (j,k)> primal atom (j,k), |k| <= k_proj."""
    angle = level.alpha.require_regular()
    grid = (f.t0, f.dt, f.n)
    acc = np.zeros(f.n, dtype=np.complex128)
    for k in range(-k_proj, k_proj + 1):
        dual_atom = level_atom(level.phi_dual, angle, level.j, k, grid)
        coef = f.inner(dual_atom)
        if coef != 0.0:
            acc += coef * level_atom(level.phi, angle, level.j, k, grid).values
    return SampledSignal(f.t0, f.dt, acc)


def projection_residual_curve(f: SampledSignal, phi: SampledSignal,
                              phi_dual: SampledSignal, alpha,
                              j_list, k_proj: int = 64) -> list[float]:
    """||P_j f - f||_2 for each requested level j."""
    angle = as_angle(alpha).require_regular()
    out = []
    for j in j_list:
        pf = project(f, MRALevel(int(j), phi, phi_dual, angle), k_proj)
        out.append(pf.minus(f).norm())
    return out


def operator_norm_estimate(phi: SampledSignal, phi_dual: SampledSignal, alpha,
                           battery, j_range: tuple[int, int] = (-2, 4),
                           k_proj: int = 64) -> float:
    """max over the battery and levels of ||P_j f|| / ||f||."""
    angle = as_angle(alpha).require_regular()
    if not battery:
        raise EmptyBattery("operator norm estimate needs a nonempty battery")
    worst = 0.0
    for f in battery:
        for j in range(j_range[0], j_range[1] + 1):
            pf = project(f, MRALevel(j, phi, phi_dual, angle), k_proj)
            worst = max(worst, pf.norm() / f.norm())
    return worst
