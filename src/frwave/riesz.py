"""Periodization profiles, Riesz bounds, biorthogonality of integer translates.

Everything here analyzes the chirp-carried translate family

    phi_n(t) = phi(t - n) * exp(-i n (t - n) cot(alpha)),

whose transform at angle alpha is exp(i n^2 cot(alpha)/2 - i n u csc(alpha))
times the transform of phi. Consequently every translate question becomes a
statement about profiles with period 2*pi*sin(alpha) in the transform domain:

    G^2(u) = 2 pi sin(alpha) * sum_k |Theta(u + k P)|^2      (Gram/Riesz)
    L(u)   = sum_k Theta(u + k P) conj(Theta_dual(u + k P))  (biorthogonality)

with P = 2 pi sin(alpha). Profiles are sampled on [0, P); the k-sums are
truncated at kmax with a reported tail estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotRealProfile, RieszLowerBoundZero, TailTooFat
from .frft import spectrum_on_grid
from .grids import (
    Angle,
    SampledSignal,
    SpectrumSamples,
    as_angle,
    resample,
    trap_weights,
)
from .report import AnalysisReport, RunConfig

TAU_POS = 1e-6      # smallest periodization value we will divide by
TAIL_TOL = 5e-2     # default relative tail-mass tolerance for truncated k-sums
REAL_TOL = 1e-6     # imaginary part allowed in nominally real profiles


@dataclass(frozen=True)
class PeriodicProfile:
    """Samples of a period-P profile on [u0, u0 + P)."""

    period: float
    du: float
    values: np.ndarray = field(repr=False)
    kmax: int
    alpha: Angle
    u0: float = 0.0
    tail: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        if self.kmax < 1:
            raise ValueError("kmax must be at least 1")
        if abs(self.du * v.size - self.period) > 1e-9 * self.period:
            raise ValueError("du * count must equal the period")

    @property
    def grid(self) -> np.ndarray:
        return self.u0 + self.du * np.arange(self.values.size)

    def mean(self) -> complex:
        return complex(np.mean(self.values))

    def real_values(self, tol: float = REAL_TOL) -> np.ndarray:
        scale = max(1.0, float(np.max(np.abs(self.values))))
        if np.max(np.abs(np.imag(self.values))) > tol * scale:
            raise NotRealProfile("profile has a significant imaginary part")
        return np.real(self.values)


@dataclass(frozen=True)
class RieszBounds:
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError("need 0 <= lower <= upper")


@dataclass(frozen=True)
class SequenceSpectrum:
    """Finitely supported sequence c[n], n = offset..offset+len-1, with angle."""

    coefficients: np.ndarray = field(repr=False)
    offset: int
    alpha: Angle

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        object.__setattr__(self, "coefficients", c)

    @property
    def indices(self) -> np.ndarray:
        return self.offset + np.arange(self.coefficients.size)


def sequence_spectrum_eval(c: SequenceSpectrum, u) -> np.ndarray:
    """Sequence symbol sum_n c[n] exp(i n^2 cot(a)/2 - i n u csc(a))."""
    angle = as_angle(c.alpha).require_regular()
    n = c.indices
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    phase = np.exp(1j * (angle.cot_alpha / 2.0) * n * n)
    out = np.exp(-1j * angle.csc_alpha * np.outer(u, n)) @ (c.coefficients * phase)
    return out if out.size > 1 else complex(out[0])


def translate_spectrum(Theta: SpectrumSamples, n: int) -> SpectrumSamples:
    """Transform-domain action of the chirp-carried translate by n."""
    angle = Theta.alpha.require_regular()
    u = Theta.grid
    mod = np.exp(1j * (n * n * angle.cot_alpha / 2.0) - 1j * n * angle.csc_alpha * u)
    return SpectrumSamples(Theta.u0, Theta.du, mod * Theta.values, angle)


def translate_atom(phi: SampledSignal, alpha, n: int,
                   grid: tuple[float, float, int]) -> SampledSignal:
    """phi(t-n) exp(-i n (t-n) cot(alpha)) sampled on the requested grid."""
    angle = as_angle(alpha).require_regular()
    t0, dt, count = grid
    t = t0 + dt * np.arange(count)
    # samples on the left: NumPy's complex a*b and b*a can differ in the last bit
    vals = resample(phi, (t0 - n, dt, count)).values * np.exp(
        -1j * n * (t - n) * angle.cot_alpha)
    return SampledSignal(t0, dt, vals)


def _stacked_spectrum(phi: SampledSignal, angle: Angle, grid_count: int,
                      kmax: int) -> tuple[np.ndarray, float]:
    """Theta on the union of kmax-shifted fundamental domains.

    Returns an array of shape (2*kmax+1, grid_count); row r holds the
    samples of Theta(u + (r - kmax) P) for u on the [0, P) grid.
    """
    period = abs(angle.period)
    du = period / grid_count
    m = (2 * kmax + 1) * grid_count
    vals = spectrum_on_grid(phi, angle, -kmax * period, du, m)
    return vals.reshape(2 * kmax + 1, grid_count), du


def _tail_estimate(stack: np.ndarray, kmax: int) -> float:
    # comparison with a 1/u^2-type tail: the rest of the sum is of the order
    # of kmax copies of the outermost ring
    ring = np.abs(stack[0]) ** 2 + np.abs(stack[-1]) ** 2
    return float(kmax * np.max(ring))


def periodization_gram(phi: SampledSignal, alpha, grid_count: int = 256,
                       kmax: int = 64, tail_tol: float = TAIL_TOL) -> PeriodicProfile:
    """G^2(u) = 2 pi sin(a) sum_{|k|<=kmax} |Theta(u + 2 k pi sin a)|^2 on [0, P)."""
    angle = as_angle(alpha).require_regular()
    stack, du = _stacked_spectrum(phi, angle, grid_count, kmax)
    weight = abs(angle.period)  # 2 pi |sin alpha|
    profile = weight * np.sum(np.abs(stack) ** 2, axis=0)
    tail = weight * _tail_estimate(stack, kmax)
    if tail > tail_tol * max(float(np.mean(profile)), TAU_POS):
        raise TailTooFat(f"truncated tail estimate {tail:.3e} exceeds tolerance")
    return PeriodicProfile(abs(angle.period), du, profile, kmax, angle, tail=tail)


def riesz_bounds(profile: PeriodicProfile) -> RieszBounds:
    """Lower/upper bounds of a real nonnegative periodic profile."""
    vals = profile.real_values()
    return RieszBounds(max(float(np.min(vals)), 0.0), float(np.max(vals)))


def biortho_profile(phi: SampledSignal, phi_dual: SampledSignal, alpha,
                    grid_count: int = 256, kmax: int = 64,
                    tail_tol: float = TAIL_TOL) -> PeriodicProfile:
    """L(u) = sum_{|k|<=kmax} Theta(u+kP) conj(Theta_dual(u+kP)) on [0, P)."""
    angle = as_angle(alpha).require_regular()
    stack, du = _stacked_spectrum(phi, angle, grid_count, kmax)
    stack_d, _ = _stacked_spectrum(phi_dual, angle, grid_count, kmax)
    profile = np.sum(stack * np.conj(stack_d), axis=0)
    ring = np.max(np.abs(stack[0] * stack_d[0]) + np.abs(stack[-1] * stack_d[-1]))
    tail = float(kmax * ring)
    scale = max(float(np.mean(np.abs(profile))), TAU_POS)
    if tail > tail_tol * scale:
        raise TailTooFat(f"truncated tail estimate {tail:.3e} exceeds tolerance")
    return PeriodicProfile(abs(angle.period), du, profile, kmax, angle, tail=tail)


def _gram_grid(phi: SampledSignal, phi_dual: SampledSignal,
               n_gram: int) -> tuple[float, float, int]:
    dt = min(phi.dt, phi_dual.dt)
    lo = min(phi.t0, phi_dual.t0) - n_gram - 1.0
    hi = max(phi.t_end, phi_dual.t_end) + n_gram + 1.0
    count = int(math.ceil((hi - lo) / dt)) + 1
    return (lo, dt, count)


def translate_gram(phi: SampledSignal, phi_dual: SampledSignal, alpha,
                   n_gram: int = 8,
                   grid: tuple[float, float, int] | None = None) -> np.ndarray:
    """Gram matrix <phi_n, phi_dual_m> for |n|, |m| <= n_gram."""
    angle = as_angle(alpha).require_regular()
    if grid is None:
        grid = _gram_grid(phi, phi_dual, n_gram)
    t0, dt, count = grid
    ns = range(-n_gram, n_gram + 1)
    A = np.stack([translate_atom(phi, angle, n, grid).values for n in ns])
    B = np.stack([translate_atom(phi_dual, angle, n, grid).values for n in ns])
    w = trap_weights(count, dt)
    return (A * w) @ np.conj(B.T)


def check_biorthogonal(phi: SampledSignal, phi_dual: SampledSignal, alpha,
                       tol: float = 2e-2, grid_count: int = 256,
                       kmax: int = 64, n_gram: int = 8,
                       tail_tol: float = TAIL_TOL) -> AnalysisReport:
    """Two-criterion biorthogonality verdict: spectral constancy + direct Gram.

    PASS means L(u) is constant within tol of its mean, the translate Gram is
    c * identity within tol of c, and the constant c is nondegenerate.
    """
    angle = as_angle(alpha).require_regular()
    profile = biortho_profile(phi, phi_dual, angle, grid_count, kmax, tail_tol)
    mean = profile.mean()
    spectral_dev = float(np.max(np.abs(profile.values - mean)))
    spectral_ok = abs(mean) > TAU_POS and spectral_dev <= tol * abs(mean)

    gram = translate_gram(phi, phi_dual, angle, n_gram)
    diag = np.diag(gram)
    c = complex(np.mean(diag))
    off = gram - c * np.eye(gram.shape[0])
    gram_dev = float(np.max(np.abs(off)))
    gram_ok = abs(c) > TAU_POS and gram_dev <= tol * abs(c)

    report = AnalysisReport(
        "check_biorthogonal",
        RunConfig(alpha=angle.alpha, kmax=kmax, grid_count=grid_count,
                  n_gram=n_gram, tolerances={"biortho": tol}),
    )
    report.add("spectral_constancy", spectral_ok,
               spectral_dev / abs(mean) if abs(mean) > TAU_POS else math.inf,
               f"mean L = {mean:.6g}")
    report.add("direct_gram", gram_ok,
               gram_dev / abs(c) if abs(c) > TAU_POS else math.inf,
               f"c = {c:.6g}")
    report.extras["constant"] = c.real
    report.extras["constant_spectral"] = (mean * abs(angle.period)).real
    report.extras["tail"] = profile.tail
    return report


def dual_scaling(phi: SampledSignal, alpha, grid_count: int = 512,
                 kmax: int = 128,
                 out_grid: tuple[float, float, int] | None = None,
                 tau_pos: float = TAU_POS) -> SampledSignal:
    """Dual generator: divide the transform by its own periodization, invert.

    The dual's translates are biorthogonal to those of phi with constant
    2 pi sin(alpha); dividing the result by that constant gives the
    delta-normalized dual.
    """
    angle = as_angle(alpha).require_regular()
    period = abs(angle.period)
    stack, du = _stacked_spectrum(phi, angle, grid_count, kmax)
    perio = np.sum(np.abs(stack) ** 2, axis=0)
    if float(np.min(perio)) <= tau_pos:
        raise RieszLowerBoundZero(
            f"periodization minimum {np.min(perio):.3e} <= {tau_pos:g}")
    dual_stack = stack / perio[None, :]
    u0 = -kmax * period
    spec_signal = SampledSignal(u0, du, dual_stack.reshape(-1))
    if out_grid is None:
        margin = 8.0
        t0 = phi.t0 - margin
        count = phi.n + int(round(2 * margin / phi.dt))
        out_grid = (t0, phi.dt, count)
    vals = spectrum_on_grid(spec_signal, angle.negated(),
                            out_grid[0], out_grid[1], out_grid[2])
    return SampledSignal(out_grid[0], out_grid[1], vals)


def translate_expansion(f: SampledSignal, phi: SampledSignal,
                        phi_dual: SampledSignal, alpha,
                        N: int) -> tuple[SequenceSpectrum, float]:
    """Analysis against dual translates, synthesis with primal translates.

    a[n] = <f, dual translate n> for |n| <= N; the synthesis uses a[n]/c with
    c the measured diagonal Gram constant, so a biorthogonal (not
    biorthonormal) pair still reconstructs. Returns (a, residual L2 norm).
    """
    angle = as_angle(alpha).require_regular()
    grid = (f.t0, f.dt, f.n)
    atoms = [translate_atom(phi, angle, n, grid) for n in range(-N, N + 1)]
    duals = [translate_atom(phi_dual, angle, n, grid) for n in range(-N, N + 1)]
    a = np.array([f.inner(d) for d in duals])
    grid0 = _gram_grid(phi, phi_dual, 0)
    c = translate_atom(phi, angle, 0, grid0).inner(
        translate_atom(phi_dual, angle, 0, grid0))
    recon = np.zeros(f.n, dtype=np.complex128)
    for coef, atom in zip(a, atoms):
        recon += (coef / c) * atom.values
    residual = SampledSignal(f.t0, f.dt, f.values - recon).norm()
    return SequenceSpectrum(a, -N, angle), residual
