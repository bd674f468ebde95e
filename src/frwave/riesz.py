"""Periodization profiles, Riesz bounds, biorthogonality of integer translates.

Everything here analyzes the chirp-carried translate family

    phi_n(t) = phi(t - n) * exp(-i n (t - n) cot(alpha)),

the level-0 atoms A[0,n] phi of mra.level_atoms, whose transform at angle
alpha is exp(i n^2 cot(alpha)/2 - i n u csc(alpha)) times the transform of
phi. Consequently every translate question becomes a statement about
profiles with period 2*pi*sin(alpha) in the transform domain:

    G^2(u) = 2 pi sin(alpha) * sum_k |Theta(u + k P)|^2      (Gram/Riesz)
    L(u)   = sum_k Theta(u + k P) conj(Theta_dual(u + k P))  (biorthogonality)

with P = 2 pi sin(alpha). Profiles are sampled on [0, P); the k-sums are
truncated at kmax with a reported tail estimate. In the time domain the
same invariance makes the translate Gram chirp-Toeplitz: translate_gram takes
it from its 4 n_gram + 1 lags at any sampling step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotRealProfile, RieszLowerBoundZero, TailTooFat
from .frft import chirp_modulate, spectrum_on_grid
from .grids import Angle, SampledSignal, as_angle
from .mra import level_atoms
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

    def real_values(self) -> np.ndarray:
        scale = max(1.0, float(np.max(np.abs(self.values))))
        if np.max(np.abs(np.imag(self.values))) > REAL_TOL * scale:
            raise NotRealProfile("profile has a significant imaginary part")
        return np.real(self.values)


@dataclass(frozen=True)
class RieszBounds:
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError("need 0 <= lower <= upper")


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
    stack_d = (stack if phi_dual is phi
               else _stacked_spectrum(phi_dual, angle, grid_count, kmax)[0])
    profile = np.sum(stack * np.conj(stack_d), axis=0)
    ring = np.max(np.abs(stack[0] * stack_d[0]) + np.abs(stack[-1] * stack_d[-1]))
    tail = float(kmax * ring)
    scale = max(float(np.mean(np.abs(profile))), TAU_POS)
    if tail > tail_tol * scale:
        raise TailTooFat(f"truncated tail estimate {tail:.3e} exceeds tolerance")
    return PeriodicProfile(abs(angle.period), du, profile, kmax, angle, tail=tail)


def translate_gram(phi: SampledSignal, phi_dual: SampledSignal, alpha,
                   n_gram: int = 8) -> np.ndarray:
    """Gram matrix <phi_n, phi_dual_m> for |n|, |m| <= n_gram.

    The translates are the level-0 atoms of mra.level_atoms, and chirp-
    modulated shift invariance makes their Gram chirp-Toeplitz at every
    sampling step:

        G[n,m] = exp(i (n^2 - m^2) cot/2) c[m - n],
        c[d] = sum_s w_s phi_c(s) conj(phi_dual_c(s - d)),  |d| <= 2 n_gram,

    with phi_c, phi_dual_c the dechirped generators; the t-chirp cancels.
    The sum runs over the samples of the generator with the smaller step
    (phi on a tie), padded by one zero on each side, and the other is
    resampled there; when that generator is phi_dual, G is conj(G^T) of
    the swapped call.
    """
    angle = as_angle(alpha).require_regular()
    swap = phi_dual.dt < phi.dt
    lag, other = (phi_dual, phi) if swap else (phi, phi_dual)
    own = (lag.t0 - lag.dt, lag.dt, lag.n + 2)
    lags = level_atoms(other, angle, 0, -2 * n_gram, 2 * n_gram, own)
    x = lags.weights * np.pad(chirp_modulate(lag, angle, 1).values, 1)
    # one vdot per lag: a (4N+1)-row complex mat-vec is ~15x slower on two
    # BLAS threads than on one, and the vdots are faster than either
    c = np.array([np.vdot(row, x) for row in lags.rows])
    n = np.arange(2 * n_gram + 1)
    row_phase = lags.row_phase[n_gram:3 * n_gram + 1]
    g = row_phase[:, None] * c[n[None, :] - n[:, None] + 2 * n_gram] * np.conj(row_phase)
    return np.conj(g.T) if swap else g


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
    gram = translate_gram(phi, phi_dual, angle, n_gram)
    config = RunConfig(alpha=angle.alpha, kmax=kmax, grid_count=grid_count,
                       n_gram=n_gram, tolerances={"biortho": tol, "tail": tail_tol})
    return biortho_verdicts(profile, gram, tol, config)


def biortho_verdicts(profile: PeriodicProfile, gram: np.ndarray, tol: float,
                     config: RunConfig) -> AnalysisReport:
    """check_biorthogonal's verdicts from the profile L(u) and the translate
    Gram, for a caller that keeps the profile."""
    mean = profile.mean()
    spectral_dev = float(np.max(np.abs(profile.values - mean)))
    spectral_ok = abs(mean) > TAU_POS and spectral_dev <= tol * abs(mean)

    diag = np.diag(gram)
    c = complex(np.mean(diag))
    off = gram - c * np.eye(gram.shape[0])
    gram_dev = float(np.max(np.abs(off)))
    gram_ok = abs(c) > TAU_POS and gram_dev <= tol * abs(c)

    report = AnalysisReport("check_biorthogonal", config)
    report.add("spectral_constancy", spectral_ok,
               spectral_dev / abs(mean) if abs(mean) > TAU_POS else math.inf,
               f"mean L = {mean:.6g}")
    report.add("direct_gram", gram_ok,
               gram_dev / abs(c) if abs(c) > TAU_POS else math.inf,
               f"c = {c:.6g}")
    report.extras["constant"] = c.real
    report.extras["constant_spectral"] = (mean * profile.period).real
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
    vals = spectrum_on_grid(spec_signal, angle.negated(), *out_grid)
    return SampledSignal(out_grid[0], out_grid[1], vals)
