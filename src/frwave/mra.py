"""Multiresolution machinery: level atoms, scaling filters, cascade, projectors.

Level atoms compose dyadic dilation with the angle's chirp bookkeeping:

    A[j,k] phi (t) = 2^(j/2) phi(2^j t - k)
                     * exp(-i [t^2 - (k 2^-j)^2 - (2^j t - k)^2] cot(alpha)/2)

applied to the chirped (fractional) scaling function. With this convention a
refinable classical profile carried on the chirp stays exactly refinable, and
the two-scale relation reads phi = sum_n h[n] A[1,n] phi with taps h[n].

The atoms are chirp-modulated shifts of one dechirped profile
phi_c(s) = phi(s) exp(i s^2 cot(alpha)/2):

    A[j,k] phi (t) = 2^(j/2) exp(i b^2 cot/2) phi_c(2^j t - k) exp(-i t^2 cot/2),

b = k 2^-j, so a whole family k = k_lo..k_hi on one grid is a row phase, a
matrix of shifted copies of phi_c and a column phase (see level_atoms).

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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonConvergent, SupportTooSmall
from .frft import chirp_modulate
from .grids import Angle, SampledSignal, as_angle, box_signal, resample, trap_weights

TAU_TAP = 1e-6
ZERO_TOL = 1e-9        # p(z0) is zero when |p(z0)| <= ZERO_TOL * sum |coef|
CERT_LEVELS = 8        # decay_exponent's longest product of dilated symbols
CERT_GRID = 2 ** 13    # decay_exponent's samples of one period


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

    @property
    def classical_taps(self) -> np.ndarray:
        """The dechirped taps h_c[n] = h[n] exp(i n^2 cot(alpha)/8)."""
        angle = self.alpha.require_regular()
        n = self.indices.astype(float)
        return self.taps * np.exp(1j * (angle.cot_alpha / 8.0) * n ** 2)


@dataclass(frozen=True)
class MRALevel:
    j: int
    phi: SampledSignal
    phi_dual: SampledSignal
    alpha: Angle


@dataclass(frozen=True)
class LevelAtoms:
    """The atoms A[j,k] phi, k = k_lo..k_hi, on one grid, in factored form.

    Atom k at grid point t_i is row_phase[k] * rows[k, i] * col_phase[i]:
    rows[k, i] = phi_c(2^j t_i - k), resampled from the dechirped profile
    phi_c = phi exp(i s^2 cot/2) on phi's own samples, row_phase[k] =
    2^(j/2) exp(i b_k^2 cot/2) with b_k = k 2^-j, and col_phase[i] =
    exp(-i t_i^2 cot/2). Inner products use the grid's trapezoid weights.
    """

    rows: np.ndarray = field(repr=False)
    row_phase: np.ndarray = field(repr=False)
    col_phase: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def values(self) -> np.ndarray:
        """The atoms themselves, one per row."""
        return self.row_phase[:, None] * self.rows * self.col_phase

    def analyze(self, f: np.ndarray) -> np.ndarray:
        """<f, atom k> for every k; f holds grid samples, one signal per row."""
        # conj of sum_i rows[k,i] conj(f_i) w_i col_phase_i: rows stay a view
        z = np.conj(f) * (self.weights * self.col_phase)
        return np.conj((self.rows @ z.T).T * self.row_phase)

    def synthesize(self, coefs: np.ndarray) -> np.ndarray:
        """sum_k coefs[k] atom k on the grid."""
        return ((coefs * self.row_phase) @ self.rows) * self.col_phase

    def gram(self, other: "LevelAtoms") -> np.ndarray:
        """<atom k, other's atom m> for a family on the same grid and angle.

        The column phases have modulus one and cancel.
        """
        inner = (self.rows * self.weights) @ np.conj(other.rows).T
        return self.row_phase[:, None] * inner * np.conj(other.row_phase)


def level_atoms(phi: SampledSignal, alpha, j: int, k_lo: int, k_hi: int,
                grid: tuple[float, float, int]) -> LevelAtoms:
    """A[j,k] phi for k = k_lo..k_hi sampled on the grid (t0, dt, count).

    phi is dechirped once on its own samples, phi_c = phi exp(i s^2 cot/2),
    and row k resamples phi_c on the grid 2^j t - k: the resampler sees the
    smooth classical profile, not a chirp that is undersampled near alpha
    = 0 or pi, and no grid point pays a chirp of its own. When neighbouring
    rows are a whole number S = 1/(2^j dt) of grid steps apart (within
    1e-12), they are windows of one union grid, resampled once, read at
    offsets (k_hi - k) S without a copy; that needs S <= count, or the union
    would be mostly gaps between the windows. Otherwise each row is
    resampled on its own grid.
    """
    angle = as_angle(alpha).require_regular()
    t0, dt, count = grid
    half_cot = angle.cot_alpha / 2.0
    scale = 2.0 ** j
    step = scale * dt
    ks = np.arange(k_lo, k_hi + 1)
    phi_c = chirp_modulate(phi, angle, 1)
    stride = round(1.0 / step)
    if 1 <= stride <= count and abs(1.0 / step - stride) <= 1e-12:
        # row k is the window that starts (k_hi - k) strides into the union
        length = count + (ks.size - 1) * stride
        union = resample(phi_c, (scale * t0 - k_hi, step, length)).values
        rows = sliding_window_view(union, count)[::stride][::-1]
    else:
        rows = np.stack([resample(phi_c, (scale * t0 - k, step, count)).values
                         for k in ks])
    b = ks / scale
    t = t0 + dt * np.arange(count)
    return LevelAtoms(rows, (2.0 ** (j / 2.0)) * np.exp(1j * half_cot * b * b),
                      np.exp(-1j * half_cot * t * t), trap_weights(count, dt))


def level_atom(phi: SampledSignal, alpha, j: int, k: int,
               grid: tuple[float, float, int]) -> SampledSignal:
    """A[j,k] applied to phi, sampled on the requested grid."""
    vals = level_atoms(phi, alpha, j, k, k, grid).values()[0]
    return SampledSignal(grid[0], grid[1], vals)


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
    taps = level_atoms(other, angle, 1, nmin, nmax, grid).analyze(phi.values)
    edge = max(abs(taps[0]), abs(taps[-1]))
    if edge > tau_tap:
        raise SupportTooSmall(f"boundary tap magnitude {edge:.3e} > {tau_tap:g}")
    return ScalingFilter(taps, nmin, angle)


def auxiliary_function(h: ScalingFilter, u) -> np.ndarray:
    """Lambda(u): periodic two-scale symbol of the taps (see module docstring)."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    coef = h.classical_taps / math.sqrt(2.0)
    out = tap_symbol(coef, h.offset, h.alpha.csc_alpha * u_arr)
    return out if np.ndim(u) else complex(out[0])


def tap_symbol(coef: np.ndarray, offset: int, omega: np.ndarray) -> np.ndarray:
    """sum_n coef[n - offset] exp(-i n omega), by Horner's rule in exp(-i omega)."""
    z = np.exp(-1j * omega)
    return np.polyval(coef[::-1], z) * z ** offset


def zero_order(coef: np.ndarray, z0: float) -> tuple[int, np.ndarray]:
    """Order of the zero at z0 of sum_n coef[n] z^n, and the quotient's coefs.

    Divides by (z - z0) while |p(z0)| <= ZERO_TOL * sum |coef|.
    """
    tol = ZERO_TOL * float(np.sum(np.abs(coef)))
    p, order = coef[::-1], 0
    while p.size > 1 and abs(np.polyval(p, z0)) <= tol:
        p, order = np.polydiv(p, np.array([1.0, -z0]))[0], order + 1
    return order, p[::-1]


def decay_exponent(h: ScalingFilter) -> float:
    """Certified s: |phi_c^(w)| <= C (1 + |w|)^(-s) for the scaling function of h.

    With m0 = ((1 + e^{-iw})/2)^N L, s = N - log2(sup_w prod_{i<k} |L(2^i w)|)/k
    (Daubechies, Ten Lectures, 7.1.2), the best k <= CERT_LEVELS. The sup is
    the maximum on CERT_GRID points (L(2^i w_m) is sample 2^i m mod CERT_GRID)
    over Bernstein's factor 1 - pi D (2^k - 1)/CERT_GRID, D the degree of L.
    A symbol that vanishes on the whole grid certifies nothing: s = -inf.
    """
    n_zeros, rest = zero_order(h.classical_taps / math.sqrt(2.0), -1.0)
    mod_l = np.abs(np.fft.fft(rest * 2.0 ** n_zeros, CERT_GRID))
    prod, m, best = np.ones(CERT_GRID), np.arange(CERT_GRID), -math.inf
    for k in range(1, CERT_LEVELS + 1):
        prod *= mod_l[(m << (k - 1)) % CERT_GRID]
        bernstein = 1.0 - math.pi * (rest.size - 1) * (2 ** k - 1) / CERT_GRID
        if bernstein > 0.0 and prod.any():
            best = max(best, n_zeros - math.log2(float(np.max(prod)) / bernstein) / k)
    return best


def two_scale_apply(phi: SampledSignal, h: ScalingFilter,
                    grid: tuple[float, float, int]) -> SampledSignal:
    """sum_n h[n] A[1,n] phi on the grid — one cascade/two-scale step."""
    nmin = int(h.offset)
    atoms = level_atoms(phi, h.alpha, 1, nmin, nmin + h.taps.size - 1, grid)
    return SampledSignal(grid[0], grid[1], atoms.synthesize(h.taps))


def two_scale_defect(phi: SampledSignal, h: ScalingFilter) -> float:
    """max_t |phi(t) - sum_n h[n] A[1,n] phi(t)| on phi's own grid."""
    recon = two_scale_apply(phi, h, (phi.t0, phi.dt, phi.n))
    return float(np.max(np.abs(phi.values - recon.values)))


def lowpass_sum_mismatch(h: ScalingFilter) -> str | None:
    """Why h is no normalized lowpass, or None when |sum of its classical taps|
    is sqrt(2) within 1e-6 relative."""
    gain = abs(np.sum(h.classical_taps))
    if abs(gain - math.sqrt(2.0)) > 1e-6 * math.sqrt(2.0):
        return f"lowpass normalization sum is {gain:.6g}, not sqrt(2)"
    return None


def refine_cascade(h: ScalingFilter, grid: tuple[float, float, int],
                   iterations: int = 40) -> tuple[SampledSignal, list[float]]:
    """Fixed-point iteration of the two-scale map from a box start.

    Returns the final iterate and the Cauchy increments ||phi_{m+1}-phi_m||.
    The start is the chirped box, whose dechirped integral is 1, which pins
    the limit's normalization at every angle. Taps whose lowpass sum is not
    sqrt(2) within 1e-6 relative raise NonConvergent.
    """
    why = lowpass_sum_mismatch(h)
    if why:
        raise NonConvergent(why)
    phi = chirp_modulate(box_signal(grid), h.alpha, -1)
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
    span = (level.j, -k_proj, k_proj, (f.t0, f.dt, f.n))
    coefs = level_atoms(level.phi_dual, level.alpha, *span).analyze(f.values)
    pf = level_atoms(level.phi, level.alpha, *span).synthesize(coefs)
    return SampledSignal(f.t0, f.dt, pf)


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
