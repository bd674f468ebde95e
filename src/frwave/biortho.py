"""Dual wavelet construction and verification from biorthogonal filter banks.

Symbols: Lambda/Lambda_dual are the auxiliary symbols of the lowpass taps,
Gamma/Gamma_dual of the highpass taps. The highpass symbols follow the
conjugate-mirror rule in the fractional domain,

    Gamma(u)      = e^{-i u csc a} conj(Lambda_dual(u + pi sin a)),
    Gamma_dual(u) = e^{-i u csc a} conj(Lambda(u + pi sin a)),

and the bank is admissible when M(u) conj(M_dual(u))^T = I for the 2x2
modulation matrices M = [[Lambda(u), Lambda(u+pi sin a)],
[Gamma(u), Gamma(u+pi sin a)]] (and likewise M_dual).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyBattery, InputError
from .frft import spectrum_on_grid
from .grids import Angle, SampledSignal, as_angle, trap_weights
from .mra import (
    MRALevel,
    ScalingFilter,
    auxiliary_function,
    level_atom,
    project,
    two_scale_apply,
)
from .report import AnalysisReport
from .riesz import check_biorthogonal, translate_gram

CONSTRUCTED = "Constructed"
LOADED = "Loaded"

TAU_MAT = 1e-6
U_MAX = 64.0 * math.pi


@dataclass(frozen=True)
class WaveletFilterBank:
    h: ScalingFilter
    h_dual: ScalingFilter
    g: ScalingFilter
    g_dual: ScalingFilter
    origin: str = CONSTRUCTED

    def __post_init__(self):
        alphas = {f.alpha.alpha for f in (self.h, self.h_dual, self.g, self.g_dual)}
        if len(alphas) != 1:
            raise ValueError("all four filters must share one angle")

    @property
    def alpha(self) -> Angle:
        return self.h.alpha


@dataclass(frozen=True)
class BiorthoWaveletPair:
    psi: SampledSignal
    psi_dual: SampledSignal
    alpha: Angle
    bank: WaveletFilterBank


@dataclass(frozen=True)
class DecayReport:
    C: float
    epsilon: float
    pass_phi: bool
    pass_phi_dual: bool
    pass_psi_origin: bool
    pass_psi_dual_origin: bool

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def highpass_from_lowpass(h_dual: ScalingFilter) -> ScalingFilter:
    """Conjugate-mirror highpass: taps realizing Gamma from Lambda_dual.

    In tap form g[m] = (-1)^(1-m) conj(hd[1-m]) e^{-i((1-m)^2 + m^2) cot(a)/8},
    which reduces to the classical g[m] = (-1)^(m+1) hd[1-m] at a = pi/2.
    """
    angle = h_dual.alpha.require_regular()
    nmin, nmax = int(h_dual.offset), int(h_dual.offset) + h_dual.taps.size - 1
    ms = np.arange(1 - nmax, 1 - nmin + 1)
    taps = np.array([
        ((-1.0) ** (1 - m)) * np.conj(h_dual.tap(1 - m))
        * np.exp(-1j * (angle.cot_alpha / 8.0) * ((1 - m) ** 2 + m ** 2))
        for m in ms])
    return ScalingFilter(taps, int(ms[0]), angle)


def make_bank(h: ScalingFilter, h_dual: ScalingFilter | None = None,
              g: ScalingFilter | None = None,
              g_dual: ScalingFilter | None = None,
              origin: str = CONSTRUCTED) -> WaveletFilterBank:
    """Assemble a bank, deriving missing filters by the conjugate-mirror rule."""
    if h_dual is None:
        h_dual = h
    if g is None:
        g = highpass_from_lowpass(h_dual)
    if g_dual is None:
        g_dual = highpass_from_lowpass(h)
    return WaveletFilterBank(h, h_dual, g, g_dual, origin)


def _modulation_matrix(lo: ScalingFilter, hi: ScalingFilter,
                       u: np.ndarray) -> np.ndarray:
    angle = lo.alpha
    half = abs(angle.period) / 2.0  # pi * |sin alpha|
    rows = np.empty((2, 2, u.size), dtype=np.complex128)
    rows[0, 0] = auxiliary_function(lo, u)
    rows[0, 1] = auxiliary_function(lo, u + half)
    rows[1, 0] = auxiliary_function(hi, u)
    rows[1, 1] = auxiliary_function(hi, u + half)
    return rows


def matrix_condition_defect(bank: WaveletFilterBank, grid_count: int = 256) -> float:
    """max entrywise deviation of M(u) conj(M_dual(u))^T from the identity."""
    angle = bank.alpha
    period = abs(angle.period)
    u = (period / grid_count) * np.arange(grid_count)
    M = _modulation_matrix(bank.h, bank.g, u)
    Md = _modulation_matrix(bank.h_dual, bank.g_dual, u)
    prod = np.einsum("ikl,jkl->ijl", M, np.conj(Md))
    eye = np.eye(2)[:, :, None]
    return float(np.max(np.abs(prod - eye)))


def wavelet_synthesize(bank: WaveletFilterBank, phi: SampledSignal,
                       phi_dual: SampledSignal) -> BiorthoWaveletPair:
    """psi = sum_n g[n] A[1,n] phi; psi_dual likewise from g_dual, phi_dual."""
    psi = two_scale_apply(phi, bank.g, _synthesis_grid(phi, bank.g))
    psi_d = two_scale_apply(phi_dual, bank.g_dual,
                            _synthesis_grid(phi_dual, bank.g_dual))
    return BiorthoWaveletPair(psi, psi_d, bank.alpha, bank)


def _synthesis_grid(phi: SampledSignal, g: ScalingFilter) -> tuple[float, float, int]:
    nmin = int(g.offset)
    nmax = nmin + g.taps.size - 1
    lo = min(phi.t0, (phi.t0 + nmin) / 2.0) - 0.5
    hi = max(phi.t_end, (phi.t_end + nmax) / 2.0) + 0.5
    lo = phi.t0 - math.ceil((phi.t0 - lo) / phi.dt) * phi.dt
    count = int(math.ceil((hi - lo) / phi.dt)) + 1
    return (lo, phi.dt, count)


def wavelet_biortho_check(pair: BiorthoWaveletPair, tol: float = 2e-2,
                          **kwargs) -> AnalysisReport:
    """Biorthogonality of the wavelet translates, same semantics as scaling."""
    return check_biorthogonal(pair.psi, pair.psi_dual, pair.alpha, tol, **kwargs)


def cross_orthogonality_check(pair: BiorthoWaveletPair, phi: SampledSignal,
                              phi_dual: SampledSignal, n_gram: int = 8) -> float:
    """max |<psi_n, phi_dual_m>| and |<psi_dual_n, phi_m>| over |n|,|m| <= n_gram."""
    a = translate_gram(pair.psi, phi_dual, pair.alpha, n_gram)
    b = translate_gram(pair.psi_dual, phi, pair.alpha, n_gram)
    return float(max(np.max(np.abs(a)), np.max(np.abs(b))))


def level_split_defect(f: SampledSignal, pair: BiorthoWaveletPair,
                       phi: SampledSignal, phi_dual: SampledSignal,
                       k_proj: int = 64, dual: bool = False) -> float:
    """||P_1 f - P_0 f - W_0 f||_2 for the oblique level projections.

    dual=True checks the swapped (analysis-side) split instead; when the
    dual generator is only known through band-limited samples that variant
    carries the sampling error of the dual, so the two are reported apart.
    """
    alpha = pair.alpha
    p, pd, w, wd = ((phi_dual, phi, pair.psi_dual, pair.psi) if dual
                    else (phi, phi_dual, pair.psi, pair.psi_dual))
    p1 = project(f, MRALevel(1, p, pd, alpha), k_proj)
    p0 = project(f, MRALevel(0, p, pd, alpha), k_proj)
    w0 = project(f, MRALevel(0, w, wd, alpha), k_proj)
    return float(p1.minus(p0).minus(w0).norm())


def _atom_matrix(psi: SampledSignal, alpha: Angle,
                 grid: tuple[float, float, int], jk_list) -> np.ndarray:
    rows = [level_atom(psi, alpha, j, k, grid).values for j, k in jk_list]
    return np.stack(rows)


def expand_reconstruct(f: SampledSignal, pair: BiorthoWaveletPair,
                       j_range: tuple[int, int], k_range: tuple[int, int],
                       swap: bool = False) -> tuple[dict, float]:
    """Coefficients <f, psi_dual_(j,k)> and residual of the psi synthesis.

    swap=True analyzes against psi and synthesizes with psi_dual.
    """
    alpha = pair.alpha
    ana, syn = (pair.psi, pair.psi_dual) if swap else (pair.psi_dual, pair.psi)
    grid = (f.t0, f.dt, f.n)
    jk = [(j, k) for j in range(j_range[0], j_range[1] + 1)
          for k in range(k_range[0], k_range[1] + 1)]
    A = _atom_matrix(ana, alpha, grid, jk)
    S = _atom_matrix(syn, alpha, grid, jk)
    w = trap_weights(f.n, f.dt)
    coefs = (np.conj(A) * w) @ f.values
    recon = coefs @ S
    residual = SampledSignal(f.t0, f.dt, f.values - recon).norm()
    table = {jk[i]: complex(coefs[i]) for i in range(len(jk))}
    return table, residual


def decay_check(pair: BiorthoWaveletPair, phi: SampledSignal,
                phi_dual: SampledSignal, eps: float,
                u_max: float = U_MAX, count: int = 4096) -> DecayReport:
    """Polynomial-decay bounds for the scaling spectra, origin bound for psi.

    The constant C is fitted on the inner half of [-u_max, u_max] and the
    bound 1.1*C*(1+|u|)^(-1/2-eps) must hold on the outer half; the origin
    bound fits |F psi|/|u| on 0.5 <= |u| <= 2 and requires |F psi| <= 2*C*|u|
    for |u| <= 0.5.
    """
    alpha = pair.alpha
    du = 2.0 * u_max / count
    u = -u_max + du * np.arange(count + 1)
    au = np.abs(u)

    def tail_ok(sig: SampledSignal) -> tuple[bool, float]:
        mag = np.abs(spectrum_on_grid(sig, alpha, u[0], du, u.size))
        weight = (1.0 + au) ** (0.5 + eps)
        inner = au <= u_max / 2.0
        C = float(np.max(mag[inner] * weight[inner]))
        ok = bool(np.all(mag[~inner] <= 1.1 * C / weight[~inner] + 1e-12))
        return ok, C

    def origin_ok(sig: SampledSignal) -> tuple[bool, float]:
        mag = np.abs(spectrum_on_grid(sig, alpha, u[0], du, u.size))
        fit = (au >= 0.5) & (au <= 2.0)
        C = float(np.max(mag[fit] / au[fit]))
        near = (au > 0) & (au <= 0.5)
        ok = bool(np.all(mag[near] <= 2.0 * C * au[near] + 1e-12))
        return ok, C

    ok_phi, c1 = tail_ok(phi)
    ok_phid, c2 = tail_ok(phi_dual)
    ok_psi, c3 = origin_ok(pair.psi)
    ok_psid, c4 = origin_ok(pair.psi_dual)
    return DecayReport(max(c1, c2, c3, c4), eps, ok_phi, ok_phid, ok_psi, ok_psid)


def riesz_frame_bounds(pair: BiorthoWaveletPair, battery,
                       j_range: tuple[int, int], k_range: tuple[int, int],
                       ) -> tuple["RieszBoundsPair", list[float], list[float]]:
    """Empirical frame bounds of the wavelet system and its dual.

    Returns ((A, B, A_dual, B_dual), primal ratios, dual ratios); members
    whose ratio is below 1e-6 are treated as truncation artifacts and skipped.
    """
    if not battery:
        raise EmptyBattery("frame bounds need a nonempty battery")
    f0 = battery[0]
    grid = (f0.t0, f0.dt, f0.n)
    alpha = pair.alpha
    jk = [(j, k) for j in range(j_range[0], j_range[1] + 1)
          for k in range(k_range[0], k_range[1] + 1)]
    w = trap_weights(f0.n, f0.dt)
    A_p = np.conj(_atom_matrix(pair.psi, alpha, grid, jk)) * w
    A_d = np.conj(_atom_matrix(pair.psi_dual, alpha, grid, jk)) * w

    def ratios(mat) -> list[float]:
        out = []
        for f in battery:
            r = float(np.sum(np.abs(mat @ f.values) ** 2)) / f.norm_sq()
            if r > 1e-6:
                out.append(r)
        return out

    rp, rd = ratios(A_p), ratios(A_d)
    if not rp or not rd:
        raise EmptyBattery("every battery member was a truncation artifact")
    return RieszBoundsPair(min(rp), max(rp), min(rd), max(rd)), rp, rd


@dataclass(frozen=True)
class RieszBoundsPair:
    A: float
    B: float
    A_dual: float
    B_dual: float

    def duality_ok(self, slack: float = 0.1) -> bool:
        """Thm-style duality: the primal lower bound dominates (1-slack)/B_dual."""
        return self.A >= (1.0 - slack) / self.B_dual


def cross_level_orthogonality(pair: BiorthoWaveletPair, pairs_of_levels,
                              n_gram: int = 4) -> float:
    """max |<psi_(j,k), psi_dual_(j',k')>| over level pairs with j != j'."""
    alpha = pair.alpha
    lo = min(pair.psi.t0, pair.psi_dual.t0) - (n_gram + 1) * 2.0
    hi = max(pair.psi.t_end, pair.psi_dual.t_end) + (n_gram + 1) * 2.0
    dt = min(pair.psi.dt, pair.psi_dual.dt)
    grid = (lo, dt, int(math.ceil((hi - lo) / dt)) + 1)
    w = trap_weights(grid[2], dt)
    worst = 0.0
    for j, jp in pairs_of_levels:
        if j == jp:
            raise ValueError("cross-level check requires j != j'")
        jk = [(j, k) for k in range(-n_gram, n_gram + 1)]
        jpk = [(jp, k) for k in range(-n_gram, n_gram + 1)]
        P = _atom_matrix(pair.psi, alpha, grid, jk)
        D = _atom_matrix(pair.psi_dual, alpha, grid, jpk)
        worst = max(worst, float(np.max(np.abs((P * w) @ np.conj(D.T)))))
    return worst


def _filter_to_json(f: ScalingFilter) -> list:
    return [[float(c.real), float(c.imag)] for c in f.taps]


def save_bank(path, bank: WaveletFilterBank) -> None:
    doc = {"alpha": bank.alpha.alpha}
    for name, filt in (("h", bank.h), ("h_dual", bank.h_dual),
                       ("g", bank.g), ("g_dual", bank.g_dual)):
        doc[name] = _filter_to_json(filt)
        doc[name + "_offset"] = int(filt.offset)
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_bank(path) -> WaveletFilterBank:
    """Read a bank JSON; absent highpass entries are derived from the lowpass."""
    try:
        doc = json.loads(Path(path).read_text())
        angle = as_angle(float(doc["alpha"])).require_regular()

        def read(name):
            if name not in doc:
                return None
            taps = np.array([complex(re, im) for re, im in doc[name]])
            return ScalingFilter(taps, int(doc.get(name + "_offset", 0)), angle)

        h = read("h")
        if h is None:
            raise InputError(f"{path}: missing lowpass 'h'")
        return make_bank(h, read("h_dual"), read("g"), read("g_dual"),
                         origin=LOADED)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"bad bank JSON {path}: {exc}") from exc
