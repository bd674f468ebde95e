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

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyBattery, InputError
from .grids import Angle, SampledSignal, as_angle
from .mra import (
    MRALevel,
    ScalingFilter,
    auxiliary_function,
    decay_exponent,
    level_atoms,
    lowpass_sum_mismatch,
    project,
    two_scale_apply,
    zero_order,
)
from .report import AnalysisReport, Verdict
from .riesz import check_biorthogonal, translate_gram

DECAY_EPS = 0.05       # decay_check: scaling spectra below |u|^(-1/2 - DECAY_EPS)
DUALITY_SLACK = 0.1    # duality_ok: A >= (1 - DUALITY_SLACK) / B_dual
CROSS_LEVEL_K = 4      # cross_level_orthogonality: translates |k| <= CROSS_LEVEL_K


@dataclass(frozen=True)
class WaveletFilterBank:
    h: ScalingFilter
    h_dual: ScalingFilter
    g: ScalingFilter
    g_dual: ScalingFilter

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


def highpass_from_lowpass(h_dual: ScalingFilter) -> ScalingFilter:
    """Conjugate-mirror highpass: taps realizing Gamma from Lambda_dual.

    In tap form g[m] = (-1)^(1-m) conj(hd[1-m]) e^{-i((1-m)^2 + m^2) cot(a)/8},
    which reduces to the classical g[m] = (-1)^(m+1) hd[1-m] at a = pi/2.
    """
    angle = h_dual.alpha.require_regular()
    ms = 1 - h_dual.indices[::-1]
    taps = np.array([
        ((-1.0) ** (1 - m)) * np.conj(h_dual.tap(1 - m))
        * np.exp(-1j * (angle.cot_alpha / 8.0) * ((1 - m) ** 2 + m ** 2))
        for m in ms])
    return ScalingFilter(taps, int(ms[0]), angle)


def make_bank(h: ScalingFilter, h_dual: ScalingFilter | None = None,
              g: ScalingFilter | None = None,
              g_dual: ScalingFilter | None = None) -> WaveletFilterBank:
    """Assemble a bank, deriving missing filters by the conjugate-mirror rule."""
    if h_dual is None:
        h_dual = h
    if g is None:
        g = highpass_from_lowpass(h_dual)
    if g_dual is None:
        g_dual = highpass_from_lowpass(h)
    return WaveletFilterBank(h, h_dual, g, g_dual)


def _modulation_matrix(lo: ScalingFilter, hi: ScalingFilter,
                       u: np.ndarray) -> np.ndarray:
    half = abs(lo.alpha.period) / 2.0  # pi * |sin alpha|
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
                       k_proj: int = 64) -> float:
    """||P_1 f - P_0 f - W_0 f||_2 for the oblique level projections.

    Swapping phi, phi_dual and the pair's psi, psi_dual gives the dual split.
    """
    alpha = pair.alpha
    p1 = project(f, MRALevel(1, phi, phi_dual, alpha), k_proj)
    p0 = project(f, MRALevel(0, phi, phi_dual, alpha), k_proj)
    w0 = project(f, MRALevel(0, pair.psi, pair.psi_dual, alpha), k_proj)
    return float(p1.minus(p0).minus(w0).norm())


def expand_reconstruct(f: SampledSignal, pair: BiorthoWaveletPair,
                       j_range: tuple[int, int],
                       k_range: tuple[int, int]) -> tuple[dict, float]:
    """Coefficients <f, psi_dual_(j,k)> and residual of the psi synthesis.

    A pair with psi, psi_dual swapped analyzes against psi instead.
    """
    alpha = pair.alpha
    ks = range(k_range[0], k_range[1] + 1)
    table = {}
    recon = np.zeros(f.n, dtype=np.complex128)
    for j in range(j_range[0], j_range[1] + 1):
        span = (j, k_range[0], k_range[1], (f.t0, f.dt, f.n))
        coefs = level_atoms(pair.psi_dual, alpha, *span).analyze(f.values)
        recon += level_atoms(pair.psi, alpha, *span).synthesize(coefs)
        table.update(zip(itertools.product([j], ks), coefs.tolist()))
    residual = SampledSignal(f.t0, f.dt, f.values - recon).norm()
    return table, residual


def decay_check(bank: WaveletFilterBank) -> Verdict:
    """The paper's decay assumptions, certified from the bank's taps.

    Both lowpass filters need a certified exponent (mra.decay_exponent) above
    1/2 + DECAY_EPS, and both highpass symbols a zero at omega = 0. The value
    is the smaller exponent; a failure means "not certified" (one-sided).
    """
    s = min(decay_exponent(bank.h), decay_exponent(bank.h_dual))
    orders = [zero_order(g.classical_taps, 1.0)[0] for g in (bank.g, bank.g_dual)]
    passed = s > 0.5 + DECAY_EPS and min(orders) >= 1
    return Verdict(passed, s, f"{'' if passed else 'not '}certified: needs s > "
                   f"{0.5 + DECAY_EPS:g} and origin orders >= 1; origin orders "
                   f"g={orders[0]} g_dual={orders[1]}")


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
    F = np.stack([f.values for f in battery])
    norms = np.array([f.norm_sq() for f in battery])

    def ratios(psi) -> list[float]:
        energy = np.zeros(len(battery))
        for j in range(j_range[0], j_range[1] + 1):
            coefs = level_atoms(psi, pair.alpha, j, *k_range, grid).analyze(F)
            energy += np.sum(np.abs(coefs) ** 2, axis=1)
        return [float(r) for r in energy / norms if r > 1e-6]

    rp, rd = ratios(pair.psi), ratios(pair.psi_dual)
    if not rp or not rd:
        raise EmptyBattery("every battery member was a truncation artifact")
    return RieszBoundsPair(min(rp), max(rp), min(rd), max(rd)), rp, rd


@dataclass(frozen=True)
class RieszBoundsPair:
    A: float
    B: float
    A_dual: float
    B_dual: float

    def duality_ok(self) -> bool:
        """Thm-style duality: A >= (1 - DUALITY_SLACK) / B_dual."""
        return self.A >= (1.0 - DUALITY_SLACK) / self.B_dual


def cross_level_orthogonality(pair: BiorthoWaveletPair, pairs_of_levels) -> float:
    """max |<psi_(j,k), psi_dual_(j',k')>| over level pairs with j != j'
    and |k|, |k'| <= CROSS_LEVEL_K."""
    reach = (CROSS_LEVEL_K + 1) * 2.0
    lo = min(pair.psi.t0, pair.psi_dual.t0) - reach
    hi = max(pair.psi.t_end, pair.psi_dual.t_end) + reach
    dt = min(pair.psi.dt, pair.psi_dual.dt)
    grid = (lo, dt, int(math.ceil((hi - lo) / dt)) + 1)
    ks = (-CROSS_LEVEL_K, CROSS_LEVEL_K, grid)
    worst = 0.0
    for j, jp in pairs_of_levels:
        if j == jp:
            raise ValueError("cross-level check requires j != j'")
        P = level_atoms(pair.psi, pair.alpha, j, *ks)
        D = level_atoms(pair.psi_dual, pair.alpha, jp, *ks)
        worst = max(worst, float(np.max(np.abs(P.gram(D)))))
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

        h, h_dual = read("h"), read("h_dual")
        if h is None:
            raise InputError(f"{path}: missing lowpass 'h'")
        for name, lowpass in (("h", h), ("h_dual", h_dual)):
            why = lowpass is not None and lowpass_sum_mismatch(lowpass)
            if why:
                raise InputError(f"{path}: '{name}': {why}")
        return make_bank(h, h_dual, read("g"), read("g_dual"))
    except (OSError, ValueError, TypeError, KeyError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"bad bank JSON {path}: {exc}") from exc
