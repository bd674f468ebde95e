"""Angles, uniformly sampled signals/spectra, resampling, and CSV I/O.

Grids are always stored as (start, step, count); abscissae are derived,
never stored, so grid arithmetic stays exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DegenerateAngle, InputError

TAU_DEG = 1e-9      # angle degeneracy tolerance, radians
TAU_TAIL = 1e-10    # relative tail-mass tolerance

REGULAR = "Regular"
IDENTITY = "IdentityDegenerate"
REFLECTION = "ReflectionDegenerate"

# grid points within this fraction of a step of a sample are treated as hits
HIT_TOL = 1e-8
# largest numerator and denominator of a step ratio resample evaluates by
# polyphase convolution
RESAMPLE_MAX_TERM = 64
# points per sinc block of sample_at
_CHUNK = 512


@dataclass(frozen=True)
class Angle:
    """Transform angle with its cached trigonometric derivates."""

    alpha: float
    cot_alpha: float
    csc_alpha: float
    sin_alpha: float
    klass: str

    @classmethod
    def from_radians(cls, alpha: float) -> "Angle":
        r = math.fmod(alpha, 2.0 * math.pi)
        if r < 0.0:
            r += 2.0 * math.pi
        if min(r, 2.0 * math.pi - r) < TAU_DEG:
            return cls(alpha, math.nan, math.nan, 0.0, IDENTITY)
        if abs(r - math.pi) < TAU_DEG:
            return cls(alpha, math.nan, math.nan, 0.0, REFLECTION)
        s = math.sin(alpha)
        return cls(alpha, math.cos(alpha) / s, 1.0 / s, s, REGULAR)

    @property
    def is_regular(self) -> bool:
        return self.klass == REGULAR

    def require_regular(self) -> "Angle":
        if not self.is_regular:
            raise DegenerateAngle(f"alpha={self.alpha} is {self.klass}")
        return self

    def negated(self) -> "Angle":
        return Angle.from_radians(-self.alpha)

    @property
    def period(self) -> float:
        """Fundamental period 2*pi*sin(alpha) of periodizations at this angle."""
        self.require_regular()
        return 2.0 * math.pi * self.sin_alpha


def as_angle(alpha) -> Angle:
    if isinstance(alpha, Angle):
        return alpha
    return Angle.from_radians(float(alpha))


def trap_weights(n: int, step: float) -> np.ndarray:
    """Trapezoid quadrature weights on a uniform grid."""
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples on the uniform grid t0 + i*dt, i = 0..n-1."""

    t0: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    def norm_sq(self) -> float:
        return float(np.real(trap_weights(self.n, self.dt) @ (np.abs(self.values) ** 2)))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inner(self, other: "SampledSignal") -> complex:
        """Trapezoid <self, other> on a shared grid."""
        if (other.n != self.n or abs(other.t0 - self.t0) > HIT_TOL * self.dt
                or abs(other.dt - self.dt) > HIT_TOL * self.dt):
            raise ValueError("inner product requires identical grids")
        w = trap_weights(self.n, self.dt)
        return complex(np.sum(w * self.values * np.conj(other.values)))

    def scaled(self, c: complex) -> "SampledSignal":
        return SampledSignal(self.t0, self.dt, c * self.values)

    def minus(self, other: "SampledSignal") -> "SampledSignal":
        return SampledSignal(self.t0, self.dt, self.values - other.values)


@dataclass(frozen=True)
class SpectrumSamples:
    """Complex spectrum samples on u0 + i*du, tagged with the producing angle."""

    u0: float
    du: float
    values: np.ndarray = field(repr=False)
    alpha: Angle = field(default_factory=lambda: Angle.from_radians(math.pi / 2))

    def __post_init__(self):
        if self.du <= 0.0:
            raise ValueError("du must be positive")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return self.u0 + self.du * np.arange(self.n)

    def norm_sq(self) -> float:
        return float(np.real(trap_weights(self.n, self.du) @ (np.abs(self.values) ** 2)))

    def as_signal(self) -> SampledSignal:
        return SampledSignal(self.u0, self.du, self.values)


def sample_at(signal: SampledSignal, points: np.ndarray) -> np.ndarray:
    """Evaluate a sampled signal at arbitrary abscissae.

    Points landing on grid samples (within HIT_TOL of a step) are read off
    directly; everything else is band-limited (sinc) interpolation. Points
    outside the grid that are not hits evaluate through the same sinc sum,
    which decays to zero for decaying signals.
    """
    points = np.asarray(points, dtype=np.float64)
    idx = (points - signal.t0) / signal.dt
    rounded = np.rint(idx)
    hit = np.abs(idx - rounded) <= HIT_TOL
    out = np.zeros(points.shape, dtype=np.complex128)

    inside = hit & (rounded >= 0) & (rounded <= signal.n - 1)
    out[inside] = signal.values[rounded[inside].astype(np.intp)]

    miss = ~hit
    if np.any(miss):
        # sinc(x - i) = (-1)^(k - i) sin(pi r) / (pi (x - i)) with k = rint(x)
        # and r = x - k: one sin per point, of an exact |r| <= 1/2
        x, k = idx[miss], rounded[miss]
        scale = np.sin(np.pi * (x - k)) / np.pi
        scale[k % 2 == 1] *= -1.0
        alt = signal.values.copy()
        alt[1::2] *= -1.0
        vals = np.empty(x.size, dtype=np.complex128)
        m = np.arange(signal.n)
        for lo in range(0, x.size, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, x.size))
            inv = 1.0 / (x[sl, None] - m[None, :])
            # np.sum's pairwise sums: a matrix product's running sum of
            # these alternating terms rounds up to ~5x worse (mpmath check)
            vals[sl].real = (inv * alt.real).sum(axis=1)
            vals[sl].imag = (inv * alt.imag).sum(axis=1)
        out[miss] = scale * vals
    return out


def resample(signal: SampledSignal, grid: tuple[float, float, int]) -> SampledSignal:
    """The signal on the uniform grid (t0, dt, n), with sample_at's values.

    When the step ratio is a small rational p/q (p, q <= RESAMPLE_MAX_TERM)
    the grid splits into q residue classes that each read the source at a
    fixed offset plus a stride of p samples: hit classes read samples
    directly, the others are the valid lags of one FFT convolution of the
    samples with a sinc kernel (convolve_valid). This is the same full sinc sum sample_at evaluates point by
    point, leakage outside the source grid included. Other ratios go
    through sample_at.
    """
    t0, dt, n = grid
    vals = _resample_polyphase(signal, t0, dt, n)
    if vals is None:
        vals = sample_at(signal, t0 + dt * np.arange(n))
    return SampledSignal(t0, dt, vals)


def _resample_polyphase(signal: SampledSignal, t0: float, dt: float,
                        count: int) -> np.ndarray | None:
    """Polyphase evaluation for resample, or None when it does not apply."""
    if count < 1 or not (math.isfinite(t0) and 0.0 < dt < math.inf):
        return None
    r = dt / signal.dt
    ratio = Fraction(r).limit_denominator(RESAMPLE_MAX_TERM)
    p, q = ratio.numerator, ratio.denominator
    n = signal.n
    # the classes' source positions drift from the grid's by at most count
    # times the ratio's rounding, which must stay at sample_at's own rounding
    # level; a bounded p keeps each kernel (n + p*count/q long) near the
    # size of the source plus the target
    if not 0 < p <= RESAMPLE_MAX_TERM or abs(r - p / q) > 4.0 * np.finfo(float).eps * r:
        return None
    v = signal.values
    out = np.zeros(count, dtype=np.complex128)
    for s in range(min(q, count)):
        cls = out[s::q]     # grid points s + l*q read the source at x + l*p
        l = np.arange(cls.size)
        x = (t0 + dt * s - signal.t0) / signal.dt
        if abs(x - round(x)) <= HIT_TOL:
            idx = round(x) + p * l
            ok = (idx >= 0) & (idx <= n - 1)
            cls[ok] = v[idx[ok]]
        else:
            # sum_i v[i] sinc(x + l*p - i) is lag n-1 + l*p of v * kern
            k = math.floor(x)
            kern = np.sinc((x - k) + np.arange(k - n + 1, k + p * (cls.size - 1) + 1))
            cls[:] = convolve_valid(v, kern)[::p]
    return out


def convolve_valid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lags len(a)-1 .. len(b)-1 of the linear convolution a * b.

    One circular FFT convolution of length >= len(b) (len(a) <= len(b)):
    its wrap-around reaches only the lags below len(a)-1, so these are exact.
    """
    size = _fast_len(len(b))
    conv = np.fft.fft(a, size)
    conv *= np.fft.fft(b, size)
    return np.fft.ifft(conv, out=conv)[len(a) - 1:len(b)]


def _fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a length numpy's FFT takes quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def box_signal(grid: tuple[float, float, int]) -> SampledSignal:
    """Indicator of [0,1) with half-sample values at the jumps."""
    t0, dt, n = grid
    t = t0 + dt * np.arange(n)
    vals = np.zeros(n, dtype=np.complex128)
    vals[(t > 0.0) & (t < 1.0)] = 1.0
    vals[np.abs(t) < 1e-12] = 0.5
    vals[np.abs(t - 1.0) < 1e-12] = 0.5
    return SampledSignal(t0, dt, vals)


def reflected(signal: SampledSignal) -> SampledSignal:
    """The signal t -> f(-t) on the mirrored grid."""
    t_end = signal.t0 + signal.dt * (signal.n - 1)
    return SampledSignal(-t_end, signal.dt, signal.values[::-1].copy())


def _validate_column(t: np.ndarray) -> tuple[float, float]:
    if t.size < 2:
        raise InputError("need at least two rows")
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise InputError("abscissae must be strictly increasing")
    step = (t[-1] - t[0]) / (t.size - 1)
    if np.max(np.abs(steps - step)) > 1e-12 * max(abs(step), 1.0):
        raise InputError("abscissa step is not constant to 1e-12 relative")
    return float(t[0]), float(step)


def read_signal_csv(path) -> SampledSignal:
    """Read a `t,re,im` CSV into a SampledSignal."""
    rows = _read_rows(path, ("t", "re", "im"))
    t0, dt = _validate_column(rows[:, 0])
    return SampledSignal(t0, dt, rows[:, 1] + 1j * rows[:, 2])


def write_signal_csv(path, signal: SampledSignal) -> None:
    _write_rows(path, ("t", "re", "im"), signal.grid, signal.values)


def read_spectrum_csv(path) -> SpectrumSamples:
    """Read a `u,re,im` CSV plus its `.json` sidecar carrying alpha."""
    rows = _read_rows(path, ("u", "re", "im"))
    u0, du = _validate_column(rows[:, 0])
    sidecar = Path(path).with_suffix(".json")
    try:
        meta = json.loads(sidecar.read_text())
        alpha = Angle.from_radians(float(meta["alpha"]))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad or missing sidecar {sidecar}: {exc}") from exc
    return SpectrumSamples(u0, du, rows[:, 1] + 1j * rows[:, 2], alpha)


def write_spectrum_csv(path, spectrum: SpectrumSamples) -> None:
    _write_rows(path, ("u", "re", "im"), spectrum.grid, spectrum.values)
    sidecar = Path(path).with_suffix(".json")
    sidecar.write_text(json.dumps({"alpha": spectrum.alpha.alpha}) + "\n")


def _read_rows(path, header: tuple[str, ...]) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or tuple(h.strip() for h in first) != header:
                raise InputError(f"{path}: expected header {','.join(header)}")
            data = [[float(c) for c in row] for row in reader if row]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: non-numeric cell: {exc}") from exc
    if not data:
        raise InputError(f"{path}: no data rows")
    for i, row in enumerate(data, start=1):
        if len(row) != len(header):
            raise InputError(f"{path}: data row {i} has {len(row)} cells, "
                             f"expected {len(header)}")
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path}: non-finite cell (nan or inf)")
    return arr


def _write_rows(path, header, abscissae, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for x, v in zip(abscissae, values):
            writer.writerow([f"{x:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])
