"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls frwave numerics: every value is recomputed from the
transform's definition, from closed-form spectra, or from plain trapezoid
sums written out in NumPy. The library objects passed in are read only for
their sample arrays and grid parameters.
"""

from __future__ import annotations

import math

import numpy as np

# grid points within this fraction of a step of a sample are grid hits
# (the same tolerance frwave.grids.sample_at documents)
HIT_TOL = 1e-8


def trap_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def grid(t0: float, dt: float, n: int) -> np.ndarray:
    return t0 + dt * np.arange(n)


def norm(values: np.ndarray, dt: float) -> float:
    return math.sqrt(float(trap_weights(values.size, dt) @ (np.abs(values) ** 2)))


def frft_dense(values: np.ndarray, t0: float, dt: float, alpha: float,
               u: np.ndarray) -> np.ndarray:
    """Trapezoid sum of the FrFT kernel against samples, straight from its definition.

    K(t, u) = C exp(i (t^2 + u^2) cot/2 - i t u csc), C = sqrt((1 - i cot)/(2 pi)).
    """
    cot, csc = math.cos(alpha) / math.sin(alpha), 1.0 / math.sin(alpha)
    c = np.sqrt(complex(1.0, -cot) / (2.0 * math.pi))
    t = grid(t0, dt, values.size)
    g = values * trap_weights(values.size, dt) * np.exp(0.5j * cot * t * t)
    kern = np.exp(-1j * csc * np.outer(u, t))
    return c * np.exp(0.5j * cot * u * u) * (kern @ g)


def chirp_undersampling(values: np.ndarray, t0: float, dt: float,
                        alpha: float, rel: float = 1e-12) -> float:
    """|cot(alpha)| * max|t| * dt / pi over the samples above rel * peak.

    Above 1 the input chirp exp(i t^2 cot/2) is sampled below its Nyquist
    rate where the signal lives, which is the known near-0/pi defect.
    """
    t = grid(t0, dt, values.size)
    mag = np.abs(values)
    t_eff = float(np.max(np.abs(t[mag > rel * np.max(mag)])))
    return abs(math.cos(alpha) / math.sin(alpha)) * t_eff * dt / math.pi


def mother_spectrum_sq(name: str, omega: np.ndarray) -> np.ndarray:
    """|unitary Fourier transform|^2 of the built-in mother wavelets, in closed form."""
    w = np.asarray(omega, dtype=np.float64)
    if name == "gauss1":          # -t exp(-t^2/2)
        return w * w * np.exp(-w * w)
    if name == "mexican":         # (1 - t^2) exp(-t^2/2)
        return w ** 4 * np.exp(-w * w)
    if name == "haar":            # +1 on (0, 1/2), -1 on (1/2, 1)
        out = np.empty_like(w)
        small = np.abs(w) < 1e-8
        ws = w[~small]
        out[~small] = 16.0 * np.sin(ws / 4.0) ** 4 / (ws * ws) / (2.0 * math.pi)
        out[small] = 0.0
        return out
    if name == "meyer":
        return _meyer_hat(np.abs(w)) ** 2 / (2.0 * math.pi)
    raise ValueError(f"no closed-form spectrum for {name!r}")


def _meyer_nu(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3)


def _meyer_hat(aw: np.ndarray) -> np.ndarray:
    out = np.zeros(aw.shape)
    b1 = (aw >= 2.0 * math.pi / 3.0) & (aw <= 4.0 * math.pi / 3.0)
    b2 = (aw > 4.0 * math.pi / 3.0) & (aw <= 8.0 * math.pi / 3.0)
    out[b1] = np.sin(0.5 * math.pi * _meyer_nu(3.0 * aw[b1] / (2.0 * math.pi) - 1.0))
    out[b2] = np.cos(0.5 * math.pi * _meyer_nu(3.0 * aw[b2] / (4.0 * math.pi) - 1.0))
    return out


def admissibility_reference(name: str, alpha: float, u_max: float, n: int) -> float:
    """Admissibility integral of a built-in mother from its closed-form spectrum.

    The dechirped mother's FrFT has |F(xi)|^2 = |psi_hat(xi / sin a)|^2 / |sin a|,
    integrated against 1/|xi| with the same grid, origin exclusion and
    trapezoid rule that frwave.admissibility_constant documents.
    """
    s = abs(math.sin(alpha))
    xi = np.linspace(-u_max, u_max, n)
    du = xi[1] - xi[0]
    keep = np.abs(xi) >= du
    vals = mother_spectrum_sq(name, xi[keep] / math.sin(alpha)) / s
    return float(np.trapezoid(vals / np.abs(xi[keep]), xi[keep]))


def frwt_reference(f_values: np.ndarray, t0: float, dt: float,
                   mother_values: np.ndarray, m0: float, mdt: float,
                   alpha: float, a: float, b: float) -> complex:
    """Criterion-3 identity: the coefficient is the chirp-conjugated classical one.

    <f, psi_(alpha,a,b)> = exp(-i b^2 cot/2) * sum w f(t) exp(i t^2 cot/2)
    conj(psi((t - b)/a)) / sqrt(a); psi((t - b)/a) is read off the mother's
    samples, which the benchmark's grids make exact (every point a grid hit).
    """
    cot = math.cos(alpha) / math.sin(alpha)
    t = grid(t0, dt, f_values.size)
    idx = ((t - b) / a - m0) / mdt
    rounded = np.rint(idx)
    if np.max(np.abs(idx - rounded)) > HIT_TOL:
        raise ValueError("frwt reference needs every atom point on the mother grid")
    inside = (rounded >= 0) & (rounded <= mother_values.size - 1)
    psi = np.zeros(t.size, dtype=np.complex128)
    psi[inside] = mother_values[rounded[inside].astype(np.intp)]
    w = trap_weights(t.size, dt)
    classical = np.sum(w * f_values * np.exp(0.5j * cot * t * t) * np.conj(psi)) / math.sqrt(a)
    return complex(np.exp(-0.5j * b * b * cot) * classical)
