import importlib

import numpy as np
import pytest

from frwave import SampledSignal, as_angle, spectrum_on_grid


def gaussian_signal(grid, sigma=1.0, center=0.0, carrier=0.0, alpha=None):
    """Gaussian (optionally modulated / chirped to an angle), unnormalized."""
    t0, dt, n = grid
    t = t0 + dt * np.arange(n)
    vals = np.exp(1j * carrier * t - (t - center) ** 2 / (2.0 * sigma ** 2))
    vals = vals.astype(np.complex128)
    if alpha is not None:
        angle = as_angle(alpha)
        vals *= np.exp(-1j * (angle.cot_alpha / 2.0) * t * t)
    return SampledSignal(t0, dt, vals)


@pytest.fixture
def bluestein_calls(monkeypatch):
    """Input sizes of the Bluestein convolutions frwave.frft makes in a test."""
    frft_module = importlib.import_module("frwave.frft")
    convolve = frft_module.convolve_valid
    calls = []
    monkeypatch.setattr(frft_module, "convolve_valid",
                        lambda a, b: calls.append(a.size) or convolve(a, b))
    return calls


@pytest.fixture
def wide_grid():
    return (-16.0, 2.0 ** -7, 4096)


def max_abs(a, b=None):
    a = np.asarray(a)
    if b is not None:
        a = a - np.asarray(b)
    return float(np.max(np.abs(a)))


def decay_bounds(sig, alpha, w_max=64.0 * np.pi, count=4096):
    """The sampled fits of a spectrum's decay, with windows in w = u csc(alpha).

    |Theta_alpha(u)| = |F phi_c(w)| / sqrt|sin alpha|, so the fits read the
    classical frequency w at every angle. Returns two predicates:
    tail(s) fits C on |w| <= w_max/2 and asks |Theta| <= 1.1 C (1 + |w|)^(-s)
    on w_max/2 < |w| <= w_max; origin(r) fits C on 0.5 <= |w| <= 2 and asks
    |Theta| <= 2 C |w|^r on 0 < |w| <= 0.5.
    """
    angle = as_angle(alpha)
    sin = abs(angle.sin_alpha)
    du = 2.0 * w_max * sin / count
    mag = np.abs(spectrum_on_grid(sig, angle, -w_max * sin, du, count + 1))
    w = np.abs(-w_max + (du / sin) * np.arange(count + 1))

    def tail(s):
        inner = w <= w_max / 2.0
        c = np.max(mag[inner] * (1.0 + w[inner]) ** s)
        return bool(np.all(mag[~inner] <= 1.1 * c * (1.0 + w[~inner]) ** -s + 1e-12))

    def origin(r):
        fit = (w >= 0.5) & (w <= 2.0)
        c = np.max(mag[fit] / w[fit] ** r)
        near = (w > 0.0) & (w <= 0.5)
        return bool(np.all(mag[near] <= 2.0 * c * w[near] ** r + 1e-12))

    return tail, origin
