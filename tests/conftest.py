import importlib

import numpy as np
import pytest

from frwave import SampledSignal, as_angle


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
