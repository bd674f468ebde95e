import math

import numpy as np
import pytest

from frwave import (
    BiorthoWaveletPair,
    EmptyBattery,
    InputError,
    SampledSignal,
    ScalingFilter,
    as_angle,
    battery,
    cdf53_system,
    cross_level_orthogonality,
    cross_orthogonality_check,
    decay_check,
    expand_reconstruct,
    haar_system,
    highpass_from_lowpass,
    level_split_defect,
    load_bank,
    make_bank,
    matrix_condition_defect,
    riesz_frame_bounds,
    save_bank,
    wavelet_biortho_check,
    wavelet_synthesize,
)
from frwave.banks import spectral_scaling_from_filter
from frwave.cli import _builtin_bank, _scaling_pair_for_bank
from frwave.mra import decay_exponent, zero_order

from conftest import decay_bounds, gaussian_signal, max_abs


def swapped(pair):
    """The pair with psi and psi_dual exchanged."""
    return BiorthoWaveletPair(pair.psi_dual, pair.psi, pair.alpha, pair.bank)


def haar_pair(alpha):
    phi, h = haar_system(alpha)
    return wavelet_synthesize(make_bank(h), phi, phi), phi, phi


def cdf53_pair(alpha):
    phi, h, hd = cdf53_system(alpha)
    grid = (phi.t0 - 2.0, phi.dt, phi.n + int(round(4.0 / phi.dt)))
    phid = spectral_scaling_from_filter(hd, grid)
    return wavelet_synthesize(make_bank(h, hd), phi, phid), phi, phid


def test_highpass_rule_reduces_to_classical():
    # at the quarter turn the rule is g[m] = (-1)^(m+1) h_dual[1-m]
    angle = as_angle(math.pi / 2)
    _, h, hd = cdf53_system(angle)
    g = highpass_from_lowpass(hd)
    for m in g.offset + np.arange(g.taps.size):
        want = ((-1.0) ** (m + 1)) * np.conj(hd.tap(1 - int(m)))
        assert abs(g.tap(int(m)) - want) < 1e-12


def test_bank_requires_shared_angle():
    _, h = haar_system(math.pi / 2)
    _, h2 = haar_system(math.pi / 3)
    with pytest.raises(ValueError):
        make_bank(h, h2)


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3, 2.0 * math.pi / 5])
def test_matrix_condition_builtin_banks(alpha):
    _, h = haar_system(alpha)
    assert matrix_condition_defect(make_bank(h)) < 1e-12
    _, hc, hd = cdf53_system(alpha)
    assert matrix_condition_defect(make_bank(hc, hd)) < 1e-12


def test_matrix_condition_detects_perturbation():
    angle = as_angle(math.pi / 3)
    _, h = haar_system(angle)
    taps = h.taps.copy()
    taps[0] += 0.1
    bad = make_bank(ScalingFilter(taps, h.offset, angle))
    assert matrix_condition_defect(bad) >= 0.05


def test_haar_wavelet_is_classical_at_quarter_turn():
    pair, phi, _ = haar_pair(math.pi / 2)
    psi = pair.psi
    t = psi.grid
    # unit-norm, zero-mean, supported in [0,1], orthogonal to the box
    assert psi.norm() == pytest.approx(1.0, abs=5e-3)
    inside = (t > 1.5) | (t < -0.5)
    assert max_abs(psi.values[inside]) < 1e-12


def test_wavelet_biortho_and_cross_orthogonality():
    for alpha in (math.pi / 2, math.pi / 3):
        pair, phi, phid = haar_pair(alpha)
        assert wavelet_biortho_check(pair).overall_pass
        assert cross_orthogonality_check(pair, phi, phid) < 1e-3


def test_level_split_primal_and_dual():
    pair, phi, phid = haar_pair(math.pi / 3)
    f = battery(3, 1, (-4.0, 2.0 ** -7, 1024), alpha=math.pi / 3)[0]
    assert level_split_defect(f, pair, phi, phid) < 1e-3
    assert level_split_defect(f, swapped(pair), phid, phi) < 1e-3


def test_level_split_detects_broken_bank():
    angle = as_angle(math.pi / 3)
    phi, h = haar_system(angle)
    taps = h.taps.copy()
    taps[0] += 0.1
    bad = make_bank(ScalingFilter(taps, h.offset, angle))
    pair = wavelet_synthesize(bad, phi, phi)
    f = battery(3, 1, (-4.0, 2.0 ** -7, 1024), alpha=angle)[0]
    assert level_split_defect(f, pair, phi, phi) >= 1e-2


def test_expand_reconstruct_haar():
    pair, _, _ = haar_pair(math.pi / 3)
    grid = (-16.0, 2.0 ** -7, 4096)
    f = gaussian_signal(grid, sigma=3.0, carrier=2.0 * math.pi, alpha=math.pi / 3)
    f = f.scaled(1.0 / f.norm())
    table, res = expand_reconstruct(f, pair, (-3, 6), (-128, 128))
    assert res < 0.05
    # swapped analysis/synthesis reconstructs as well for an orthonormal bank
    _, res_swap = expand_reconstruct(f, swapped(pair), (-3, 6), (-128, 128))
    assert res_swap < 0.05


def test_decay_check_gaussian_and_origin_flag():
    # through the sampled oracle: a Gaussian decays faster than any power,
    # and its transform does not vanish at the origin
    g = gaussian_signal((-12.0, 2.0 ** -7, 3072), sigma=1.0)
    tail, origin = decay_bounds(g, math.pi / 2)
    assert tail(4.5)
    assert not origin(1)
    # from the taps: the lazy primal h = sqrt(2) delta with the Haar dual is
    # perfect reconstruction, but g_dual, built from h, has no zero at 0
    angle = as_angle(math.pi / 3)
    lazy = ScalingFilter(np.array([math.sqrt(2.0)]), 0, angle)
    verdict = decay_check(make_bank(lazy, haar_system(angle)[1]))
    assert not verdict.passed
    assert verdict.detail.startswith("not certified")
    assert "g=1 g_dual=0" in verdict.detail


@pytest.mark.parametrize("alpha", [0.05, math.pi / 3, 3.1])
@pytest.mark.parametrize("name", ["haar", "cdf53"])
def test_decay_certificate_holds_on_report_generators(name, alpha):
    # the sampled fits, with windows in the classical frequency, accept the
    # certified exponent and origin order of each generator, and refuse an
    # exponent 0.25 larger and an order 1 higher
    bank = _builtin_bank(name, alpha)
    phi, phi_dual = _scaling_pair_for_bank(name, bank)
    pair = wavelet_synthesize(bank, phi, phi_dual)
    for sig, h in ((phi, bank.h), (phi_dual, bank.h_dual)):
        tail, _ = decay_bounds(sig, alpha)
        s = decay_exponent(h)
        assert tail(s) and not tail(s + 0.25)
    for sig, g in ((pair.psi, bank.g), (pair.psi_dual, bank.g_dual)):
        _, origin = decay_bounds(sig, alpha)
        order = zero_order(g.classical_taps, 1.0)[0]
        assert order >= 1 and origin(order) and not origin(order + 1)
    verdict = decay_check(bank)
    assert verdict.passed and verdict.detail.startswith("certified")
    assert verdict.value == pytest.approx(1.0 if name == "haar" else 0.6542, abs=1e-4)


def test_riesz_frame_bounds_haar():
    pair, _, _ = haar_pair(math.pi / 2)
    batt = battery(2026, 6, (-4.0, 2.0 ** -7, 1024), alpha=math.pi / 2,
                   band_min=1.0)
    fb, rp, rd = riesz_frame_bounds(pair, batt, (-3, 4), (-32, 32))
    assert 0.9 <= fb.A <= fb.B <= 1.1
    assert fb.duality_ok()
    assert len(rp) == len(batt)


def test_riesz_frame_bounds_excludes_truncation_artifacts():
    pair, _, _ = haar_pair(math.pi / 2)
    grid = (-4.0, 2.0 ** -7, 1024)
    t = grid[0] + grid[1] * np.arange(grid[2])
    # all mass at the far grid edge, outside the k range at every level
    edge = SampledSignal(grid[0], grid[1],
                         np.exp(-(t + 3.9) ** 2 / (2.0 * 0.01 ** 2)))
    with pytest.raises(EmptyBattery):
        riesz_frame_bounds(pair, [edge], (2, 3), (200, 210))


def test_cross_level_orthogonality_haar():
    # piecewise-constant atoms with coincident jumps integrate O(dt)
    # accurately, so dt = 2^-10 mothers give ~1e-3 here, not machine zero
    pair, _, _ = haar_pair(math.pi / 2)
    assert cross_level_orthogonality(pair, [(0, 2)]) < 2e-3
    pair3, _, _ = haar_pair(math.pi / 3)
    assert cross_level_orthogonality(pair3, [(0, 1), (0, 2), (1, 2)]) < 1e-3
    with pytest.raises(ValueError):
        cross_level_orthogonality(pair, [(1, 1)])


def test_cdf53_pipeline_values():
    pair, phi, phid = cdf53_pair(math.pi / 3)
    assert matrix_condition_defect(pair.bank) < 1e-12
    assert wavelet_biortho_check(pair).overall_pass
    assert cross_orthogonality_check(pair, phi, phid) < 1e-3
    f = battery(3, 1, (-4.0, 2.0 ** -7, 1024), alpha=math.pi / 3)[0]
    assert level_split_defect(f, pair, phi, phid) < 1e-3


def test_save_load_bank_roundtrip(tmp_path):
    _, h, hd = cdf53_system(math.pi / 3)
    bank = make_bank(h, hd)
    p = tmp_path / "bank.json"
    save_bank(p, bank)
    back = load_bank(p)
    assert max_abs(back.h.taps, bank.h.taps) < 1e-15
    assert max_abs(back.g_dual.taps, bank.g_dual.taps) < 1e-15
    assert back.h.offset == bank.h.offset


def test_load_bank_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"alpha\": 1.0}")
    with pytest.raises(InputError):
        load_bank(p)
    p.write_text("not json")
    with pytest.raises(InputError):
        load_bank(p)
    with pytest.raises(InputError):
        load_bank(tmp_path / "missing.json")
