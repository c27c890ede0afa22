import numpy as np
import pytest

from semiframe.core import line_grid
from semiframe.translates import (
    FourierProfile, TranslateSystem, analysis_translates, bracket,
    brute_apply, canonical_dual_translates, classify_translates,
    hurwitz_zeta, line_window, modulation_sum, pphi, plateau_band_system,
    raised_cosine_profile, reconstruct_translates, unit_indicator_profile,
    walnut_apply,
)

RNG = np.random.default_rng(314)

COSINE = TranslateSystem(raised_cosine_profile(), 1.0,
                         ess_inf_hint=0.5)
INDICATOR = TranslateSystem(unit_indicator_profile(), 1.0)


def _cosine_p(gamma):
    # |phi|^2 aliased with step 1: cos^2(pi g/2)^2 + cos^2(pi(g-1)/2)^2
    return 0.75 + 0.25 * np.cos(2 * np.pi * gamma)


def test_indicator_profile_values():
    prof = unit_indicator_profile()
    # transform of the unit indicator: modulus sinc, zero at integers
    assert abs(prof(0.0) - 1.0) < 1e-15
    assert abs(prof(1.0)) < 1e-15
    assert abs(abs(prof(0.5)) - 2.0 / np.pi) < 1e-15


def test_pphi_indicator_is_flat():
    grid, rep = pphi(INDICATOR, m=128, tail_terms=2000)
    assert np.abs(grid.values - 1.0).max() < 1e-6
    assert rep.extrapolated
    assert rep.zero_fraction == 0.0


def _without_tail_model(profile):
    """Same transform with no declared energy or tail: 2K + Richardson."""
    return FourierProfile(profile.name, profile.fn)


def test_pphi_indicator_closed_tail_flat_over_sweep():
    for k in (10, 100, 1000, 10 ** 4):
        grid, rep = pphi(INDICATOR, m=64, tail_terms=k)
        assert np.abs(grid.values - 1.0).max() <= 1e-14
        assert rep.extrapolated
        # the correction at gamma = 1/2 is (1/pi^2) 2 zeta(2, K + 1/2) ~ 2/(pi^2 K)
        assert abs(rep.tail_gap * np.pi ** 2 * k / 2.0 - 1.0) < 1.0 / k


@pytest.mark.parametrize("step", [1.0, 0.5])
def test_pphi_closed_tail_matches_richardson(step):
    k = 1000
    closed, _ = pphi(TranslateSystem(unit_indicator_profile(), step),
                     m=128, tail_terms=k)
    oracle, rep = pphi(
        TranslateSystem(_without_tail_model(unit_indicator_profile()), step),
        m=128, tail_terms=k)
    assert rep.extrapolated
    assert np.abs(closed.values - oracle.values).max() <= k ** -2.0


def test_pphi_indicator_off_lattice_step_uses_richardson():
    # 1/a is not an integer: the envelope is not periodic along alias terms
    system = TranslateSystem(unit_indicator_profile(), 2.0 / 3.0)
    oracle = TranslateSystem(_without_tail_model(system.profile), 2.0 / 3.0)
    got, rep = pphi(system, m=64, tail_terms=200)
    want, rep_o = pphi(oracle, m=64, tail_terms=200)
    # same route; only the declared sinc^2 rounds apart from |fn|^2
    assert np.abs(got.values - want.values).max() <= 1e-14
    assert abs(rep.tail_gap - rep_o.tail_gap) <= 1e-14


def test_hurwitz_zeta_against_scipy():
    special = pytest.importorskip("scipy.special")
    q = np.concatenate([np.linspace(1.0, 10.0, 500), np.logspace(1, 5, 500)])
    for s in (2, 4):
        rel = np.abs(hurwitz_zeta(s, q) / special.zeta(s, q) - 1.0)
        assert rel.max() <= 1e-13


def test_pphi_cosine_closed_form():
    grid, rep = pphi(COSINE, m=256)
    gamma = np.arange(256) / 256
    assert np.abs(grid.values - _cosine_p(gamma)).max() < 1e-12
    assert rep.tail_gap == 0.0 and not rep.extrapolated
    assert abs(rep.ess_inf - 0.5) < 1e-10
    assert abs(rep.ess_sup - 1.0) < 1e-12


def test_bracket_of_generator_reproduces_pphi():
    grid, _ = pphi(COSINE, m=64)
    b = bracket(COSINE, COSINE.profile.fn, m=64)
    assert np.abs(b.values - grid.values).max() == 0.0


def test_analysis_coefficients_of_cosine_bracket():
    # bracket of the generator is 3/4 + cos(2 pi g)/4, so only shifts
    # 0 and +-1 carry weight
    coeffs = analysis_translates(COSINE, COSINE.profile.fn, m=64)
    assert abs(coeffs.shift(0) - 0.75) < 1e-14
    assert abs(coeffs.shift(1) - 0.125) < 1e-14
    assert abs(coeffs.shift(-1) - 0.125) < 1e-14
    for n in (2, -2, 5, 13):
        assert abs(coeffs.shift(n)) < 1e-14
    with pytest.raises(ValueError):
        coeffs.shift(64)


def test_modulation_sum_against_direct_series():
    m = 32
    coeffs = analysis_translates(COSINE, COSINE.profile.fn, m=m)
    j = np.array([0, 3, -5, 16])
    got = modulation_sum(coeffs, j)
    ns, band = coeffs.band(4)
    xi = j / m                  # a = 1, lattice nodes with a xi = j / m
    direct = np.array([np.sum(band * np.exp(-2j * np.pi * ns * x))
                       for x in xi])
    assert np.abs(got - direct).max() < 1e-13


def test_line_window_lattice():
    nodes = line_window(COSINE, m=16, cover=1.0)
    assert nodes[0] == -nodes[-1]
    assert nodes.max() >= 1.0
    assert abs(nodes[1] - nodes[0] - 1.0 / 16) < 1e-15


def test_walnut_matches_brute_on_trig_probe():
    m = 64
    nodes = line_window(COSINE, m=m, cover=1.0)
    q = np.zeros(nodes.size, dtype=complex)
    for deg, c in ((0, 1.0), (3, 0.5 - 0.25j), (7, 0.1j)):
        q += c * np.exp(2j * np.pi * deg * nodes)
    f_vals = q * COSINE.profile(nodes)
    fg = line_grid(f_vals, 1.0 / m)
    w = walnut_apply(COSINE, fg)
    b = brute_apply(COSINE, fg, n_max=32)
    assert np.abs(w.values - b.values).max() < 1e-10


def test_brute_apply_matches_complex_exp_formula():
    m, n_max = 256, 64
    nodes = line_window(COSINE, m=m, cover=1.0)
    rng = np.random.default_rng(7)
    f_vals = (rng.normal(size=nodes.size) + 1j * rng.normal(size=nodes.size)) \
        * COSINE.profile(nodes)
    fg = line_grid(f_vals, 1.0 / m)
    phi = COSINE.profile(nodes)
    j = fg.index0 + np.arange(fg.size)
    ns = np.arange(-n_max, n_max + 1)
    phases = np.exp(2j * np.pi * np.outer(ns, j) / m)
    coeffs = fg.step * (phases @ (f_vals * np.conj(phi)))
    expect = phi * (np.conj(phases).T @ coeffs)
    got = brute_apply(COSINE, fg, n_max).values
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def test_walnut_validates_lattice():
    fg = line_grid(np.ones(9), step=0.3)
    with pytest.raises(ValueError):
        walnut_apply(COSINE, fg)
    with pytest.raises(ValueError):
        walnut_apply(COSINE, __import__("semiframe").core.periodic_grid(np.ones(8)))


def test_canonical_dual_known_p_route():
    dual = canonical_dual_translates(COSINE, m=128)
    # dual profile is phi / p on the support
    xi = np.array([0.0, 0.25, -0.5])
    expect = COSINE.profile(xi) / _cosine_p(xi)
    assert np.abs(dual.profile(xi) - expect).max() < 1e-12


def test_canonical_dual_grid_route_snaps_to_lattice():
    system = TranslateSystem(raised_cosine_profile(), 1.0)
    dual = canonical_dual_translates(system, m=64)
    on = dual.profile(np.array([3.0 / 64, -5.0 / 64]))
    expect = COSINE.profile(np.array([3.0 / 64, -5.0 / 64])) \
        / _cosine_p(np.array([3.0 / 64, -5.0 / 64]))
    assert np.abs(on - expect).max() < 1e-12
    with pytest.raises(ValueError):
        dual.profile(np.array([0.013]))


def test_reconstruction_of_dual_side_probe():
    dual = canonical_dual_translates(COSINE, m=256)
    probe = lambda xi: (1.0 + 0.5 * np.exp(2j * np.pi * np.asarray(xi))) \
        * dual.profile(np.asarray(xi))
    res = reconstruct_translates(COSINE, probe, m=256)
    assert res.rel_error < 1e-10


def test_reconstruction_rejects_zero_probe():
    with pytest.raises(ValueError):
        reconstruct_translates(COSINE, lambda xi: np.zeros(np.shape(xi)),
                               m=64)


def test_classify_cosine_system():
    cls = classify_translates(COSINE, m=512)
    assert cls.verdict("bessel") == "Yes"
    assert cls.verdict("lower_for_span") == "Yes"
    assert cls.verdict("frame_for_span") == "Yes"
    assert cls.verdict("orthonormal_for_span") == "No"
    assert cls.verdict("complete_whole_line") == "No"


def test_classify_indicator_orthonormal():
    cls = classify_translates(INDICATOR, m=256, tail_terms=2000)
    assert cls.verdict("orthonormal_for_span") == "Yes"
    assert cls.verdict("frame_for_span") == "Yes"


def test_classify_plateau_band():
    system = plateau_band_system(5, power=1)
    cls = classify_translates(system, m=512)
    assert cls.verdict("bessel") == "No"
    assert cls.verdict("lower_for_span") == "Yes"
    assert cls.verdict("frame_for_span") == "No"
    assert cls.verdict("complete_whole_line") == "No"


def test_plateau_band_known_p_matches_weight_ladder():
    system = plateau_band_system(4, power=1)
    # the first plateau is wide enough for a coarse grid to see value 4
    p = system.known_p(np.array([1.0 / 128, 0.9, 2.9]))
    assert p[0] == 4.0
    assert p[1] == 1.0
    assert p[2] == 1.0          # periodic continuation
    assert system.sup_ladder[-1] == (4, 256.0)


def test_system_validation():
    with pytest.raises(ValueError):
        TranslateSystem(raised_cosine_profile(), 0.0)
