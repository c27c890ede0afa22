import math

import numpy as np
import pytest

from semiframe import core, translates
from semiframe.core import line_grid
from semiframe.translates import (
    GRID_LADDER, ClosedFormSymbol, FourierProfile,
    TranslateSystem, analysis_translates, bracket,
    brute_apply, canonical_dual_translates, classify_translates,
    line_window, modulation_sum, pphi, plateau_band_system,
    raised_cosine_profile, raised_cosine_symbol, reconstruct_translates,
    unit_indicator_profile, walnut_apply,
)
from semiframe.exponentials import ExponentialSystem, classify_exponentials
from semiframe.muckenhoupt import plateau_weight

RNG = np.random.default_rng(314)

COSINE = TranslateSystem(raised_cosine_profile(), 1.0,
                         symbol=raised_cosine_symbol())
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


def test_indicator_profile_is_the_complex_exp_form_bit_for_bit():
    # the profile takes one sin and one cos per point; it must equal the
    # reduced form exp(-i pi r) sin(pi r) / (pi g), r = g - rint(g), exactly
    # at g = 0 and on the nodes i/m + n that the cross bracket visits at
    # m = 256 and |n| <= 4000
    fn = unit_indicator_profile().fn
    gamma = np.arange(256) / 256
    for lo in range(-4000, 4001, 1000):
        n = np.arange(lo, min(lo + 1000, 4001))
        g = np.concatenate([[0.0], (gamma[None, :] + n[:, None]).ravel()])
        y = np.pi * (g - np.rint(g))
        with np.errstate(invalid="ignore"):
            reduced = np.exp(-1j * y) * (np.sin(y) / (np.pi * g))
        reduced[g == 0] = 1.0
        assert np.array_equal(fn(g), reduced)


def test_indicator_profile_is_accurate_far_out():
    # exp(-i pi g) sinc(g) against 40-digit mpmath on 601 points of the
    # lattice j/256 with |g| <= 8000 and 8 seeded points off it, each error
    # relative to the envelope 1/(pi |g|); taking sin and cos of the rounded
    # pi g read 2.8e-12 here, the exact reduction g - rint(g) reads 2.0e-16
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(609)
    g = np.concatenate([np.rint(np.linspace(-8000, 8000, 601) * 256) / 256,
                        rng.uniform(-8000, 8000, 8)])
    got = unit_indicator_profile().fn(g)
    worst = 0.0
    with mpmath.workdps(40):
        for x, v in zip(g.tolist(), got.tolist()):
            if x == 0:
                err = abs(v - 1.0)
            else:
                exact = mpmath.expjpi(-x) * mpmath.sinpi(x) / (mpmath.pi * x)
                err = float(abs(mpmath.mpc(v) - exact) * mpmath.pi * abs(x))
            worst = max(worst, err)
    assert worst <= 1e-15


def test_pphi_indicator_is_flat():
    # the declared autocorrelation (1 - |t|)_+ has the one coefficient
    # A(0) = 1 at step 1: a finite sum with no tail
    grid, rep = pphi(INDICATOR, m=128, tail_terms=2000)
    assert np.abs(grid.values - 1.0).max() < 1e-6
    assert not rep.extrapolated and rep.terms == 0
    assert rep.zero_fraction == 0.0


def _undeclared(profile):
    """Same transform with no declared autocorrelation: the general alias
    route (the midpoint fit or the 2K rule)."""
    return FourierProfile(profile.name, profile.fn)


def test_pphi_indicator_closed_tail_flat_over_sweep():
    # the coefficient sum does not read K
    for k in (10, 100, 1000, 10 ** 4):
        grid, rep = pphi(INDICATOR, m=64, tail_terms=k)
        assert np.abs(grid.values - 1.0).max() <= 1e-14


@pytest.mark.parametrize("step", [1.0, 0.5])
def test_pphi_closed_tail_matches_richardson(step):
    # the coefficient sum against the undeclared copy's fitted alias sum
    k = 1000
    got, rep = pphi(TranslateSystem(unit_indicator_profile(), step),
                    m=128, tail_terms=k)
    oracle, rep_o = pphi(
        TranslateSystem(_undeclared(unit_indicator_profile()), step),
        m=128, tail_terms=k)
    assert rep_o.extrapolated and not rep.extrapolated
    assert np.abs(got.values - oracle.values).max() <= 2e-15


def test_pphi_indicator_off_lattice_step_uses_richardson():
    # 1/a is not an integer: the undeclared copy's rings show no clean power
    # law and its sum takes the 2K rule, 8.4e-7 from the coefficient sum
    # at K = 200
    system = TranslateSystem(unit_indicator_profile(), 2.0 / 3.0)
    oracle = TranslateSystem(_undeclared(system.profile), 2.0 / 3.0)
    got, rep = pphi(system, m=64, tail_terms=200)
    want, rep_o = pphi(oracle, m=64, tail_terms=200)
    assert rep_o.terms == 400 and rep.terms == 1
    assert np.abs(got.values - want.values).max() <= 200 ** -2.0


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
    assert coeffs.shape == (64,)
    assert abs(coeffs[0] - 0.75) < 1e-14
    assert abs(coeffs[1] - 0.125) < 1e-14
    assert abs(coeffs[-1] - 0.125) < 1e-14
    for n in (2, -2, 5, 13):
        assert abs(coeffs[n]) < 1e-14


def test_modulation_sum_against_direct_series():
    m = 32
    coeffs = analysis_translates(COSINE, COSINE.profile.fn, m=m)
    j = np.array([0, 3, -5, 16])
    got = modulation_sum(coeffs, j)
    ns = np.arange(-4, 5)
    band = coeffs[ns]
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
    # 513 and 2049 nodes span several coarse rows and a padded last one; one
    # shift and a prime count of 509 nodes take the edges of the row split
    for m, n_max, cover in ((256, 64, 1.0), (512, 200, 2.0), (256, 0, 1.0),
                            (256, 48, 254 / 256)):
        nodes = line_window(COSINE, m=m, cover=cover)
        rng = np.random.default_rng(7)
        f_vals = (rng.normal(size=nodes.size)
                  + 1j * rng.normal(size=nodes.size)) * COSINE.profile(nodes)
        fg = line_grid(f_vals, 1.0 / m)
        assert fg.index0 < 0
        phi = COSINE.profile(nodes)
        j = fg.index0 + np.arange(fg.size)
        ns = np.arange(-n_max, n_max + 1)
        if n_max in (64, 200):
            coarse, fine = core.root_tables(fg.index0, fg.size, ns, m)
            assert 1 < len(coarse) and len(coarse) * len(fine) > fg.size
        if n_max == 48:
            assert fg.size == 509
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
    # known_p with ess_inf_hint is the benchmark's spelling of a symbol whose
    # sup the grid judges; its dual is the symbol route's, bit for bit
    system = TranslateSystem(raised_cosine_profile(), 1.0, known_p=_cosine_p,
                             ess_inf_hint=0.5)
    assert system.ess_inf_hint == 0.5
    cls = classify_translates(system, m=512)
    assert cls.verdict("bessel") == cls.verdict("lower_for_span") == "Yes"
    assert "tail_gap" in cls.properties["bessel"][1]
    assert cls.properties["bessel"][1]["terms"] == 2
    dual = canonical_dual_translates(system, m=128)
    # dual profile is phi / p on the support
    xi = np.array([0.0, 0.25, -0.5])
    expect = system.profile(xi) / _cosine_p(xi)
    assert np.abs(dual.profile(xi) - expect).max() < 1e-12
    declared = canonical_dual_translates(COSINE, m=128)
    nodes = line_window(system, 128, 1.0)
    assert np.array_equal(dual.profile(nodes), declared.profile(nodes))


def test_canonical_dual_grid_route_snaps_to_lattice():
    system = TranslateSystem(raised_cosine_profile(), 1.0)
    dual = canonical_dual_translates(system, m=64)
    on = dual.profile(np.array([3.0 / 64, -5.0 / 64]))
    expect = COSINE.profile(np.array([3.0 / 64, -5.0 / 64])) \
        / _cosine_p(np.array([3.0 / 64, -5.0 / 64]))
    assert np.abs(on - expect).max() < 1e-12
    with pytest.raises(ValueError):
        dual.profile(np.array([0.013]))


def test_known_p_dual_refuses_off_lattice_nodes():
    # p is sampled once on the lattice, from the symbol as from pphi
    dual = canonical_dual_translates(COSINE, m=64)
    on = np.array([3.0 / 64, -5.0 / 64])
    expect = COSINE.profile(on) / _cosine_p(on)
    assert np.abs(dual.profile(on) - expect).max() < 1e-12
    with pytest.raises(ValueError, match="dual profile sampled off the p-lattice"):
        dual.profile(np.array([0.013]))


def test_dual_profile_at_no_nodes_is_empty():
    # no nodes means no off-lattice node, on the symbol and the pphi route
    for system in (COSINE, TranslateSystem(raised_cosine_profile(), 1.0)):
        out = canonical_dual_translates(system, m=64).profile(np.array([]))
        assert out.shape == (0,)


def test_reconstruction_of_dual_side_probe():
    dual = canonical_dual_translates(COSINE, m=256)
    probe = lambda xi: (1.0 + 0.5 * np.exp(2j * np.pi * np.asarray(xi))) \
        * dual.profile(np.asarray(xi))
    res = reconstruct_translates(COSINE, probe, m=256)
    assert res.rel_error < 1e-10


def test_reconstruction_rejects_zero_probe(monkeypatch):
    # the probe is read on the line window first; a zero probe never
    # reaches the cross bracket or the dual's energy
    def refuse(*args, **kwargs):
        raise AssertionError("alias sum for a zero probe")
    for name in ("bracket", "pphi"):
        monkeypatch.setattr(translates, name, refuse)
    for system in (COSINE, INDICATOR):
        with pytest.raises(ValueError, match="zero probe"):
            reconstruct_translates(system, lambda xi: np.zeros(np.shape(xi)),
                                   m=64, cover=2.0)


def test_classify_cosine_system():
    cls = classify_translates(COSINE, m=512)
    assert cls.verdict("bessel") == "Yes"
    assert cls.verdict("lower_for_span") == "Yes"
    assert cls.verdict("frame_for_span") == "Yes"
    assert cls.verdict("orthonormal_for_span") == "No"
    assert cls.verdict("complete_whole_line") == "No"


@pytest.mark.parametrize("step", [0.5, 0.4, 0.3])
def test_grid_lower_bound_is_not_faked_by_a_vanishing_symbol(step):
    # p vanishes continuously: a zero of order 4 at 1/2 for step 0.5, and
    # zero stretches entered continuously for 0.4 and 0.3, so its essential
    # inf on its support is 0; the masked grid minimum read Yes at 2.7e-8,
    # 3.6e-8 and 5.3e-8. At 0.3 the nearest live node stops moving from
    # m = 1024 on, so the ladder alone stabilizes there
    cls = classify_translates(TranslateSystem(raised_cosine_profile(), step))
    verdict, evidence = cls.properties["lower_for_span"]
    assert verdict != "Yes"
    assert cls.verdict("frame_for_span") != "Yes"
    if step == 0.5:
        assert verdict == "No"
        assert abs(evidence["exponent"] - 4.0) < 0.01


def test_grid_lower_bound_holds_where_p_stays_positive():
    for system, bound in ((TranslateSystem(raised_cosine_profile(), 1.0), 0.5),
                          (INDICATOR, 1.0)):
        verdict, evidence = classify_translates(
            system, m=256).properties["lower_for_span"]
        assert verdict == "Yes"
        assert abs(evidence["bound"] - bound) < 1e-12
        assert evidence["ladder"] == "Convergent"


@pytest.mark.parametrize("m, symbol, sums, samples", [
    (GRID_LADDER[-1], False, 1, 0), (1024, False, 2, 0), (1024, True, 1, 1)])
def test_grid_lower_bound_samples_p_once(monkeypatch, m, symbol, sums,
                                         samples):
    # the ladder is strides of one p on its finest grid: the classifier's
    # own sum when it is that grid, one more sum or symbol sample otherwise
    calls = {"sums": 0, "samples": 0}
    alias_series = translates._alias_series

    def counted_sum(*args, **kwargs):
        calls["sums"] += 1
        return alias_series(*args, **kwargs)

    def counted_sample(gamma):
        calls["samples"] += 1
        return _cosine_p(gamma)
    monkeypatch.setattr(translates, "_alias_series", counted_sum)
    system = TranslateSystem(
        raised_cosine_profile(), 1.0,
        symbol=ClosedFormSymbol(counted_sample, (None, None))) \
        if symbol else INDICATOR
    verdict = classify_translates(system, m=m).verdict("lower_for_span")
    assert verdict == "Yes"
    assert calls == {"sums": sums, "samples": samples}


HAT = TranslateSystem(FourierProfile("hat", lambda g: np.sinc(g) ** 2), 1.0)


@pytest.mark.parametrize("system, tail_terms, route", [
    (INDICATOR, 2000, "coefficients"),
    (TranslateSystem(_undeclared(unit_indicator_profile()), 0.4), 200, "2K"),
    (TranslateSystem(_undeclared(unit_indicator_profile()), 0.3), 200, "2K"),
    (TranslateSystem(raised_cosine_profile(), 1.0), 2000, "compact"),
    (HAT, 10, "2K"), (HAT, 100, "fit"), (HAT, 2000, "fit"),
], ids=["indicator-closed", "indicator-a0.4-2K", "indicator-a0.3-2K",
        "cosine-compact", "hat-2K-K10", "hat-fit-K100", "hat-fit-K2000"])
def test_grid_lower_strides_match_direct_sums(system, tail_terms, route):
    # each stride of the finest p equals pphi summed on its own grid bit for
    # bit, on every alias route (the hat at K = 10 takes the 2K step: no
    # ring order fits that far in)
    mins = []
    for m in GRID_LADDER:
        p, rep = pphi(system, m, tail_terms)
        live = p.values > translates.LIVE_RATIO * p.values.max()
        mins.append(float(p.values[live].min()))
    assert {"coefficients": rep.terms == 0 and not rep.extrapolated,
            "2K": rep.terms == 2 * tail_terms,
            "compact": not rep.extrapolated,
            "fit": rep.extrapolated and rep.terms <= tail_terms}[route]
    evidence = classify_translates(
        system, tail_terms=tail_terms).properties["lower_for_span"][1]
    assert evidence["grid_min"] == mins


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


@pytest.mark.parametrize("m", [512, 4096])
def test_declared_symbols_match_their_alias_sums(m):
    gamma = np.arange(m) / m
    for k in range(2, 7):
        system = plateau_band_system(k, power=1)
        assert np.array_equal(pphi(system, m=m)[0].values,
                              system.symbol.sample(gamma))
    gap = np.abs(pphi(COSINE, m=m)[0].values - COSINE.symbol.sample(gamma))
    assert gap.max() <= 1e-15
    # the first plateau is wide enough for a coarse grid to see value 4
    p = plateau_band_system(4, power=1).symbol.sample(np.array([1.0 / 128, 0.9]))
    assert p[0] == 4.0
    assert p[1] == 1.0


@pytest.mark.parametrize("k_max", range(2, 9))
def test_translate_and_exponential_twins_share_bound_verdicts(k_max):
    # at step 1 the band's aliased energy is the plateau weight itself, so
    # both classifiers read one symbol through one rule
    band = classify_translates(plateau_band_system(k_max)).properties
    expo = classify_exponentials(
        ExponentialSystem(plateau_weight(k_max, 1), 1.0, 1024)).properties
    assert band["bessel"] == expo["bessel"]
    assert band["lower_for_span"] == expo["lower_bound"]


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("k_max", range(4, 13))
def test_plateau_ladder_is_not_bessel_on_either_side(k_max, power):
    # the k^(power k) ladder outgrows every power, so its local log-log
    # slopes keep rising; one log-log fit alone read Bessel Yes from k_max 7
    band = classify_translates(plateau_band_system(k_max, power=power))
    expo = classify_exponentials(
        ExponentialSystem(plateau_weight(k_max, power), 1.0, 1024))
    assert band.verdict("bessel") == "No"
    assert expo.verdict("bessel") == "No"


def test_system_validation():
    with pytest.raises(ValueError):
        TranslateSystem(raised_cosine_profile(), 0.0)


# ---------------------------------------------------------------------------
def _hat_p(gamma):
    # sinc^2 aliased with step 1: (2 + cos 2 pi g) / 3
    return (2.0 + np.cos(2 * np.pi * gamma)) / 3.0


@pytest.mark.parametrize("k", [10, 100, 1000])
def test_pphi_hat_extrapolates_at_the_measured_order(k):
    # the hat's summand falls like n^-4, so its tail like K^-3: removing a
    # 1/K tail would leave pphi worse than the plain sum over |n| <= 2K.
    # From K = 100 on the tail's two leading orders cancel to rounding from
    # the sum over |n| <= K (7.2e-12 at K = 100 with the one-step rule)
    grid, rep = pphi(TranslateSystem(_hat_profile(), 1.0), m=1024,
                     tail_terms=k)
    n = np.arange(-2 * k, 2 * k + 1)
    plain = (np.sinc(grid.nodes()[:, None] + n) ** 4).sum(axis=1)
    want = _hat_p(grid.nodes())
    err = np.abs(grid.values - want).max()
    assert rep.extrapolated
    assert err <= np.abs(plain - want).max() / 10
    if k >= 100:
        assert err <= 1e-14


def test_reconstruct_indicator_in_span_probe_to_rounding():
    # the cross bracket of an in-span probe q phi_hat is q p: its fitted
    # tail no longer leaves an O(K^-2) residual (5.3e-9 with the 2K rule)
    res = reconstruct_translates(INDICATOR, _indicator_probe, m=256,
                                 cover=6.0, tail_terms=2000)
    assert res.rel_error < 1e-13


@pytest.mark.parametrize("step, k, per_node", [
    (1.0, 1000, 501), (1.0, 100, 201), (0.4, 1000, 4001)])
def test_alias_terms_per_node(step, k, per_node):
    # a clean power-law tail is fitted from |n| <= K, and at K = 1000 the
    # fits at the levels 125 and 250 already agree; at a = 0.4 the envelope
    # is not periodic along the terms and the sum runs to 2K
    points = []

    def counted(g):
        points.append(g.size)
        return np.sinc(g) ** 2
    m = 64
    _, rep = pphi(TranslateSystem(FourierProfile("counted", counted), step),
                  m=m, tail_terms=k)
    assert sum(points) == per_node * m == (2 * rep.terms + 1) * m


def test_hat_alias_sum_stops_where_its_fits_settle():
    # K = 10^4 caps the terms: the fits at the levels 156 and 312 of the
    # halving ladder agree, so 625 of the 20001 rows per node are summed
    points = []

    def counted(g):
        points.append(g.size)
        return np.sinc(g) ** 2
    m = 1024
    grid, rep = pphi(TranslateSystem(FourierProfile("counted", counted), 1.0),
                     m=m, tail_terms=10 ** 4)
    assert sum(points) <= 20001 * m / 16
    assert sum(points) == (2 * rep.terms + 1) * m and rep.terms == 312
    assert np.abs(grid.values - _hat_p(grid.nodes())).max() <= 1e-14


def test_alias_sum_does_not_stop_while_its_rings_straddle_a_change_of_law():
    # the energy is sinc^4 for |xi| < 300 and sinc^2 beyond: the levels 312,
    # 625 and 1250 of K = 10^4 fit rings on both sides of 300, so the
    # first clean fits are at 2500 and 5000. The exact p sums |n| <= 300
    # and adds the sinc^2 tails sin^2(pi g) / pi^2 zeta(2, 301 +- g)
    special = pytest.importorskip("scipy.special")

    def fn(g):
        g = np.asarray(g, dtype=float)
        return np.where(np.abs(g) < 300, np.sinc(g) ** 2, np.sinc(g))
    m = 64
    gamma = np.arange(m) / m
    x = gamma[None, :] + np.arange(-300, 301)[:, None]
    exact = (fn(x) ** 2).sum(axis=0) + np.sin(np.pi * gamma) ** 2 / np.pi ** 2 \
        * (special.zeta(2, 301 + gamma) + special.zeta(2, 301 - gamma))
    grid, rep = pphi(TranslateSystem(FourierProfile("kink", fn), 1.0), m=m,
                     tail_terms=10 ** 4)
    assert rep.terms // 8 >= 300
    assert np.abs(grid.values - exact).max() <= 1e-14


def _indicator_p(m, step):
    """Poisson side of the unit indicator's autocorrelation on the grid i/m:
    sum_k (1 - |k| a)_+ e^(2 pi i k i/m), each phase k i/m reduced to
    [-1/2, 1/2) in integers."""
    i = np.arange(m)
    n = int(1 / step)
    return sum(max(1.0 - abs(k) * step, 0.0)
               * np.exp(2j * np.pi * ((k * i + m // 2) % m - m // 2) / m)
               for k in range(-n, n + 1)).real


# max|p - exact| with the 2K rule at K = 10, 100, 2000 (m = 256), rounded up
FALLBACK_ERRORS = {0.4: (1.9e-4, 2.1e-6, 5.1e-9),
                   0.3: (1.6e-4, 1.6e-6, 5.7e-9),
                   0.7: (3.5e-4, 4.1e-6, 1.2e-8),
                   1.5: (7.5e-4, 7.6e-6, 2.9e-8)}


@pytest.mark.parametrize("step", FALLBACK_ERRORS)
def test_indicator_off_lattice_steps_are_no_worse(step):
    # without its autocorrelation, 1/a not an integer leaves the rings no
    # clean power law, and the sum falls back to 2K terms and one
    # Richardson step
    system = TranslateSystem(_undeclared(unit_indicator_profile()), step)
    for k, bound in zip((10, 100, 2000), FALLBACK_ERRORS[step]):
        grid, rep = pphi(system, m=256, tail_terms=k)
        assert rep.extrapolated
        err = np.abs(grid.values - _indicator_p(256, step)).max()
        assert err <= bound


EXACT_STEPS = (1.0, 0.5, 0.4, 0.3, 0.7, 1.5, 3 / 7)


@pytest.mark.parametrize("step, m, tails", [
    (0.4, 64, (8, 9, 12)), *[(step, 4096, (2000,)) for step in EXACT_STEPS]],
    ids=["a0.4-m64-K8-9-12", *[f"a{step:.4g}-m4096" for step in EXACT_STEPS]])
def test_indicator_p_is_its_trigonometric_polynomial(step, m, tails):
    # the declared autocorrelation gives p exactly at every step and K; an
    # undeclared copy's 2K rule reads 2.8e-4, 2.25e-3 and 1.3e-4 at
    # a = 0.4, m = 64 and K = 8, 9, 12, and 5.1e-9 to 2.9e-8 at the
    # fractional steps on m = 4096, K = 2000
    system = TranslateSystem(unit_indicator_profile(), step)
    for k in tails:
        grid, rep = pphi(system, m=m, tail_terms=k)
        assert np.abs(grid.values - _indicator_p(m, step)).max() <= 1e-15
        assert rep.tail_gap == 0.0 and not rep.extrapolated
        assert rep.terms == math.ceil(1.0 / step) - 1


def _hat_autocorrelation(t):
    # the hat (1 - |x|)_+ overlaps its shift by t: the cubic B-spline
    t = np.abs(np.asarray(t, dtype=float))
    return np.where(t < 1.0, 2.0 / 3.0 - t * t + t ** 3 / 2.0,
                    np.where(t < 2.0, (2.0 - t) ** 3 / 6.0, 0.0))


DECLARED_HAT = FourierProfile("hat", lambda g: np.sinc(g) ** 2,
                              autocorrelation=(_hat_autocorrelation, 2.0))


def test_declared_hat_p_at_integer_step():
    grid, rep = pphi(TranslateSystem(DECLARED_HAT, 1.0), m=4096)
    assert np.abs(grid.values - _hat_p(grid.nodes())).max() <= 1e-15
    assert rep.terms == 1 and not rep.extrapolated


@pytest.mark.parametrize("step", [0.4, 0.7])
def test_declared_hat_matches_its_alias_sum(step):
    # the undeclared hat takes the 2K rule, 4000 terms, at both steps
    got, rep = pphi(TranslateSystem(DECLARED_HAT, step), m=256)
    want, rep_o = pphi(TranslateSystem(_hat_profile(), step), m=256)
    assert rep_o.terms == 4000
    assert rep.terms == math.ceil(2.0 / step) - 1 and not rep.extrapolated
    assert np.abs(got.values - want.values).max() <= 1e-14


def _two_k_rule(term, step, gamma, k):
    """The 2K rule on its own: S_{K/2}, the rings (K/2, K] and (K, 2K],
    and one Richardson step; every sum here fits in one block."""
    def block(lo, hi):
        ns = np.arange(lo, hi + 1)
        return term((gamma[None, :] + ns[:, None]) / step).sum(axis=0)

    def ring(lo, hi):
        return block(lo, hi) + block(-hi, -lo)
    h = k // 2
    s_k = block(-h, h) + ring(h + 1, k)
    ring_2k = ring(k + 1, 2 * k)
    s_2k = s_k + ring_2k
    gap, prev = np.abs(ring_2k).max(), np.abs(ring(h + 1, k)).max()
    if gap > 1e-14 * (np.abs(s_2k).max() + np.finfo(float).tiny) and prev > 0:
        r = np.log2(prev) - np.log2(gap)
        if round(r) >= 1 and abs(r - round(r)) <= 0.25:
            w = 2.0 ** round(r)
            return (w * s_2k - s_k) / (w - 1.0) / step, gap / step
    return s_2k / step, gap / step


def _cross_probe(xi):
    return INDICATOR.profile(xi) * xi / (1.0 + xi * xi)


def test_short_sums_keep_the_2k_rule_bit_for_bit():
    # below K = 8 there are too few rings for the fit
    prof = _undeclared(unit_indicator_profile())
    gamma = np.arange(64) / 64
    for k in range(1, 8):
        for step in FALLBACK_ERRORS:
            want, gap = _two_k_rule(prof.energy_at, step, gamma, k)
            grid, rep = pphi(TranslateSystem(prof, step), m=64, tail_terms=k)
            assert np.array_equal(grid.values, want) and rep.tail_gap == gap
        want, _ = _two_k_rule(lambda x: _cross_probe(x) * np.conj(prof.fn(x)),
                              1.0, gamma, k)
        got = bracket(INDICATOR, _cross_probe, m=64, tail_terms=k).values
        assert np.array_equal(got, want)


def _abs_probe(xi):
    xi = np.asarray(xi, dtype=float)
    return INDICATOR.profile(xi) / (1.0 + np.abs(xi))


def test_cross_probe_off_the_span_is_no_worse():
    # phi_hat(xi) xi / (1 + xi^2) against the plain sum over |n| <= 5 10^4,
    # whose own tail is below 1e-15; the 2K rule read 1.1e-6, 1.2e-10 and
    # 1.5e-15 at K = 10, 100, 2000, the last at rounding level
    m = 64
    gamma = np.arange(m) / m
    odd = np.zeros(m, dtype=complex)
    for lo in range(-50000, 50001, 5000):
        x = gamma[None, :] + np.arange(lo, min(lo + 5000, 50001))[:, None]
        odd += (_cross_probe(x) * np.conj(INDICATOR.profile(x))).sum(axis=0)
    special = pytest.importorskip("scipy.special")
    # phi_hat(xi) / (1 + |xi|): the summand sinc^2(x) / (1 + |x|) has
    # different expansions at +inf and -inf, so the +-n pairs leave an odd
    # correction that the midpoint fit does not cancel, and the order check
    # must send the sum to the 2K rule. The exact value sums |n| <= 200 and
    # adds each side's tail from 1/(x^2 (1 + x)) = 1/x^2 - 1/x + 1/(1 + x),
    # which telescopes; the 2K rule read 2.75e-8 and 3.51e-12 at K = 100
    # and 2000
    x = gamma[None, :] + np.arange(-200, 201)[:, None]
    absolute = (np.sinc(x) ** 2 / (1.0 + np.abs(x))).sum(axis=0)
    for q in (201 + gamma, 201 - gamma):
        absolute += np.sin(np.pi * gamma) ** 2 / np.pi ** 2 * (
            special.zeta(2, q) - 1.0 / q)
    for probe, oracle, bounds in (
            (_cross_probe, odd, ((10, 1.1e-6), (100, 1.2e-10), (2000, 1e-14))),
            (_abs_probe, absolute, ((100, 2.8e-8), (2000, 3.6e-12)))):
        for k, bound in bounds:
            got = bracket(INDICATOR, probe, m=m, tail_terms=k).values
            assert np.abs(got - oracle).max() <= bound


# rows per node, and blocks on the calling thread


def _hat_profile():
    return FourierProfile("hat", lambda g: np.sinc(g) ** 2)


def _indicator_probe(xi):
    xi = np.asarray(xi, dtype=float)
    return (1.0 + 0.5 * np.exp(2j * np.pi * xi)) * INDICATOR.profile(xi)


def _counted_in_span_bracket(m, k):
    """The in-span bracket of q phi_hat and the points its probe saw."""
    points = []

    def counted(xi):
        points.append(xi.size)
        return _indicator_probe(xi)
    return bracket(INDICATOR, counted, m=m, tail_terms=k), sum(points)


def _counted_sinc_squared_energy(m, k):
    """pphi of the unit indicator's modulus, which declares no
    autocorrelation, and the points its profile saw."""
    points = []

    def counted(g):
        points.append(g.size)
        return np.sinc(g)
    grid, rep = pphi(TranslateSystem(FourierProfile("counted", counted), 1.0),
                     m=m, tail_terms=k)
    return grid, rep, sum(points)


def test_in_span_cross_bracket_stops_at_250():
    # the bracket of q phi_hat is q p = 1 + 0.5 e^(2 pi i g). The remainder
    # of the fit at level 250 of K = 2000, estimated from the fit at 125, is
    # within SETTLED and is added, so 501 of the 4001 rows per node are
    # summed
    m = 256
    got, points = _counted_in_span_bracket(m, 2000)
    want = 1.0 + 0.5 * np.exp(2j * np.pi * got.nodes())
    assert points == 501 * m
    assert np.abs(got.values - want).max() <= 1e-14


def test_sinc_squared_energy_stops_at_250():
    # the general route sums sinc^2, whose p is 1, and stops at 250; the
    # plain fit at 250, without its estimated remainder, reads 1.1e-15
    m = 256
    grid, rep, points = _counted_sinc_squared_energy(m, 2000)
    assert rep.terms == 250 and points == 501 * m
    assert np.abs(grid.values - 1.0).max() <= 1e-15


@pytest.mark.parametrize("k", [1000, 4000])
@pytest.mark.parametrize("m", [64, 256, 2048])
def test_unit_indicator_alias_sums_stop_at_250(m, k):
    # the stop level holds across grids and caps K
    got, points = _counted_in_span_bracket(m, k)
    want = 1.0 + 0.5 * np.exp(2j * np.pi * got.nodes())
    assert points == 501 * m
    assert np.abs(got.values - want).max() <= 1e-14
    grid, rep, points = _counted_sinc_squared_energy(m, k)
    assert rep.terms == 250 and points == 501 * m
    assert np.abs(grid.values - 1.0).max() <= 1e-15


@pytest.mark.parametrize("inv_step", [1, 4])
def test_error_in_a_block_surfaces(inv_step):
    # with K = 200 the outermost ring's positive half, 101 <= n <= 200, has
    # blocks starting at n = 101 and 165; at the step 1 / inv_step the
    # profile sees the second one from (0 + 165) * inv_step
    def fn(g):
        if g.min() == 165.0 * inv_step:
            raise ValueError("profile refuses the second block")
        return np.sinc(g) ** 2
    system = TranslateSystem(FourierProfile("second-block", fn),
                             1.0 / inv_step)
    with pytest.raises(ValueError, match="refuses the second block"):
        pphi(system, m=64, tail_terms=200)
