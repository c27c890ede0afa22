import concurrent.futures
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from semiframe import core, translates
from semiframe.core import line_grid
from semiframe.translates import (
    CLOSED_TAIL_TERMS, FourierProfile, TranslateSystem, analysis_translates, bracket,
    brute_apply, canonical_dual_translates, classify_translates,
    hurwitz_zeta, line_window, modulation_sum, pphi, plateau_band_system,
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
        # the closed tail starts after |n| <= min(K, CLOSED_TAIL_TERMS); its
        # correction at gamma = 1/2 is (1/pi^2) 2 zeta(2, K + 1/2) ~ 2/(pi^2 K)
        kc = min(k, CLOSED_TAIL_TERMS)
        assert abs(rep.tail_gap * np.pi ** 2 * kc / 2.0 - 1.0) < 1.0 / kc


def test_closed_tail_caps_the_explicit_terms():
    prof = unit_indicator_profile()
    points = []

    def counted(x):
        points.append(x.size)
        return prof.energy(x)

    m = 256
    system = TranslateSystem(
        FourierProfile(prof.name, prof.fn, energy=counted, tail=prof.tail), 1.0)
    grid, _ = pphi(system, m=m, tail_terms=10 ** 4)
    assert sum(points) == (2 * CLOSED_TAIL_TERMS + 1) * m
    assert np.abs(grid.values - 1.0).max() <= 1e-15


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
    # 1/K tail would leave pphi worse than the plain sum over |n| <= 2K
    grid, rep = pphi(TranslateSystem(_hat_profile(), 1.0), m=1024,
                     tail_terms=k)
    n = np.arange(-2 * k, 2 * k + 1)
    plain = (np.sinc(grid.nodes()[:, None] + n) ** 4).sum(axis=1)
    want = _hat_p(grid.nodes())
    assert rep.extrapolated
    assert np.abs(grid.values - want).max() <= np.abs(plain - want).max() / 10


# the alias blocks on several threads against one thread


def _hat_profile():
    return FourierProfile("hat", lambda g: np.sinc(g) ** 2)


def _indicator_probe(xi):
    xi = np.asarray(xi, dtype=float)
    return (1.0 + 0.5 * np.exp(2j * np.pi * xi)) * INDICATOR.profile(xi)


def _on_workers(workers, monkeypatch, call, pools=None):
    """call() with the worker count patched; the size of every thread pool
    the alias sums open is appended to pools."""
    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            if pools is not None:
                pools.append(max_workers)
            super().__init__(max_workers)
    with monkeypatch.context() as mp:
        mp.setattr(translates, "_WORKERS", workers)
        mp.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        return call()


PARALLEL_CASES = {
    "pphi-hat": lambda: pphi(TranslateSystem(_hat_profile(), 1.0),
                             m=128, tail_terms=1000)[0].values,
    "pphi-indicator-off-lattice": lambda: pphi(
        TranslateSystem(unit_indicator_profile(), 2.0 / 3.0), m=128,
        tail_terms=1000)[0].values,
    # step 40 overlaps 83 shifts of the support (-1, 1): two blocks
    "pphi-raised-cosine": lambda: pphi(
        TranslateSystem(raised_cosine_profile(), 40.0), m=128)[0].values,
    "bracket-indicator": lambda: bracket(INDICATOR, _indicator_probe, m=128,
                                         tail_terms=500).values,
    "reconstruct-indicator": lambda: reconstruct_translates(
        INDICATOR, _indicator_probe, m=128, cover=4.0,
        tail_terms=500).coeffs,
}


@pytest.mark.parametrize("case", PARALLEL_CASES)
def test_alias_blocks_on_threads_are_bit_identical(case, monkeypatch):
    serial, pooled = [], []
    one = _on_workers(1, monkeypatch, PARALLEL_CASES[case], serial)
    # four workers take the pool even on a single-CPU host
    many = _on_workers(4, monkeypatch, PARALLEL_CASES[case], pooled)
    assert serial == [] and pooled
    assert np.array_equal(one, many)


def test_pool_size_is_capped_by_the_memory_budget(monkeypatch):
    # at m = 2^14 a 64-row block argument is 8 MiB; a 64-CPU host still
    # gets only the workers whose arguments fit ALIAS_MEMORY
    m = 2 ** 14
    cap = translates.ALIAS_MEMORY // (translates.ALIAS_BLOCK * 8 * m)
    pools = []
    _on_workers(64, monkeypatch,
                lambda: pphi(TranslateSystem(_hat_profile(), 1.0), m=m,
                             tail_terms=100), pools)
    assert pools and max(pools) == cap == 2


def test_blocks_reduce_in_block_order_not_completion_order(monkeypatch):
    # the first block finishes last; its sum must still come first
    def fn(g):
        if g.min() == -200.0:
            time.sleep(0.05)
        return np.sinc(g) ** 2
    system = TranslateSystem(FourierProfile("slow-first", fn), 1.0)

    def run():
        return pphi(system, m=64, tail_terms=200)[0].values
    assert np.array_equal(_on_workers(1, monkeypatch, run),
                          _on_workers(4, monkeypatch, run))


@pytest.mark.parametrize("workers", [1, 4])
def test_error_in_a_block_surfaces(workers, monkeypatch):
    # with K = 200 the first sum, S_100, has blocks starting at n = -100,
    # -36, 28 and 92
    def fn(g):
        if g.min() == 28.0:
            raise ValueError("profile refuses the third block")
        return np.sinc(g) ** 2
    system = TranslateSystem(FourierProfile("third-block", fn), 1.0)
    with pytest.raises(ValueError, match="refuses the third block"):
        _on_workers(workers, monkeypatch,
                    lambda: pphi(system, m=64, tail_terms=200))
