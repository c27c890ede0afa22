import numpy as np
import pytest

from semiframe import exponentials
from semiframe.exponentials import (
    ExponentialSystem, analysis_exponentials, biorthogonality_gap,
    canonical_dual_values, classify_exponentials, defer_negatives_ordering,
    family_on_grid, frequency_of, member_of, reconstruct_exponentials,
    synthesis_exponentials, t_general, t_mult,
)
from semiframe.core import instantiate
from semiframe.muckenhoupt import (
    ConstantWeight, PowerWeight, SampledWeight, ScaledWeight, plateau_weight,
)

RNG = np.random.default_rng(99)


def _random_probe(m):
    return RNG.normal(size=m) + 1j * RNG.normal(size=m)


def test_frequency_member_correspondence():
    assert [frequency_of(k) for k in range(1, 8)] == [0, 1, -1, 2, -2, 3, -3]
    for f in range(-20, 21):
        assert frequency_of(member_of(f)) == f
    with pytest.raises(ValueError):
        frequency_of(0)


def test_defer_negatives_ordering():
    assert list(defer_negatives_ordering(7)) == [0, 1, 3, 5, 6, 4, 2]
    order = defer_negatives_ordering(101)
    assert sorted(order) == list(range(101))
    with pytest.raises(ValueError):
        defer_negatives_ordering(8)


def test_whole_float_sizes_are_read_as_ints():
    # a whole float cell count is stored as the int it names, so the grid
    # family and the biorthogonality gap index with it
    whole, as_int = (ExponentialSystem(ConstantWeight(1), 1.0, m)
                     for m in (8.0, 8))
    assert type(whole.m) is int and whole.m == 8
    assert np.array_equal(instantiate(family_on_grid(whole), (8, 5)),
                          instantiate(family_on_grid(as_int), (8, 5)))
    assert biorthogonality_gap(whole, 3) == biorthogonality_gap(as_int, 3)
    assert list(defer_negatives_ordering(3.0)) == [0, 1, 2]


def test_system_validation():
    with pytest.raises(ValueError):
        ExponentialSystem(ConstantWeight(1), b=0.0)
    with pytest.raises(ValueError):
        ExponentialSystem(ConstantWeight(1), m=7)
    sys_ = ExponentialSystem(ConstantWeight(4), m=8)
    assert np.allclose(sys_.grid(), (np.arange(8) + 0.5) / 8)
    assert np.allclose(sys_.g_values(), 2.0)


def test_analysis_matches_direct_quadrature():
    """The one-FFT analysis with the midpoint twist must equal the literal
    (1/M) sum f conj(g) exp(-2 pi i n x) at every small frequency."""
    m = 16
    w = SampledWeight(1.0 + RNG.random(m))
    system = ExponentialSystem(w, 1.0, m)
    f = _random_probe(m)
    coeffs = analysis_exponentials(system, f)
    x = system.grid()
    g = system.g_values()
    for n in range(-5, 6):
        direct = np.sum(f * np.conj(g) * np.exp(-2j * np.pi * n * x)) / m
        assert abs(coeffs.at(n) - direct) < 1e-13
    with pytest.raises(ValueError):
        coeffs.at(m)


def test_analysis_requires_critical_density():
    system = ExponentialSystem(ConstantWeight(1), 0.5, 16)
    with pytest.raises(ValueError):
        analysis_exponentials(system, np.ones(16))


def test_reconstruction_round_trip_is_exact():
    for weight in (ConstantWeight(2), plateau_weight(5, power=1),
                   SampledWeight(0.5 + RNG.random(64))):
        system = ExponentialSystem(weight, 1.0, 64)
        err = reconstruct_exponentials(system, _random_probe(64))
        assert err < 1e-12


def test_synthesis_inverts_analysis_with_dual_weight():
    m = 32
    system = ExponentialSystem(ConstantWeight(3), 1.0, m)
    f = _random_probe(m)
    coeffs = analysis_exponentials(system, f)
    rec = synthesis_exponentials(system, coeffs, canonical_dual_values(system))
    assert np.abs(rec - f).max() < 1e-12


def test_dual_refuses_vanishing_weight():
    system = ExponentialSystem(PowerWeight(0.5), 1.0, 16)
    with pytest.raises(ValueError):
        canonical_dual_values(system)


def test_biorthogonality_at_critical_density():
    w = SampledWeight(0.5 + RNG.random(128))
    gap = biorthogonality_gap(ExponentialSystem(w, 1.0, 128), n_max=12)
    assert gap < 1e-12
    with pytest.raises(ValueError):
        biorthogonality_gap(ExponentialSystem(w, 0.5, 128), n_max=4)


def test_biorthogonality_gram_matches_dense_exponentials():
    # the Gram is read off the dual generator's analysis coefficients at
    # k - j mod M: at 4000 and 4096 cells, at n_max = 0 (one frequency
    # difference), and at n_max = 31 on 64 cells, where differences past M/2
    # wrap; the dense route takes every phase exp(2 pi i n x_i) from np.exp
    for m, n_max in ((4000, 40), (4096, 40), (4096, 0), (64, 31)):
        system = ExponentialSystem(plateau_weight(4, power=2), 1.0, m)
        exps = np.exp(2j * np.pi * np.outer(np.arange(-n_max, n_max + 1),
                                            system.grid()))
        expect = ((canonical_dual_values(system) * exps)
                  @ (system.g_values() * exps).conj().T) / m
        got = exponentials._dual_gram(system, n_max)
        assert np.abs(got - expect).max() <= 1e-13
        assert biorthogonality_gap(system, n_max) <= 1e-15


def test_t_mult_equals_t_general_when_undersampled():
    m = 64
    f = _random_probe(m)
    for b in (1.0, 0.5, 0.25):
        system = ExponentialSystem(plateau_weight(4), b, m)
        assert np.abs(t_mult(system, f) - t_general(system, f)).max() == 0.0


def test_t_general_oversampled_against_direct_fold():
    # b = 2: fold step m/2, zero extension outside the window
    m = 16
    system = ExponentialSystem(ConstantWeight(1), 2.0, m)
    f = _random_probe(m)
    out = t_general(system, f)
    expect = np.empty(m, dtype=complex)
    for i in range(m):
        acc = f[i]
        if i >= m // 2:
            acc += f[i - m // 2]
        if i + m // 2 < m:
            acc += f[i + m // 2]
        expect[i] = acc / 2.0
    assert np.abs(out - expect).max() < 1e-15
    with pytest.raises(ValueError):
        t_mult(system, f)


def test_family_on_grid_rows():
    system = ExponentialSystem(ConstantWeight(1), 1.0, 16)
    fam = family_on_grid(system)
    x = instantiate(fam, (16, 5))
    # member 4 carries frequency +2
    expect = np.exp(2j * np.pi * 2 * system.grid()) / 4.0
    assert np.abs(x[3] - expect).max() < 1e-15
    with pytest.raises(ValueError):
        instantiate(fam, (32, 5))


def test_classification_flat_weight():
    cls = classify_exponentials(ExponentialSystem(ConstantWeight(1), 1.0, 64))
    assert cls.scope == "whole-space"
    for prop in ("bessel", "lower_bound", "frame", "conditional_basis",
                 "unconditional_basis"):
        assert cls.verdict(prop) == "Yes"


def test_classification_vanishing_weight():
    cls = classify_exponentials(ExponentialSystem(PowerWeight(0.5), 1.0, 64))
    assert cls.scope == "closed-span"
    assert cls.verdict("lower_bound") == "No"
    assert cls.verdict("frame") == "No"


def test_classification_stepped_weight():
    cls = classify_exponentials(
        ExponentialSystem(plateau_weight(6, power=2), 1.0, 64))
    assert cls.verdict("bessel") == "No"
    assert cls.verdict("lower_bound") == "Yes"
    assert cls.verdict("conditional_basis") == "No"
    with pytest.raises(ValueError):
        classify_exponentials(ExponentialSystem(ConstantWeight(1), 2.0, 64))


def test_schauder_flag():
    flag, detail = classify_exponentials(
        ExponentialSystem(PowerWeight(0.4), 1.0, 64)).properties["conditional_basis"]
    assert flag == "Yes" and detail["a2"] == "InA2"
    flag, detail = classify_exponentials(
        ExponentialSystem(plateau_weight(6, power=2), 1.0, 64)
    ).properties["conditional_basis"]
    assert flag == "No" and detail["a2"] == "NotInA2"


def test_weight_without_essential_bounds_is_refused():
    system = ExponentialSystem(ScaledWeight(PowerWeight(0.4), 2.0), 1.0, 64)
    with pytest.raises(ValueError, match="essential bounds"):
        classify_exponentials(system)
    with pytest.raises(ValueError, match="essential bounds"):
        canonical_dual_values(system)
