import math
from fractions import Fraction

import numpy as np
import pytest

from semiframe.muckenhoupt import (
    ConstantWeight, PiecewiseWeight, PowerWeight, SampledWeight, ScaledWeight,
    a2_estimate, a2_ratio, plateau_breakpoints, plateau_candidates,
    plateau_ratio_closed_form, plateau_weight,
)

QUAD_CELLS = 200_000


def _quad_average(weight, q, a, b):
    # independent midpoint-quadrature oracle for smooth weights
    x = a + (np.arange(QUAD_CELLS) + 0.5) * (b - a) / QUAD_CELLS
    return float(np.mean(weight.sample(x) ** q))


def _shell_average(weight, q, b, shells=60, cells=4000):
    # graded quadrature for endpoint singularities: dyadic shells toward 0
    total = 0.0
    for j in range(shells):
        hi, lo = b * 2.0 ** -j, b * 2.0 ** -(j + 1)
        x = lo + (np.arange(cells) + 0.5) * (hi - lo) / cells
        total += np.sum(weight.sample(x) ** q) * (hi - lo) / cells
    return total / b


def test_constant_weight_ratio_is_one():
    w = ConstantWeight(Fraction(7, 3))
    assert a2_ratio(w, Fraction(1, 8), Fraction(5, 8)) == 1
    assert w.ess_bounds() == (7.0 / 3.0, 7.0 / 3.0)
    with pytest.raises(ValueError):
        ConstantWeight(0)


def test_power_weight_average_against_quadrature():
    w = PowerWeight(0.4)
    for q in (1, -1):
        closed = w.average_power(q, 0.2, 0.7)
        assert abs(closed - _quad_average(w, q, 0.2, 0.7)) < 1e-6 * closed
        anchored = w.average_power(q, 0.0, 0.3)
        assert abs(anchored - _shell_average(w, q, 0.3)) < 1e-7 * anchored


def test_power_weight_anchored_ratio():
    w = PowerWeight(0.6)
    expect = 1.0 / ((1.0 + 0.6) * (1.0 - 0.6))
    # the anchored ratio is the same on every (0, h)
    for h in (1.0, 0.37, 1e-6):
        assert abs(a2_ratio(w, 0.0, h) - expect) < 1e-12 * expect


def test_power_weight_integrability_edge():
    assert PowerWeight(1.2).average_power(-1, 0.0, 0.5) == math.inf
    assert a2_ratio(PowerWeight(1.2), 0.0, 0.5) == math.inf
    assert PowerWeight(-1.0).average_power(1, 0.0, 0.5) == math.inf


def test_piecewise_weight_exact_average():
    w = PiecewiseWeight([(0, Fraction(1, 2), 1), (Fraction(1, 2), 1, 3)])
    assert w.average_power(1, 0, 1) == 2
    assert w.average_power(-1, 0, 1) == Fraction(2, 3)
    assert a2_ratio(w, 0, 1) == Fraction(4, 3)


def test_piecewise_weight_validation():
    with pytest.raises(ValueError):
        PiecewiseWeight([(0, Fraction(1, 2), 1)])
    with pytest.raises(ValueError):
        PiecewiseWeight([(0, Fraction(1, 2), 1), (Fraction(2, 3), 1, 2)])
    with pytest.raises(ValueError):
        PiecewiseWeight([(0, Fraction(1, 2), 1), (Fraction(1, 2), 1, 0)])


def test_piecewise_sample_half_open():
    w = PiecewiseWeight([(0, Fraction(1, 2), 2), (Fraction(1, 2), 1, 5)])
    assert np.array_equal(w.sample([0.0, 0.49, 0.5, 0.99]), [2, 2, 5, 5])


def test_sampled_weight_matches_exact_averages():
    cells = np.array([2.0, 2.0, 5.0, 5.0])
    w = SampledWeight(cells)
    exact = PiecewiseWeight([(0, Fraction(1, 2), 2), (Fraction(1, 2), 1, 5)])
    for (a, b) in ((0, 1), (Fraction(1, 8), Fraction(3, 8)),
                   (Fraction(1, 4), Fraction(7, 8))):
        assert abs(w.average_power(1, a, b) - exact.average_power(1, a, b)) < 1e-12
        assert abs(w.average_power(-1, a, b) - exact.average_power(-1, a, b)) < 1e-12
    with pytest.raises(ValueError):
        SampledWeight(np.array([1.0, -1.0]))


def test_scaled_weight_exact_invariance():
    base = PiecewiseWeight([(0, Fraction(1, 3), 4), (Fraction(1, 3), 1, 9)])
    scaled = ScaledWeight(base, Fraction(5))
    a, b = Fraction(1, 6), Fraction(2, 3)
    assert a2_ratio(scaled, 5 * a, 5 * b) == a2_ratio(base, a, b)
    assert a2_ratio(scaled, 5 * a, 5 * b) - a2_ratio(base, a, b) == 0


def test_plateau_breakpoints_exact():
    pts = plateau_breakpoints(3)
    assert pts[0] == 0
    assert pts[1] == Fraction(1, 64)
    assert pts[2] == Fraction(1, 64) + Fraction(1, 3 ** 9)


def test_plateau_weight_layout():
    w = plateau_weight(4, power=1)
    assert [v for _, _, v in w.pieces] == [4, 27, 256, 1]
    assert w.pieces[-1][1] == 1
    with pytest.raises(ValueError):
        plateau_weight(1)


def test_plateau_candidates_straddle_breakpoints():
    pts = plateau_breakpoints(5)
    for k, a, b in plateau_candidates(5):
        s_k = pts[k - 1]
        assert a < s_k < b
        assert b - s_k == s_k - a


def test_closed_form_matches_exact_interval_ratio():
    # two independent exact routes to the same Fraction
    for power in (1, 2):
        w = plateau_weight(6, power=power)
        for k, a, b in plateau_candidates(6)[:-1]:
            assert a2_ratio(w, a, b) == plateau_ratio_closed_form(k, power)


def test_closed_form_dominates_square_growth():
    for k in range(2, 9):
        assert plateau_ratio_closed_form(k, 2) > Fraction((k + 1) ** 2, 4)


def test_a2_estimate_verdicts():
    flat = a2_estimate(ConstantWeight(3))
    assert flat.verdict == "InA2" and bool(flat)
    assert abs(flat.constant_estimate - 1.0) < 1e-12

    mild = a2_estimate(PowerWeight(0.5))
    assert mild.verdict == "InA2"

    hard = a2_estimate(PowerWeight(1.2))
    assert hard.verdict == "NotInA2"

    stepped = a2_estimate(plateau_weight(6, power=2),
                          candidates=plateau_candidates(6))
    assert stepped.verdict == "NotInA2"
    assert stepped.constant_estimate == math.inf
    assert any(label.startswith("candidate") for label, _, _ in
               stepped.witnesses)


def test_a2_constant_covers_every_dyadic_level():
    # cells constant below depth 6 make the deepest levels read ratio 1,
    # while coarser intervals straddle unequal cells
    w = SampledWeight(np.exp(np.random.default_rng(5).normal(size=64)))
    rep = a2_estimate(w, depth=9)
    assert rep.verdict == "InA2"
    witnessed = max(r for _, _, r in rep.witnesses)
    assert witnessed > 2.0
    assert rep.constant_estimate == witnessed


def test_a2_ratio_never_below_one():
    weights = [ConstantWeight(2), PowerWeight(0.3), PowerWeight(-0.4),
               plateau_weight(4), SampledWeight(np.array([1.0, 4.0, 2.0]))]
    intervals = [(Fraction(1, 7), Fraction(1, 2)), (Fraction(1, 2), 1),
                 (Fraction(1, 64), Fraction(1, 8))]
    for w in weights:
        for a, b in intervals:
            assert a2_ratio(w, a, b) >= 1 - Fraction(1, 10 ** 12)
