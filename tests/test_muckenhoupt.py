import math
from fractions import Fraction

import numpy as np
import pytest

from semiframe.muckenhoupt import (
    DYADIC_DEPTH, A2Report, ConstantWeight, PiecewiseWeight, PowerWeight,
    SampledWeight, ScaledWeight, a2_estimate, a2_ratio, plateau_breakpoints,
    plateau_candidates, plateau_ratio_closed_form, plateau_weight,
)

QUAD_CELLS = 200_000


def level_ratios(weight, level, q):
    """a2_ratio's value on every dyadic interval of a level, in increasing j.

    Power and sampled averages come from one array call per level, since
    their scalar path pays numpy's 0-d overhead on each of the 2^level
    intervals; test_scalar_and_array_averages_agree ties the two paths.
    """
    n = 2 ** level
    if isinstance(weight, (PowerWeight, SampledWeight)):
        j = np.arange(n)
        means = zip(weight.average_power(q, j / n, (j + 1) / n).tolist(),
                    weight.average_power(-q, j / n, (j + 1) / n).tolist())
        return [math.inf if math.inf in (m, m_rec) else m * m_rec
                for m, m_rec in means]
    return [float(a2_ratio(weight, Fraction(j, n), Fraction(j + 1, n), q=q))
            for j in range(n)]


def raised(weight, q):
    """omega^q in omega's own class; the A2 test of omega^q scans it."""
    if q == 1:
        return weight
    if isinstance(weight, PiecewiseWeight):
        return PiecewiseWeight([(a, b, v ** q) for a, b, v in weight.pieces])
    if isinstance(weight, PowerWeight):
        return PowerWeight(q * weight.alpha)
    return SampledWeight(weight.values ** q)


def all_interval_reports(weight, depth, bound=1e6):
    """Reports of the all-intervals dyadic scan at depths 1..depth.

    The oracle for a2_estimate's level kernels: the ratio of every one of
    the dyadic intervals, with the strict > test in increasing j. The report
    at depth d reads levels 0..d only, so one pass gives every depth.
    """
    def label(a, b):
        return f"({float(a):.6e}, {float(b):.6e})"

    reports, sup_by_level, best = [], [], (1.0, None)
    for level in range(depth + 1):
        step = Fraction(1, 2 ** level)
        sup = 1.0
        for j, r in enumerate(level_ratios(weight, level, 1)):
            if r > sup:
                sup = r
                if r > best[0]:
                    best = (r, (j * step, (j + 1) * step))
        sup_by_level.append(sup)
        if sup > bound:
            stop = A2Report("NotInA2", math.inf,
                            [(f"dyadic-L{level}", label(*best[1]), sup)],
                            "dyadic ratio exceeded the declared bound")
            return reports + [stop] * (depth - len(reports))
        if level == 0:
            continue
        witnesses = [] if best[1] is None else [
            ("dyadic-sup", label(*best[1]), best[0])]
        tail_move = abs(sup_by_level[-1] - sup_by_level[-2]) / sup_by_level[-1]
        if tail_move < 0.05:
            reports.append(A2Report("InA2", max(sup_by_level), witnesses,
                                    f"dyadic suprema settled at depth {level}"))
        else:
            reports.append(A2Report(
                "Inconclusive", max(sup_by_level), witnesses,
                "dyadic suprema still moving at the deepest level"))
    return reports


ORACLE_WEIGHTS = {
    "plateau-k6p2": plateau_weight(6, power=2),
    "constant-1": ConstantWeight(1),
    # held as an exact Fraction, so c^2 * c^-2 is 1 and no interval is a witness
    "constant-17.648": ConstantWeight(17.648),
    "power-m1.5": PowerWeight(-1.5),
    "power-m1": PowerWeight(-1.0),
    "power-m0.3": PowerWeight(-0.3),
    "power-0.6": PowerWeight(0.6),
    "power-1.2": PowerWeight(1.2),
    "sampled-64": SampledWeight(np.exp(np.random.default_rng(5).normal(size=64))),
    "sampled-37": SampledWeight(np.exp(np.random.default_rng(6).normal(size=37))),
}


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
def test_level_kernels_match_the_all_intervals_scan(name, q):
    weight = raised(ORACLE_WEIGHTS[name], q)
    want = all_interval_reports(weight, DYADIC_DEPTH)
    got = [a2_estimate(weight, depth=d) for d in range(1, DYADIC_DEPTH + 1)]
    assert got == want


@pytest.mark.parametrize("name", [name for name, w in ORACLE_WEIGHTS.items()
                                  if isinstance(w, (PowerWeight, SampledWeight))])
def test_scalar_and_array_averages_agree(name):
    weight, n = ORACLE_WEIGHTS[name], 64
    j = np.arange(n)
    for q in (1, -1, 2, -2):
        whole = weight.average_power(q, j / n, (j + 1) / n)
        assert [weight.average_power(q, i / n, (i + 1) / n) for i in j] \
            == whole.tolist()
    for q in (1, 2):
        assert [a2_ratio(weight, i / n, (i + 1) / n, q) for i in j] \
            == level_ratios(weight, 6, q)


REFERENCE_INTERVALS = [(0.0, 0.125), (0.25, 0.375), (Fraction(3, 7), Fraction(5, 6))]
# average_power(1), average_power(-2), a2_ratio q=1 and q=2 on each interval
# above, from the scalar float formulas of commit 864c72f
REFERENCE_VALUES = {
    "power-0.6": [
        (0.17948411796828673, math.inf, 1.5625, math.inf),
        (0.4968323205600412, 4.111169079459308, 1.004901415854001, 1.0197217879686324),
        (0.7553961624163347, 1.8223943690103024, 1.0130461577618297, 1.0530170702176094)],
    "power-m1": [
        (math.inf, 0.005208333333333333, math.inf, math.inf),
        (3.243720864865315, 0.09895833333333333, 1.013662770270411, 1.0555555555555556),
        (1.6428826324068504, 0.41175359032501896, 1.0365807085424175, 1.152910052910053)],
    "power-m1.5": [
        (math.inf, 0.00048828125, math.inf, math.inf),
        (5.872109410312767, 0.03173828125, 1.0309521329881643, 1.1284722222222223),
        (2.134984105758566, 0.27702529424468203, 1.083829284876615, 1.370351788863694)],
    "sampled-64": [
        (1.0348973022256682, 3.7391873151515203, 1.6914428760211826, 6.862852379797412),
        (0.762706185778006, 3.3098027472228555, 1.2657780869940738, 2.5063983380314374),
        (0.9192466147898043, 8.006662602759073, 1.968354081361, 11.56025017002709)],
    "sampled-37": [
        (2.475028057461121, 36.03366981537577, 7.889126182537787, 379.0046900349598),
        (0.983093604281474, 3.321180680273523, 1.5146105750013903, 4.207065896885193),
        (1.7765299219267348, 5.163454537090279, 2.7779088462585455, 30.678358334900082)],
}


@pytest.mark.parametrize("name", list(REFERENCE_VALUES))
def test_averages_keep_their_reference_values(name):
    weight, want = ORACLE_WEIGHTS[name], REFERENCE_VALUES[name]
    got = [(weight.average_power(1, a, b), weight.average_power(-2, a, b),
            a2_ratio(weight, a, b, 1), a2_ratio(weight, a, b, 2))
           for a, b in REFERENCE_INTERVALS]
    assert got == want
    a = np.array([float(a) for a, _ in REFERENCE_INTERVALS])
    b = np.array([float(b) for _, b in REFERENCE_INTERVALS])
    assert weight.average_power(1, a, b).tolist() == [v[0] for v in want]
    assert weight.average_power(-2, a, b).tolist() == [v[1] for v in want]


def test_reference_reports_are_unchanged():
    # full reports from the all-intervals scan of commit 864c72f
    assert a2_estimate(ORACLE_WEIGHTS["power-0.6"]) == A2Report(
        "InA2", 1.5625000000000002,
        [("dyadic-sup", "(0.000000e+00, 2.441406e-04)", 1.5625000000000002)],
        "dyadic suprema settled at depth 14")
    assert a2_estimate(ORACLE_WEIGHTS["sampled-64"], depth=9) == A2Report(
        "InA2", 3.907560130031869,
        [("dyadic-sup", "(1.875000e-01, 2.500000e-01)", 3.907560130031869)],
        "dyadic suprema settled at depth 9")
    assert a2_estimate(raised(ORACLE_WEIGHTS["sampled-37"], 2)) == A2Report(
        "Inconclusive", 1432.28672696194,
        [("dyadic-sup", "(4.687500e-02, 6.250000e-02)", 1432.28672696194)],
        "dyadic suprema still moving at the deepest level")


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


def test_level_ties_go_to_the_first_interval():
    # mirror-image breakpoints and repeated cells tie exactly within a level
    third = Fraction(1, 3)
    weights = [
        PiecewiseWeight([(0, third, 1), (third, 2 * third, 4), (2 * third, 1, 1)]),
        SampledWeight(np.array([1.0, 4.0, 1.0, 4.0])),
    ]
    for weight in (raised(w, q) for w in weights for q in (1, 2)):
        got = [a2_estimate(weight, depth=d) for d in range(1, 7)]
        assert got == all_interval_reports(weight, 6)
        half = Fraction(1, 2)
        assert a2_ratio(weight, 0, half) == a2_ratio(weight, half, 1)
        assert weight.dyadic_level(1)[1] == 0


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
