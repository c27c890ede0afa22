import csv
import math
import re

import numpy as np
import pytest

from semiframe.core import (
    GridFunction, TruncationLadder, covering_shifts, line_grid, pairwise_sum,
    periodic_grid, periodization_gap, periodize, tail_diagnostic,
)
from semiframe.exponentials import ExponentialSystem, t_general
from semiframe.muckenhoupt import (
    ConstantWeight, PowerWeight, SampledWeight, ScaledWeight, a2_estimate,
)
from semiframe.translates import (
    TranslateSystem, brute_apply, raised_cosine_profile, walnut_apply,
)

RNG = np.random.default_rng(2024)


def test_pairwise_sum_accuracy():
    # pairwise trees keep the error logarithmic in the term count
    terms = 0.1 * np.ones(4000)
    exact = math.fsum([0.1] * 4000)
    got = float(pairwise_sum([np.array([t]) for t in terms])[0])
    naive = 0.0
    for t in terms:
        naive += t
    assert abs(got - exact) <= abs(naive - exact)
    assert abs(got - exact) < 1e-10


def test_pairwise_sum_batching_invariance():
    parts = [RNG.normal(size=5) for _ in range(200)]
    whole = pairwise_sum(parts)
    split = pairwise_sum([pairwise_sum(parts[:77]), pairwise_sum(parts[77:])])
    assert np.max(np.abs(whole - split)) < 1e-12
    with pytest.raises(ValueError):
        pairwise_sum([])


def test_ladder_validation():
    good = TruncationLadder(((8, 4), (16, 8), (32, 16)))
    assert good.top == (32, 16)
    assert list(good.counts()) == [4, 8, 16]
    # constant dimension is fine, shrinking is not, counts must grow
    TruncationLadder(((8, 4), (8, 8), (8, 16)))
    with pytest.raises(ValueError):
        TruncationLadder(((8, 4), (4, 8), (16, 16)))
    with pytest.raises(ValueError):
        TruncationLadder(((8, 4), (16, 4), (32, 16)))
    with pytest.raises(ValueError):
        TruncationLadder(((8, 4), (16, 8)))


def test_tail_diagnostic_stabilized():
    v = tail_diagnostic([2.0, 2.0, 2.0], [10, 20, 40])
    assert v.kind == "Convergent" and bool(v)
    assert v.limit_estimate == 2.0


def test_tail_diagnostic_extrapolates_geometric_tail():
    sizes = np.array([8, 16, 32, 64, 128])
    values = 1.0 - 2.0 ** -np.arange(3, 8)
    v = tail_diagnostic(values, sizes)
    assert v.kind == "Convergent"
    assert v.detail == "extrapolated"
    assert abs(v.limit_estimate - 1.0) < 1e-12


def test_tail_diagnostic_growth():
    sizes = np.array([64, 128, 256, 512])
    v = tail_diagnostic(np.sqrt(sizes), sizes)
    assert v.kind == "Divergent"
    assert abs(v.growth_exponent - 0.5) < 1e-6
    assert not v


def test_tail_diagnostic_inconclusive_and_validation():
    v = tail_diagnostic([1.0, 3.0, 2.0, 4.0], [8, 16, 32, 64])
    assert v.kind == "Inconclusive"
    with pytest.raises(ValueError):
        tail_diagnostic([1.0, 2.0], [8, 16])


@pytest.mark.filterwarnings("error")
def test_tail_diagnostic_repeated_value_warns_nothing():
    # a zero step must be ruled out before the step ratios are formed
    v = tail_diagnostic([1.0, 2.0, 2.0, 3.0], [8, 16, 32, 64])
    assert v.kind == "Inconclusive"


def test_periodic_grid_nodes_and_quadrature():
    g = periodic_grid(np.exp(2j * np.pi * np.arange(8) / 8))
    assert np.allclose(g.nodes(), np.arange(8) / 8)
    assert g.period == 1.0
    # integer-frequency exponentials integrate to zero exactly on the grid
    assert abs(g.quadrature()) < 1e-15


def test_line_grid_symmetry():
    g = line_grid(np.arange(7.0), step=0.25)
    assert g.index0 == -3
    assert g.half_width == 0.75
    assert np.allclose(g.nodes(), np.arange(-3, 4) * 0.25)
    with pytest.raises(ValueError):
        line_grid(np.arange(6.0), step=0.25)


def test_grid_kind_validation():
    with pytest.raises(ValueError):
        GridFunction(np.ones(4), 0.25, "weird")
    with pytest.raises(ValueError):
        GridFunction(np.ones(4), 0.25, "line", index0=0)


def test_periodize_matches_direct_fold():
    step = 1.0 / 8
    nodes = np.arange(-24, 25) * step
    f = line_grid(np.exp(-nodes ** 2) * (1.0 + nodes), step)
    folded = periodize(f, 1.0, covering_shifts(f, 1.0))
    # oracle: direct double loop over residues and shifted copies
    m = 8
    expect = np.zeros(m)
    for r in range(m):
        for k in range(-10, 11):
            j = r + k * m
            if -24 <= j <= 24:
                expect[r] += f.values[j + 24]
    assert np.max(np.abs(folded.values - expect)) < 1e-15
    assert periodization_gap(f, folded) < 1e-15


def test_periodize_requires_lattice_period():
    f = line_grid(np.ones(9), step=0.25)
    with pytest.raises(ValueError):
        periodize(f, 0.3, 4)
    with pytest.raises(ValueError):
        periodize(periodic_grid(np.ones(8)), 1.0, 4)


def _periodize_off_lattice():
    periodize(line_grid(np.ones(9), step=0.3), 1.0, 4)


def _walnut_off_lattice():
    system = TranslateSystem(raised_cosine_profile(), 1.0)
    walnut_apply(system, line_grid(np.ones(9), step=0.3))


def _brute_off_lattice():
    system = TranslateSystem(raised_cosine_profile(), 1.0)
    brute_apply(system, line_grid(np.ones(9), step=0.3), 4)


def _t_general_off_lattice():
    system = ExponentialSystem(ConstantWeight(1.0), 3.0, 64)
    t_general(system, np.ones(64))


@pytest.mark.parametrize("call, precondition", [
    (_periodize_off_lattice, "period must be an integer number of grid steps"),
    (_walnut_off_lattice, "grid step must subdivide the dual period 1/a"),
    (_brute_off_lattice, "grid step must subdivide the dual period 1/a"),
    (_t_general_off_lattice, "cell count must be divisible by the fold step M/b"),
], ids=["periodize", "walnut_apply", "brute_apply", "t_general"])
def test_step_not_dividing_the_period_is_refused(call, precondition):
    with pytest.raises(ValueError, match=re.escape(precondition)):
        call()


def test_covering_shifts_covers():
    f = line_grid(np.ones(41), step=0.1)
    s = covering_shifts(f, 1.0)
    assert s * 1.0 >= f.half_width


def test_grid_csv_roundtrip(tmp_path):
    g = periodic_grid(RNG.normal(size=16) + 1j * RNG.normal(size=16))
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    nodes = np.array([float(r["node"]) for r in rows])
    values = np.array([float(r["re"]) + 1j * float(r["im"]) for r in rows])
    assert np.max(np.abs(values - g.values)) == 0.0
    assert np.array_equal(nodes, g.nodes())


@pytest.mark.parametrize("call, precondition", [
    (lambda: SampledWeight([1.0, np.nan]), "positive samples"),
    (lambda: PowerWeight(np.nan), "power exponent must be finite"),
    (lambda: PowerWeight(np.inf), "power exponent must be finite"),
    (lambda: ConstantWeight(np.nan), "weight values must be positive"),
    (lambda: ScaledWeight(ConstantWeight(1), np.nan), "scale must be positive"),
    (lambda: TranslateSystem(raised_cosine_profile(), np.nan),
     "shift step must be positive"),
    (lambda: ExponentialSystem(ConstantWeight(1), np.nan, 8),
     "density must be positive"),
    (lambda: periodic_grid([]), "grid needs at least two nodes"),
    (lambda: a2_estimate(ConstantWeight(1), depth=0),
     "dyadic depth must be at least 1"),
], ids=["sampled-nan", "power-nan", "power-inf", "constant-nan", "scale-nan",
        "translate-step-nan", "density-nan", "empty-periodic-grid",
        "a2-depth-0"])
def test_malformed_input_is_refused(call, precondition):
    with pytest.raises(ValueError, match=re.escape(precondition)):
        call()
