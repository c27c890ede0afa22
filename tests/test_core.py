import csv
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from semiframe import core
from semiframe.core import (
    GridFunction, TruncationLadder, VectorFamily, bound_verdicts,
    covering_shifts, instantiate, instantiate_stored, line_grid, pairwise_sum,
    periodic_grid, periodization_gap, periodize, rising_slopes,
    tail_diagnostic,
)
from semiframe.exponentials import (
    ExponentialSystem, analysis_exponentials, biorthogonality_gap,
    defer_negatives_ordering, family_on_grid, reconstruct_exponentials,
    t_general, t_mult,
)
from semiframe.families import (
    interleaved_prefix_norms, shared_direction_family,
)
from semiframe.muckenhoupt import (
    ConstantWeight, PiecewiseWeight, PowerWeight, SampledWeight, ScaledWeight,
    a2_estimate, a2_ratio, plateau_weight,
)
from semiframe.operators import (
    canonical_dual, dual_via_pseudoinverse, frame_matrix, lower_bound,
    parseval_canonical, projector_for, reconstruct, s_apply,
)
from semiframe.translates import (
    FourierProfile, TranslateSystem, bracket, brute_apply,
    canonical_dual_translates, line_window, pphi, raised_cosine_profile,
    raised_cosine_symbol, reconstruct_translates, unit_indicator_profile,
    walnut_apply,
)

from helpers import orthonormal_family, scaled_basis_family

RNG = np.random.default_rng(2024)


def test_pairwise_sum_accuracy():
    # in order, the error of n equal terms grows with n but stays small at
    # 4000 one-entry chunks, and it is the plain loop's error bit for bit
    exact = math.fsum([0.1] * 4000)
    got = float(pairwise_sum([np.array([0.1]) for _ in range(4000)])[0])
    naive = 0.0
    for _ in range(4000):
        naive += 0.1
    assert got == naive
    assert abs(got - exact) < 1e-10


def test_pairwise_sum_adds_chunks_in_order():
    # chunks of any size are added in their order, t = t + c, so the block
    # order alone fixes every rounding of an alias sum
    for size, count in ((1, 4000), (2, 1), (3, 64), (5, 65), (16384, 3),
                        (7, 700)):
        scales = 10.0 ** RNG.integers(-8, 8, size=count)
        for imag in (0.0, 1j):          # float chunks, then complex ones
            chunks = [s * (RNG.normal(size=size) + imag * RNG.normal(size=size))
                      for s in scales]
            total = chunks[0].copy()
            for c in chunks[1:]:
                total = total + c
            assert np.array_equal(pairwise_sum(chunks), total)


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
    assert g.step * g.size == 1.0
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
        GridFunction(np.ones(4), 0.25, "line")   # no symmetric window


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


@pytest.mark.parametrize("first, count, cols, order", [
    (-300, 601, np.arange(-700, 701), 1024),           # many coarse rows
    (-24, 49, 2 * np.arange(300) + 1, 600),            # a square count, no padding
    (0, 3, np.arange(-2 ** 17, 2 ** 17), 97),          # rows far shorter than columns
    (-400, 801, 2 * np.arange(300) + 1, 600),          # odd columns 2i + 1
    (-5, 1, np.arange(-700, 701), 1024),               # a single row
    (-100, 201, np.arange(-2 ** 12, 2 ** 12), 4096),   # last coarse row padded
    (-48, 97, np.arange(-500, 501), 1000),             # a prime count
], ids=["many", "one", "long-rows", "stride-2", "single-row",
        "partial-last-block", "prime-count"])
def test_phase_blocks_are_roots_of_unity_in_capped_blocks(first, count, cols,
                                                          order):
    # the two root tables of an explicit phase sum hold ceil(sqrt(count))
    # rows or fewer each, every entry an exact root of unity, and their
    # products give the phase of every row first + k, k < count
    coarse, fine = core.root_tables(first, count, cols, order)
    width = math.isqrt(count - 1) + 1
    assert fine.shape == (width, cols.size)
    assert coarse.shape == (-(-count // width), cols.size)
    assert coarse.shape[0] <= width

    def exact(rows):
        return np.exp(2j * np.pi * (np.multiply.outer(rows, cols) % order)
                      / order)

    assert np.array_equal(coarse, exact(first + width * np.arange(len(coarse))))
    assert np.array_equal(fine, exact(np.arange(width)))
    # each of the three roots carries its argument's rounding, about 2 pi ulp
    k = np.arange(count)
    assert np.abs(coarse[k // width] * fine[k % width]
                  - exact(first + k)).max() <= 4e-15


@pytest.mark.parametrize("first, count", [(-3, 1), (-48, 97), (-100, 201)],
                         ids=["one-row", "prime-count", "padded-last-row"])
def test_modulation_round_trip_matches_dense_phases(first, count):
    # every row r = first + k meets every column, against one np.exp table
    cols, order = np.arange(-60, 61), 1000
    w = RNG.normal(size=count) + 1j * RNG.normal(size=count)
    phases = np.exp(2j * np.pi * np.outer(first + np.arange(count), cols)
                    / order)
    back = phases.conj() @ (w @ phases)
    got = core.modulation_round_trip(first, count, cols, order, w)
    assert np.abs(got - back).max() <= 1e-13 * np.abs(back).max()


def _explicit_brute_apply():
    system = TranslateSystem(raised_cosine_profile(), 1.0)
    nodes = line_window(system, 4096, 1.0)
    fg = line_grid(RNG.normal(size=nodes.size) * system.profile(nodes),
                   1.0 / 4096)
    return lambda: brute_apply(system, fg, 256)


def _explicit_gram():
    system = ExponentialSystem(plateau_weight(6, power=2), 1.0, 2 ** 16)
    return lambda: biorthogonality_gap(system, 24)


@pytest.mark.parametrize("make", [_explicit_brute_apply, _explicit_gram],
                         ids=["brute_apply", "biorthogonality_gap"])
def test_explicit_phase_sums_hold_a_bounded_block(make):
    # the whole phase table would take 67 MB (513 shifts x 8193 nodes) and
    # 102 MB (97 frequency differences x 65536 nodes)
    call = make()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


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


DIANA = shared_direction_family(0.0)
# declares every coordinate of the diana level (9, 8) as its complement
DIANA_KEEPS_NOTHING = replace(DIANA, perp_directions=tuple(range(9)))
DIANA_LADDER = TruncationLadder(((3, 2), (5, 4), (9, 8)))
DENSE_BASIS = VectorFamily(name="dense-basis", dense=True,
                           block=lambda idx, d: np.eye(d)[idx - 1])


def _keeps_only_e5(family):
    """Members e_1..e_4 at d = 5 with e_1..e_4 declared as the complement:
    only e_5 is kept, on which every member vanishes, so no singular value
    clears any cutoff."""
    return replace(family, perp_directions=(0, 1, 2, 3))


INDICATOR = TranslateSystem(unit_indicator_profile(), 1.0)
HAT = TranslateSystem(FourierProfile("hat", lambda g: np.sinc(g) ** 2), 1.0)
TAIL_TERMS = "tail_terms must be a whole number >= 1"
WEIGHT_VALUES = "weight values must be positive and finite"
HALF = Fraction(1, 2)
PROBE_CELLS = "a probe needs one value per cell, shape (8,)"
FLAT_8 = ExponentialSystem(ConstantWeight(1), 1.0, 8)
LADDER_LEVELS = "ladder levels (d, N) need whole numbers >= 1"
LEVEL_NUMBERS = "a level (d, N) needs whole numbers >= 0"
PROBE_VECTOR = "a probe must be a 1-d array of finite numbers"
CROSS_PROBE = "f_hat must return one finite value per frequency"
PROFILE_VALUES = "the generator profile must return one finite value per " \
    "frequency"
PROBE_FINITE = "a probe needs finite values"
GRID_FINITE = "grid values must be finite"
NAN_LINE_PROBE = np.full(33, np.nan)


def _profile_system(fn):
    """Translates at step 1 of a profile whose values come from fn."""
    return TranslateSystem(FourierProfile("malformed", fn), 1.0)


class SymbolWithoutSample:
    """Declares bounds but no way to sample p."""

    def ess_bounds(self):
        return 0.5, 1.0


def _sparse_rule(rows, positions, values):
    """A sparse family whose rule returns the given COO triplet; the rows
    below instantiate it at (3, 2), two members in dimension 3."""
    return VectorFamily(name="malformed",
                        block=lambda idx: (rows, positions, values))


@pytest.mark.parametrize("call, precondition", [
    (lambda: SampledWeight([1.0, np.nan]), "positive samples"),
    (lambda: SampledWeight([1.0, np.inf]), "finite positive samples"),
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
    (lambda: TranslateSystem(unit_indicator_profile(), np.inf),
     "shift step must be positive and finite"),
    (lambda: periodic_grid([1.0, 2.0], period=np.nan),
     "grid step must be finite and positive"),
    (lambda: line_grid(np.ones(5), step=-1.0),
     "grid step must be finite and positive"),
    (lambda: pphi(TranslateSystem(unit_indicator_profile(), 1.0), m=0),
     "grid needs at least two nodes"),
    (lambda: pphi(INDICATOR, tail_terms=np.inf), TAIL_TERMS),
    (lambda: pphi(INDICATOR, tail_terms=np.nan), TAIL_TERMS),
    (lambda: pphi(INDICATOR, tail_terms=-5), TAIL_TERMS),
    (lambda: pphi(HAT, m=64, tail_terms=0), TAIL_TERMS),
    (lambda: pphi(INDICATOR, m=64, tail_terms=2.5), TAIL_TERMS),
    (lambda: canonical_dual(shared_direction_family(0.0), (1, 0)),
     "a level needs at least one member"),
    (lambda: dual_via_pseudoinverse(shared_direction_family(0.0), (1, 0)),
     "a level needs at least one member"),
    (lambda: a2_estimate(ScaledWeight(ConstantWeight(1), 2)),
     "ScaledWeight has no dyadic-level kernel"),
    (lambda: FourierProfile("tail-1", np.sinc, tail=(1, np.ones_like)),
     "a declared tail exponent must be finite and above 1"),
    (lambda: FourierProfile("tail-nan", np.sinc, tail=(np.nan, np.ones_like)),
     "a declared tail exponent must be finite and above 1"),
    (lambda: FourierProfile("empty-support", np.sinc, support=(1.0, -1.0)),
     "a support window (lo, hi) needs lo < hi"),
    (lambda: lower_bound(DIANA_KEEPS_NOTHING, DIANA_LADDER),
     "the projector keeps no coordinate below d"),
    (lambda: canonical_dual(DIANA_KEEPS_NOTHING, (9, 8)),
     "the projector keeps no coordinate below d"),
    (lambda: parseval_canonical(DIANA_KEEPS_NOTHING, (9, 8)),
     "the projector keeps no coordinate below d"),
    (lambda: dual_via_pseudoinverse(DIANA_KEEPS_NOTHING, (9, 8)),
     "the projector keeps no coordinate below d"),
    (lambda: projector_for(replace(DIANA, perp_directions=(-1,)), 4),
     "projector coordinates must be non-negative integers"),
    (lambda: canonical_dual(scaled_basis_family(np.nan), (4, 4)),
     "family members must be finite"),
    (lambda: lower_bound(scaled_basis_family(np.inf),
                         TruncationLadder(((2, 2), (3, 3), (4, 4)))),
     "family members must be finite"),
    (lambda: parseval_canonical(
        VectorFamily(name="dense-nan", dense=True,
                     block=lambda idx, d: np.full((idx.size, d), np.nan)),
        (4, 4)),
     "family members must be finite"),
    (lambda: dual_via_pseudoinverse(_keeps_only_e5(orthonormal_family()),
                                    (5, 4)),
     "restricted frame matrix singular"),
    (lambda: dual_via_pseudoinverse(_keeps_only_e5(DENSE_BASIS), (5, 4)),
     "restricted frame matrix singular"),
    (lambda: instantiate(_sparse_rule([0, 1], [2, 3], [1.0, 1.0]), (3, 2)),
     "positions must lie in [0, d) with d=3"),
    (lambda: instantiate(_sparse_rule([0, 1], [-1, 0], [1.0, 1.0]), (3, 2)),
     "positions must lie in [0, d) with d=3"),
    (lambda: instantiate(VectorFamily(
        name="short-rows", dense=True,
        block=lambda idx, d: np.ones((idx.size, d - 1))), (3, 2)),
     "a dense block must have shape (N, d) = (2, 3), got (2, 2)"),
    (lambda: instantiate(_sparse_rule([0, 1], [0, 1], [1.0, 1.0, 1.0]), (3, 2)),
     "rows, positions and values must be flat arrays of one length"),
    (lambda: instantiate_stored(_sparse_rule([1, 2], [0, 1], [1.0, 1.0]), (3, 2)),
     "rows must lie in [0, N) with N=2"),
    (lambda: instantiate_stored(_sparse_rule([0, 1], [0.0, 1.0], [1.0, 1.0]),
                                (3, 2)),
     "rows and positions must be integers"),
    (lambda: instantiate_stored(_sparse_rule([0, 1, 0, 1], [0, 1, 0, 1],
                                             [1.0, 1.0, 2.0, 2.0]), (3, 2)),
     "a member names one position twice"),
    (lambda: brute_apply(INDICATOR, periodic_grid(np.ones(65)), 4),
     "expect f sampled on a symmetric line grid"),
    (lambda: TranslateSystem(raised_cosine_profile(), 1.0,
                             symbol=ScaledWeight(ConstantWeight(1), 2)),
     "ScaledWeight declares no essential bounds (ess_bounds)"),
    (lambda: TranslateSystem(raised_cosine_profile(), 1.0,
                             symbol=SymbolWithoutSample()),
     "SymbolWithoutSample has no sample(gamma)"),
    (lambda: TranslateSystem(raised_cosine_profile(), 1.0,
                             symbol=raised_cosine_symbol(), known_p=np.cos),
     "declare p once: symbol or known_p, not both"),
    (lambda: TranslateSystem(raised_cosine_profile(), 1.0, ess_inf_hint=0.5),
     "ess_inf_hint needs known_p"),
    (lambda: family_on_grid(ExponentialSystem(ConstantWeight(1), 0.5, 8)),
     "grid families need a whole-number density b"),
    (lambda: ExponentialSystem(ConstantWeight(1), 1.0, None),
     "need an even grid with at least 4 cells"),
    (lambda: TruncationLadder(((10.5, 5), (20, 10), (40, 20))), LADDER_LEVELS),
    (lambda: TruncationLadder(((10, np.nan), (20, 10), (40, 20))),
     LADDER_LEVELS),
    (lambda: PiecewiseWeight([]), "pieces must cover (0, 1)"),
    (lambda: defer_negatives_ordering(-1),
     "the member count must be a whole number >= 1"),
    (lambda: ConstantWeight(np.inf), WEIGHT_VALUES),
    (lambda: ConstantWeight(10 ** 400), WEIGHT_VALUES),
    (lambda: ConstantWeight(Fraction(1, 10 ** 400)), WEIGHT_VALUES),
    (lambda: a2_ratio(PowerWeight(0.5), 0.5, 0.2), "need 0 <= a < b <= 1"),
    (lambda: reconstruct_exponentials(FLAT_8, np.zeros(8)), "zero probe"),
    (lambda: FourierProfile("unbounded-support", np.sinc,
                            support=(-np.inf, np.inf)),
     "a support window (lo, hi) needs lo < hi, both finite"),
    (lambda: plateau_weight(6.5), "k_max must be a whole number in [2, 12]"),
    (lambda: t_mult(FLAT_8, np.ones(7)), PROBE_CELLS),
    (lambda: t_general(FLAT_8, np.ones(16)), PROBE_CELLS),
    (lambda: reconstruct_exponentials(FLAT_8, np.ones((8, 1))), PROBE_CELLS),
    (lambda: reconstruct(np.ones(9), DIANA, canonical_dual(DIANA, (5, 4)),
                         (9, 8)),
     "the dual must be built at level (9, 8)"),
    (lambda: PowerWeight(-0.5).sample([0.0]),
     "x^-0.5 is sampled on (0, 1] only"),
    (lambda: PowerWeight(0.5).sample([-0.25]),
     "x^0.5 is sampled on [0, 1] only"),
    (lambda: PowerWeight(0.6).sample([1.5]), "x^0.6 is sampled on [0, 1] only"),
    (lambda: PiecewiseWeight([(0, HALF, 1), (HALF, 1, math.inf)]),
     WEIGHT_VALUES),
    (lambda: PiecewiseWeight([(0, HALF, 1), (HALF, 1, 10 ** 400)]),
     WEIGHT_VALUES),
    (lambda: PiecewiseWeight([(0, HALF, 1), (HALF, 1, Fraction(1, 10 ** 400))]),
     WEIGHT_VALUES),
    (lambda: ConstantWeight(2).average_power(1, 5, -3), "need 0 <= a < b <= 1"),
    (lambda: a2_ratio(ConstantWeight(2), 0.7, 0.2), "need 0 <= a < b <= 1"),
    (lambda: frame_matrix(shared_direction_family(1.0), (5.5, 4)),
     LEVEL_NUMBERS),
    # bool subclasses int, so True would otherwise read as the dimension 1
    (lambda: frame_matrix(shared_direction_family(1.0), (True, 1)),
     LEVEL_NUMBERS),
    (lambda: s_apply(DIANA, np.full(9, np.nan), (9, 8)), PROBE_VECTOR),
    (lambda: s_apply(DIANA, np.ones((9, 1)), (9, 8)), PROBE_VECTOR),
    (lambda: ExponentialSystem(ConstantWeight(1), np.inf, 8),
     "density must be positive and finite"),
    (lambda: bracket(INDICATOR, lambda xi: np.full(xi.shape, np.nan), m=64),
     CROSS_PROBE),
    (lambda: bracket(INDICATOR, lambda xi: np.ones(3), m=64), CROSS_PROBE),
    (lambda: bracket(INDICATOR, lambda xi: 1.0, m=64), CROSS_PROBE),
    (lambda: interleaved_prefix_norms(0), "need at least one prefix"),
    (lambda: pphi(_profile_system(lambda g: np.full(g.shape, np.nan)), m=16,
                  tail_terms=10), PROFILE_VALUES),
    (lambda: pphi(_profile_system(lambda g: np.ones(3)), m=16, tail_terms=10),
     PROFILE_VALUES),
    (lambda: t_mult(FLAT_8, np.full(8, np.nan)), PROBE_FINITE),
    (lambda: t_general(FLAT_8, np.full(8, np.nan)), PROBE_FINITE),
    (lambda: analysis_exponentials(FLAT_8, np.full(8, np.nan)), PROBE_FINITE),
    (lambda: reconstruct_exponentials(FLAT_8, np.full(8, np.nan)),
     PROBE_FINITE),
    (lambda: line_grid(NAN_LINE_PROBE, 1.0 / 16), GRID_FINITE),
    (lambda: periodic_grid([1.0, np.inf]), GRID_FINITE),
    (lambda: walnut_apply(INDICATOR, line_grid(NAN_LINE_PROBE, 1.0 / 16)),
     GRID_FINITE),
    (lambda: brute_apply(INDICATOR, line_grid(NAN_LINE_PROBE, 1.0 / 16), 4),
     GRID_FINITE),
    (lambda: walnut_apply(_profile_system(lambda g: np.full(g.shape, np.nan)),
                          line_grid(np.ones(33), 1.0 / 16)), GRID_FINITE),
], ids=["sampled-nan", "sampled-inf", "power-nan", "power-inf",
        "constant-nan", "scale-nan", "translate-step-nan", "density-nan",
        "empty-periodic-grid", "a2-depth-0", "translate-step-inf", "periodic-grid-nan-period",
        "line-grid-negative-step", "pphi-grid-0", "pphi-tail-inf",
        "pphi-tail-nan", "pphi-tail-negative", "pphi-hat-tail-0",
        "pphi-tail-fractional", "canonical-dual-no-members",
        "pseudoinverse-no-members",
        "a2-weight-without-level-kernel", "profile-tail-exponent-1",
        "profile-tail-exponent-nan", "profile-support-reversed",
        "lower-bound-projector-keeps-nothing",
        "canonical-dual-projector-keeps-nothing",
        "parseval-projector-keeps-nothing",
        "pseudoinverse-projector-keeps-nothing",
        "projector-negative-coordinate", "sparse-family-nan-member",
        "sparse-family-inf-member", "dense-family-nan-member",
        "pseudoinverse-nothing-above-cutoff",
        "pseudoinverse-dense-nothing-above-cutoff",
        "sparse-rule-position-at-d", "sparse-rule-position-negative",
        "dense-rule-short-rows", "sparse-rule-unequal-lengths",
        "sparse-rule-row-past-n", "sparse-rule-float-positions",
        "sparse-rule-repeated-position", "brute-apply-periodic-grid",
        "symbol-without-ess-bounds",
        "symbol-without-sample", "symbol-and-known-p",
        "ess-inf-hint-without-known-p", "grid-family-fractional-density",
        "exponential-cells-none", "ladder-dimension-fractional",
        "ladder-count-nan", "piecewise-weight-no-pieces",
        "defer-negatives-count-negative", "constant-inf", "constant-huge",
        "constant-underflow", "power-average-reversed", "exponentials-zero-probe",
        "profile-support-infinite", "plateau-k-max-fractional",
        "t-mult-probe-length", "t-general-probe-length",
        "reconstruct-exponentials-probe-length",
        "reconstruct-dual-at-another-level", "power-negative-alpha-at-zero",
        "power-below-zero", "power-above-one", "piecewise-inf",
        "piecewise-huge", "piecewise-underflow", "constant-average-reversed",
        "constant-ratio-reversed", "level-dimension-fractional",
        "level-dimension-true", "s-apply-probe-nan", "s-apply-probe-2d",
        "density-inf", "bracket-probe-nan", "bracket-probe-wrong-length",
        "bracket-probe-scalar", "prefix-norms-count-0", "pphi-profile-nan",
        "pphi-profile-wrong-length", "t-mult-probe-nan", "t-general-probe-nan",
        "analysis-exponentials-probe-nan", "reconstruct-exponentials-probe-nan",
        "line-grid-nan", "periodic-grid-inf", "walnut-apply-probe-nan",
        "brute-apply-probe-nan", "walnut-apply-profile-nan"])
def test_malformed_input_is_refused(call, precondition):
    with pytest.raises(ValueError, match=re.escape(precondition)):
        call()


def test_whole_float_levels_are_read_as_ints():
    # a level's whole float dimension names the same members as its int
    family = shared_direction_family(1.0)
    assert np.array_equal(frame_matrix(family, (np.float64(5.0), 4)),
                          frame_matrix(family, (5, 4)))


GRID_NODES = "grid needs at least two nodes"
N_MAX = "n_max must be a whole number >= 0"
COVER = "cover must be finite and > 0"
# raised cosine with its closed-form p declared; 16 line nodes per unit step
KNOWN_P = TranslateSystem(raised_cosine_profile(), 1.0,
                          symbol=raised_cosine_symbol())
LATTICE_PROBE = line_grid(np.ones(33), 1.0 / 16)


@pytest.mark.parametrize("call, precondition", [
    (lambda: pphi(INDICATOR, m=64.5), GRID_NODES),
    (lambda: pphi(INDICATOR, m=np.nan), GRID_NODES),
    (lambda: bracket(INDICATOR, INDICATOR.profile.fn, m=64.5), GRID_NODES),
    (lambda: bracket(INDICATOR, INDICATOR.profile.fn, m=np.nan), GRID_NODES),
    (lambda: canonical_dual_translates(KNOWN_P, m=64.5), GRID_NODES),
    (lambda: brute_apply(KNOWN_P, LATTICE_PROBE, -1), N_MAX),
    (lambda: brute_apply(KNOWN_P, LATTICE_PROBE, 2.5), N_MAX),
    (lambda: periodize(LATTICE_PROBE, 1.0, -1),
     "shifts must be a whole number >= 0"),
    (lambda: biorthogonality_gap(ExponentialSystem(ConstantWeight(1), 1.0, 8),
                                 -1), N_MAX),
    # at n_max = M/2 the frequencies -4 and 4 pair to -1, a gap of 1
    (lambda: biorthogonality_gap(ExponentialSystem(ConstantWeight(1), 1.0, 8),
                                 4), "n_max must stay below M/2"),
    (lambda: a2_estimate(ConstantWeight(1), depth=2.5),
     "dyadic depth must be at least 1 and a whole number"),
    (lambda: line_window(KNOWN_P, 0, 1.0), GRID_NODES),
    (lambda: line_window(KNOWN_P, 2.5, 1.0), GRID_NODES),
    (lambda: line_window(KNOWN_P, 16, np.inf), COVER),
    (lambda: line_window(KNOWN_P, 16, np.nan), COVER),
    (lambda: line_window(KNOWN_P, 16, -1.0), COVER),
    (lambda: reconstruct_translates(KNOWN_P, KNOWN_P.profile.fn, m=16,
                                    cover=np.inf), COVER),
    # bool subclasses int, so True and False would otherwise read as 1 and 0
    (lambda: pphi(INDICATOR, m=64, tail_terms=True),
     "tail_terms must be a whole number >= 1"),
    (lambda: a2_estimate(ConstantWeight(1), depth=True),
     "dyadic depth must be at least 1 and a whole number"),
    (lambda: periodize(LATTICE_PROBE, 1.0, True),
     "shifts must be a whole number >= 0"),
    (lambda: periodize(LATTICE_PROBE, 1.0, False),
     "shifts must be a whole number >= 0"),
    (lambda: brute_apply(KNOWN_P, LATTICE_PROBE, True), N_MAX),
    (lambda: brute_apply(KNOWN_P, LATTICE_PROBE, False), N_MAX),
    (lambda: biorthogonality_gap(ExponentialSystem(ConstantWeight(1), 1.0, 8),
                                 True), N_MAX),
    (lambda: biorthogonality_gap(ExponentialSystem(ConstantWeight(1), 1.0, 8),
                                 False), N_MAX),
], ids=["pphi-grid-fractional", "pphi-grid-nan", "bracket-grid-fractional",
        "bracket-grid-nan", "known-p-dual-grid-fractional",
        "brute-apply-n-max-negative", "brute-apply-n-max-fractional",
        "periodize-shifts-negative", "biorthogonality-n-max-negative",
        "biorthogonality-n-max-aliased", "a2-depth-fractional",
        "line-window-grid-0", "line-window-grid-fractional",
        "line-window-cover-inf", "line-window-cover-nan",
        "line-window-cover-negative", "reconstruct-cover-inf",
        "pphi-tail-terms-true", "a2-depth-true", "periodize-shifts-true",
        "periodize-shifts-false", "brute-apply-n-max-true",
        "brute-apply-n-max-false", "biorthogonality-n-max-true",
        "biorthogonality-n-max-false"])
def test_malformed_grid_sizes_and_counts_are_refused(call, precondition):
    with pytest.raises(ValueError, match=re.escape(precondition)):
        call()


def _fold_by_loop(f: GridFunction, m: int, shifts: int) -> np.ndarray:
    """Direct double loop over residues r and shifted copies |k| <= shifts,
    line index r + k*m, skipping indices off the grid."""
    half = (f.size - 1) // 2
    expect = np.zeros(m, dtype=complex if np.iscomplexobj(f.values) else float)
    for r in range(m):
        for k in range(-shifts, shifts + 1):
            j = r + k * m
            if -half <= j <= half:
                expect[r] += f.values[j + half]
    return expect


@pytest.mark.parametrize("complex_values", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("shifts", [0, 1])
def test_periodize_drops_what_a_short_window_misses(shifts, complex_values):
    # 8 nodes per period on 49 nodes, over six periods: shifts 0 and 1 keep
    # one and three of them and drop the rest of the grid at both ends
    step = 1.0 / 8
    nodes = np.arange(-24, 25) * step
    values = np.exp(-nodes ** 2) * (1.0 + nodes)
    if complex_values:
        values = values * np.exp(1j * nodes)
    f = line_grid(values, step)
    assert shifts < covering_shifts(f, 1.0)
    folded = periodize(f, 1.0, shifts)
    expect = _fold_by_loop(f, 8, shifts)
    assert folded.values.dtype == expect.dtype
    assert np.array_equal(folded.values, expect)


def _laddered(*values):
    """A symbol whose value ladder holds these values, then a filler piece."""
    steps = list(enumerate(values, start=1)) + [(len(values) + 1, 1.0)]
    return SimpleNamespace(value_ladder=lambda: steps)


# plateau_weight(6) ladders 2^2, 3^3, ..., 6^6 over the labels 1..5
K6_GROWTH = ("No", {"value_ladder_exponent": 5.59780050666843})


@pytest.mark.parametrize("ess_inf, ess_sup, symbol, bessel, lower", [
    (1.0, 46656.0, plateau_weight(6), K6_GROWTH, ("Yes", {"bound": 1.0})),
    (1.0, 2.0, _laddered(2.0, 2.0, 2.0, 2.0), ("Yes", {"bound": 2.0}),
     ("Yes", {"bound": 1.0})),
    # the filler piece does not count: two steps are too few to judge
    (1.0, 27.0, plateau_weight(3), ("Yes", {"bound": 27.0}),
     ("Yes", {"bound": 1.0})),
    (1.0, math.inf, None, ("No", {"bound": math.inf}), ("Yes", {"bound": 1.0})),
    (0.0, 1.0, None, ("Yes", {"bound": 1.0}), ("No", {"bound": 0.0})),
    (None, None, None, ("Undecided", {}), ("Undecided", {})),
    (None, None, plateau_weight(6), K6_GROWTH, ("Undecided", {})),
], ids=["divergent-ladder", "flat-ladder", "short-ladder", "infinite-sup",
        "inf-zero", "undeclared", "undeclared-divergent-ladder"])
def test_bound_verdicts_cover_every_branch(ess_inf, ess_sup, symbol, bessel,
                                           lower):
    assert bound_verdicts(ess_inf, ess_sup, symbol) == (bessel, lower)


def test_rising_slopes_judge_growth_faster_than_any_power():
    # plateau_weight(8) ladders 2^2, ..., 8^8: the single log-log fit reads
    # Inconclusive, and the six local slopes rise from log(27/4)/log 2
    bessel, _ = bound_verdicts(1.0, 8.0 ** 8, plateau_weight(8))
    slopes = bessel[1]["value_ladder_slopes"]
    assert bessel[0] == "No" and len(slopes) == 6
    assert slopes[0] == pytest.approx(math.log(27 / 4) / math.log(2))
    assert slopes == sorted(slopes)
    assert rising_slopes([4.0, 27.0, 256.0], [1, 2, 3]) is None   # 2 slopes
    assert rising_slopes([1.0, 8.0, 9.0, 100.0], [1, 2, 3, 4]) is None


def _scipy_modules_after(code):
    """The scipy modules loaded once code has run in a fresh interpreter."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_import_leaves_scipy_unloaded():
    # scipy is imported inside the functions that use it (CSR members, the
    # diagonal kept block, the zherk Gram), so the package's import time
    # does not pay for it
    assert _scipy_modules_after("import semiframe") == "[]"


def test_translate_and_exponential_commands_leave_scipy_unloaded():
    # the frequency-side commands (alias sums with their closed Hurwitz
    # tail, twisted FFTs, exact A2 scans) run on numpy alone, so they pay
    # neither scipy's cold import nor its memory
    code = ("from semiframe import cli\n"
            "for argv in (['scenario', 'lower-translates'],\n"
            "             ['scenario', 'plateau-exp'],\n"
            "             ['scenario', 'orthonormal-translates'], ['pphi'],\n"
            "             ['classify', 'translates'],\n"
            "             ['classify', 'exponentials']):\n"
            "    assert cli.main(argv) == 0, argv")
    assert _scipy_modules_after(code) == "[]"
