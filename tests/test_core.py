import csv
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from semiframe import core
from semiframe.core import (
    GridFunction, TruncationLadder, VectorFamily, covering_shifts, instantiate,
    instantiate_sparse, line_grid, pairwise_sum, periodic_grid,
    periodization_gap, periodize, tail_diagnostic,
)
from semiframe.exponentials import (
    ExponentialSystem, biorthogonality_gap, t_general,
)
from semiframe.families import (
    orthonormal_family, scaled_basis_family, shared_direction_family,
)
from semiframe.muckenhoupt import (
    ConstantWeight, PowerWeight, SampledWeight, ScaledWeight, a2_estimate,
    plateau_weight,
)
from semiframe.operators import (
    Projector, canonical_dual, dual_via_pseudoinverse, lower_bound,
    parseval_canonical, projector_for,
)
from semiframe.translates import (
    FourierProfile, TranslateSystem, brute_apply, line_window, pphi,
    raised_cosine_profile, unit_indicator_profile, walnut_apply,
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


@pytest.mark.parametrize("rows, cols, order", [
    (np.arange(-300, 301), np.arange(-700, 701), 1024),     # many row blocks
    (np.arange(-24, 25), 2 * np.arange(300) + 1, 600),      # one block
    (np.arange(3), np.arange(-2 ** 17, 2 ** 17), 97),       # rows longer than a block
], ids=["many", "one", "long-rows"])
def test_phase_blocks_are_roots_of_unity_in_capped_blocks(rows, cols, order):
    seen = []
    for at, block in core.phase_blocks(rows, cols, order):
        assert block.shape == (rows[at].size, cols.size)
        assert block.size <= core.PHASE_BLOCK or block.shape[0] == 1
        expect = np.exp(2j * np.pi * (np.multiply.outer(rows[at], cols) % order)
                        / order)
        assert np.array_equal(block, expect)
        seen.extend(rows[at])
    assert np.array_equal(seen, rows)


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
    # 51 MB per array (49 frequencies x 65536 nodes)
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


def _projector_below_ladder_top():
    fam = shared_direction_family(1.0)
    fam.perp_directions = None
    ladder = TruncationLadder(((17, 16), (33, 32), (65, 64)))
    projector_for(fam, 17, ladder)


# removes every coordinate of the diana level (9, 8)
KEEPS_NOTHING = Projector(tuple(range(9)), "analytic")
DIANA = shared_direction_family(0.0)
DIANA_LADDER = TruncationLadder(((3, 2), (5, 4), (9, 8)))
# members e_1..e_4 at d = 5: the projector below keeps only e_5, on which
# every member vanishes, so no singular value clears any cutoff
KEEPS_ONLY_E5 = Projector((0, 1, 2, 3), "analytic")
DENSE_BASIS = VectorFamily(name="dense-basis", dense=True,
                           block=lambda idx, d: np.eye(d)[idx - 1])
# members e_1..e_4 at d = 6: the kept block is singular
SPARSE_DEFICIENT = VectorFamily(
    name="deficient-sparse",
    block=lambda idx: (np.arange(idx.size), idx - 1, np.ones(idx.size)))
RATIO = "must be finite and in [0, 1)"
INDICATOR = TranslateSystem(unit_indicator_profile(), 1.0)
HAT = TranslateSystem(FourierProfile("hat", lambda g: np.sinc(g) ** 2), 1.0)
TAIL_TERMS = "tail_terms must be a whole number >= 1"


def _sparse_rule(rows, positions, values):
    """A sparse family whose rule returns the given COO triplet; the rows
    below instantiate it at (3, 2), two members in dimension 3."""
    return VectorFamily(name="malformed",
                        block=lambda idx: (rows, positions, values))


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
    (_projector_below_ladder_top,
     "projector dimension d must be at least the ladder's top dimension"),
    (lambda: a2_estimate(ScaledWeight(ConstantWeight(1), 2)),
     "ScaledWeight has no dyadic-level kernel"),
    (lambda: FourierProfile("tail-1", np.sinc, tail=(1, np.ones_like)),
     "a declared tail exponent must be finite and above 1"),
    (lambda: FourierProfile("tail-nan", np.sinc, tail=(np.nan, np.ones_like)),
     "a declared tail exponent must be finite and above 1"),
    (lambda: FourierProfile("empty-support", np.sinc, support=(1.0, -1.0)),
     "a support window (lo, hi) needs lo < hi"),
    (lambda: lower_bound(DIANA, DIANA_LADDER, KEEPS_NOTHING),
     "the projector keeps no coordinate below d"),
    (lambda: canonical_dual(DIANA, (9, 8), KEEPS_NOTHING),
     "the projector keeps no coordinate below d"),
    (lambda: parseval_canonical(DIANA, (9, 8), KEEPS_NOTHING),
     "the projector keeps no coordinate below d"),
    (lambda: dual_via_pseudoinverse(DIANA, (9, 8), KEEPS_NOTHING),
     "the projector keeps no coordinate below d"),
    (lambda: Projector((-1,), "analytic"),
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
    (lambda: dual_via_pseudoinverse(orthonormal_family(), (5, 4), KEEPS_ONLY_E5),
     "restricted frame matrix singular"),
    (lambda: dual_via_pseudoinverse(DENSE_BASIS, (5, 4), KEEPS_ONLY_E5),
     "restricted frame matrix singular"),
    (lambda: canonical_dual(SPARSE_DEFICIENT, (6, 4), floor_ratio=np.nan),
     "floor_ratio " + RATIO),
    (lambda: parseval_canonical(SPARSE_DEFICIENT, (6, 4), floor_ratio=np.nan),
     "floor_ratio " + RATIO),
    (lambda: parseval_canonical(DIANA, (9, 8), floor_ratio=-1.0),
     "floor_ratio " + RATIO),
    (lambda: canonical_dual(DIANA, (9, 8), floor_ratio=1.0),
     "floor_ratio " + RATIO),
    (lambda: dual_via_pseudoinverse(DIANA, (9, 8), cutoff_ratio=2.0),
     "cutoff_ratio " + RATIO),
    (lambda: dual_via_pseudoinverse(DIANA, (9, 8), cutoff_ratio=np.nan),
     "cutoff_ratio " + RATIO),
    (lambda: dual_via_pseudoinverse(orthonormal_family(), (5, 4),
                                    Projector((0,), "analytic"),
                                    cutoff_ratio=-1e-3),
     "cutoff_ratio " + RATIO),
    (lambda: dual_via_pseudoinverse(DENSE_BASIS, (5, 4), cutoff_ratio=np.inf),
     "cutoff_ratio " + RATIO),
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
    (lambda: instantiate_sparse(_sparse_rule([1, 2], [0, 1], [1.0, 1.0]), (3, 2)),
     "rows must lie in [0, N) with N=2"),
    (lambda: instantiate_sparse(_sparse_rule([0, 1], [0.0, 1.0], [1.0, 1.0]),
                                (3, 2)),
     "rows and positions must be integers"),
], ids=["sampled-nan", "power-nan", "power-inf", "constant-nan", "scale-nan",
        "translate-step-nan", "density-nan", "empty-periodic-grid",
        "a2-depth-0", "translate-step-inf", "periodic-grid-nan-period",
        "line-grid-negative-step", "pphi-grid-0", "pphi-tail-inf",
        "pphi-tail-nan", "pphi-tail-negative", "pphi-hat-tail-0",
        "pphi-tail-fractional", "canonical-dual-no-members",
        "pseudoinverse-no-members", "projector-d-below-ladder-top",
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
        "canonical-dual-floor-nan", "parseval-floor-nan",
        "parseval-floor-negative", "canonical-dual-floor-1",
        "pseudoinverse-cutoff-2", "pseudoinverse-cutoff-nan",
        "pseudoinverse-cutoff-negative", "pseudoinverse-dense-cutoff-inf",
        "sparse-rule-position-at-d", "sparse-rule-position-negative",
        "dense-rule-short-rows", "sparse-rule-unequal-lengths",
        "sparse-rule-row-past-n", "sparse-rule-float-positions"])
def test_malformed_input_is_refused(call, precondition):
    with pytest.raises(ValueError, match=re.escape(precondition)):
        call()


def test_import_leaves_scipy_unloaded():
    # scipy is imported inside the banded helpers and the block-wise
    # pseudo-inverse, so the package's import time does not pay for it
    code = ("import sys, semiframe; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
