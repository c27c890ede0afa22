from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiframe.core import TruncationLadder, line_grid, periodize
from semiframe.exponentials import frequency_of, member_of
from semiframe.families import seeded_dense_family
from semiframe.muckenhoupt import (
    PiecewiseWeight, ScaledWeight, a2_estimate, a2_ratio,
)
from semiframe.operators import frame_matrix, permutation_gap
from test_muckenhoupt import all_interval_reports, raised

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000))
def test_frame_matrix_hermitian_psd_permutation_free(seed):
    fam = seeded_dense_family(seed)
    s = frame_matrix(fam, (12, 24))
    assert s.hermiticity_gap <= 1e-12
    assert s.min_eigenvalue() >= -1e-10
    assert permutation_gap(fam, (12, 24), n_perms=5, seed=seed) <= 1e-11


@st.composite
def exact_weights(draw, dyadic=False):
    n_pieces = draw(st.integers(1, 5))
    value = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50))
    cut = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10))
    if dyadic:
        # cuts on dyadic endpoints and equal neighbours give ratio exactly 1
        value = st.sampled_from([Fraction(1, 3), Fraction(2)]) | value
        cut = cut | st.sampled_from([Fraction(1, 2), Fraction(1, 4),
                                     Fraction(3, 8), Fraction(1, 3)]) \
            | st.integers(1, 12).flatmap(lambda k: st.integers(1, 2 ** k - 1)
                                         .map(lambda j: Fraction(j, 2 ** k)))
    vals = draw(st.lists(value, min_size=n_pieces, max_size=n_pieces))
    cuts = sorted(draw(st.lists(cut, min_size=n_pieces - 1,
                                max_size=n_pieces - 1, unique=True)))
    edges = [Fraction(0)] + cuts + [Fraction(1)]
    return PiecewiseWeight(tuple(
        (edges[i], edges[i + 1], vals[i]) for i in range(n_pieces)))


@settings(max_examples=50, deadline=None)
@given(exact_weights(),
       st.fractions(min_value=Fraction(0), max_value=Fraction(1, 2)),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 2)))
def test_a2_ratio_at_least_one(weight, left, width):
    ratio = a2_ratio(weight, left, left + width)
    assert ratio >= 1 - Fraction(1, 10**12)


@settings(max_examples=40, deadline=None)
@given(exact_weights(dyadic=True), st.integers(1, 10), st.sampled_from([1, 2]))
@example(PiecewiseWeight([(0, Fraction(1, 2), 1), (Fraction(1, 2), 1, 4)]), 3, 1)
@example(PiecewiseWeight([(0, Fraction(1, 3), 2),
                          (Fraction(1, 3), Fraction(3, 8), 2),
                          (Fraction(3, 8), 1, 5)]), 10, 2)
def test_breakpoint_scan_matches_all_intervals(weight, depth, q):
    weight = raised(weight, q)
    assert a2_estimate(weight, depth=depth) \
        == all_interval_reports(weight, depth)[-1]


@settings(max_examples=25, deadline=None)
@given(exact_weights(),
       st.fractions(min_value=Fraction(1, 7), max_value=Fraction(7)))
def test_scaled_weight_ratio_invariance(weight, scale):
    scaled = ScaledWeight(weight, scale)
    a, b = Fraction(1, 8), Fraction(3, 4)
    assert a2_ratio(scaled, a * scale, b * scale) == a2_ratio(weight, a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 400))
def test_frequency_member_bijection(n):
    f = frequency_of(n)
    assert member_of(f) == n
    assert abs(f) <= (n + 1) // 2


def test_member_frequency_covers_all_integers():
    freqs = sorted(frequency_of(n) for n in range(1, 22))
    assert freqs == list(range(-10, 11))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500))
def test_periodize_stable_once_cover_reached(seed):
    rng = np.random.default_rng(seed)
    m = 41
    grid = line_grid(np.zeros(m), 0.25)
    vals = rng.normal(size=m) * np.exp(-np.abs(np.arange(m) - m // 2) / 4.0)
    f = line_grid(vals, 0.25)
    cover = int(grid.half_width / 1.0) + 1
    base = periodize(f, 1.0, shifts=cover)
    more = periodize(f, 1.0, shifts=2 * cover)
    assert np.allclose(base.values, more.values, atol=1e-15)


def test_ladder_rejects_bad_levels():
    with pytest.raises(ValueError):
        TruncationLadder(((8, 8), (4, 16), (2, 32)))
    with pytest.raises(ValueError):
        TruncationLadder(((8, 8), (8, 8), (8, 8)))
    with pytest.raises(ValueError):
        TruncationLadder(((8, 8), (16, 16)))
    ok = TruncationLadder(((8, 8), (8, 16), (8, 32)))
    assert ok.top == (8, 32)
