import tracemalloc

import numpy as np
import pytest

from semiframe.core import (
    TruncationLadder, VectorFamily, instantiate, instantiate_stored,
)
from semiframe.exponentials import ExponentialSystem, family_on_grid
from semiframe.families import (
    DIFFERENCE_POWER, INTERLEAVED_HEAD, _telescoped, decaying_probe,
    interleaved_coefficients,
    interleaved_difference_family, interleaved_prefix_norms,
    seeded_dense_family, shared_direction_family,
)
from semiframe.muckenhoupt import ConstantWeight, plateau_weight
from semiframe.operators import (
    canonical_dual, dual_via_pseudoinverse, lower_bound, permutation_gap,
    s_apply,
)

from helpers import (
    frequency_of, member_of, orthonormal_family, registry_vector_families,
    scaled_basis_family,
)

DENSE_MEMBERS = 119            # covers coordinate indices up to 60
DENSE_DIM = 64


def test_orthonormal_members():
    x = instantiate(orthonormal_family(), (5, 5))
    assert np.array_equal(x, np.eye(5, dtype=complex))


# the per-index member formulas, written out one member at a time: the
# oracle for the vectorized member rules


def _zeros_with(d, entries):
    v = np.zeros(d, dtype=complex)
    for pos, val in entries:
        v[pos] = val
    return v


def _shared_member(power):
    return lambda idx, d: _zeros_with(
        d, [(0, float(idx) ** power), (idx - 1, float(idx) ** power)])


def _diagonal_member(value):
    return lambda idx, d: _zeros_with(d, [(idx - 1, value(idx))])


def _interleaved_member(idx, d):
    k = (idx + 1) // 2
    if idx % 2 == 0:
        return _zeros_with(d, [(idx // 2 - 1, np.sqrt(float(idx // 2)))])
    if k == 1:
        return _zeros_with(d, [(0, 1.0)])
    w = float(k) ** DIFFERENCE_POWER
    return _zeros_with(d, [(k - 2, -w), (k - 1, w)])


def _grid_member(system):
    """Member f at node x_i = (2i + 1) / 2M: the 2M-th root of unity at
    (f b (2i + 1)) mod 2M, times g_i / sqrt(M)."""
    m = system.m
    roots = np.exp(2j * np.pi * np.arange(2 * m) / (2 * m))
    nodes = 2 * np.arange(m) + 1
    scaled = system.g_values() / np.sqrt(m)
    return lambda idx, d: (
        roots[frequency_of(idx) * int(system.b) * nodes % (2 * m)] * scaled)


def _seeded_member(seed):
    def member(idx, d):
        rng = np.random.default_rng([seed, idx, d])
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.sqrt(2 * d)
    return member


REGISTRY_MEMBERS = {
    "diana": _shared_member(0.0),
    "stoeva": _shared_member(1.0),
    "interleaved-chi": _interleaved_member,
    "ordering-sensitivity": _grid_member(
        ExponentialSystem(ConstantWeight(1), 1.0, 1024)),
    "plateau-exp": _grid_member(
        ExponentialSystem(plateau_weight(6, power=2), 1.0, 1024)),
    "seeded": _seeded_member(11),
}


@pytest.mark.parametrize("fam, level, member, spots", [
    # member n of the growing shared-direction family is n at coordinates 1 and n
    pytest.param(shared_direction_family(1.0), (6, 5), _shared_member(1.0),
                 {(0, 0): 2, (0, 1): 2, (3, 0): 5, (3, 4): 5},
                 id="shared-direction-p1"),
    pytest.param(orthonormal_family(), (5, 5), _diagonal_member(lambda n: 1.0),
                 {}, id="orthonormal"),
    pytest.param(scaled_basis_family(-0.5), (4, 4),
                 _diagonal_member(lambda n: float(n) ** -0.5), {},
                 id="scaled-basis"),
    pytest.param(interleaved_difference_family(), (8, 9), _interleaved_member,
                 {}, id="interleaved-difference"),
    pytest.param(interleaved_difference_family(), (2049, 2 ** 12),
                 _interleaved_member, {}, id="interleaved-difference-4096"),
] + [pytest.param(fam, level, REGISTRY_MEMBERS[scenario], {}, id=scenario)
     for scenario, fam, level in registry_vector_families()])
def test_shared_direction_sparse_matches_dense(fam, level, member, spots):
    """Both materializations and both one-index views equal the per-index
    formulas exactly, in row blocks so the N = 4096 case holds no second
    full copy."""
    d, n = level
    x = instantiate(fam, level)
    csr = None if fam.dense else instantiate_stored(fam, level)
    assert (fam.sparse is None) == fam.dense
    for lo in range(0, n, 512):
        idx_block = fam.indices(n)[lo:lo + 512]
        rows = np.array([member(idx, d) for idx in idx_block])
        assert np.array_equal(x[lo:lo + 512], rows)
        assert np.array_equal(
            np.array([fam.generator(idx, d) for idx in idx_block]), rows)
        if csr is not None:
            assert np.array_equal(csr[lo:lo + 512].toarray(), rows)
            assert np.array_equal(
                np.array([_zeros_with(d, zip(*fam.sparse(idx)))
                          for idx in idx_block]), rows)
    for (row, col), value in spots.items():
        assert x[row, col] == value


def test_grid_members_are_exact_roots_of_unity():
    """The flat grid family at M = 1024 against its members to 30 digits:
    each lies within 1e-16 of exp(2 pi i f x_i) / 32, also at f = +-512,
    where an np.exp of the full argument 2 pi f x_i misses by 1e-14."""
    mpmath = pytest.importorskip("mpmath")
    m = 1024
    x = instantiate(family_on_grid(ExponentialSystem(ConstantWeight(1), 1.0, m)),
                    (m, m + 1))
    worst = 0.0
    with mpmath.workdps(30):
        for f in (0, 1, -1, 256, -256, 512, -512):
            for i, value in enumerate(x[member_of(f) - 1].tolist()):
                exact = mpmath.expjpi(mpmath.mpf(f * (2 * i + 1)) / m) / 32
                worst = max(worst, float(abs(mpmath.mpc(value) - exact)))
    assert worst <= 1e-16


def test_member_rules_need_no_per_index_view(monkeypatch):
    """Every operator reads members through the family's block rule: with
    the one-index views raising, the registry families still run."""
    def refuse(*args):
        raise AssertionError("a one-index member view was called")

    init = VectorFamily.__post_init__

    def post_init(family):
        init(family)
        family.generator = refuse
        if family.sparse is not None:
            family.sparse = refuse

    monkeypatch.setattr(VectorFamily, "__post_init__", post_init)
    for _, fam, _ in registry_vector_families():
        ladder = TruncationLadder(tuple((fam.min_dim(n), n) for n in (3, 5, 9)))
        d, n = ladder.top
        # the grid families live at d = 1024: declaring all but every 128th
        # coordinate as the complement leaves 8 x 8 kept blocks that their 9
        # members span
        if d >= 128:
            fam.perp_directions = tuple(j for j in range(d) if j % 128)
        instantiate(fam, (d, n))
        instantiate_stored(fam, (d, n))
        s_apply(fam, np.ones(d), (d, n))
        permutation_gap(fam, (d, n), n_perms=2)
        lower_bound(fam, ladder)
        canonical_dual(fam, (d, n))
        dual_via_pseudoinverse(fam, (d, n))


def test_family_without_member_rule_is_refused():
    with pytest.raises(ValueError, match="member rule"):
        VectorFamily(name="bare")


def test_min_dim_enforced():
    fam = shared_direction_family(0.0)
    with pytest.raises(ValueError):
        instantiate(fam, (5, 5))


def test_scaled_basis_family():
    x = instantiate(scaled_basis_family(-0.5), (4, 4))
    assert np.allclose(np.diag(x), [1.0, 2 ** -0.5, 3 ** -0.5, 0.5])
    assert np.count_nonzero(x - np.diag(np.diag(x))) == 0


def test_seeded_dense_is_deterministic():
    a = instantiate(seeded_dense_family(3), (8, 12))
    b = instantiate(seeded_dense_family(3), (8, 12))
    c = instantiate(seeded_dense_family(4), (8, 12))
    assert np.array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


def test_decaying_probe_values():
    h = decaying_probe(4)
    assert np.allclose(h, [1.0, 0.25, 1.0 / 9, 1.0 / 16])
    assert np.allclose(decaying_probe(3, power=-1.0), [1.0, 0.5, 1.0 / 3])


def test_interleaved_member_layout():
    fam = interleaved_difference_family()
    x = instantiate(fam, (8, 9))
    assert np.array_equal(x[0], np.eye(8)[0])                 # first member e_1
    assert np.array_equal(x[1], np.eye(8)[0])                 # sqrt(1) e_1
    w = 2.0 ** 1.6
    assert x[2, 0] == -w and x[2, 1] == w                     # difference at k=2
    assert x[3, 1] == np.sqrt(2.0)                            # diagonal at k=2
    assert x[5, 2] == np.sqrt(3.0)                            # diagonal at k=3
    w3 = 3.0 ** 1.6
    assert x[4, 1] == -w3 and x[4, 2] == w3                   # difference at k=3


def test_interleaved_coefficients_match_direct_formula():
    # direct evaluation of n^{16/5} (n^-2 - (n-1)^-2); cancellation is mild
    # below n ~ 1e3, so both routes must agree there
    n = np.arange(2, 1001, dtype=float)
    u_direct = n ** 3.2 * (n ** -2.0 - (n - 1.0) ** -2.0)
    alpha, beta, gamma = interleaved_coefficients(2, 1000)
    assert np.allclose(gamma, u_direct, rtol=1e-8)
    assert np.allclose(beta, u_direct + 1.0 / n, rtol=1e-8)
    u_next = (n + 1) ** 3.2 * ((n + 1) ** -2.0 - n ** -2.0)
    assert np.allclose(alpha, u_direct - u_next + 1.0 / n, rtol=1e-6)
    with pytest.raises(ValueError):
        interleaved_coefficients(1, 5)


@pytest.mark.parametrize("k_lo, k_hi", [(2, 3), (2, 500001), (1000, 99999)])
def test_interleaved_coefficients_match_two_telescoped_calls(k_lo, k_hi):
    """One telescoped evaluation over k_lo..k_hi + 1, sliced, gives the
    bits of evaluating it at k and at k + 1 separately."""
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    u_k, u_next = _telescoped(k), _telescoped(k + 1)
    expected = (u_k - u_next + 1.0 / k, u_k + 1.0 / k, u_k)
    for got, want in zip(interleaved_coefficients(k_lo, k_hi), expected):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_interleaved_head_constant():
    assert INTERLEAVED_HEAD == 2.0 - 2.0 ** 1.2 + 2.0 ** 3.2


def test_prefix_norms_match_dense_partial_sums():
    """The closed-form prefix norms must reproduce a dense accumulation of
    the frame-operator series at the probe, member by member."""
    fam = interleaved_difference_family()
    x = instantiate(fam, (DENSE_DIM, DENSE_MEMBERS))
    h = decaying_probe(DENSE_DIM)
    coeffs = np.conj(x) @ h
    running = np.zeros(DENSE_DIM, dtype=complex)
    dense_norms = np.empty(DENSE_MEMBERS)
    for m in range(DENSE_MEMBERS):
        running += coeffs[m] * x[m]
        dense_norms[m] = np.linalg.norm(running)
    closed = interleaved_prefix_norms(DENSE_MEMBERS)
    assert np.max(np.abs(closed - dense_norms) / dense_norms) < 1e-10


def _prefix_norms_loop(m_max):
    """The member-by-member closed form, one prefix per step: the oracle
    for the vectorized interleaved_prefix_norms."""
    norms_sq = np.empty(m_max)
    norms_sq[0] = 1.0
    if m_max >= 2:
        norms_sq[1] = 4.0
    if m_max >= 3:
        alpha, beta, gamma = interleaved_coefficients(2, (m_max + 1) // 2 + 1)
        settled = np.concatenate([[0.0], np.cumsum(alpha ** 2)])
        for m in range(3, m_max + 1):
            k = (m + 1) // 2
            live = gamma[k - 2] if m % 2 == 1 else beta[k - 2]
            norms_sq[m - 1] = INTERLEAVED_HEAD ** 2 + settled[k - 2] + live ** 2
    return np.sqrt(norms_sq)


@pytest.mark.parametrize("m_max", [1, 2, 3, 4, 1025, 10 ** 5])
def test_prefix_norms_match_the_loop_exactly(m_max):
    assert np.array_equal(interleaved_prefix_norms(m_max),
                          _prefix_norms_loop(m_max))


def test_prefix_norms_at_a_million_hold_no_full_length_temporaries():
    # at 10^6 the closed form needs the 8 MB result and a few half-length
    # coefficient arrays; full-length index, parity, gather and live arrays
    # took the traced peak to 62 MB
    interleaved_prefix_norms(10)
    tracemalloc.start()
    try:
        interleaved_prefix_norms(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_prefix_norm_rule_indexing():
    fam = interleaved_difference_family()
    ms = np.array([1, 2, 7, 50])
    rule = fam.prefix_norm_rule(ms)
    full = interleaved_prefix_norms(50)
    assert np.array_equal(rule, full[ms - 1])
    assert full[0] == 1.0 and full[1] == 2.0
    with pytest.raises(ValueError):
        interleaved_prefix_norms(0)


def test_prefix_norms_head_freezes_after_third_member():
    # e_1 coefficient after three members is the frozen head value
    fam = interleaved_difference_family()
    x = instantiate(fam, (4, 3))
    h = decaying_probe(4)
    coeffs = np.conj(x) @ h
    partial = (coeffs[:, None] * x).sum(axis=0)
    assert abs(partial[0] - INTERLEAVED_HEAD) < 1e-12


def test_settled_coefficient_scaling_trends_to_limit():
    # alpha_n * n**0.8 sits above 0.4 and walks down toward it; the gap
    # shrinks by the n**-0.2 factor per decade
    vals = []
    for n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        a, _, _ = interleaved_coefficients(n, n)
        vals.append(float(a[0] * n ** 0.8))
    gaps = [v - 0.4 for v in vals]
    assert all(g > 0 for g in gaps)
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert abs(gaps[-1] / gaps[-2] - 10 ** -0.2) < 0.05


@pytest.mark.parametrize("power", [DIFFERENCE_POWER, 1.2, 1.0, 0.5, 0.0, -0.8])
def test_index_powers_are_scalar_pow_bit_for_bit(power):
    # the member rules take index powers with np.float_power; the scalar
    # loop float(n) ** power stays the reference, since numpy's array **
    # differs from it in the last bit on about 5 % of these n
    idx = np.arange(2, 200_002)
    _, _, values = shared_direction_family(power).block(idx)
    expect = np.array([float(n) ** power for n in idx.tolist()])
    assert np.array_equal(values[::2], expect)
