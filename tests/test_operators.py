import numpy as np
import pytest

from semiframe.core import TruncationLadder, VectorFamily, default_ladder
from semiframe.families import (
    decaying_probe, interleaved_difference_family, orthonormal_family,
    scaled_basis_family, seeded_dense_family, shared_direction_family,
)
from semiframe.operators import (
    SingularRestrictionError, adjoint_gap, analysis, canonical_dual,
    dual_via_pseudoinverse, frame_action, frame_matrix, lower_bound,
    parseval_canonical, permutation_gap, projector_for, reconstruct, s_apply,
    synthesis, w_membership,
)

LINK_LEVEL = (65, 64)
LINK_LADDER = TruncationLadder(((17, 16), (33, 32), (65, 64)))


def _expected_shifted_basis(level):
    d, n = level
    out = np.zeros((n, d), dtype=complex)
    for row in range(n):
        out[row, row + 1] = 1.0
    return out


def test_diana_dual_is_shifted_basis():
    fam = shared_direction_family(0.0)
    dual = canonical_dual(fam, LINK_LEVEL)
    assert np.abs(dual.vectors - _expected_shifted_basis(LINK_LEVEL)).max() < 1e-10
    assert abs(dual.lower_bound - 1.0) < 1e-10
    assert dual.bessel_bound_estimate <= 1.0 + 1e-9


def test_stoeva_dual_is_scaled_basis():
    fam = shared_direction_family(1.0)
    dual = canonical_dual(fam, LINK_LEVEL)
    expect = _expected_shifted_basis(LINK_LEVEL)
    ns = np.arange(2, LINK_LEVEL[1] + 2, dtype=float)
    expect /= ns[:, None]
    assert np.abs(dual.vectors - expect).max() < 1e-10
    assert abs(dual.lower_bound - 4.0) < 1e-8


def test_dual_routes_agree_on_dense_families():
    for seed in range(3):
        fam = seeded_dense_family(seed)
        a = canonical_dual(fam, (16, 32))
        b = dual_via_pseudoinverse(fam, (16, 32))
        assert np.abs(a.vectors - b.vectors).max() < 1e-9
        assert a.route == "inverse" and b.route == "pseudoinverse"


def test_adjoint_gap_small():
    assert adjoint_gap(seeded_dense_family(0), (16, 32)) < 1e-14
    assert adjoint_gap(shared_direction_family(1.0), LINK_LEVEL) < 1e-12


def test_frame_matrix_diagonal_oracle():
    t = frame_matrix(scaled_basis_family(-0.5), (6, 6))
    expect = np.diag(1.0 / np.arange(1, 7))
    assert np.abs(t.matrix - expect).max() < 1e-15
    assert t.hermiticity_gap == 0.0
    assert abs(t.min_eigenvalue() - 1.0 / 6) < 1e-14


def test_frame_action_matches_matrix():
    fam = seeded_dense_family(5)
    f = np.arange(1.0, 17.0) + 0j
    t = frame_matrix(fam, (16, 24)).matrix
    assert np.abs(frame_action(fam, f, (16, 24)) - t @ f).max() < 1e-12


def test_permutation_gap_is_roundoff():
    assert permutation_gap(seeded_dense_family(2), (16, 32)) < 1e-13
    assert permutation_gap(shared_direction_family(1.0), LINK_LEVEL) < 1e-12


def test_analysis_domain_verdicts():
    fam = orthonormal_family()
    ladder = default_ladder(fam, base=64, depth=4)
    _, ok = analysis(fam, decaying_probe(512, -1.0), ladder)
    assert ok.kind == "Convergent"
    _, bad = analysis(fam, decaying_probe(512, -0.4), ladder)
    assert bad.kind == "Divergent"


def test_projector_analytic_axis():
    p = projector_for(shared_direction_family(0.0), 9)
    assert p.kind == "analytic"
    assert p.flagged == (0,)
    assert p.rank == 8
    assert p.idempotency_gap() < 1e-14
    assert np.abs(p.matrix @ p.range_basis - p.range_basis).max() < 1e-14


def test_projector_analytic_general_direction():
    def perp(d):
        u = np.ones((1, d), dtype=complex)
        return u

    fam = VectorFamily(name="tilted", generator=lambda i, d: np.eye(d)[i - 1],
                       perp_directions=perp)
    p = projector_for(fam, 5)
    v = np.ones(5) / np.sqrt(5)
    assert np.abs(p.matrix @ v).max() < 1e-12
    assert p.rank == 4


def test_projector_estimated_from_ladder():
    fam = shared_direction_family(1.0)
    fam.perp_directions = None
    p = projector_for(fam, 65, ladder=LINK_LADDER)
    assert p.kind == "estimated"
    assert p.flagged == (0,)


def test_projector_defaults_to_identity():
    p = projector_for(orthonormal_family(), 6)
    assert np.array_equal(p.matrix, np.eye(6))


def test_lower_bound_ladder():
    per_level, verdict = lower_bound(shared_direction_family(0.0), LINK_LADDER)
    assert all(abs(lam - 1.0) < 1e-10 for _, lam in per_level)
    assert verdict.kind == "Convergent"


def test_lower_bound_carries_estimated_projector():
    # without its declared complement the growing family needs the
    # estimated projector at every level, not only at the top dimension
    fam = shared_direction_family(1.0)
    fam.perp_directions = None
    ladder = TruncationLadder(((65, 64), (129, 128), (257, 256)))
    proj = projector_for(fam, 257, ladder)
    per_level, verdict = lower_bound(fam, ladder, proj)
    assert all(abs(lam - 4.0) < 1e-8 for _, lam in per_level)
    assert verdict.kind == "Convergent"


def test_singular_restriction_raises():
    # members never reach the last coordinate, so the restricted operator
    # is singular once the projector keeps the whole space
    fam = VectorFamily(name="deficient",
                       generator=lambda i, d: np.eye(d)[i - 1])
    with pytest.raises(SingularRestrictionError) as err:
        canonical_dual(fam, (6, 4))
    assert err.value.lambda_min <= err.value.floor


def test_reconstruct_in_span_and_orthogonal():
    fam = shared_direction_family(0.0)
    dual = canonical_dual(fam, LINK_LEVEL)
    rng = np.random.default_rng(0)
    f = rng.normal(size=65) + 1j * rng.normal(size=65)
    f[0] = 0.0
    res = reconstruct(f, fam, dual, LINK_LEVEL)
    assert res.rel_error < 1e-12
    assert res.in_span_error < 1e-12
    e1 = np.zeros(65, dtype=complex)
    e1[0] = 1.0
    res1 = reconstruct(e1, fam, dual, LINK_LEVEL, ladder=LINK_LADDER)
    assert abs(res1.rel_error - 1.0) < 1e-12
    assert res1.in_span_error is None
    assert res1.coefficient_tail.kind == "Divergent"


def test_reconstruct_pads_short_probe():
    fam = shared_direction_family(0.0)
    level = (33, 32)
    dual = canonical_dual(fam, level)
    rng = np.random.default_rng(3)
    short = rng.normal(size=10) + 1j * rng.normal(size=10)
    short[0] = 0.0
    padded = np.zeros(33, dtype=complex)
    padded[:10] = short
    res = reconstruct(short, fam, dual, level)
    ref = reconstruct(padded, fam, dual, level)
    assert res.rel_error == ref.rel_error < 1e-12
    assert np.array_equal(res.f_tilde, ref.f_tilde)


def test_pseudoinverse_and_reconstruct_carry_projector_to_level():
    # a projector built at another dimension is carried to the level, as
    # lower_bound and canonical_dual already do
    fam = shared_direction_family(0.0)
    level = (33, 32)
    proj = projector_for(fam, 65)
    dual = canonical_dual(fam, level, proj)
    pinv = dual_via_pseudoinverse(fam, level, proj)
    assert np.abs(pinv.vectors - dual.vectors).max() < 1e-9
    rng = np.random.default_rng(5)
    f = rng.normal(size=33) + 1j * rng.normal(size=33)
    f[0] = 0.0
    res = reconstruct(f, fam, pinv, level, proj)
    assert res.in_span_error <= 1e-10


def test_parseval_canonical_is_tight():
    for fam in (shared_direction_family(0.0), shared_direction_family(1.0),
                seeded_dense_family(1)):
        level = (16, 32) if fam.name.startswith("seeded") else (33, 32)
        _, gap = parseval_canonical(fam, level)
        assert gap < 1e-9


def test_synthesis_trace_monotone_for_orthonormal():
    fam = orthonormal_family()
    coeffs = decaying_probe(32, -2.0)
    _, trace = synthesis(fam, coeffs, (32, 32), window=1e-3)
    assert trace.stabilized
    assert trace.variation < 1e-4
    diffs = np.diff(trace.prefix_norms)
    assert np.all(diffs >= -1e-15)


def test_s_apply_ordering_dependence():
    fam = orthonormal_family()
    f = decaying_probe(64, -0.6)
    _, natural = s_apply(fam, f, (64, 64))
    reversed_order = np.arange(63, -1, -1)
    _, flipped = s_apply(fam, f, (64, 64), ordering=reversed_order)
    # same endpoint, different paths
    assert abs(natural.prefix_norms[-1] - flipped.prefix_norms[-1]) < 1e-12
    assert np.abs(natural.prefix_norms - flipped.prefix_norms).max() > 0.1


def test_w_membership_split_domains():
    fam = interleaved_difference_family()
    ladder = TruncationLadder(((66, 131), (130, 259), (258, 515), (514, 1027)))
    probes = [decaying_probe(514, -3.0)]
    rep = w_membership(fam, decaying_probe(514), probes, ladder,
                       rule_counts=np.array([10_000, 100_000, 1_000_000]))
    assert rep.in_T_domain.kind == "Convergent"
    assert rep.in_W_domain.kind == "Divergent"
    assert 0.15 <= rep.prefix_exponent <= 0.25
    assert rep.prefix_sups[-1][1] > rep.prefix_sups[0][1]
