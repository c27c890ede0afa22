import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semiframe.core import (
    TruncationLadder, VectorFamily, default_ladder, instantiate,
    instantiate_stored, tail_diagnostic,
)
from semiframe.families import (
    decaying_probe, interleaved_difference_family, seeded_dense_family,
    shared_direction_family,
)
from semiframe import operators
from semiframe.exponentials import ExponentialSystem, family_on_grid
from semiframe.muckenhoupt import ConstantWeight
from semiframe.operators import (
    PINV_CUTOFF_RATIO, SingularRestrictionError, adjoint_gap,
    analysis, analysis_matrix, canonical_dual, dual_via_pseudoinverse, frame_action,
    frame_matrix, lower_bound, parseval_canonical, permutation_gap,
    projector_for, reconstruct, s_apply, synthesis, w_membership,
)

from helpers import (
    orthonormal_family, registry_vector_families, scaled_basis_family,
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
    assert np.abs(t - expect).max() < 1e-15
    assert np.array_equal(t, t.conj().T)
    assert abs(np.linalg.eigvalsh(t)[0] - 1.0 / 6) < 1e-14


def test_frame_action_matches_matrix():
    fam = seeded_dense_family(5)
    f = np.arange(1.0, 17.0) + 0j
    t = frame_matrix(fam, (16, 24))
    assert np.abs(frame_action(fam, f, (16, 24)) - t @ f).max() < 1e-12


def test_permutation_gap_is_roundoff():
    assert permutation_gap(seeded_dense_family(2), (16, 32)) < 1e-13
    assert permutation_gap(shared_direction_family(1.0), LINK_LEVEL) < 1e-12


def test_analysis_domain_verdicts():
    fam = orthonormal_family()
    ladder = default_ladder(fam)
    _, ok = analysis(fam, decaying_probe(512, -1.0), ladder)
    assert ok.kind == "Convergent"
    _, bad = analysis(fam, decaying_probe(512, -0.4), ladder)
    assert bad.kind == "Divergent"


def test_projector_analytic_axis():
    # the mask removes the declared complement, the same coordinates at
    # every dimension
    fam = shared_direction_family(0.0)
    assert projector_for(fam, 4).tolist() == [False, True, True, True]
    assert projector_for(fam, 257).sum() == 256


def test_projector_defaults_to_identity():
    # a dense analysis domain, and a family that declares no complement
    assert projector_for(orthonormal_family(), 5).all()
    assert projector_for(_growing_without_complement(), 5).all()


def test_lower_bound_ladder():
    per_level, verdict = lower_bound(shared_direction_family(0.0), LINK_LADDER)
    assert all(abs(lam - 1.0) < 1e-10 for _, lam in per_level)
    assert verdict.kind == "Convergent"


def test_lower_bound_reads_the_declared_complement_at_every_level():
    # the growing family's declared complement is removed at every level,
    # not only at the top dimension
    fam = shared_direction_family(1.0)
    ladder = TruncationLadder(((65, 64), (129, 128), (257, 256)))
    per_level, verdict = lower_bound(fam, ladder)
    assert all(abs(lam - 4.0) < 1e-8 for _, lam in per_level)
    assert verdict.kind == "Convergent"


def test_singular_restriction_raises():
    # members never reach the last coordinate, so the restricted operator
    # is singular once the projector keeps the whole space
    fam = VectorFamily(name="deficient", dense=True,
                       block=lambda idx, d: np.eye(d)[idx - 1])
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
    # the family projector's coordinates are carried to the level, as
    # lower_bound and canonical_dual do
    fam = shared_direction_family(0.0)
    level = (33, 32)
    dual = canonical_dual(fam, level)
    pinv = dual_via_pseudoinverse(fam, level)
    assert np.abs(pinv.vectors - dual.vectors).max() < 1e-9
    rng = np.random.default_rng(5)
    f = rng.normal(size=33) + 1j * rng.normal(size=33)
    f[0] = 0.0
    res = reconstruct(f, fam, pinv, level)
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


def _stored_pairs():
    """(family, level, materializer) of every registry family, dense and,
    for a sparse rule, CSR, plus the interleaved family's CSR at
    (1025, 2049)."""
    out = []
    for scenario, fam, level in registry_vector_families():
        out.append((f"{scenario}-dense", fam, level, instantiate))
        if not fam.dense:
            out.append((f"{scenario}-csr", fam, level, instantiate_stored))
    out.append(("interleaved-2049-csr", interleaved_difference_family(),
                (1025, 2049), instantiate_stored))
    return [pytest.param(fam, level, build, id=name)
            for name, fam, level, build in out]


@pytest.mark.parametrize("fam, level, build", _stored_pairs())
def test_pairings_conjugate_the_probe_not_the_members(fam, level, build):
    """<f, member_n> as conj(X @ conj(f)) keeps the bits of X.conj() @ f on
    every stored family and three seeded probes."""
    x = build(fam, level)
    rng = np.random.default_rng(19)
    for _ in range(3):
        f = rng.normal(size=level[0]) + 1j * rng.normal(size=level[0])
        assert np.array_equal(operators._pairings(x, f), x.conj() @ f)


@pytest.mark.parametrize("fam, level", [
    (interleaved_difference_family(), (130, 257)),
    (seeded_dense_family(3), (48, 96)),
    (shared_direction_family(1.0), (65, 64)),
], ids=["interleaved", "seeded-dense", "growing"])
def test_s_apply_is_analysis_then_synthesis(fam, level, monkeypatch):
    """s_apply equals dense synthesis of the coefficients it reads, taken
    from the family's own storage (CSR coefficients of a sparse family may
    differ from the dense matrix product by an ulp), and materializes the
    members once."""
    f = decaying_probe(level[0], -0.6)
    order = np.random.default_rng(11).permutation(level[1])
    stored = instantiate_stored(fam, level)
    for ordering in (None, order):
        coeffs = stored.conj() @ f
        ref_vec, ref = synthesis(fam, coeffs, level, ordering=ordering)
        calls = []
        with monkeypatch.context() as mp:
            for name in ("instantiate", "instantiate_stored"):
                real = getattr(operators, name)
                mp.setattr(operators, name, lambda *a, real=real:
                           calls.append(a) or real(*a))
            vec, trace = s_apply(fam, f, level, ordering=ordering)
        assert len(calls) == 1
        assert np.array_equal(vec, ref_vec)
        assert np.array_equal(trace.prefix_norms, ref.prefix_norms)
        assert trace.variation == ref.variation


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


# interleaved-chi's membership split, printed whole
_INTERLEAVED_MEMBERSHIP = """
import numpy as np
from semiframe.core import TruncationLadder
from semiframe.families import decaying_probe, interleaved_difference_family
from semiframe.operators import w_membership
ladder = TruncationLadder(((130, 257), (258, 513), (514, 1025), (1026, 2049)))
e5 = np.zeros(1026, dtype=complex)
e5[4] = 1.0
print(repr(w_membership(
    interleaved_difference_family(), decaying_probe(1026),
    [e5, decaying_probe(1026, power=-3.0)], ladder,
    rule_counts=np.array([10 ** 4, 10 ** 5, 10 ** 6]))))
"""


# the fitted log-log slopes of diana, stoeva and interleaved-chi
_SCENARIO_SLOPES = """
from semiframe.scenarios import run_scenario
reports = {name: run_scenario(name)
           for name in ("diana", "stoeva", "interleaved-chi")}
for name, check in (
        ("diana", "orthogonal-probe-invisible"),
        ("stoeva", "no-upper-bound-harmonic-probe-escapes"),
        ("interleaved-chi", "settled-coefficient-decay-near-minus-0.8"),
        ("interleaved-chi", "live-coefficient-growth-exponent")):
    c, = [c for c in reports[name].checks if c.name == check]
    print(name, check, repr(c.value), repr(c.detail))
"""


def _at_one_and_two_blas_threads(script: str) -> list:
    """The stdout of script run at OPENBLAS_NUM_THREADS=1 and =2."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return [subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
             "OMP_NUM_THREADS": threads},
        check=True, capture_output=True, text=True).stdout
        for threads in ("1", "2")]


def test_w_membership_is_the_same_at_one_and_two_blas_threads():
    """The prefix-norm slope sums its 875001 terms pairwise, so the report
    does not move with the BLAS thread count."""
    reports = _at_one_and_two_blas_threads(_INTERLEAVED_MEMBERSHIP)
    assert reports[0] == reports[1]


def test_fitted_slopes_are_the_same_at_one_and_two_blas_threads():
    """Every log-log slope is core.loglog_fit's centered pairwise sums, so
    the growth exponents of diana and stoeva and interleaved-chi's three
    coefficient slopes do not move with the BLAS thread count."""
    reports = _at_one_and_two_blas_threads(_SCENARIO_SLOPES)
    assert len(reports[0].splitlines()) == 4
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# the diagnostics on the members' own storage against dense expressions

EPS = np.finfo(float).eps


def _roundoff(got, want, scale):
    """|got - want| within 16 eps of the summed term magnitudes `scale`:
    the two routes add the same products in another order."""
    return np.all(np.abs(np.asarray(got) - np.asarray(want))
                  <= 16 * EPS * np.asarray(scale))


def _dense_trace(x, f, order):
    """Prefix sums of <f, x_n> x_n over the rows of the dense x in the
    given order, with their norms and the norms of |<f, x_n>| |x_n|."""
    coeffs = np.conj(x) @ f
    running = np.zeros(x.shape[1], dtype=complex)
    bound = np.zeros(x.shape[1])
    norms, scales = [], []
    for k in order:
        running += coeffs[k] * x[k]
        bound += np.abs(coeffs[k]) * np.abs(x[k])
        norms.append(np.linalg.norm(running))
        scales.append(np.linalg.norm(bound))
    return running, np.array(norms), np.array(scales), bound


STORAGE_CASES = [
    pytest.param(shared_direction_family(0.0, name="diana-links"),
                 TruncationLadder(((33, 32), (65, 64), (129, 128))), id="diana"),
    pytest.param(shared_direction_family(1.0, name="growing-links"),
                 TruncationLadder(((33, 32), (65, 64), (129, 128))),
                 id="growing"),
    pytest.param(interleaved_difference_family(),
                 TruncationLadder(((66, 131), (130, 259), (258, 515))),
                 id="interleaved"),
    pytest.param(seeded_dense_family(4),
                 TruncationLadder(((16, 32), (32, 64), (64, 128))),
                 id="seeded-dense"),
]


@pytest.mark.parametrize("fam, ladder", STORAGE_CASES)
def test_diagnostics_on_stored_members_match_dense(fam, ladder, monkeypatch):
    """frame_action, s_apply, analysis, w_membership and permutation_gap read
    CSR members for a sparse family (a dense read raises) and agree with the
    dense expressions up to the roundoff of another summation order."""
    level = ladder.top
    d, n = level
    xs = [instantiate(fam, lv) for lv in ladder.levels]
    x = xs[-1]
    f = decaying_probe(d, -0.6)
    g = decaying_probe(d, -3.0)
    order = np.random.default_rng(5).permutation(n)

    real = operators.instantiate

    def dense_only(family, lv):
        if not family.dense:
            raise AssertionError(f"{family.name} materialized densely")
        return real(family, lv)

    monkeypatch.setattr(operators, "instantiate", dense_only)

    abs_x, abs_f = np.abs(x), np.abs(f)
    assert _roundoff(frame_action(fam, f, level),
                     x.T @ (np.conj(x) @ f), abs_x.T @ (abs_x @ abs_f))

    for ordering in (None, order):
        ref_vec, ref_norms, scales, bound = _dense_trace(
            x, f, np.arange(n) if ordering is None else ordering)
        vec, trace = s_apply(fam, f, level, ordering=ordering)
        assert _roundoff(vec, ref_vec, bound)
        assert _roundoff(trace.prefix_norms, ref_norms, scales)
        assert np.array_equal(trace.ordering,
                              np.arange(n) if ordering is None else ordering)

    coeffs, verdict = analysis(fam, f, ladder)
    assert _roundoff(coeffs, np.conj(x) @ f, abs_x @ abs_f)
    energies = [float(np.sum(np.abs(np.conj(xl) @ f[:lv[0]]) ** 2))
                for xl, lv in zip(xs, ladder.levels)]
    assert verdict.kind == tail_diagnostic(energies, ladder.counts()).kind

    rep = w_membership(fam, f, [g], ladder)
    pairings = [complex(np.vdot(np.conj(xl) @ g[:lv[0]], np.conj(xl) @ f[:lv[0]]))
                for xl, lv in zip(xs, ladder.levels)]
    assert rep.in_T_domain.kind == tail_diagnostic(
        pairings, ladder.counts(), rel_tol=1e-7).kind
    pair_scale = np.abs(np.conj(x) @ g) @ (abs_x @ abs_f)
    assert abs(rep.bound_estimate - abs(pairings[-1]) / np.linalg.norm(g)) \
        <= 64 * EPS * pair_scale / np.linalg.norm(g)
    if fam.prefix_norm_rule is None:
        for (count, sup), xl, lv in zip(rep.prefix_sups, xs, ladder.levels):
            _, norms, scales, _ = _dense_trace(xl, f[:lv[0]], np.arange(lv[1]))
            assert count == lv[1]
            assert abs(sup - norms.max()) <= 16 * EPS * scales.max()

    gram = x.T @ np.conj(x)
    stored = x if fam.dense else instantiate_stored(fam, level)
    got = operators._gram(stored)
    got = got if fam.dense else got.toarray()
    upper = np.triu(np.ones((d, d), dtype=bool))
    assert _roundoff(got[upper], gram[upper], (abs_x.T @ abs_x)[upper])
    assert permutation_gap(fam, level, n_perms=4) <= 64 * EPS


# ---------------------------------------------------------------------------
# the diagonal and dense kept blocks against the dense oracle


def _dense_oracle(fam, level):
    """The kept block B = Y Y^H built densely from `instantiate`, read by
    numpy's eigh, and the restricted-inverse dual, Parseval vectors and
    their frame-matrix spectra computed from it."""
    keep = projector_for(fam, level[0])
    y = instantiate(fam, level).T[keep]
    w, v = np.linalg.eigh(y @ y.conj().T)
    duals = np.zeros(level, dtype=complex)
    duals[keep] = (v / w) @ v.conj().T @ y
    duals = duals.T
    bessel = float(np.linalg.eigvalsh(duals.T @ np.conj(duals))[-1])
    y2 = (v / np.sqrt(w)) @ v.conj().T @ y
    tight = np.zeros(level, dtype=complex)
    tight[keep] = y2
    gap = float(np.abs(np.linalg.eigvalsh(y2 @ y2.conj().T) - 1.0).max())
    return w, duals, bessel, tight.T, gap


def _forbid_dense_eigensolves(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve on a diagonal kept block")
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)


def _growing_without_complement():
    fam = shared_direction_family(1.0)
    fam.perp_directions = None
    return fam


NARROW_CASES = [
    pytest.param(shared_direction_family(1.0), (257, 256), id="growing-256"),
    pytest.param(shared_direction_family(1.0), (513, 512), id="growing-512"),
    pytest.param(shared_direction_family(1.0), (1025, 1024), id="growing-1024"),
    pytest.param(shared_direction_family(0.0), (257, 256), id="diana"),
]


@pytest.mark.parametrize("fam, level", NARROW_CASES)
def test_banded_block_matches_dense_oracle(fam, level, monkeypatch):
    w, duals, bessel, tight, gap = _dense_oracle(fam, level)
    _forbid_dense_eigensolves(monkeypatch)
    dual = canonical_dual(fam, level)
    assert np.abs(dual.vectors - duals).max() <= 1e-12
    assert abs(dual.lower_bound - w[0]) <= 1e-12 * w[0]
    assert abs(dual.bessel_bound_estimate - bessel) <= 1e-12 * bessel
    assert dual.bessel_bound_estimate <= dual.bessel_bound_theoretical + 1e-9
    vectors, tight_gap = parseval_canonical(fam, level)
    assert np.abs(vectors - tight).max() <= 1e-12
    assert tight_gap < 1e-9 and gap < 1e-9
    d, n = level
    ladder = TruncationLadder(((d // 2 + 1, n // 2), (d, n), (2 * d - 1, 2 * n)))
    per_level, _ = lower_bound(fam, ladder)
    lam = per_level[1][1]
    assert abs(lam - w[0]) <= 1e-12 * w[0]


@pytest.mark.parametrize("n", [256, 1024])
def test_diagonal_block_inverse_scales_rows(n, monkeypatch):
    # on a diagonal kept block G^{-1} M is M with row i scaled by 1/g_i
    from scipy import linalg, sparse

    fam, level = shared_direction_family(1.0), (n + 1, n)
    w, duals, bessel, _, _ = _dense_oracle(fam, level)

    def refuse(*args, **kwargs):
        raise AssertionError("solveh_banded on a diagonal kept block")
    monkeypatch.setattr(linalg, "solveh_banded", refuse)
    _, block = operators._restricted_spectrum(fam, level)
    dual_block, lam = block.inverse()
    # G is held as its diagonal, and the scaled rows stay CSR
    assert block.dense is None and block.diagonal.shape == (n,)
    assert isinstance(dual_block.members, sparse.csr_array)
    assert lam == w[0]
    dual = canonical_dual(fam, level)
    assert np.abs(dual.vectors - duals).max() <= 1e-12
    assert abs(dual.bessel_bound_estimate - bessel) <= 1e-12 * bessel


def test_interleaved_tridiagonal_lower_bound():
    fam = interleaved_difference_family()
    ladder = TruncationLadder(((130, 257), (258, 513), (514, 1025)))
    oracle = []
    for level in ladder.levels:
        y = instantiate(fam, level).T
        oracle.append(np.linalg.eigvalsh(y @ y.conj().T)[0])
    per_level, _ = lower_bound(fam, ladder)
    for (_, lam), ref in zip(per_level, oracle):
        assert abs(lam - ref) <= 1e-12 * ref


def test_interleaved_duals_read_dense_eigh_off_the_band(monkeypatch):
    # a tridiagonal kept block is dense: its eigenvalues, G^{-1} M and
    # G^{-1/2} M all come from dense eigh of G
    from scipy import linalg

    fam, level = interleaved_difference_family(), (129, 257)
    w, duals, bessel, tight, gap = _dense_oracle(fam, level)

    def refuse(*args, **kwargs):
        raise AssertionError("banded solver on the kept block")
    for name in ("solveh_banded", "eig_banded"):
        monkeypatch.setattr(linalg, name, refuse)
    dual = canonical_dual(fam, level)
    assert np.abs(dual.vectors - duals).max() <= 1e-12
    assert abs(dual.lower_bound - w[0]) <= 1e-12 * w[0]
    assert abs(dual.bessel_bound_estimate - bessel) <= 1e-12 * bessel
    vectors, tight_gap = parseval_canonical(fam, level)
    assert np.abs(vectors - tight).max() <= 1e-12
    assert tight_gap < 1e-9 and gap < 1e-9


def _shared_with_identity_family():
    """Members e_1 and e_1 + 2 e_n: a sparse rule whose kept block under
    the identity projector has a full first row (bandwidth r - 1)."""
    def block(idx):
        # e_1 + 2 e_n, without the e_n entry at n = 1
        taken = np.stack([idx > 0, idx > 1], axis=1)
        rows = np.repeat(np.arange(idx.size), 2).reshape(-1, 2)
        pos = np.stack([0 * idx, idx - 1], axis=1)
        vals = np.broadcast_to([1.0, 2.0], pos.shape)
        return rows[taken], pos[taken], vals[taken]
    return VectorFamily(name="shared-with-identity", block=block)


def test_wide_band_sparse_family_takes_dense_path():
    fam = _shared_with_identity_family()
    level = (128, 128)
    w, duals, bessel, tight, gap = _dense_oracle(fam, level)
    dual = canonical_dual(fam, level)
    assert np.abs(dual.vectors - duals).max() <= 1e-12
    assert abs(dual.lower_bound - w[0]) <= 1e-12 * w[0]
    assert abs(dual.bessel_bound_estimate - bessel) <= 1e-12 * bessel
    vectors, tight_gap = parseval_canonical(fam, level)
    assert np.abs(vectors - tight).max() <= 1e-12
    assert tight_gap < 1e-9 and gap < 1e-9
    per_level, _ = lower_bound(fam, TruncationLadder(
        ((32, 32), (64, 64), level)))
    assert abs(per_level[-1][1] - w[0]) <= 1e-12 * w[0]


def test_seeded_dense_keeps_the_dense_route_bit_for_bit():
    fam = seeded_dense_family(7)
    level = (256, 512)
    w, duals, bessel, tight, gap = _dense_oracle(fam, level)
    dual = canonical_dual(fam, level)
    assert np.array_equal(dual.vectors, duals)
    assert dual.bessel_bound_estimate == bessel
    assert dual.lower_bound == w[0] and dual.bessel_bound_theoretical == 1 / w[0]
    vectors, tight_gap = parseval_canonical(fam, level)
    assert np.array_equal(vectors, tight)
    assert tight_gap == gap


def test_sparse_deficient_family_is_singular():
    fam = VectorFamily(name="deficient-sparse", block=lambda idx: (
        np.arange(idx.size), idx - 1, np.ones(idx.size)))
    for call in (canonical_dual, parseval_canonical):
        with pytest.raises(SingularRestrictionError) as err:
            call(fam, (6, 4))
        assert err.value.lambda_min <= err.value.floor


def test_lower_bound_far_beyond_the_dense_limit(monkeypatch):
    # a dense kept block at N = 2^14 would take 4.3 GB
    _forbid_dense_eigensolves(monkeypatch)
    ladder = TruncationLadder(tuple((n + 1, n) for n in (2 ** 12, 2 ** 13, 2 ** 14)))
    per_level, verdict = lower_bound(shared_direction_family(1.0), ladder)
    assert [lam for _, lam in per_level] == [4.0, 4.0, 4.0]
    assert verdict.kind == "Convergent"


# ---------------------------------------------------------------------------
# kept-block outputs and the dense trace, without member copies

KEPT_CASES = [
    pytest.param(shared_direction_family(1.0, name="growing-links"),
                 (513, 512), id="growing"),
    pytest.param(shared_direction_family(0.0, name="diana-links"),
                 (257, 256), id="diana"),
    pytest.param(seeded_dense_family(9), (64, 128), id="seeded-dense"),
]


@pytest.mark.parametrize("fam, level", KEPT_CASES)
def test_kept_block_outputs_match_the_dense_assignment(fam, level):
    """canonical_dual and parseval_canonical return a CSR block as CSR
    members and a dense one as an array; bit for bit the assignment of the
    block's dense copy into the kept coordinates."""
    from scipy import sparse

    keep, block = operators._restricted_spectrum(fam, level)
    for power, got in ((1.0, canonical_dual(fam, level).members),
                       (0.5, parseval_canonical(fam, level)[0])):
        derived, _ = block.inverse(power=power)
        members = derived.members
        assert sparse.issparse(members) != fam.dense
        assert isinstance(got, sparse.csr_array) != fam.dense
        want = np.zeros(level, dtype=complex)
        want[keep] = members if fam.dense else members.toarray()
        assert np.array_equal(got if fam.dense else got.toarray(), want.T)


def _traced_peak(call, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reconstruct_reads_the_stored_members():
    fam = shared_direction_family(1.0)
    level = (1025, 1024)
    dual = canonical_dual(fam, level)
    f = decaying_probe(level[0])
    reconstruct(f, fam, dual, level)      # imports and first calls
    # the dense analysis matrix alone would take 16 MB
    assert _traced_peak(reconstruct, f, fam, dual, level) < 2 ** 20


# one dense (N, d) copy of the duals at (8193, 8192) takes 1025 MiB
LINEAR_BUDGET = 8 * 2 ** 20


def test_canonical_dual_builds_no_second_dense_copy():
    fam = shared_direction_family(1.0)
    canonical_dual(fam, (65, 64))          # imports and first calls
    peak = _traced_peak(canonical_dual, fam, (8193, 8192))
    assert peak < LINEAR_BUDGET


@pytest.mark.parametrize("route", [dual_via_pseudoinverse, parseval_canonical],
                         ids=["pseudoinverse", "parseval"])
def test_stored_dual_routes_run_in_linear_memory(route):
    fam = shared_direction_family(1.0)
    route(fam, (65, 64))                   # imports and first calls
    assert _traced_peak(route, fam, (8193, 8192)) < LINEAR_BUDGET


def _copied_trace(x, coeffs, order):
    """The prefix sums as taken from reordered, weighted copies of the rows."""
    weighted = coeffs[order][:, None] * x[order]
    running = np.zeros(x.shape[1], dtype=complex)
    norms = np.empty(len(order))
    for k in range(len(order)):
        running += weighted[k]
        norms[k] = np.linalg.norm(running)
    return running, norms


@pytest.mark.parametrize("fam, level", [
    (seeded_dense_family(5), (48, 96)),
    (family_on_grid(ExponentialSystem(ConstantWeight(1), 1.0, 64)), (64, 65)),
], ids=["seeded-dense", "flat-exponentials"])
def test_dense_trace_keeps_the_copied_prefix_norms(fam, level):
    x = instantiate(fam, level)
    coeffs = np.conj(x) @ decaying_probe(level[0], -0.6)
    order = np.random.default_rng(13).permutation(level[1])
    want_vec, want = _copied_trace(x, coeffs, order)
    vec, trace = synthesis(fam, coeffs, level, ordering=order)
    assert np.array_equal(vec, want_vec)
    assert np.array_equal(trace.prefix_norms, want)


# ---------------------------------------------------------------------------
# the block-wise pseudo-inverse against the whole-matrix SVD


def _pinv_oracle(fam, level, cutoff_ratio=PINV_CUTOFF_RATIO):
    """One dense SVD of the whole restricted analysis matrix: duals, their
    frame matrix's top eigenvalue and s_min^2."""
    c = np.conj(instantiate(fam, level))
    c[:, ~projector_for(fam, level[0])] = 0.0
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    keep = s > cutoff_ratio * float(s[0])
    pinv = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
    duals = pinv.T
    bessel = float(np.linalg.eigvalsh(duals.T @ np.conj(duals))[-1])
    return duals, bessel, float(s[keep][-1]) ** 2


def _sparse_family(name, table, perp_directions=None):
    """A sparse family whose member i is table[i - 1] = {coordinate: value},
    with the declared complement perp_directions."""
    def block(idx):
        members = [table[i - 1] for i in idx.tolist()]
        return (np.repeat(np.arange(idx.size), [len(m) for m in members]),
                np.array([p for m in members for p in m], dtype=int),
                np.array([v for m in members for v in m.values()], dtype=complex))
    return VectorFamily(name=name, block=block, perp_directions=perp_directions)


# blocks (members x kept coordinates): 3x2 on e_5, e_6 (members 1, 3, 8);
# 1x1 on e_1 (member 2); 2x1 on e_4 (members 4, 7); 1x2 on e_2, e_9
# (member 6). Member 5 lives on the declared complement e_7 only, and no
# member touches the kept e_3 and e_8.
MIXED_BLOCKS = _sparse_family("mixed-blocks", [
    {4: 1.0, 5: 2.0}, {0: 2.0}, {4: 0.5j, 5: -1.0}, {3: 1.0}, {6: 1.5},
    {8: 1.0, 1: 3.0 - 1j}, {3: 2.0j}, {4: 3.0, 5: 1.0 + 1.0j}], (6,))


def _record_svd_shapes(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


PINV_CASES = [
    pytest.param(shared_direction_family(1.0), (n + 1, n),
                 id=f"growing-{n}") for n in (256, 512, 1024)] + [
    pytest.param(shared_direction_family(0.0), (257, 256), id="diana"),
    pytest.param(shared_direction_family(1.0),
                 default_ladder(shared_direction_family(1.0)).top,
                 id="stoeva-top"),
    pytest.param(interleaved_difference_family(), (129, 257),
                 id="interleaved-one-block"),
    pytest.param(MIXED_BLOCKS, (9, 8), id="mixed-blocks"),
    pytest.param(seeded_dense_family(5), (48, 96), id="seeded-dense"),
]


@pytest.mark.parametrize("fam, level", PINV_CASES)
def test_blockwise_pseudoinverse_matches_whole_svd(fam, level):
    duals, bessel, lower = _pinv_oracle(fam, level)
    pinv = dual_via_pseudoinverse(fam, level)
    assert np.abs(pinv.vectors - duals).max() <= 1e-12
    assert abs(pinv.bessel_bound_estimate - bessel) <= 1e-12 * bessel
    assert abs(pinv.lower_bound - lower) <= 1e-12 * lower
    assert pinv.bessel_bound_theoretical == 1.0 / pinv.lower_bound


def test_mixed_blocks_shapes_and_zeros(monkeypatch):
    shapes = _record_svd_shapes(monkeypatch)
    pinv = dual_via_pseudoinverse(MIXED_BLOCKS, (9, 8))
    # members share e_4, e_5 and e_6, so C is made dense: the 7 members and 6
    # coordinates holding an entry
    assert shapes == [(7, 6)]
    # the member off the kept coordinates has a zero dual, and no dual
    # reaches the removed or untouched coordinates
    assert not pinv.vectors[4].any()
    assert not pinv.vectors[:, [2, 6, 7]].any()


def test_interleaved_family_is_one_block(monkeypatch):
    shapes = _record_svd_shapes(monkeypatch)
    dual_via_pseudoinverse(interleaved_difference_family(), (129, 257))
    assert shapes == [(257, 129)]


def test_growing_family_sends_only_unit_blocks_to_svd(monkeypatch):
    # one entry per member and per kept coordinate: inverted entrywise
    shapes = _record_svd_shapes(monkeypatch)
    dual_via_pseudoinverse(shared_direction_family(1.0), (1025, 1024))
    assert shapes == []


def test_cutoff_is_global_over_blocks(monkeypatch):
    # two 1x1 blocks: 1e-11 is below 1e-10 times the largest singular
    # value (1), though not below that fraction of its own block's
    fam = _sparse_family("two-scales", [{0: 1.0}, {1: 1e-11}])
    duals, bessel, lower = _pinv_oracle(fam, (2, 2))
    pinv = dual_via_pseudoinverse(fam, (2, 2))
    assert np.array_equal(pinv.vectors, duals)
    assert np.array_equal(pinv.vectors, np.diag([1.0, 0.0]).astype(complex))
    assert pinv.lower_bound == lower == 1.0
    assert pinv.bessel_bound_estimate == bessel == 1.0
    # kept under a cutoff that clears it, read when the route runs
    monkeypatch.setattr(operators, "PINV_CUTOFF_RATIO", 1e-12)
    kept = dual_via_pseudoinverse(fam, (2, 2))
    assert kept.vectors[1, 1] == pytest.approx(1e11, rel=1e-15)


def test_bessel_estimate_reads_the_returned_duals(monkeypatch):
    # an SVD whose left factor comes back doubled doubles every dual; the
    # estimate is measured on the duals, so it sees the fault where
    # 1 / s_min^2 would not
    svd = np.linalg.svd

    def doubled(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return 2 * u, s, vh
    monkeypatch.setattr(np.linalg, "svd", doubled)
    for fam, level in ((MIXED_BLOCKS, (9, 8)), (seeded_dense_family(3), (16, 32))):
        pinv = dual_via_pseudoinverse(fam, level)
        v = pinv.vectors
        top = np.linalg.eigvalsh(v.T @ np.conj(v))[-1]
        assert pinv.bessel_bound_estimate == pytest.approx(top, rel=1e-12)
        assert pinv.bessel_bound_estimate == pytest.approx(
            4 * pinv.bessel_bound_theoretical, rel=1e-12)
    # the entrywise route takes no SVD; its estimate is read off the duals
    pinv = dual_via_pseudoinverse(shared_direction_family(1.0), (257, 256))
    v = pinv.vectors
    top = np.linalg.eigvalsh(v.T @ np.conj(v))[-1]
    assert pinv.bessel_bound_estimate == pytest.approx(top, rel=1e-12)


def test_seeded_dense_keeps_the_dense_svd_bit_for_bit():
    fam = seeded_dense_family(7)
    level = (256, 512)
    duals, bessel, lower = _pinv_oracle(fam, level)
    pinv = dual_via_pseudoinverse(fam, level)
    assert np.array_equal(pinv.vectors, duals)
    assert pinv.bessel_bound_estimate == bessel
    assert pinv.lower_bound == lower


# ---------------------------------------------------------------------------
# probes and orderings


def test_frame_action_and_s_apply_fit_the_probe_to_d():
    fam = shared_direction_family(0.0)
    level = (17, 16)
    short = np.arange(1.0, 11.0) + 0j
    padded = np.zeros(17, dtype=complex)
    padded[:10] = short
    long = np.concatenate([padded, np.ones(5)])
    for probe in (short, long):
        assert np.array_equal(frame_action(fam, probe, level),
                              frame_action(fam, padded, level))
        vec, trace = s_apply(fam, probe, level)
        ref_vec, ref = s_apply(fam, padded, level)
        assert np.array_equal(vec, ref_vec)
        assert np.array_equal(trace.prefix_norms, ref.prefix_norms)


@pytest.mark.parametrize("ordering", [
    np.arange(3), np.zeros(16, dtype=int), np.arange(1, 17),
    np.arange(16).reshape(4, 4), np.arange(16.0)],
    ids=["too-short", "repeats", "out-of-range", "not-flat", "float"])
def test_ordering_must_be_a_permutation(ordering):
    fam = orthonormal_family()
    f = decaying_probe(16, -0.6)
    with pytest.raises(ValueError, match=r"ordering must be a permutation"):
        s_apply(fam, f, (16, 16), ordering=ordering)
    with pytest.raises(ValueError, match=r"ordering must be a permutation"):
        synthesis(fam, f, (16, 16), ordering=ordering)


@pytest.mark.parametrize("n_perms", [0, -3, 2.5, np.nan, True])
def test_permutation_gap_needs_a_whole_number_of_permutations(n_perms):
    with pytest.raises(ValueError, match=r"n_perms must be one or more whole"):
        permutation_gap(shared_direction_family(0.0), (17, 16), n_perms=n_perms)


def test_w_membership_refuses_an_empty_test_set():
    fam = orthonormal_family()
    with pytest.raises(ValueError, match=r"test_set must hold at least one"):
        w_membership(fam, decaying_probe(33), [], LINK_LADDER)


@pytest.mark.parametrize("counts, match", [
    (np.array([], dtype=int), r"rule_counts must be one or more whole"),
    (np.array([0, 100]), r"rule_counts must be one or more whole"),
    (np.array([10.5, 100.0]), r"rule_counts must be one or more whole"),
    (np.array([np.nan, 100.0]), r"rule_counts must be one or more whole"),
    (np.array([1, 2]), r"prefix-norm fit needs a count of at least 3"),
], ids=["empty", "below-one", "fractional", "nan", "one-point-fit"])
def test_w_membership_rule_counts_are_whole_and_positive(counts, match):
    fam = interleaved_difference_family()
    ladder = TruncationLadder(((66, 131), (130, 259), (258, 515)))
    probe = decaying_probe(258)
    with pytest.raises(ValueError, match=match):
        w_membership(fam, probe, [probe], ladder, rule_counts=counts)
