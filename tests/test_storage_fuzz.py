"""Well-formed families of both storages against numpy on the instantiated
members.

A draw is a sparse rule of one of three shapes (one position per member,
adjacent pairs, one to three random positions per member) or a seeded
dense family, declaring up to a third of the coordinates as the complement
its projector removes. Draws whose kept block B = Y Y^H has lambda_min at or below
1e-8 lambda_max are skipped. Every comparison holds to the one tolerance
TOL = 64 eps kappa, kappa = lambda_max / lambda_min of B, relative to the
largest magnitude of the numpy reference.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from semiframe.core import TruncationLadder, VectorFamily, instantiate
from semiframe.families import seeded_dense_family
from semiframe.operators import (
    canonical_dual, dual_via_pseudoinverse, frame_action, lower_bound,
    parseval_canonical, permutation_gap, projector_for, reconstruct, s_apply,
)

EPS = np.finfo(float).eps
SHAPES = ("diagonal", "pairs", "random", "dense")


def _sparse_family(shape: str, d: int, count: int, rng) -> VectorFamily:
    """`count` members in dimension d with complex values of modulus in
    [1/2, 2], at positions laid out by the shape."""
    if shape == "diagonal":
        positions = [[i % d] for i in range(count)]
    elif shape == "pairs":
        positions = [[i % (d - 1), i % (d - 1) + 1] for i in range(count)]
    else:
        positions = [rng.choice(d, size=rng.integers(1, 4), replace=False)
                     for _ in range(count)]
    values = [rng.uniform(0.5, 2.0, len(p))
              * np.exp(2j * np.pi * rng.uniform(size=len(p)))
              for p in positions]

    def block(idx):
        taken = [i - 1 for i in idx.tolist()]
        return (np.repeat(np.arange(idx.size), [len(positions[i]) for i in taken]),
                np.concatenate([positions[i] for i in taken]).astype(int),
                np.concatenate([values[i] for i in taken]))
    return VectorFamily(name=f"fuzz-{shape}", block=block, min_dim=lambda n: d)


@st.composite
def families(draw):
    shape = draw(st.sampled_from(SHAPES))
    d = draw(st.integers(4, 12))
    # half the draws have one member per coordinate
    count = d + draw(st.booleans()) * draw(st.integers(1, d))
    seed = draw(st.integers(0, 2 ** 16))
    removed = draw(st.sets(st.integers(0, d - 1), max_size=d // 3))
    fam = (seeded_dense_family(seed) if shape == "dense" else
           _sparse_family(shape, d, count, np.random.default_rng(seed)))
    fam.perp_directions = tuple(sorted(removed))
    return fam, (d, count)


def _dense(stored) -> np.ndarray:
    return stored.toarray() if sparse.issparse(stored) else stored


def _close(got, want, tol: float):
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(families())
def test_both_storages_match_numpy(case):
    fam, level = case
    d, n = level
    x = instantiate(fam, level)
    keep = projector_for(fam).kept(d)
    y = x.T[keep]
    w, v = np.linalg.eigh(y @ y.conj().T)
    assume(w[0] > 1e-8 * w[-1])
    tol = 64 * EPS * w[-1] / w[0]

    duals = np.zeros(level, dtype=complex)
    duals[keep] = (v / w) @ v.conj().T @ y
    duals = duals.T
    bessel = np.linalg.eigvalsh(duals.T @ np.conj(duals))[-1]
    tight = np.zeros(level, dtype=complex)
    tight[keep] = (v / np.sqrt(w)) @ v.conj().T @ y
    inverse = canonical_dual(fam, level)
    pinv = dual_via_pseudoinverse(fam, level)
    for dual in (inverse, pinv):
        _close(dual.vectors, duals, tol)
        _close(dual.bessel_bound_estimate, bessel, tol)
        _close(dual.lower_bound, w[0], tol)
    members, gap = parseval_canonical(fam, level)
    _close(_dense(members), tight.T, tol)
    assert gap <= tol

    # CSR members exactly where the kept block is diagonal (each member on
    # at most one kept coordinate) or the pseudo-inverse is entrywise (each
    # kept coordinate also on at most one member); an array otherwise
    on_kept = x[:, keep] != 0
    diagonal = not fam.dense and on_kept.sum(axis=1).max() <= 1
    entrywise = diagonal and on_kept.sum(axis=0).max() <= 1
    for stored, csr in ((inverse.members, diagonal), (members, diagonal),
                        (pinv.members, entrywise)):
        assert isinstance(stored, sparse.csr_array if csr else np.ndarray)
    assert np.array_equal(inverse.vectors, _dense(inverse.members))

    counts = (max(1, n // 4), n // 2, n)
    per_level, _ = lower_bound(fam, TruncationLadder(
        tuple((d, m) for m in counts)))
    for (_, lam), m in zip(per_level, counts):
        y_m = y[:, :m]
        assert abs(lam - np.linalg.eigvalsh(y_m @ y_m.conj().T)[0]) <= tol * w[-1]

    rng = np.random.default_rng(n)
    f = rng.normal(size=d) + 1j * rng.normal(size=d)
    coeffs = np.conj(x) @ f
    _close(frame_action(fam, f, level), x.T @ coeffs, tol)
    order = rng.permutation(n)
    vec, trace = s_apply(fam, f, level, ordering=order)
    prefix = np.cumsum(coeffs[order, None] * x[order], axis=0)
    _close(vec, prefix[-1], tol)
    _close(trace.prefix_norms, np.linalg.norm(prefix, axis=1), tol)
    assert permutation_gap(fam, level, n_perms=3) <= tol
    pf = np.where(keep, f, 0.0)
    _close(reconstruct(f, fam, inverse, level).f_tilde, pf, tol)
