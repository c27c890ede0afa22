"""Analysis, synthesis, and frame-operator diagnostics at finite truncation.

Everything here works on materialized families: the analysis matrix stacks
conjugated members as rows, the frame matrix accumulates rank-one terms, and
the two canonical-dual routes (restricted inverse of the projected frame
matrix, pseudo-inverse of the analysis matrix) are kept independent so they
can cross-check each other. Lower bounds, the restricted-inverse dual and
the Parseval normalization all read one restricted spectrum. Partial-sum
traces record order-dependent behavior; the frame matrix itself is
permutation-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CONVERGENT, DIVERGENT, INCONCLUSIVE,
    ConvergenceVerdict, TruncationLadder, VectorFamily,
    instantiate, tail_diagnostic,
)

EIG_FLOOR_RATIO = 1e-12        # eigenvalue floor relative to the largest
PINV_CUTOFF_RATIO = 1e-10      # singular-value cutoff relative to the largest
STABILIZATION_WINDOW = 1e-8    # last-quarter relative variation of prefix norms
PROJECTOR_GROWTH_EXPONENT = 0.5


class SingularRestrictionError(ValueError):
    """Restricted frame matrix is numerically singular on the admissible subspace."""

    def __init__(self, lambda_min: float, floor: float):
        super().__init__(
            f"restricted frame matrix singular: min eigenvalue {lambda_min:.3e} "
            f"at floor {floor:.3e}")
        self.lambda_min = lambda_min
        self.floor = floor


# ---------------------------------------------------------------------------
# matrices


@dataclass
class FrameMatrix:
    """Accumulated rank-one sum; Hermitian up to roundoff by construction."""

    matrix: np.ndarray
    hermiticity_gap: float

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


@dataclass
class Projector:
    """Orthogonal projector onto the modelled closure of the analysis domain."""

    matrix: np.ndarray
    kind: str                    # "analytic" or "estimated"
    range_basis: np.ndarray      # d x r, orthonormal columns
    flagged: tuple = ()

    @property
    def rank(self) -> int:
        return self.range_basis.shape[1]

    def idempotency_gap(self) -> float:
        p = self.matrix
        return float(max(np.abs(p @ p - p).max(), np.abs(p - p.conj().T).max()))


@dataclass
class DualFamily:
    vectors: np.ndarray          # row n = dual member n
    route: str                   # "inverse" or "pseudoinverse"
    level: tuple
    bessel_bound_estimate: float
    bessel_bound_theoretical: float
    lower_bound: float


@dataclass
class PartialSumTrace:
    prefix_norms: np.ndarray
    ordering: np.ndarray
    window: float
    stabilized: bool
    variation: float


@dataclass
class ReconstructionResult:
    f_tilde: np.ndarray
    rel_error: float             # against the original input
    in_span_error: float | None  # against the projected input, None if it vanishes
    coefficient_tail: ConvergenceVerdict | None


def analysis_matrix(family: VectorFamily, level: tuple) -> np.ndarray:
    """Row n holds conj of the n-th member; matrix @ f gives <f, member_n>."""
    return np.conj(instantiate(family, level))


def synthesis_matrix(family: VectorFamily, level: tuple) -> np.ndarray:
    """Columns are the family members; maps coefficient vectors to vectors."""
    return instantiate(family, level).T


def adjoint_gap(family: VectorFamily, level: tuple, probes: int = 8,
                seed: int = 0) -> float:
    """max |<Cf, c> - <f, Dc>| over seeded unit probes; zero up to roundoff."""
    d, n = level
    c_mat = analysis_matrix(family, level)
    d_mat = synthesis_matrix(family, level)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        f /= np.linalg.norm(f)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c /= np.linalg.norm(c)
        lhs = np.vdot(c, c_mat @ f)     # <Cf, c> with vdot conjugating slot one
        rhs = np.vdot(d_mat @ c, f)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _fit_dim(f: np.ndarray, d: int) -> np.ndarray:
    """View f at ambient dimension d: truncate or zero-pad."""
    f = np.asarray(f, dtype=complex)
    if f.size == d:
        return f
    if f.size > d:
        return f[:d]
    out = np.zeros(d, dtype=complex)
    out[:f.size] = f
    return out


def analysis(family: VectorFamily, f: np.ndarray, ladder: TruncationLadder):
    """Coefficients at the top level plus the domain diagnostic.

    The diagnostic tracks sum |<f, member_n>|^2 across the ladder: square
    summability of the coefficients models membership in the analysis domain.
    Probes shorter than a level's dimension continue by zero.
    """
    f = np.asarray(f, dtype=complex)
    energies = []
    coeffs_top = None
    for d, n in ladder.levels:
        c = analysis_matrix(family, (d, n)) @ _fit_dim(f, d)
        energies.append(float(np.sum(np.abs(c) ** 2)))
        coeffs_top = c
    verdict = tail_diagnostic(energies, ladder.counts())
    return coeffs_top, verdict


def frame_matrix(family: VectorFamily, level: tuple) -> FrameMatrix:
    """Sum of rank-one terms member_n (x) conj(member_n)."""
    x = instantiate(family, level)
    t = x.T @ np.conj(x)
    gap = float(np.abs(t - t.conj().T).max())
    return FrameMatrix(t, gap)


def permutation_gap(family: VectorFamily, level: tuple, n_perms: int = 20,
                    seed: int = 7) -> float:
    """Largest relative entrywise deviation of the frame matrix under
    seeded row permutations; the accumulated sum is order-free, so only
    roundoff shows up here."""
    x = instantiate(family, level)
    base = x.T @ np.conj(x)
    scale = max(1.0, float(np.abs(base).max()))
    rng = np.random.default_rng(seed)
    worst = 0.0
    n = level[1]
    for _ in range(n_perms):
        xp = x[rng.permutation(n)]
        t = xp.T @ np.conj(xp)
        worst = max(worst, float(np.abs(t - base).max()) / scale)
    return worst


def frame_action(family: VectorFamily, f: np.ndarray, level: tuple) -> np.ndarray:
    """Apply the truncated frame operator without materializing it."""
    x = instantiate(family, level)
    return x.T @ (np.conj(x) @ np.asarray(f, dtype=complex))


def _trace_from_weighted_rows(weighted: np.ndarray, ordering: np.ndarray,
                              window: float) -> tuple:
    n, d = weighted.shape
    running = np.zeros(d, dtype=complex)
    norms = np.empty(n)
    for k in range(n):
        running += weighted[k]
        norms[k] = np.linalg.norm(running)
    tail = norms[max(0, 3 * n // 4 - 1):]
    scale = max(abs(norms[-1]), np.finfo(float).tiny)
    variation = float((tail.max() - tail.min()) / scale)
    trace = PartialSumTrace(norms, ordering, window, variation <= window, variation)
    return running, trace


def synthesis(family: VectorFamily, coeffs: np.ndarray, level: tuple,
              ordering: np.ndarray | None = None,
              window: float = STABILIZATION_WINDOW):
    """Partial sums sum_n c_n member_n in the given order, with trace."""
    x = instantiate(family, level)
    coeffs = np.asarray(coeffs, dtype=complex)
    order = np.arange(x.shape[0]) if ordering is None else np.asarray(ordering)
    weighted = coeffs[order, None] * x[order]
    return _trace_from_weighted_rows(weighted, order, window)


def s_apply(family: VectorFamily, f: np.ndarray, level: tuple,
            ordering: np.ndarray | None = None,
            window: float = STABILIZATION_WINDOW):
    """Order-dependent partial sums of sum_n <f, member_n> member_n."""
    coeffs = analysis_matrix(family, level) @ np.asarray(f, dtype=complex)
    return synthesis(family, coeffs, level, ordering=ordering, window=window)


# ---------------------------------------------------------------------------
# projectors


def _axis_positions(dirs: np.ndarray) -> np.ndarray | None:
    """Indices hit when every direction is a standard basis vector, else None."""
    pos = []
    for row in np.atleast_2d(dirs):
        nz = np.flatnonzero(np.abs(row) > 0)
        if nz.size != 1 or not np.isclose(abs(row[nz[0]]), 1.0):
            return None
        pos.append(nz[0])
    return np.array(sorted(set(pos)))


def _coordinate_projector(d: int, flagged, kind: str) -> Projector:
    """Projector that removes the flagged coordinate directions."""
    flagged = tuple(int(j) for j in flagged)
    p = np.eye(d, dtype=complex)
    p[flagged, flagged] = 0.0
    keep = np.setdiff1d(np.arange(d), np.array(flagged, dtype=int))
    return Projector(p, kind, np.eye(d, dtype=complex)[:, keep], flagged=flagged)


def projector_for(family: VectorFamily, d: int,
                  ladder: TruncationLadder | None = None) -> Projector:
    """Projector onto the modelled analysis-domain closure.

    Uses the family's declared orthogonal complement when present. Otherwise
    estimates one by flagging coordinate directions whose diagonal frame
    values grow along the ladder (fitted exponent above 0.5); families with
    dense analysis domain come out as the identity.
    """
    if family.perp_directions is not None:
        dirs = np.atleast_2d(np.asarray(family.perp_directions(d), dtype=complex))
        axis = _axis_positions(dirs)
        if axis is not None:
            return _coordinate_projector(d, axis, "analytic")
        u, _ = np.linalg.qr(dirs.T)
        p = np.eye(d, dtype=complex) - u @ u.conj().T
        w, v = np.linalg.eigh(p)
        q = v[:, w > 0.5]
        return Projector(p, "analytic", q)

    if ladder is None:
        return Projector(np.eye(d, dtype=complex), "analytic",
                         np.eye(d, dtype=complex))

    diags = []
    for d_l, n_l in ladder.levels:
        x = instantiate(family, (d_l, n_l))
        col = np.sum(np.abs(x) ** 2, axis=0)
        diags.append(np.concatenate([col, np.zeros(d - d_l)]))
    diags = np.vstack(diags)
    counts = ladder.counts().astype(float)
    flagged = []
    for j in range(d):
        q = diags[:, j]
        if np.all(q > 0) and q[-1] > 4 * q[0]:
            slope = np.polyfit(np.log(counts), np.log(q), 1)[0]
            if slope > PROJECTOR_GROWTH_EXPONENT:
                flagged.append(j)
    return _coordinate_projector(d, flagged, "estimated")


def _projector_at(family: VectorFamily, projector: Projector | None,
                  d: int) -> Projector:
    """The given projector carried to dimension d.

    An analytic projector is rebuilt from the family's declared complement;
    an estimated one keeps its flagged coordinates below d. Without a
    projector the family's own analytic one is used.
    """
    if projector is not None and projector.matrix.shape[0] == d:
        return projector
    if projector is None or projector.kind == "analytic":
        return projector_for(family, d)
    return _coordinate_projector(
        d, [j for j in projector.flagged if j < d], projector.kind)


def _restricted_spectrum(family: VectorFamily, level: tuple,
                         projector: Projector | None,
                         floor_ratio: float | None = None):
    """Spectrum of the frame matrix restricted to the projector's range.

    Returns (Q, Y, w, V): the range basis Q, the projected members
    Y = Q^H X^T (r x N, column n holds the coordinates of P member_n), and
    the ascending eigenpairs of B = Y Y^H = Q^H T Q. With a floor ratio,
    refuses a numerically singular B.
    """
    q = _projector_at(family, projector, level[0]).range_basis
    y = q.conj().T @ instantiate(family, level).T
    w, v = np.linalg.eigh(y @ y.conj().T)
    if floor_ratio is not None:
        floor = floor_ratio * float(w[-1])
        if w[0] <= floor:
            raise SingularRestrictionError(float(w[0]), floor)
    return q, y, w, v


def lower_bound(family: VectorFamily, ladder: TruncationLadder,
                projector: Projector | None = None):
    """Smallest eigenvalue of the projected frame matrix, per ladder level.

    A projector built at another dimension is carried to each level.
    Returns (per_level, verdict): per_level is a list of ((d, N), lambda_min)
    and the verdict judges stability of the estimates. A stable positive
    limit certifies the lower bound at the modelled truncations only.
    """
    per_level = []
    for level in ladder.levels:
        _, _, w, _ = _restricted_spectrum(family, level, projector)
        per_level.append((level, float(w[0])))
    values = [lam for _, lam in per_level]
    verdict = tail_diagnostic(values, ladder.counts(), rel_tol=1e-10)
    return per_level, verdict


# ---------------------------------------------------------------------------
# canonical duals


def canonical_dual(family: VectorFamily, level: tuple,
                   projector: Projector | None = None,
                   floor_ratio: float = EIG_FLOOR_RATIO) -> DualFamily:
    """Dual members: restricted inverse of the projected frame matrix applied
    to the projected family.

    Refuses when the restriction is numerically singular, reporting the
    offending eigenvalue. The returned Bessel bound estimate is the largest
    eigenvalue of the dual family's frame matrix; theory caps it by the
    reciprocal of the restricted lower bound.
    """
    q, y, w, v = _restricted_spectrum(family, level, projector, floor_ratio)
    inv = (v / w) @ v.conj().T                    # B^{-1} on the range basis
    duals = (q @ (inv @ y)).T                     # N x d
    dual_frame = duals.T @ np.conj(duals)
    bessel_est = float(np.linalg.eigvalsh(dual_frame)[-1])
    return DualFamily(duals, "inverse", level, bessel_est,
                      float(1.0 / w[0]), float(w[0]))


def dual_via_pseudoinverse(family: VectorFamily, level: tuple,
                           projector: Projector | None = None,
                           cutoff_ratio: float = PINV_CUTOFF_RATIO) -> DualFamily:
    """Dual members as columns of the analysis pseudo-inverse.

    The pseudo-inverse of the analysis matrix restricted to the admissible
    subspace extends the inverse by zero on the orthogonal complement of its
    range; its columns reproduce the restricted-inverse dual exactly. A
    projector built at another dimension is carried to the level.
    """
    proj = _projector_at(family, projector, level[0])
    c = analysis_matrix(family, level) @ proj.matrix
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    cutoff = cutoff_ratio * float(s[0])
    keep = s > cutoff
    pinv = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T   # d x N
    duals = pinv.T
    dual_frame = duals.T @ np.conj(duals)
    bessel_est = float(np.linalg.eigvalsh(dual_frame)[-1])
    smin = float(s[keep][-1])
    return DualFamily(duals, "pseudoinverse", level, bessel_est,
                      float(1.0 / smin ** 2), smin ** 2)


def reconstruct(f: np.ndarray, family: VectorFamily, dual: DualFamily,
                level: tuple, projector: Projector | None = None,
                ladder: TruncationLadder | None = None) -> ReconstructionResult:
    """Resynthesize from analysis coefficients through a dual family.

    Coefficients are taken against the projected members, so the part of f
    outside the modelled domain closure is invisible to the expansion and
    exactly the projection of f is recovered. The headline relative error is
    measured against the original f: for f orthogonal to the admissible
    subspace it equals 1. A probe shorter than d continues by zero, and a
    projector built at another dimension is carried to d. When a
    ladder is supplied, the raw coefficient energy of the unprojected f is
    tracked as a domain diagnostic.
    """
    d, n = level
    f = np.asarray(f, dtype=complex)
    f_d = _fit_dim(f, d)
    pf = _projector_at(family, projector, d).matrix @ f_d
    coeffs = analysis_matrix(family, level) @ pf
    f_tilde = dual.vectors.T @ coeffs
    norm_f = np.linalg.norm(f_d)
    rel = float(np.linalg.norm(f_tilde - f_d) / norm_f) if norm_f > 0 else 0.0
    norm_pf = np.linalg.norm(pf)
    in_span = float(np.linalg.norm(f_tilde - pf) / norm_pf) if norm_pf > 1e-300 else None
    tail = None
    if ladder is not None:
        _, tail = analysis(family, f, ladder)
    return ReconstructionResult(f_tilde, rel, in_span, tail)


def parseval_canonical(family: VectorFamily, level: tuple,
                       projector: Projector | None = None,
                       floor_ratio: float = EIG_FLOOR_RATIO):
    """Inverse-square-root normalization of the projected family.

    Returns (vectors, gap) where gap is the largest deviation from 1 of the
    eigenvalues of the normalized family's frame matrix on the admissible
    subspace; the normalized family is tight there.
    """
    q, y, w, v = _restricted_spectrum(family, level, projector, floor_ratio)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    vectors = (q @ (inv_sqrt @ y)).T
    y2 = q.conj().T @ vectors.T                   # normalized members, projected
    gap = float(np.abs(np.linalg.eigvalsh(y2 @ y2.conj().T) - 1.0).max())
    return vectors, gap


# ---------------------------------------------------------------------------
# domain diagnostics


@dataclass
class WMembershipReport:
    in_T_domain: ConvergenceVerdict
    in_W_domain: ConvergenceVerdict
    bound_estimate: float
    prefix_exponent: float | None
    prefix_sups: list


def w_membership(family: VectorFamily, f: np.ndarray, test_set: list,
                 ladder: TruncationLadder,
                 rule_counts: np.ndarray | None = None) -> WMembershipReport:
    """Two-sided domain diagnostic for the weak and strong operator sums.

    The quadratic-form side pairs the coefficient sequences of f against each
    probe across the ladder; convergence of every pairing with a uniform
    bound models membership in the quadratic-form domain. The strong side
    tracks the running supremum of prefix norms: boundedness models
    membership in the pointwise-sum domain, growth with a fitted positive
    exponent models its failure. Families carrying a closed-form prefix-norm
    rule are evaluated through it at the counts in `rule_counts` (defaults to
    the ladder counts), which reaches far beyond materializable levels.
    """
    f = np.asarray(f, dtype=complex)
    pairings = {k: [] for k in range(len(test_set))}
    bound = 0.0
    for d, n in ladder.levels:
        mat = analysis_matrix(family, (d, n))
        c_f = mat @ _fit_dim(f, d)
        for k, g in enumerate(test_set):
            c_g = mat @ _fit_dim(np.asarray(g, dtype=complex), d)
            pairings[k].append(complex(np.vdot(c_g, c_f)))
    verdicts = []
    for k, g in enumerate(test_set):
        v = tail_diagnostic(pairings[k], ladder.counts(), rel_tol=1e-7)
        verdicts.append(v)
        g_norm = np.linalg.norm(np.asarray(g))
        if g_norm > 0:
            bound = max(bound, abs(pairings[k][-1]) / g_norm)
    if any(v.kind == DIVERGENT for v in verdicts):
        in_t = ConvergenceVerdict(DIVERGENT, detail="a pairing diverges")
    elif all(v.kind == CONVERGENT for v in verdicts):
        in_t = ConvergenceVerdict(CONVERGENT, limit_estimate=bound,
                                  detail="all pairings settle")
    else:
        in_t = ConvergenceVerdict(INCONCLUSIVE, detail="mixed pairing verdicts")

    exponent = None
    if family.prefix_norm_rule is not None:
        counts = np.asarray(rule_counts if rule_counts is not None
                            else ladder.counts())
        norms_full = family.prefix_norm_rule(np.arange(1, counts.max() + 1))
        sups = [float(np.max(norms_full[:m])) for m in counts]
        m_lo = max(counts.max() // 8, 2)
        ms = np.arange(m_lo, counts.max() + 1)
        exponent, _ = np.polyfit(np.log(ms), np.log(norms_full[m_lo - 1:]), 1)
        exponent = float(exponent)
    else:
        counts = ladder.counts()
        sups = []
        for d, n in ladder.levels:
            _, trace = s_apply(family, _fit_dim(f, d), (d, n))
            sups.append(float(trace.prefix_norms.max()))
    in_w = tail_diagnostic(sups, counts, rel_tol=1e-6)
    return WMembershipReport(in_t, in_w, float(bound), exponent,
                             list(zip([int(c) for c in counts], sups)))
