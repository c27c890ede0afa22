"""Analysis, synthesis, and frame-operator diagnostics at finite truncation.

Everything here works on materialized families: the analysis matrix stacks
conjugated members as rows, the frame matrix accumulates rank-one terms, and
the two canonical-dual routes (restricted inverse of the projected frame
matrix, pseudo-inverse of the analysis matrix) are kept independent so they
can cross-check each other. Lower bounds, the restricted-inverse dual and
the Parseval normalization all read one kept block of the frame matrix,
held banded when its measured bandwidth is narrow and dense otherwise; the
pseudo-inverse of a sparse family's analysis matrix is taken per connected
block. scipy is imported only in those two places. Partial-sum
traces record order-dependent behavior; the frame matrix itself is
permutation-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CONVERGENT, DIVERGENT, INCONCLUSIVE,
    ConvergenceVerdict, TruncationLadder, VectorFamily,
    instantiate, instantiate_sparse, tail_diagnostic,
)

EIG_FLOOR_RATIO = 1e-12        # eigenvalue floor relative to the largest
PINV_CUTOFF_RATIO = 1e-10      # singular-value cutoff relative to the largest
STABILIZATION_WINDOW = 1e-8    # last-quarter relative variation of prefix norms
PROJECTOR_GROWTH_EXPONENT = 0.5
BAND_CUTOFF = 1                # widest kept block read through banded LAPACK


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


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector onto the modelled closure of the analysis domain.

    Held as the sorted 0-based coordinates it removes. Coordinates do not
    depend on the dimension, so at dimension d the projector removes those
    below d and keeps every other coordinate.
    """

    flagged: tuple
    kind: str                    # "analytic" or "estimated"

    def __post_init__(self):
        if any(not isinstance(j, (int, np.integer)) or j < 0
               for j in self.flagged):
            raise ValueError("projector coordinates must be non-negative "
                             f"integers, got {self.flagged}")

    def kept(self, d: int) -> np.ndarray:
        """Mask of the coordinates below d that the projector keeps."""
        keep = np.ones(d, dtype=bool)
        keep[[j for j in self.flagged if j < d]] = False
        return keep


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
    """Apply the truncated frame operator without materializing it; a probe
    of another length is truncated or continues by zero."""
    x = instantiate(family, level)
    return x.T @ (np.conj(x) @ _fit_dim(f, level[0]))


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


def _partial_sums(x: np.ndarray, coeffs: np.ndarray, ordering, window: float):
    """Partial sums of coeffs_n x_n in the given order, with trace."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = x.shape[0]
    order = np.arange(n) if ordering is None else np.asarray(ordering)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"ordering must be a permutation of range(N), N={n}")
    weighted = coeffs[order, None] * x[order]
    return _trace_from_weighted_rows(weighted, order, window)


def synthesis(family: VectorFamily, coeffs: np.ndarray, level: tuple,
              ordering: np.ndarray | None = None,
              window: float = STABILIZATION_WINDOW):
    """Partial sums sum_n c_n member_n in the given order, with trace; the
    ordering must be a permutation of range(N)."""
    return _partial_sums(instantiate(family, level), coeffs, ordering, window)


def s_apply(family: VectorFamily, f: np.ndarray, level: tuple,
            ordering: np.ndarray | None = None,
            window: float = STABILIZATION_WINDOW):
    """Order-dependent partial sums of sum_n <f, member_n> member_n; a probe
    of another length is truncated or continues by zero."""
    x = instantiate(family, level)
    coeffs = np.conj(x) @ _fit_dim(f, level[0])
    return _partial_sums(x, coeffs, ordering, window)


# ---------------------------------------------------------------------------
# projectors


def projector_for(family: VectorFamily, d: int,
                  ladder: TruncationLadder | None = None) -> Projector:
    """Projector onto the modelled analysis-domain closure.

    Uses the family's declared orthogonal complement when present. Otherwise
    estimates one by flagging coordinate directions whose diagonal frame
    values grow along the ladder (fitted exponent above 0.5); families with
    dense analysis domain come out as the identity.
    """
    if family.perp_directions is not None:
        return Projector(tuple(sorted(set(family.perp_directions))), "analytic")
    if ladder is None:
        return Projector((), "analytic")
    if d < ladder.top[0]:
        raise ValueError("projector dimension d must be at least the "
                         "ladder's top dimension")

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
    return Projector(tuple(flagged), "estimated")


def _kept(family: VectorFamily, projector: Projector | None,
          d: int) -> np.ndarray:
    """Coordinates below d kept by the projector, or by the family's own
    analytic one when none is given."""
    if projector is None:
        projector = projector_for(family, d)
    keep = projector.kept(d)
    if not keep.any():
        raise ValueError(f"the projector keeps no coordinate below d={d}")
    return keep


class _KeptBlock:
    """The Hermitian block G = M M^H of r x N members M (CSR or dense).

    G is held in LAPACK's lower banded storage when its measured bandwidth
    is at most BAND_CUTOFF, and its eigenvalues are read through the banded
    routines; otherwise M and G are dense and read through numpy's eigh. A
    diagonal G scales each row of M, so G^{-1} M and G^{-1/2} M are read off
    the diagonal, keep one entry per nonzero of M and stay CSR; under any
    wider band they come from dense eigh of G, formed on demand, and fill in.
    """

    def __init__(self, members):
        from scipy import sparse

        g = members @ members.conj().T
        if sparse.issparse(g):
            g = g.tocoo()
            self.bandwidth = int(np.max(g.row - g.col, initial=0))
        else:       # the farthest subdiagonal holding a nonzero
            self.bandwidth = next((k for k in range(len(g) - 1, 0, -1)
                                   if np.any(np.diagonal(g, -k))), 0)
        if self.bandwidth > BAND_CUTOFF:
            self.band = None
            if sparse.issparse(members):
                # the dense route forms the product as for dense families
                members = members.toarray()
                g = members @ members.conj().T
            self.dense = g
        else:
            self.dense = None
            g = sparse.coo_array(g)
            lower = g.row >= g.col
            self.band = np.zeros((self.bandwidth + 1, members.shape[0]),
                                 dtype=complex)
            self.band[g.row[lower] - g.col[lower], g.col[lower]] = g.data[lower]
        self.members = members

    def dense_members(self) -> np.ndarray:
        m = self.members
        return m if isinstance(m, np.ndarray) else m.toarray()

    def _diagonal(self, floor_ratio: float) -> np.ndarray:
        """The diagonal of a diagonal G; refuses a numerically singular G."""
        g = self.band[0].real
        _above_floor(float(g.min()), float(g.max()), floor_ratio)
        return g

    def _rows_scaled(self, scale: np.ndarray) -> "_KeptBlock":
        from scipy import sparse
        return _KeptBlock(sparse.diags_array(scale) @ self.members)

    def lowest(self) -> float:
        if self.band is None:
            return float(np.linalg.eigh(self.dense)[0][0])
        from scipy.linalg import eigvals_banded
        return float(eigvals_banded(self.band, lower=True, select="i",
                                    select_range=(0, 0))[0])

    def extremes(self) -> tuple:
        """Smallest and largest eigenvalue of G, from one eigenvalue call."""
        if self.band is None:
            w = np.linalg.eigvalsh(self.dense)
        else:
            from scipy.linalg import eigvals_banded
            w = eigvals_banded(self.band, lower=True)
        return float(w[0]), float(w[-1])

    def inverse(self, floor_ratio: float, power: float = 1.0) -> tuple:
        """(block of G^{-power} M, smallest eigenvalue of G); refuses a
        numerically singular G."""
        if self.bandwidth == 0:
            # G^{-power} M is M with row i scaled by g_i^{-power}
            g = self._diagonal(floor_ratio)
            return self._rows_scaled(1.0 / g ** power), float(g.min())
        m = self.dense_members()
        w, v = np.linalg.eigh(m @ m.conj().T if self.dense is None else self.dense)
        lo = _above_floor(float(w[0]), float(w[-1]), floor_ratio)
        return _KeptBlock((v / w ** power) @ v.conj().T @ m), lo


def _checked_ratio(name: str, ratio: float) -> None:
    """Refuse a floor or cutoff ratio (relative to the largest value) that
    is not finite and in [0, 1)."""
    if not (np.isfinite(ratio) and 0.0 <= ratio < 1.0):
        raise ValueError(f"{name} must be finite and in [0, 1), got {ratio}")


def _above_floor(lo: float, hi: float, floor_ratio: float) -> float:
    floor = floor_ratio * hi
    if lo <= floor:
        raise SingularRestrictionError(lo, floor)
    return lo


def _restricted_spectrum(family: VectorFamily, level: tuple,
                         projector: Projector | None) -> tuple:
    """The frame matrix restricted to the projector's range.

    Returns (keep, block): the mask of kept coordinates and the kept block
    B = Y Y^H of T, where Y = X^T[keep] holds the projected members as
    columns (r x N). Y is CSR for families with a sparse rule and dense
    otherwise; the block picks its storage from B's measured bandwidth.
    """
    if family.dense:
        xt = instantiate(family, level).T
    else:
        xt = instantiate_sparse(family, level).T.tocsr()
    keep = _kept(family, projector, level[0])
    return keep, _KeptBlock(xt[keep])


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
        _, block = _restricted_spectrum(family, level, projector)
        per_level.append((level, block.lowest()))
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
    _checked_ratio("floor_ratio", floor_ratio)
    keep, block = _restricted_spectrum(family, level, projector)
    dual_block, lam = block.inverse(floor_ratio)
    # built d x N and transposed, so duals.T (reconstruct's synthesis matrix)
    # is row-contiguous; zero off the kept coordinates
    duals = np.zeros(level, dtype=complex)
    duals[keep] = dual_block.dense_members()
    bessel_est = dual_block.extremes()[1]
    return DualFamily(duals.T, "inverse", level, bessel_est, 1.0 / lam, lam)


def _connected_blocks(c) -> list:
    """Split a sparse N x r matrix into its connected blocks.

    A row and a column are linked when c holds an entry there. Blocks of
    one shape m x n (both nonzero) come as one group (rows, cols, stack):
    rows is K x m and cols K x n, the indices of each block's rows and
    columns, and stack is K x m x n, the blocks' entries. Rows or columns
    with no entry form no group.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    n_rows, n_cols = c.shape
    c = c.tocoo()
    graph = sparse.coo_array((np.ones(c.nnz), (c.row, n_rows + c.col)),
                             shape=(n_rows + n_cols,) * 2)
    n_blocks, labels = connected_components(graph, directed=False)
    row_of, col_of = labels[:n_rows], labels[n_rows:]

    def members(label):
        """Indices sorted by block, block sizes, first slot of each block,
        and each index's place within its block."""
        order = np.argsort(label, kind="stable")
        sizes = np.bincount(label, minlength=n_blocks)
        starts = np.cumsum(sizes) - sizes
        place = np.empty_like(label)
        place[order] = np.arange(label.size) - starts[label[order]]
        return order, sizes, starts, place

    row_order, m_of, row_start, row_place = members(row_of)
    col_order, n_of, col_start, col_place = members(col_of)
    entry_block = row_of[c.row]
    groups = []
    full = (m_of > 0) & (n_of > 0)
    for m, n in np.unique(np.stack([m_of[full], n_of[full]], axis=1), axis=0):
        blocks = np.flatnonzero((m_of == m) & (n_of == n))
        slot = np.full(n_blocks, -1)
        slot[blocks] = np.arange(blocks.size)
        mine = slot[entry_block] >= 0
        stack = np.zeros((blocks.size, m, n), dtype=complex)
        stack[slot[entry_block[mine]], row_place[c.row[mine]],
              col_place[c.col[mine]]] = c.data[mine]
        rows = row_order[row_start[blocks][:, None] + np.arange(m)]
        cols = col_order[col_start[blocks][:, None] + np.arange(n)]
        groups.append((rows, cols, stack))
    return groups


def _top_frame_eigenvalue(duals: np.ndarray) -> float:
    """Largest eigenvalue of the frame matrix of the rows of duals (N x d),
    or the largest over a stack of such blocks."""
    frame = np.swapaxes(duals, -1, -2) @ np.conj(duals)
    return float(np.linalg.eigvalsh(frame)[..., -1].max())


def dual_via_pseudoinverse(family: VectorFamily, level: tuple,
                           projector: Projector | None = None,
                           cutoff_ratio: float = PINV_CUTOFF_RATIO) -> DualFamily:
    """Dual members as columns of the analysis pseudo-inverse.

    The pseudo-inverse of the analysis matrix restricted to the admissible
    subspace extends the inverse by zero on the orthogonal complement of its
    range; its columns reproduce the restricted-inverse dual exactly. A
    projector built at another dimension is carried to the level.

    For a family with a sparse rule the restricted analysis matrix C is
    split into its connected blocks; after permuting rows and columns C is
    block-diagonal, so its pseudo-inverse is the block-diagonal of the
    blocks' pseudo-inverses. Blocks of one shape share one batched SVD.
    Singular values at or below cutoff_ratio times the largest one over all
    blocks are cut, and the Bessel estimate is the largest eigenvalue of the
    duals' frame matrix, block-diagonal by the same split. Other families
    take one dense SVD of C. Refuses when no singular value clears the
    cutoff.
    """
    _checked_ratio("cutoff_ratio", cutoff_ratio)
    if family.dense:
        c = analysis_matrix(family, level)
        c[:, ~_kept(family, projector, level[0])] = 0.0
        u, s, vh = np.linalg.svd(c, full_matrices=False)
        cutoff = cutoff_ratio * float(s[0])
        cut = s > cutoff
        if not cut.any():
            raise SingularRestrictionError(float(s[0]) ** 2, cutoff ** 2)
        pinv = (vh[cut].conj().T / s[cut]) @ u[:, cut].conj().T   # d x N
        duals = pinv.T
        bessel_est = _top_frame_eigenvalue(duals)
        smin = float(s[cut][-1])
    else:
        members = instantiate_sparse(family, level)
        coords = np.flatnonzero(_kept(family, projector, level[0]))
        c = members[:, coords].conj()
        groups = [(rows, cols, np.linalg.svd(stack, full_matrices=False))
                  for rows, cols, stack in _connected_blocks(c)]
        top = max((float(s.max()) for _, _, (_, s, _) in groups), default=0.0)
        cutoff = cutoff_ratio * top
        if not top > cutoff:
            raise SingularRestrictionError(top ** 2, cutoff ** 2)
        duals = np.zeros(level[::-1], dtype=complex)
        bessel_est, smin = 0.0, top
        for rows, cols, (u, s, vh) in groups:
            cut = s > cutoff
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=cut)
            # the block's pseudo-inverse V S^+ U^H, transposed: members by rows
            block = np.conj((u * inv[:, None, :]) @ vh)
            duals[rows[:, :, None], coords[cols][:, None, :]] = block
            bessel_est = max(bessel_est, _top_frame_eigenvalue(block))
            if cut.any():
                smin = min(smin, float(s[cut].min()))
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
    pf = f_d.copy()
    pf[~_kept(family, projector, d)] = 0.0
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
    _checked_ratio("floor_ratio", floor_ratio)
    keep, block = _restricted_spectrum(family, level, projector)
    tight, _ = block.inverse(floor_ratio, power=0.5)
    vectors = np.zeros(level, dtype=complex)
    vectors[keep] = tight.dense_members()
    lo, hi = tight.extremes()
    return vectors.T, max(abs(lo - 1.0), abs(hi - 1.0))


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
