"""Analysis, synthesis, and frame-operator diagnostics at finite truncation.

The diagnostics read members in the family's own storage: CSR for a family
with a sparse rule, an (N, d) array for a dense one. The frame action, the
order-dependent partial sums, the coefficient energies and pairings, and the
permuted Grams behind the permutation gap are each written once for both
storages, and every pairing <f, member_n> conjugates the probe, not a copy
of the members. The analysis and synthesis matrices, the frame matrix and
the adjoint gap stay dense; they are the oracle the sparse route is tested
against. The two canonical-dual routes (restricted inverse of the projected
frame matrix, pseudo-inverse of the analysis matrix) are kept independent
so they can cross-check each other. Lower bounds, the restricted-inverse
dual and the Parseval normalization all read one kept block of the frame
matrix, held as its diagonal when nothing lies off it and dense otherwise.
The pseudo-inverse inverts the analysis matrix entrywise when it holds at
most one entry per member and per kept coordinate, and takes one dense SVD
otherwise. The duals and the Parseval members come back in the storage
their route works in: CSR from a diagonal kept block or an entrywise
pseudo-inverse, an (N, d) array otherwise. scipy is imported inside the
functions that need it, so importing the package does not load it.
Partial-sum traces record order-dependent behavior; the frame matrix itself
is permutation-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CONVERGENT, DIVERGENT, INCONCLUSIVE,
    ConvergenceVerdict, TruncationLadder, VectorFamily,
    instantiate, instantiate_stored, loglog_fit, tail_diagnostic, whole_number,
)

EIG_FLOOR_RATIO = 1e-12        # eigenvalue floor relative to the largest
PINV_CUTOFF_RATIO = 1e-10      # singular-value cutoff relative to the largest
STABILIZATION_WINDOW = 1e-8    # last-quarter relative variation of prefix norms
ADJOINT_PROBES = 8             # seeded unit probe pairs of adjoint_gap


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
class DualFamily:
    members: object              # row n = dual member n, CSR or an ndarray
    route: str                   # "inverse" or "pseudoinverse"
    bessel_bound_estimate: float
    bessel_bound_theoretical: float
    lower_bound: float

    @property
    def vectors(self) -> np.ndarray:
        """The members as a dense (N, d) array, formed when read."""
        m = self.members
        return m if isinstance(m, np.ndarray) else m.toarray()


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


def _pairings(x, f: np.ndarray) -> np.ndarray:
    """<f, member_n> for every stored member row n of x (CSR or dense), as
    conj(x @ conj(f)): the probe is conjugated, not a copy of the members."""
    return np.conj(x @ np.conj(f))


def analysis_matrix(family: VectorFamily, level: tuple) -> np.ndarray:
    """Row n holds conj of the n-th member; matrix @ f gives <f, member_n>."""
    return np.conj(instantiate(family, level))


def synthesis_matrix(family: VectorFamily, level: tuple) -> np.ndarray:
    """Columns are the family members; maps coefficient vectors to vectors."""
    return instantiate(family, level).T


def adjoint_gap(family: VectorFamily, level: tuple, seed: int = 0) -> float:
    """max |<Cf, c> - <f, Dc>| over ADJOINT_PROBES seeded unit probes; zero
    up to roundoff."""
    d, n = level
    c_mat = analysis_matrix(family, level)
    d_mat = synthesis_matrix(family, level)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ADJOINT_PROBES):
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        f /= np.linalg.norm(f)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c /= np.linalg.norm(c)
        lhs = np.vdot(c, c_mat @ f)     # <Cf, c> with vdot conjugating slot one
        rhs = np.vdot(d_mat @ c, f)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _fit_dim(f: np.ndarray, d: int) -> np.ndarray:
    """View f at ambient dimension d: truncate or zero-pad. A probe is a
    1-d array of finite numbers."""
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1 or not np.isfinite(f).all():
        raise ValueError("a probe must be a 1-d array of finite numbers")
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
        c = _pairings(instantiate_stored(family, (d, n)), _fit_dim(f, d))
        energies.append(float(np.sum(np.abs(c) ** 2)))
        coeffs_top = c
    verdict = tail_diagnostic(energies, ladder.counts())
    return coeffs_top, verdict


def frame_matrix(family: VectorFamily, level: tuple) -> np.ndarray:
    """Sum of rank-one terms member_n (x) conj(member_n), as a dense (d, d)
    array; Hermitian up to roundoff by construction."""
    x = instantiate(family, level)
    return x.T @ np.conj(x)


def _gram(y):
    """y^T conj(y), the frame matrix of the rows of y. A CSR y gives a
    sparse product; a dense y gives only the upper triangle, from one
    Hermitian rank-k update (zherk), at half the flops of the full product."""
    if isinstance(y, np.ndarray):
        from scipy.linalg.blas import zherk
        return zherk(1.0, y.T)
    return y.T @ y.conj()


def permutation_gap(family: VectorFamily, level: tuple, n_perms: int = 20,
                    seed: int = 7) -> float:
    """Largest relative entrywise deviation of the frame matrix under
    seeded row permutations; the accumulated sum is order-free, so only
    roundoff shows up here; n_perms must be a whole number >= 1."""
    n_perms = whole_number(n_perms, 1, "n_perms must be one or more whole "
                           "numbers >= 1")
    x = instantiate_stored(family, level)
    base = _gram(x)
    scale = max(1.0, float(abs(base).max()))
    rng = np.random.default_rng(seed)
    worst = 0.0
    n = level[1]
    for _ in range(n_perms):
        t = _gram(x[rng.permutation(n)])
        # a dense frame matrix is compared in place, without a temporary
        gap = np.subtract(t, base, out=t) if isinstance(t, np.ndarray) \
            else t - base
        worst = max(worst, float(np.abs(gap).max()) / scale)
    return worst


def frame_action(family: VectorFamily, f: np.ndarray, level: tuple) -> np.ndarray:
    """Apply the truncated frame operator without materializing it; a probe
    of another length is truncated or continues by zero."""
    x = instantiate_stored(family, level)
    return x.T @ _pairings(x, _fit_dim(f, level[0]))


def _partial_sums(rows, coeffs: np.ndarray, ordering, window: float) -> tuple:
    """Prefix sums of coeffs[i] rows[i] over i in the ordering (None for
    range(N)), their norms and the trace; the ordering must be an integer
    permutation of range(N). Dense rows are weighted and added one at a
    time, so no reordered or weighted copy of them is built; CSR rows are
    reordered (a copy of the stored entries only) and each is scattered into
    the running sum."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n, d = rows.shape
    ordering = np.arange(n) if ordering is None else np.asarray(ordering)
    if (ordering.shape != (n,) or not np.issubdtype(ordering.dtype, np.integer)
            or not np.array_equal(np.sort(ordering), np.arange(n))):
        raise ValueError(f"ordering must be a permutation of range(N), N={n}, "
                         "given as integers")
    running = np.zeros(d, dtype=complex)
    norms = np.empty(n)
    if isinstance(rows, np.ndarray):
        for k, i in enumerate(ordering):
            running += coeffs[i] * rows[i]
            norms[k] = np.linalg.norm(running)
    else:
        rows = rows[ordering]
        ptr, pos = rows.indptr, rows.indices
        weighted = np.repeat(coeffs[ordering], np.diff(ptr)) * rows.data
        for k in range(n):
            # a row names each position once (core refuses repeats)
            span = slice(ptr[k], ptr[k + 1])
            running[pos[span]] += weighted[span]
            norms[k] = np.linalg.norm(running)
    tail = norms[max(0, 3 * n // 4 - 1):]
    scale = max(abs(norms[-1]), np.finfo(float).tiny)
    variation = float((tail.max() - tail.min()) / scale)
    trace = PartialSumTrace(norms, ordering, window, variation <= window, variation)
    return running, trace


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
    x = instantiate_stored(family, level)
    coeffs = _pairings(x, _fit_dim(f, level[0]))
    return _partial_sums(x, coeffs, ordering, window)


# ---------------------------------------------------------------------------
# projectors


def projector_for(family: VectorFamily, d: int) -> np.ndarray:
    """The orthogonal projector onto the modelled analysis-domain closure at
    dimension d, as the mask of the coordinates it keeps: the family's
    declared orthogonal complement removed, or every coordinate when the
    family declares none. The complement is 0-based coordinates independent
    of d; those at or above d do not apply. Refuses a projector that keeps
    no coordinate below d."""
    flagged = tuple(family.perp_directions or ())
    if any(not isinstance(j, (int, np.integer)) or j < 0 for j in flagged):
        raise ValueError("projector coordinates must be non-negative "
                         f"integers, got {flagged}")
    keep = np.ones(d, dtype=bool)
    keep[[j for j in flagged if j < d]] = False
    if not keep.any():
        raise ValueError(f"the projector keeps no coordinate below d={d}")
    return keep


class _KeptBlock:
    """The Hermitian block G = M M^H of r x N members M (CSR or dense).

    A G with nothing stored off its diagonal (CSR members, each member on
    at most one kept coordinate) is held as that diagonal g: its
    eigenvalues are g, and G^{-p} M is M with row i scaled by g_i^{-p}, so
    it keeps one entry per nonzero of M and stays CSR. Every other G is
    dense, with CSR members made dense first, and is read through numpy's
    eigh. A derived block leaves through _as_members, in its own storage.
    """

    def __init__(self, members):
        from scipy import sparse

        g = members @ members.conj().T
        self.diagonal, self.dense, self.members = None, None, members
        if sparse.issparse(g):
            entries = g.tocoo()
            if not entries.data[entries.row != entries.col].any():
                self.diagonal = g.diagonal().real
                return
            # formed as for dense families
            self.members = members = members.toarray()
            g = members @ members.conj().T
        self.dense = g

    def extremes(self) -> tuple:
        """Smallest and largest eigenvalue of G, from at most one eigenvalue
        call."""
        w = self.diagonal
        if w is None:
            w = np.linalg.eigvalsh(self.dense)
        return float(w.min()), float(w.max())

    def inverse(self, power: float = 1.0) -> tuple:
        """(block of G^{-power} M, smallest eigenvalue of G); refuses a
        numerically singular G."""
        g = self.diagonal
        if g is not None:
            from scipy import sparse
            lo = _above_floor(float(g.min()), float(g.max()))
            return _KeptBlock(sparse.diags_array(1.0 / g ** power)
                              @ self.members), lo
        w, v = np.linalg.eigh(self.dense)
        lo = _above_floor(float(w[0]), float(w[-1]))
        return _KeptBlock((v / w ** power) @ v.conj().T @ self.members), lo


def _above_floor(lo: float, hi: float) -> float:
    """lo, unless it lies at or below EIG_FLOOR_RATIO times hi."""
    floor = EIG_FLOOR_RATIO * hi
    if lo <= floor:
        raise SingularRestrictionError(lo, floor)
    return lo


def _as_members(block: _KeptBlock, keep: np.ndarray):
    """The r x N block M as N members in dimension d = keep.size, M^T on the
    kept coordinates and zero elsewhere: CSR for a CSR M, an (N, d) array
    otherwise (the transpose of a row-major (d, N) array, so its own
    transpose, the synthesis matrix, is row-major)."""
    m = block.members
    if isinstance(m, np.ndarray):
        out = np.zeros((keep.size, m.shape[1]), dtype=complex)
        out[keep] = m
        return out.T
    from scipy import sparse
    m = m.tocoo()       # a canonical CSR block names each entry once
    return sparse.csr_array((m.data, (m.col, np.flatnonzero(keep)[m.row])),
                            shape=(m.shape[1], keep.size))


def _restricted_spectrum(family: VectorFamily, level: tuple) -> tuple:
    """The frame matrix restricted to the family projector's range.

    Returns (keep, block): the mask of kept coordinates and the kept block
    B = Y Y^H of T, where Y = X^T[keep] holds the projected members as
    columns (r x N), in the members' own storage; B is held as its
    diagonal or dense.
    """
    xt = instantiate_stored(family, level).T
    keep = projector_for(family, level[0])
    return keep, _KeptBlock(xt[keep])


def lower_bound(family: VectorFamily, ladder: TruncationLadder):
    """Smallest eigenvalue of the projected frame matrix, per ladder level.

    Returns (per_level, verdict): per_level is a list of ((d, N), lambda_min)
    and the verdict judges stability of the estimates. A stable positive
    limit certifies the lower bound at the modelled truncations only.
    """
    per_level = []
    for level in ladder.levels:
        _, block = _restricted_spectrum(family, level)
        per_level.append((level, block.extremes()[0]))
    values = [lam for _, lam in per_level]
    verdict = tail_diagnostic(values, ladder.counts(), rel_tol=1e-10)
    return per_level, verdict


# ---------------------------------------------------------------------------
# canonical duals


def canonical_dual(family: VectorFamily, level: tuple) -> DualFamily:
    """Dual members: restricted inverse of the projected frame matrix applied
    to the projected family.

    Refuses when the restriction is numerically singular (its smallest
    eigenvalue at or below EIG_FLOOR_RATIO times its largest), reporting the
    offending eigenvalue. The returned Bessel bound estimate is the largest
    eigenvalue of the dual family's frame matrix; theory caps it by the
    reciprocal of the restricted lower bound. On a diagonal kept block the
    dual has one nonzero per member and is held as CSR.
    """
    keep, block = _restricted_spectrum(family, level)
    dual_block, lam = block.inverse()
    bessel_est = dual_block.extremes()[1]
    return DualFamily(_as_members(dual_block, keep), "inverse", bessel_est,
                      1.0 / lam, lam)


def dual_via_pseudoinverse(family: VectorFamily, level: tuple) -> DualFamily:
    """Dual members as columns of the analysis pseudo-inverse.

    The pseudo-inverse of the analysis matrix restricted to the admissible
    subspace extends the inverse by zero on the orthogonal complement of its
    range; its columns reproduce the restricted-inverse dual exactly.

    The restricted analysis matrix C (members against kept coordinates) is
    inverted entrywise when it is CSR with at most one stored entry per
    member and per kept coordinate: its singular values are then |c|, and
    each entry c pairs member and coordinate with the dual entry 1/c, and
    the duals are held as CSR. Every other C is made dense and takes one
    SVD. Singular values at or below PINV_CUTOFF_RATIO times the largest
    one are cut, and the Bessel estimate is the largest eigenvalue of the
    duals' frame matrix. Refuses when no singular value clears the cutoff.
    """
    members = instantiate_stored(family, level)
    coords = np.flatnonzero(projector_for(family, level[0]))
    c = members[:, coords].conj()
    rows = np.arange(level[1])
    entrywise = False
    if not isinstance(c, np.ndarray):
        c = c.tocoo()
        entrywise = max(np.bincount(c.row).max(initial=0),
                        np.bincount(c.col).max(initial=0)) <= 1
        if not entrywise:
            # members and coordinates with no entry are left out of the SVD,
            # so their duals stay exactly zero
            rows, cols = np.unique(c.row), np.unique(c.col)
            c, coords = c.toarray()[np.ix_(rows, cols)], coords[cols]
    if entrywise:
        s = np.abs(c.data)
    else:
        u, s, vh = np.linalg.svd(c, full_matrices=False)
    top = float(s.max(initial=0.0))
    cutoff = PINV_CUTOFF_RATIO * top
    if not top > cutoff:
        raise SingularRestrictionError(top ** 2, cutoff ** 2)
    cut = s > cutoff
    if entrywise:
        from scipy import sparse
        held = duals = sparse.csr_array(
            (1.0 / c.data[cut], (c.row[cut], coords[c.col[cut]])),
            shape=level[::-1])
    else:
        # the pseudo-inverse V S^+ U^H, transposed: members by rows
        held = ((vh[cut].conj().T / s[cut]) @ u[:, cut].conj().T).T
        duals = np.zeros(level[::-1], dtype=complex)
        duals[rows[:, None], coords] = held
    bessel_est = _KeptBlock(held.T).extremes()[1]
    smin = float(s[cut].min())
    return DualFamily(duals, "pseudoinverse", bessel_est,
                      float(1.0 / smin ** 2), smin ** 2)


def reconstruct(f: np.ndarray, family: VectorFamily, dual: DualFamily,
                level: tuple, ladder: TruncationLadder | None = None
                ) -> ReconstructionResult:
    """Resynthesize from analysis coefficients through a dual family.

    Coefficients are taken against the projected members, so the part of f
    outside the modelled domain closure is invisible to the expansion and
    exactly the projection of f is recovered. The headline relative error is
    measured against the original f: for f orthogonal to the admissible
    subspace it equals 1. A probe shorter than d continues by zero. When a
    ladder is supplied, the raw coefficient energy of the unprojected f is
    tracked as a domain diagnostic. The dual must be built at the level.
    """
    d, n = level
    if dual.members.shape != (n, d):
        raise ValueError(f"the dual must be built at level {tuple(level)}, "
                         f"not at {dual.members.shape[::-1]}")
    f = np.asarray(f, dtype=complex)
    f_d = _fit_dim(f, d)
    pf = f_d.copy()
    pf[~projector_for(family, d)] = 0.0
    coeffs = _pairings(instantiate_stored(family, level), pf)
    f_tilde = dual.members.T @ coeffs
    norm_f = np.linalg.norm(f_d)
    rel = float(np.linalg.norm(f_tilde - f_d) / norm_f) if norm_f > 0 else 0.0
    norm_pf = np.linalg.norm(pf)
    in_span = float(np.linalg.norm(f_tilde - pf) / norm_pf) if norm_pf > 1e-300 else None
    tail = None
    if ladder is not None:
        _, tail = analysis(family, f, ladder)
    return ReconstructionResult(f_tilde, rel, in_span, tail)


def parseval_canonical(family: VectorFamily, level: tuple):
    """Inverse-square-root normalization of the projected family.

    Returns (members, gap): the normalized members as rows, stored as the
    canonical dual's (CSR on a diagonal kept block, an (N, d) array
    otherwise), and the largest deviation from 1 of the eigenvalues of
    their frame matrix on the admissible subspace; the normalized family is
    tight there.
    """
    keep, block = _restricted_spectrum(family, level)
    tight, _ = block.inverse(power=0.5)
    lo, hi = tight.extremes()
    return _as_members(tight, keep), max(abs(lo - 1.0), abs(hi - 1.0))


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
    rule evaluate it once, up to the largest count in `rule_counts` (defaults
    to the ladder counts), far beyond materializable levels; its exponent
    is the least-squares slope of log norm against log count from an eighth
    of the largest count on.
    """
    if len(test_set) == 0:
        raise ValueError("test_set must hold at least one probe")
    f = np.asarray(f, dtype=complex)
    pairings = {k: [] for k in range(len(test_set))}
    bound = 0.0
    for d, n in ladder.levels:
        x = instantiate_stored(family, (d, n))
        c_f = _pairings(x, _fit_dim(f, d))
        for k, g in enumerate(test_set):
            c_g = _pairings(x, _fit_dim(np.asarray(g, dtype=complex), d))
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
        rule = "rule_counts must be one or more whole numbers >= 1"
        raw = np.ravel(ladder.counts() if rule_counts is None else rule_counts)
        if not raw.size:
            raise ValueError(f"{rule}, got {rule_counts!r}")
        counts = np.array([whole_number(c, 1, rule) for c in raw])
        top = counts.max()
        if top < 3:
            raise ValueError("the prefix-norm fit needs a count of at least 3, "
                             f"got at most {top}")
        norms_full = family.prefix_norm_rule(top)
        sups = [float(np.max(norms_full[:m])) for m in counts]
        m_lo = max(top // 8, 2)
        exponent, _ = loglog_fit(np.arange(m_lo, top + 1),
                                 norms_full[m_lo - 1:])
    else:
        counts = ladder.counts()
        sups = []
        for d, n in ladder.levels:
            _, trace = s_apply(family, _fit_dim(f, d), (d, n))
            sups.append(float(trace.prefix_norms.max()))
    in_w = tail_diagnostic(sups, counts, rel_tol=1e-6)
    return WMembershipReport(in_t, in_w, float(bound), exponent,
                             list(zip([int(c) for c in counts], sups)))
