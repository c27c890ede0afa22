"""Finite-dimensional scaffolding shared by every module.

Sequence systems are modelled by vector families: a generator producing the
n-th member at a chosen truncation level, plus whatever analytic side
knowledge the family carries (known orthogonal complement of the analysis
domain, closed-form prefix norms, sparsity). Grid-sampled functions on a
period or on a symmetric window of the line are carried by GridFunction.
Convergence and divergence across truncation ladders is judged by
tail_diagnostic, which returns a ConvergenceVerdict rather than a bare bool
so that callers can surface evidence.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

CONVERGENCE_REL_TOL = 1e-9      # successive-difference stabilization window
DIVERGENCE_EXPONENT = 0.1      # fitted log-log slope above this means growth
DIVERGENCE_R2 = 0.99           # fit quality required to declare divergence
CONTRACTION_RATIO = 0.95       # difference ratios below this allow extrapolation


def pairwise_sum(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Deterministic pairwise reduction of equal-shaped arrays.

    numpy's add.reduce is already pairwise within an array; stacking chunks
    and reducing keeps one fixed summation tree regardless of caller batching.
    """
    stack = [np.asarray(c) for c in chunks]
    if not stack:
        raise ValueError("nothing to sum")
    total = stack[0].copy()
    block = [total]
    for c in stack[1:]:
        block.append(c)
        if len(block) == 64:
            block = [np.sum(np.stack(block), axis=0)]
    return np.sum(np.stack(block), axis=0) if len(block) > 1 else block[0]


# ---------------------------------------------------------------------------
# truncation ladders


@dataclass(frozen=True)
class TruncationLadder:
    """(dimension, count) levels with strictly growing counts, at least three.

    Dimensions must not shrink; grid-sampled families keep a constant
    ambient dimension while the member count grows.
    """

    levels: tuple

    def __post_init__(self):
        lv = tuple((int(d), int(n)) for d, n in self.levels)
        if len(lv) < 3:
            raise ValueError("a ladder needs at least three levels")
        for (d0, n0), (d1, n1) in zip(lv, lv[1:]):
            if not (d1 >= d0 and n1 > n0):
                raise ValueError("ladder levels must grow in N and not shrink in d")
        object.__setattr__(self, "levels", lv)

    @property
    def top(self) -> tuple:
        return self.levels[-1]

    def counts(self) -> np.ndarray:
        return np.array([n for _, n in self.levels])


def default_ladder(family: "VectorFamily", base: int = 256, depth: int = 4) -> TruncationLadder:
    """Doubling ladder from `base` vectors, dimensions set by the family."""
    levels = []
    n = base
    for _ in range(depth):
        levels.append((family.min_dim(n), n))
        n *= 2
    return TruncationLadder(tuple(levels))


# ---------------------------------------------------------------------------
# vector families


@dataclass
class VectorFamily:
    """A countable family of vectors materializable at any truncation level.

    Each family declares its members by one rule: `sparse(index)` gives
    (positions, values) pairs independent of d, or, for families with dense
    members, `generator(index, d)` gives the member as a length-d array.
    When only `sparse` is given, `generator` is derived from it. Families
    enumerate indices start_index, start_index+1, ... in their canonical
    order (for integer-frequency systems the canonical order is
    0, 1, -1, 2, -2, ...).

    Side knowledge travels with the family: `perp_directions` spans the known
    orthogonal complement of the analysis domain at dimension d (empty or
    None when the domain is dense), and `prefix_norm_rule` evaluates
    closed-form prefix norms for the canonical ordering.
    """

    name: str
    generator: Callable[[int, int], np.ndarray] | None = None
    start_index: int = 1
    min_dim: Callable[[int], int] = None
    sparse: Callable[[int], tuple] | None = None
    perp_directions: Callable[[int], np.ndarray] | None = None
    prefix_norm_rule: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.min_dim is None:
            self.min_dim = lambda n: n
        if self.generator is None:
            if self.sparse is None:
                raise ValueError(
                    f"family {self.name!r} declares no member rule: give "
                    "sparse(index) or generator(index, d)")
            sparse = self.sparse

            def dense(idx, d):
                v = np.zeros(d, dtype=complex)
                pos, vals = sparse(idx)
                v[pos] = vals
                return v

            self.generator = dense

    def indices(self, count: int) -> range:
        return range(self.start_index, self.start_index + count)


def instantiate(family: VectorFamily, level: tuple) -> np.ndarray:
    """Materialize the first N members at dimension d as rows of an array."""
    d, n_count = level
    if d < family.min_dim(n_count):
        raise ValueError(
            f"dimension {d} below admissible bound {family.min_dim(n_count)} "
            f"for {n_count} members of {family.name}")
    if family.sparse is not None:
        out = np.zeros((n_count, d), dtype=complex)
        for row, idx in enumerate(family.indices(n_count)):
            pos, vals = family.sparse(idx)
            out[row, pos] = vals
        return out
    rows = [np.asarray(family.generator(idx, d), dtype=complex)
            for idx in family.indices(n_count)]
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# convergence verdicts

CONVERGENT = "Convergent"
DIVERGENT = "Divergent"
INCONCLUSIVE = "Inconclusive"

# classifier verdicts on a system property
YES, NO, UNDECIDED = "Yes", "No", "Undecided"


def frame_verdict(bessel: str, lower: str) -> str:
    """Frame = Bessel and lower inequality: Yes when both hold, No when
    either fails, Undecided otherwise."""
    if bessel == YES and lower == YES:
        return YES
    return NO if NO in (bessel, lower) else UNDECIDED


@dataclass(frozen=True)
class ConvergenceVerdict:
    kind: str
    limit_estimate: complex | float | None = None
    growth_exponent: float | None = None
    r_squared: float | None = None
    detail: str = ""

    def __bool__(self):
        return self.kind == CONVERGENT


def _loglog_fit(sizes: np.ndarray, values: np.ndarray):
    """Least-squares slope and R^2 of log(values) against log(sizes)."""
    x, y = np.log(sizes.astype(float)), np.log(values.astype(float))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def tail_diagnostic(values: Sequence, sizes: Sequence,
                    rel_tol: float = CONVERGENCE_REL_TOL,
                    growth_threshold: float = DIVERGENCE_EXPONENT,
                    r2_threshold: float = DIVERGENCE_R2) -> ConvergenceVerdict:
    """Judge a ladder of diagnostic values.

    Convergent when successive values differ by less than
    rel_tol * (1 + |last value|), or when the successive differences contract
    at a fitted geometric rate (the limit is then extrapolated). Divergent
    when |values| grow along the ladder with fitted log-log slope above
    growth_threshold at R^2 above r2_threshold. Inconclusive otherwise.
    """
    v = np.asarray(values)
    n = np.asarray(sizes, dtype=float)
    if v.shape != n.shape or v.size < 3:
        raise ValueError("need one value per ladder level, three levels minimum")
    diffs = np.diff(v)
    mags = np.abs(v)
    scale = 1.0 + mags[-1]

    if np.abs(diffs[-1]) <= rel_tol * scale:
        return ConvergenceVerdict(CONVERGENT, limit_estimate=v[-1],
                                  detail="stabilized")

    if np.all(mags > 0) and np.all(np.diff(mags) > 0):
        slope, r2 = _loglog_fit(n, mags)
        if slope > growth_threshold and r2 > r2_threshold:
            return ConvergenceVerdict(DIVERGENT, growth_exponent=slope,
                                      r_squared=r2, detail="growth fit")

    steps = np.abs(diffs)
    if np.all(steps[:-1] > 0):
        ratios = steps[1:] / steps[:-1]
        if np.all(ratios < CONTRACTION_RATIO):
            r = float(np.exp(np.mean(np.log(ratios))))
            limit = v[-1] + diffs[-1] * r / (1.0 - r)
            return ConvergenceVerdict(
                CONVERGENT, limit_estimate=limit,
                growth_exponent=float(np.log(r) / np.log(n[-1] / n[-2])),
                detail="extrapolated")

    return ConvergenceVerdict(INCONCLUSIVE, detail="no stable trend")


# ---------------------------------------------------------------------------
# grid functions

PERIODIC = "periodic"
LINE = "line"


@dataclass
class GridFunction:
    """Samples of a function on a uniform grid.

    Periodic grids cover [0, period) with M nodes at (i + offset) * step,
    step * M = period. Line grids cover a closed symmetric window with
    M = 2J + 1 nodes at j * step for j = -J..J, so step * (M - 1) spans the
    window. Node positions are integer multiples of step (plus the fixed
    offset), which keeps lattice shifts exact.
    """

    values: np.ndarray
    step: float
    kind: str
    offset: float = 0.0
    index0: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("grid needs at least two nodes")
        if self.kind not in (PERIODIC, LINE):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.kind == PERIODIC and self.index0 != 0:
            raise ValueError("periodic grids start at index 0")
        if self.kind == LINE and self.index0 != -(self.values.size - 1) // 2:
            raise ValueError("line grids are symmetric about 0")

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def period(self) -> float:
        if self.kind != PERIODIC:
            raise ValueError("not a periodic grid")
        return self.step * self.size

    @property
    def half_width(self) -> float:
        if self.kind != LINE:
            raise ValueError("not a line grid")
        return self.step * (self.size - 1) / 2.0

    def nodes(self) -> np.ndarray:
        return (self.index0 + np.arange(self.size) + self.offset) * self.step

    def quadrature(self) -> complex:
        """Uniform-weight Riemann sum; exact for periodic trigonometric data."""
        return complex(np.sum(self.values) * self.step)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["node", "re", "im"])
            for x, v in zip(self.nodes(), self.values):
                w.writerow([repr(float(x)), repr(float(np.real(v))),
                            repr(float(np.imag(v)))])


def periodic_grid(values, period: float = 1.0, offset: float = 0.0) -> GridFunction:
    values = np.asarray(values)
    if values.size < 2:
        raise ValueError("grid needs at least two nodes")
    return GridFunction(values, period / values.size, PERIODIC, offset=offset)


def line_grid(values, step: float) -> GridFunction:
    values = np.asarray(values)
    if values.size % 2 == 0:
        raise ValueError("line grids have odd node count (symmetric window)")
    return GridFunction(values, step, LINE, index0=-(values.size - 1) // 2)


def whole_count(ratio: float, precondition: str) -> int:
    """A grid ratio that must be a positive integer, as an int.

    Raises ValueError(precondition) when the ratio is not within 1e-9
    relative of a positive integer, so that lattice shifts stay exact.
    """
    if not (math.isfinite(ratio) and ratio >= 0.5
            and abs(ratio - round(ratio)) <= 1e-9 * ratio):
        raise ValueError(precondition)
    return int(round(ratio))


def periodize(f: GridFunction, a: float, shifts: int) -> GridFunction:
    """Fold a line-grid function into one period: sum over f(x - k*a), |k| <= shifts.

    The period a must be an integer number of grid steps so every shifted
    copy lands on nodes. Doubling `shifts` must leave the result unchanged
    once the window is covered; use periodization_gap to check the integral
    identity against the line quadrature.
    """
    if f.kind != LINE:
        raise ValueError("periodize expects a line grid")
    m = whole_count(a / f.step, "period must be an integer number of grid steps")
    out = np.zeros(m, dtype=complex)
    j0 = f.index0
    for k in range(-shifts, shifts + 1):
        # residue r receives line index r + k*m
        base = k * m - j0          # array position of line index k*m
        lo = max(0, -base)
        hi = min(m, f.size - base)
        if lo < hi:
            out[lo:hi] += f.values[base + lo:base + hi]
    if np.isrealobj(f.values):
        out = out.real
    return GridFunction(out, f.step, PERIODIC, offset=f.offset)


def periodization_gap(f: GridFunction, folded: GridFunction) -> float:
    """|integral of folded over one period - integral of f over the line|."""
    return abs(complex(folded.quadrature()) - complex(f.quadrature()))


def covering_shifts(f: GridFunction, a: float) -> int:
    """Smallest shift count whose window covers the whole line grid."""
    return int(np.ceil(f.half_width / a)) + 1
