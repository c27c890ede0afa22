"""Finite-dimensional scaffolding shared by every module.

Sequence systems are modelled by vector families: one vectorized rule that
builds a whole block of members (COO triplets for sparse families, an
(N, d) array for dense ones), checked once here, plus whatever analytic
side knowledge the family carries (known orthogonal complement of the
analysis domain, closed-form prefix norms). Grid-sampled functions on a
period or on a symmetric window of the line are carried by GridFunction.
Convergence and divergence across truncation ladders is judged by
tail_diagnostic, which returns a ConvergenceVerdict rather than a bare bool
so that callers can surface evidence. The translate and exponential systems
share a Classification (per-property verdicts with their evidence) and
bound_verdicts, the Bessel and lower rule on their symbol p or |g|^2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

CONVERGENCE_REL_TOL = 1e-9      # successive-difference stabilization window
DIVERGENCE_EXPONENT = 0.1      # fitted log-log slope above this means growth
DIVERGENCE_R2 = 0.99           # fit quality required to declare divergence
CONTRACTION_RATIO = 0.95       # difference ratios below this allow extrapolation
LADDER_R2 = 0.9                # relaxed: value ladders outgrow any power law


def pairwise_sum(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Sum of equal-shaped arrays, added in their order.

    The chunks are stacked 64 at a time behind the running total and reduced
    along the stack axis, which numpy adds one row after another: for chunks
    of two or more entries the result is bit for bit t = t + c in chunk
    order, so its rounding error grows with the number of chunks. (The
    entries of one-entry chunks lie contiguously, and numpy sums those
    pairwise.) The list order alone fixes every rounding, however its chunks
    were computed.
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


def root_tables(first: int, count: int, cols: np.ndarray,
                order: int) -> tuple:
    """(coarse, fine) tables of exact order-th roots of unity for the rows
    r = first + k, k < count, against integer columns c, read off one roots
    array at residues mod order. With k = B k1 + k2 and B = ceil(sqrt(count)),
    coarse[k1, c] is the root at (first + B k1) c and fine[k2, c] the one at
    k2 c, so exp(2 pi i r c / order) = coarse[k1, c] fine[k2, c]."""
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    width = math.isqrt(count - 1) + 1
    cols = np.asarray(cols) % order
    starts = (first + width * np.arange(-(-count // width))) % order

    def table(rows):
        at = np.multiply.outer(rows, cols)
        return roots[np.remainder(at, order, out=at)]

    return table(starts), table(np.arange(width))


def modulation_round_trip(first: int, count: int, cols: np.ndarray,
                          order: int, weights: np.ndarray) -> np.ndarray:
    """sum_c exp(-2 pi i r c / order) sum_k exp(2 pi i r_k c / order) w_k at
    the rows r = first + k, k < count: every row meets every column, as two
    matrix products through root_tables. The inner sum per column is one
    product and one sum over coarse rows, the padded rows weighted 0."""
    coarse, fine = root_tables(first, count, cols, order)
    padded = np.zeros(len(coarse) * len(fine), dtype=complex)
    padded[:count] = weights
    sums = np.sum(coarse * (padded.reshape(len(coarse), -1) @ fine), axis=0)
    back = np.conjugate(coarse, out=coarse)
    back *= sums
    return (back @ fine.conj().T).ravel()[:count]


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
        rule = "ladder levels (d, N) need whole numbers >= 1"
        lv = tuple((whole_number(d, 1, rule), whole_number(n, 1, rule))
                   for d, n in self.levels)
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


def default_ladder(family: "VectorFamily") -> TruncationLadder:
    """Doubling ladder of 64, 128, 256 and 512 vectors, dimensions set by
    the family."""
    return TruncationLadder(tuple((family.min_dim(n), n)
                                  for n in (64, 128, 256, 512)))


# ---------------------------------------------------------------------------
# vector families


@dataclass
class VectorFamily:
    """A countable family of vectors materializable at any truncation level.

    Each family declares its members once, by one vectorized rule over an
    integer array of indices. A sparse family's `block(indices)` returns
    COO triplets (rows, positions, values): row r of the block is member
    indices[r], positions are 0-based coordinates independent of d. A family
    with dense members sets `dense=True`, and its `block(indices, d)`
    returns the members as rows of an (N, d) array. Families enumerate
    indices start_index, start_index+1, ... in their canonical order (for
    integer-frequency systems the canonical order is 0, 1, -1, 2, -2, ...).

    `dense` is the one flag that tells sparse from dense families. The
    one-index views `generator(index, d)` (a member as a length-d array)
    and `sparse(index)` (its (positions, values) pairs, None exactly for
    dense families) are derived from the rule; no library path calls them,
    they stay as the per-member hooks that perfbench/tracing.py wraps.

    Side knowledge travels with the family: `perp_directions` holds the
    0-based coordinates that span the known orthogonal complement of the
    analysis domain at every dimension (empty when the domain is dense, None
    when undeclared), and `prefix_norm_rule` evaluates closed-form prefix
    norms for the canonical ordering.
    """

    name: str
    block: Callable | None = None
    dense: bool = False
    start_index: int = 1
    min_dim: Callable[[int], int] = None
    perp_directions: tuple | None = None
    prefix_norm_rule: Callable[[np.ndarray], np.ndarray] | None = None
    generator: Callable[[int, int], np.ndarray] = field(init=False, repr=False)
    sparse: Callable[[int], tuple] | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.min_dim is None:
            self.min_dim = lambda n: n
        if self.block is None:
            raise ValueError(
                f"family {self.name!r} declares no member rule: give "
                "block(indices), or block(indices, d) with dense=True")
        self.generator = lambda idx, d: _members(self, np.array([idx]), d)[0]
        self.sparse = None
        if not self.dense:
            self.sparse = lambda idx: _coo(self, np.array([idx]))[1:]

    def indices(self, count: int) -> np.ndarray:
        return np.arange(self.start_index, self.start_index + count)


def _checked_level(family: VectorFamily, level: tuple) -> tuple:
    d, n_count = level
    if n_count < 1:
        raise ValueError(f"a level needs at least one member, got N={n_count}")
    if d < family.min_dim(n_count):
        raise ValueError(
            f"dimension {d} below admissible bound {family.min_dim(n_count)} "
            f"for {n_count} members of {family.name}")
    return d, n_count


def _finite(values: np.ndarray, family: VectorFamily) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"family members must be finite: {family.name} "
                         "has a non-finite entry")
    return values


def _coo(family: VectorFamily, indices: np.ndarray, d: int | None = None) -> tuple:
    """(rows, positions, values) of a sparse rule at the given indices,
    checked: one length, integer rows in [0, N), positions in [0, d) (only
    non-negative when d is None), no (row, position) pair named twice (the
    dense scatter would keep one value, CSR their sum) and finite values."""
    rows, pos, vals = family.block(indices)
    rows, pos = np.asarray(rows), np.asarray(pos)
    vals = np.asarray(vals, dtype=complex)
    rule = f"member rule of {family.name}"
    if not (rows.ndim == pos.ndim == vals.ndim == 1
            and rows.size == pos.size == vals.size):
        raise ValueError(f"{rule}: rows, positions and values must be flat "
                         "arrays of one length")
    if rows.size:
        if not (rows.dtype.kind in "iu" and pos.dtype.kind in "iu"):
            raise ValueError(f"{rule}: rows and positions must be integers")
        if rows.min() < 0 or rows.max() >= indices.size:
            raise ValueError(f"{rule}: rows must lie in [0, N) with "
                             f"N={indices.size}")
        if pos.min() < 0 or (d is not None and pos.max() >= d):
            raise ValueError(f"{rule}: positions must lie in [0, d) with d={d}")
        pairs = np.sort(rows.astype(np.int64) * (int(pos.max()) + 1) + pos)
        if np.any(pairs[1:] == pairs[:-1]):
            raise ValueError(f"{rule}: a member names one position twice")
    return rows, pos, _finite(vals, family)


def _members(family: VectorFamily, indices: np.ndarray, d: int) -> np.ndarray:
    """The members at the given indices as rows of an (N, d) array, from one
    call of the family's rule."""
    if family.dense:
        x = np.asarray(family.block(indices, d), dtype=complex)
        if x.shape != (indices.size, d):
            raise ValueError(
                f"member rule of {family.name}: a dense block must have shape "
                f"(N, d) = {(indices.size, d)}, got {x.shape}")
        return _finite(x, family)
    rows, pos, vals = _coo(family, indices, d)
    out = np.zeros((indices.size, d), dtype=complex)
    out[rows, pos] = vals
    return out


def instantiate(family: VectorFamily, level: tuple) -> np.ndarray:
    """Materialize the first N members at dimension d as rows of an array."""
    d, n_count = _checked_level(family, level)
    return _members(family, family.indices(n_count), d)


def instantiate_stored(family: VectorFamily, level: tuple):
    """The first N members at dimension d in the family's own storage: a
    CSR array for a sparse rule, instantiate's array for a dense one.

    scipy is imported here so that importing the package does not load it.
    """
    if family.dense:
        return instantiate(family, level)
    from scipy import sparse

    d, n_count = _checked_level(family, level)
    rows, pos, vals = _coo(family, family.indices(n_count), d)
    return sparse.csr_array((vals, (rows, pos)), shape=(n_count, d))


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


def essential_bounds(weight) -> tuple:
    """(ess inf, ess sup) a weight or symbol declares, None for a bound it
    leaves undeclared; refuses one without ess_bounds."""
    bounds = getattr(weight, "ess_bounds", None)
    if not callable(bounds):
        raise ValueError(f"{type(weight).__name__} declares no essential bounds "
                         "(ess_bounds); frame bounds and duals are read off them")
    return bounds()


def rising_slopes(values, sizes) -> list | None:
    """The local log-log slopes of a positive ladder when there are 3 or
    more, each above DIVERGENCE_EXPONENT and non-decreasing: growth faster
    than any power, which no single log-log fit models. None otherwise."""
    v = np.asarray(values, dtype=float)
    if v.size < 4 or not np.all(v > 0):
        return None
    slopes = np.diff(np.log(v)) / np.diff(np.log(np.asarray(sizes, dtype=float)))
    if np.all(slopes > DIVERGENCE_EXPONENT) and np.all(np.diff(slopes) >= 0):
        return slopes.tolist()
    return None


def bound_verdicts(ess_inf, ess_sup, symbol=None) -> tuple:
    """(bessel, lower) verdict pairs of an operator that multiplies by one
    symbol; None marks a bound nobody declared or resolved. Bessel is No when
    tail_diagnostic calls the symbol's value_ladder(), less its filler piece,
    Divergent over 3 or more values, or, where it reads Inconclusive, when
    the ladder's local slopes keep rising (rising_slopes); else Yes for a
    finite sup. Lower is Yes for an inf above 0."""
    steps = symbol.value_ladder()[:-1] if hasattr(symbol, "value_ladder") else []
    values, labels = [v for _, v in steps], [i for i, _ in steps]
    growth = tail_diagnostic(values, labels, r2_threshold=LADDER_R2) \
        if len(steps) >= 3 else None
    slopes = rising_slopes(values, labels) \
        if growth is not None and growth.kind == INCONCLUSIVE else None
    if growth is not None and growth.kind == DIVERGENT:
        bessel = (NO, {"value_ladder_exponent": growth.growth_exponent})
    elif slopes is not None:
        bessel = (NO, {"value_ladder_slopes": slopes})
    elif ess_sup is None:
        bessel = (UNDECIDED, {})
    else:
        bessel = (YES if math.isfinite(ess_sup) else NO, {"bound": ess_sup})
    if ess_inf is None:
        return bessel, (UNDECIDED, {})
    return bessel, (YES if ess_inf > 0 else NO, {"bound": ess_inf})


@dataclass
class Classification:
    """Verdicts on a system's properties: properties[prop] is the pair
    (verdict, evidence dict); scope names the space they are judged in."""

    name: str
    scope: str
    properties: dict

    def verdict(self, prop: str) -> str:
        return self.properties[prop][0]


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
                    r2_threshold: float = DIVERGENCE_R2) -> ConvergenceVerdict:
    """Judge a ladder of diagnostic values.

    Convergent when successive values differ by less than
    rel_tol * (1 + |last value|), or when the successive differences contract
    at a fitted geometric rate (the limit is then extrapolated). Divergent
    when |values| grow along the ladder with fitted log-log slope above
    DIVERGENCE_EXPONENT at R^2 above r2_threshold. Inconclusive otherwise.
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
        if slope > DIVERGENCE_EXPONENT and r2 > r2_threshold:
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

    Periodic grids cover [0, period) with M nodes at i * step,
    step * M = period. Line grids cover a closed symmetric window with
    M = 2J + 1 nodes at j * step for j = -J..J, so step * (M - 1) spans the
    window. Node positions are integer multiples of a finite positive step,
    which keeps lattice shifts exact.
    """

    values: np.ndarray
    step: float
    kind: str

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(
                f"grid step must be finite and positive, got {self.step}")
        if self.kind not in (PERIODIC, LINE):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.kind == LINE and self.values.size % 2 == 0:
            raise ValueError("line grids have odd node count (symmetric window)")

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def index0(self) -> int:
        """Grid index of the first node: 0 on a period, -J on the line."""
        return 0 if self.kind == PERIODIC else -(self.size - 1) // 2

    @property
    def half_width(self) -> float:
        if self.kind != LINE:
            raise ValueError("not a line grid")
        return self.step * (self.size - 1) / 2.0

    def nodes(self) -> np.ndarray:
        return (self.index0 + np.arange(self.size)) * self.step

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


def periodic_grid(values, period: float = 1.0) -> GridFunction:
    """M samples at i * period / M, i = 0..M-1; GridFunction refuses M < 2."""
    values = np.asarray(values)
    return GridFunction(values, period / max(values.size, 1), PERIODIC)


def line_grid(values, step: float) -> GridFunction:
    return GridFunction(values, step, LINE)


def whole_count(ratio: float, precondition: str) -> int:
    """A grid ratio that must be a positive integer, as an int.

    Raises ValueError(precondition) when the ratio is not within 1e-9
    relative of a positive integer, so that lattice shifts stay exact.
    """
    if not (math.isfinite(ratio) and ratio >= 0.5
            and abs(ratio - round(ratio)) <= 1e-9 * ratio):
        raise ValueError(precondition)
    return int(round(ratio))


def whole_number(value, least: int, precondition: str) -> int:
    """A count that must be a finite whole number >= least, as an int.

    Raises ValueError(precondition) for anything else: a fraction, a NaN,
    an infinity, a value below least or a non-number.
    """
    if not (isinstance(value, (int, float, np.integer, np.floating))
            and np.isfinite(value) and value >= least
            and value == int(value)):
        raise ValueError(f"{precondition}, got {value!r}")
    return int(value)


def periodize(f: GridFunction, a: float, shifts: int) -> GridFunction:
    """Fold a line-grid function into one period: sum over f(x - k*a), |k| <= shifts.

    The period a must be an integer number of grid steps so every shifted
    copy lands on nodes. Doubling `shifts` must leave the result unchanged
    once the window is covered; use periodization_gap to check the integral
    identity against the line quadrature.
    """
    if f.kind != LINE:
        raise ValueError("periodize expects a line grid")
    shifts = whole_number(shifts, 0, "shifts must be a whole number >= 0")
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
    return GridFunction(out, f.step, PERIODIC)


def periodization_gap(f: GridFunction, folded: GridFunction) -> float:
    """|integral of folded over one period - integral of f over the line|."""
    return abs(complex(folded.quadrature()) - complex(f.quadrature()))


def covering_shifts(f: GridFunction, a: float) -> int:
    """Smallest shift count whose window covers the whole line grid."""
    return int(np.ceil(f.half_width / a)) + 1
