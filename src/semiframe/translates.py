"""Regular translate systems T(phi, a), handled on the Fourier side.

The whole theory of {phi(. - n a)} runs through one periodic function: the
normalized aliased energy p(gamma) = (1/a) sum_n |phi_hat((gamma + n)/a)|^2,
1-periodic in gamma. Analysis coefficients are the Fourier coefficients of
the matching aliased bracket, the frame-type operator acts as multiplication
by p after folding (the diagonal representation of the operator), and the
canonical dual divides by p on its support. Everything below samples these
objects on commensurate grids so that folds and modulations land on exact
lattice nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    CONVERGENT, DIVERGENT, NO, UNDECIDED, YES, Classification, GridFunction,
    bound_verdicts, covering_shifts, essential_bounds, finite_number,
    frame_verdict, line_grid, modulation_round_trip, pairwise_sum,
    periodic_grid, periodize, tail_diagnostic, whole_count, whole_number,
)
from .muckenhoupt import plateau_weight

DEFAULT_GRID = 4096
DEFAULT_TAIL = 2000
ZERO_MASK_RATIO = 1e-8          # p below this fraction of its sup counts as zero
LIVE_RATIO = 1e-13              # p at most this fraction of its sup is rounding
GRID_LADDER = (256, 512, 1024, 2048, 4096)  # grids of an undeclared lower bound
ALIAS_BLOCK = 64
ORTHO_TOL = 1e-6
LATTICE_STEP = "grid step must subdivide the dual period 1/a"
GRID_NODES = "grid needs at least two nodes: m must be a whole number >= 2"
LINE_GRID = "expect f sampled on a symmetric line grid"


@dataclass
class FourierProfile:
    """A generator's Fourier transform as a vectorized callable.

    support is a (lo, hi) window outside which the profile vanishes, or None
    when it only decays. autocorrelation optionally declares (A, half_width)
    for a generator phi of compact support in time: A(t) = int phi(x)
    conj(phi(x - t)) dx, vectorized in t, vanishes for |t| >= half_width,
    and the self-paired alias sum becomes the finite sum of its
    coefficients A(k a). A nonzero phi is not compact on both sides, so a
    profile declares at most one of the two.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple | None = None
    autocorrelation: tuple | None = None

    def __post_init__(self):
        if self.support is not None and not (
                _pair(self.support) and all(map(finite_number, self.support))
                and self.support[0] < self.support[1]):
            raise ValueError("a support window (lo, hi) needs lo < hi, both "
                             f"finite, got {self.support!r}")
        if self.autocorrelation is None:
            return
        if self.support is not None:
            raise ValueError("declare support or autocorrelation, not both: "
                             "a nonzero generator is not compact on both "
                             "sides")
        if not (_pair(self.autocorrelation)
                and callable(self.autocorrelation[0])
                and finite_number(self.autocorrelation[1])
                and self.autocorrelation[1] > 0):
            raise ValueError("an autocorrelation is a pair (A, half_width) "
                             "of a callable A and one finite number > 0, got "
                             f"{self.autocorrelation!r}")

    def __call__(self, gamma):
        return self.fn(np.asarray(gamma, dtype=float))

    def energy_at(self, x):
        """|fn(x)|^2 as a real array, from one profile evaluation."""
        v = self.fn(x)
        if np.iscomplexobj(v):
            return v.real * v.real + v.imag * v.imag
        return v * v


def _pair(x) -> bool:
    return isinstance(x, (tuple, list)) and len(x) == 2


@dataclass(frozen=True)
class ClosedFormSymbol:
    """p in closed form: sample(gamma) on [0, 1), bounds None if undeclared."""

    sample: Callable[[np.ndarray], np.ndarray]
    bounds: tuple = (None, None)

    def ess_bounds(self) -> tuple:
        return self.bounds


@dataclass
class TranslateSystem:
    """Translates of one generator along the lattice step * Z.

    symbol declares p once in the weight protocol: sample(gamma) on [0, 1),
    ess_bounds() (None for a bound the grid judges), optional value_ladder().
    known_p (+ ess_inf_hint) is the benchmark's spelling, folded into symbol.
    """

    profile: FourierProfile
    step: float
    name: str = ""
    symbol: object = None
    known_p: Callable[[np.ndarray], np.ndarray] | None = None
    ess_inf_hint: float | None = None

    def __post_init__(self):
        if not (finite_number(self.step) and self.step > 0):
            raise ValueError("shift step must be positive and finite: one "
                             f"number, got {self.step!r}")
        if not self.name:
            self.name = f"translates-{self.profile.name}-a{self.step:g}"
        if self.known_p is not None:
            if self.symbol is not None:
                raise ValueError("declare p once: symbol or known_p, not both")
            self.symbol = ClosedFormSymbol(self.known_p, (self.ess_inf_hint, None))
        elif self.ess_inf_hint is not None:
            raise ValueError("ess_inf_hint needs known_p")
        if self.symbol is not None:
            if not callable(getattr(self.symbol, "sample", None)):
                raise ValueError(f"{type(self.symbol).__name__} has no sample(gamma)")
            essential_bounds(self.symbol)


def unit_indicator_profile() -> FourierProfile:
    def fn(g):
        # exp(-i pi g) sinc(g) from one sin and one cos of pi r, r = g - rint(g)
        # exact: the signs (-1)^rint(g) of sin(pi g) and cos(pi g) cancel in
        # their product, and pi r keeps its argument small; sinc(0) = 1
        g = np.asarray(g, dtype=float)
        r = np.pi * (g - np.rint(g))
        s = np.sin(r)
        sinc = np.divide(s, np.pi * g, out=np.ones_like(g), where=g != 0)
        out = np.empty(g.shape, dtype=complex)
        out.real, out.imag = np.cos(r) * sinc, -s * sinc
        return out

    # the indicator of [0, 1) overlaps its shift by t on 1 - |t|
    return FourierProfile("unit-indicator", fn, autocorrelation=(
        lambda t: np.maximum(1.0 - np.abs(t), 0.0), 1.0))


def raised_cosine_profile() -> FourierProfile:
    def fn(g):
        out = np.zeros(g.shape, dtype=float)
        inside = np.abs(g) <= 1.0
        out[inside] = np.cos(np.pi * g[inside] / 2.0) ** 2
        return out
    return FourierProfile("raised-cosine", fn, support=(-1.0, 1.0))


def raised_cosine_symbol() -> ClosedFormSymbol:
    """p at step 1: cos^4(pi g/2) + sin^4(pi g/2) = 0.75 + 0.25 cos 2 pi g."""
    return ClosedFormSymbol(lambda g: 0.75 + 0.25 * np.cos(
        2.0 * np.pi * np.asarray(g, dtype=float)), (0.5, 1.0))


def plateau_band_system(k_max: int, power: int = 1) -> TranslateSystem:
    """Single-band generator on [0, 1) whose squared profile is the stepped
    plateau weight; with step 1 the aliased energy equals the weight itself,
    bounded below by 1 and climbing the k^(power k) ladder, so the weight is
    the system's symbol."""
    w = plateau_weight(k_max, power)

    def fn(g):
        out = np.zeros(g.shape, dtype=float)
        inside = (g >= 0.0) & (g < 1.0)
        out[inside] = np.sqrt(w.sample(g[inside]))
        return out

    profile = FourierProfile(f"plateau-band-k{k_max}", fn, support=(0.0, 1.0))
    return TranslateSystem(profile, 1.0, name=f"plateau-band-k{k_max}",
                           symbol=w)


# ---------------------------------------------------------------------------
# aliased sums on the unit-periodic grid


# a midpoint fit of an alias sum whose remainder, estimated from the fit one
# halving level below, is at most this fraction of its largest modulus has
# settled (successive fits of the hat's sinc^4 differ by 3.3e-16 to 6.7e-16
# once they settle)
SETTLED = 8 * np.finfo(float).eps


def _alias_blocks(term, a: float, gamma: np.ndarray, n_lo: int, n_hi: int):
    """sum over n in [n_lo, n_hi] of term((gamma+n)/a), accumulated in blocks
    of ALIAS_BLOCK rows whose sums are added in block order
    (core.pairwise_sum), on the calling thread."""
    ns = np.arange(n_lo, n_hi + 1)
    return pairwise_sum([
        term((gamma[None, :] + ns[start:start + ALIAS_BLOCK, None]) / a)
        .sum(axis=0) for start in range(0, ns.size, ALIAS_BLOCK)])


def _ring_order(rings, nodes, tol):
    """The whole r >= 1 for which a pure power tail, the terms with
    |n| + 1/2 > N summing to c N^-r, predicts both log2 ratios of successive
    ring sizes within tol; None if no r does.

    rings[i] holds the terms with nodes[i] < |n| + 1/2 <= nodes[i + 1], and
    its size is its largest modulus. Ring i then sums c (N_i^-r -
    N_{i+1}^-r); the predicted ratios are formed from q = N_i / N_{i+1} < 1,
    so no power overflows.
    """
    sizes = [float(np.max(np.abs(x))) for x in rings]
    if not all(0.0 < x < math.inf for x in sizes):
        return None
    seen = -np.diff(np.log2(sizes))     # the quotients may overflow
    q = nodes[:-1] / nodes[1:]
    # a prediction is at least 0.73 r - 1.4 in log2, so no larger r fits
    for r in range(1, int(2 * seen.max()) + 4):
        drop = np.log2(1.0 - q ** r)
        want = -r * np.log2(q[:-1]) + drop[:-1] - drop[1:]
        if np.all(np.abs(want - seen) <= tol):
            return r
    return None


def _alias_series(system: TranslateSystem, gamma: np.ndarray, tail_terms: int,
                  f_fn=None):
    """Aliased series with either exact finite range or a tail correction.

    Pairs f against the generator profile; with f_fn None (or the profile's
    own fn) the summand is the profile's real energy |phi|^2. Returns
    (values, tail_gap, extrapolated, terms), where terms is the largest |n|
    summed explicitly. Compactly supported profiles sum exactly over the few
    overlapping shifts. A self-paired profile that declares its
    autocorrelation A sums, by Poisson summation, the trigonometric
    polynomial p(gamma) = sum_k A(k a) exp(-2 pi i k gamma) over
    |k| a < half_width (A vanishes at +-half_width), exact at every step
    and whatever K; terms is then the largest |k|, and A(-t) = conj(A(t))
    folds the -k terms into twice the real part of the k terms.

    Every other decaying series works up the halving ladder K_j = K // 2^j
    from the bottom; each level adds the ring (K_{j+1}, K_j], so every term
    is evaluated once, and tail_gap is the size of the outermost ring
    summed. At each level N >= 8 the edges N/8, N/4, N/2 and N are ladder
    points. When the sizes of the rings between them fall as a tail c N^-r
    does at the midpoints N = n + 1/2 (_ring_order, within 1/N in log2),
    the combination of S_{N/8}, S_{N/4}, S_{N/2} and S_N that cancels
    c N^-r, c' N^-(r+2) and c'' N^-(r+4) is that level's fit: at midpoints
    the Euler-Maclaurin tail of a smooth summand has only even-derivative
    corrections, since the +-n pairs cancel the odd ones. That holds only
    when the summand has the same expansion at +inf and -inf; one that
    does not (a probe in |xi|, such as phi_hat / (1 + |xi|)) leaves an
    N^-(r+1) term that the fit does not cancel, and the order check must
    then send the sum on to the fallback.

    Two successive fits F_{N/2} and F_N of the same order r both leave
    c N^-(r+6), which halving N multiplies by 2^(r+6), so
    delta = (F_N - F_{N/2}) / (2^(r+6) - 1) estimates F_N's remainder. The
    sum stops at the first such level whose delta is at most SETTLED times
    max|F_N| and returns F_N + delta, so K caps the terms summed. The stop
    assumes that the clean power law the fit relies on at K already holds
    past the stop level: terms beyond it are never evaluated. The hat's
    sinc^4 stops at |n| <= 312 for K = 10^4 and at 250 for K = 1000
    (m = 1024), and runs to K at K = 100 and 200; the unit indicator's
    in-span cross brackets and its bare sinc^2 stop at 250 for K = 1000 to
    4000.
    A summand whose law changes past the stop level is summed wrongly: an
    energy sinc^4 for |xi| < 300 and sinc^2 beyond stops at 250 for
    K = 1000 and misses the sinc^2 tail. When no level settles, the fit at
    K is returned. Without one, and always for K < 8 (S_{K/2} and the ring
    (K/2, K]), the ring (K, 2K] is added too; when S_K and S_2K disagree
    and the two outer rings shrink by a near-whole power 2^r, r >= 1,
    combining S_K and S_2K removes a K^-r tail (Richardson), else the plain
    S_2K is returned.
    extrapolated says whether a tail was added or cancelled.
    """
    k = whole_number(tail_terms, 1, "tail_terms must be a whole number >= 1")
    a = system.step
    profile = system.profile
    phi = profile.fn
    self_paired = f_fn is None or f_fn is phi

    def checked(fn, name, arg, per="frequency"):
        v = np.asarray(fn(arg))
        if v.shape != arg.shape or not np.isfinite(v).all():
            raise ValueError(f"{name} must return one finite value per {per}")
        return v

    def term(arg):
        if self_paired:
            return checked(profile.energy_at, "the generator profile", arg)
        # v stays named: numpy writes a product over an unnamed left operand
        # in place, and its in-place complex multiply rounds differently
        v = checked(f_fn, "f_hat", arg)
        return v * np.conj(checked(phi, "the generator profile", arg))
    if profile.support is not None:
        lo, hi = profile.support
        n_lo = int(np.floor(a * lo)) - 1
        n_hi = int(np.ceil(a * hi)) + 1
        vals = _alias_blocks(term, a, gamma, n_lo, n_hi)
        return vals / a, 0.0, False, max(-n_lo, n_hi)
    if self_paired and profile.autocorrelation is not None:
        acf, width = profile.autocorrelation
        ks = np.arange(max(math.ceil(width / a), 1))
        coef = checked(acf, "the autocorrelation", ks * a, "node k a") \
            * np.where(ks > 0, 2.0, 1.0)

        def waves(start):
            rows = slice(start, start + ALIAS_BLOCK)
            turns = np.multiply.outer(ks[rows], gamma)
            turns -= np.rint(turns)     # exact, and keeps each phase small
            return (coef[rows, None] * np.exp(-2j * np.pi * turns)).real.sum(0)
        vals = pairwise_sum(map(waves, range(0, ks.size, ALIAS_BLOCK)))
        return vals, 0.0, False, int(ks[-1])

    def ring(lo, hi):
        """The terms lo <= |n| <= hi."""
        return _alias_blocks(term, a, gamma, lo, hi) \
            + _alias_blocks(term, a, gamma, -hi, -lo)

    ladder = [k]
    while ladder[-1] > 0:
        ladder.append(ladder[-1] // 2)
    # below K = 8 there is no fit: S_{K/2} and the ring (K/2, K] alone
    ladder = ladder[1::-1] if k < 8 else ladder[::-1]
    sums = [_alias_blocks(term, a, gamma, -ladder[0], ladder[0])]
    rings, fit = [None], None
    for i, n in enumerate(ladder[1:], start=1):
        rings.append(ring(ladder[i - 1] + 1, n))
        sums.append(sums[-1] + rings[-1])
        gap = float(np.max(np.abs(rings[-1])))
        if n < 8:
            continue
        nodes = np.array(ladder[i - 3:i + 1]) + 0.5
        r = _ring_order(rings[i - 2:], nodes, 1.0 / n)
        if r is None:
            fit = None
            continue
        # S_M = S - c N^-r - c' N^-(r+2) - c'' N^-(r+4) at N = M + 1/2,
        # solved for S
        t = nodes / nodes[-1]
        w = np.linalg.solve([np.ones(4), t ** -r, t ** -(r + 2.0),
                             t ** -(r + 4.0)], [1.0, 0.0, 0.0, 0.0])
        vals = sum(wj * sj for wj, sj in zip(w, sums[i - 3:i + 1]))
        if fit is not None and fit[0] == r:
            # both fits leave c N^-(r+6), which halving N multiplies by
            # 2^(r+6): delta estimates this level's remainder
            delta = (vals - fit[1]) / (2.0 ** (r + 6) - 1.0)
            if np.max(np.abs(delta)) <= SETTLED * np.max(np.abs(vals)):
                return (vals + delta) / a, gap / a, True, n
        fit = (r, vals)
    if fit is not None:
        return fit[1] / a, gap / a, True, k
    s_k, prev = sums[-1], gap
    ring_2k = ring(k + 1, 2 * k)
    s_2k = s_k + ring_2k
    gap = float(np.max(np.abs(ring_2k)))
    scale = float(np.max(np.abs(s_2k))) + np.finfo(float).tiny
    if gap > 1e-14 * scale and prev > 0:
        r = math.log2(prev) - math.log2(gap)   # the quotient may overflow
        if round(r) >= 1 and abs(r - round(r)) <= 0.25:
            w = 2.0 ** round(r)
            return (w * s_2k - s_k) / (w - 1.0) / a, gap / a, True, 2 * k
    return s_2k / a, gap / a, False, 2 * k


def _lattice(m) -> np.ndarray:
    """The nodes i/m, i = 0..m-1, of the unit-periodic grid that pphi,
    bracket and the canonical dual sample on; m must be a whole number
    >= 2."""
    m = whole_number(m, 2, GRID_NODES)
    return np.arange(m) / m


@dataclass
class PphiReport:
    """Grid extrema of p, its zero fraction, and the alias tail's health.

    tail_gap is the size of the last alias contribution pphi took in: the
    outermost ring summed (the ring (N/2, N] when the midpoint fit settles
    at level N <= K, the ring (K, 2K] otherwise), and 0 for the finite sums
    of a compact profile or a declared autocorrelation. extrapolated says
    whether a tail was cancelled (the three-order midpoint fit, plus its
    estimated remainder where it settled, or the one-step Richardson rule).
    terms is the largest |n| summed explicitly: the shift window of a
    compact profile, the largest |k| of a declared autocorrelation's
    coefficients, the level N where the midpoint fit's remainder estimate
    fell within SETTLED (K when it never did), or 2K for the one-step rule.
    """

    ess_inf: float
    ess_sup: float
    zero_fraction: float
    tail_gap: float
    extrapolated: bool
    terms: int


def pphi(system: TranslateSystem, m: int = DEFAULT_GRID,
         tail_terms: int = DEFAULT_TAIL):
    """Sample the aliased energy p on the grid i/m, i = 0..m-1.

    Returns (GridFunction, PphiReport). ess bounds are grid extrema over the
    nonzero set; the zero set is cut at ZERO_MASK_RATIO times the sup.
    A profile that declares its autocorrelation A gets p exactly from the
    coefficients A(k a). tail_terms K caps the explicit alias terms of any
    other decaying profile: the sum stops at the first halving level
    K // 2^j where the difference from the level below it, scaled to the
    midpoint fit's next order, puts the fit's remainder within SETTLED, and
    adds that remainder (_alias_series); this assumes that its clean power
    law holds past that level. The hat's sinc^4 at m = 1024 stops at
    |n| <= 250 for K = 1000 and at 312 for K = 10^4, and a bare sinc^2 at
    250 for K = 1000 to 4000. PphiReport.terms says how far the sum went.
    The generator profile must return one finite value per frequency it is
    given, and A one finite value per node k a.
    """
    gamma = _lattice(m)
    vals, gap, extr, terms = _alias_series(system, gamma, tail_terms)
    p = np.real(vals)
    sup = float(p.max())
    tau = ZERO_MASK_RATIO * sup
    live = p > tau
    inf_live = float(p[live].min()) if live.any() else 0.0
    report = PphiReport(inf_live, sup, 1.0 - live.mean(), gap, extr, terms)
    return periodic_grid(p), report


def bracket(system: TranslateSystem, f_hat: Callable, m: int = DEFAULT_GRID,
            tail_terms: int = DEFAULT_TAIL) -> GridFunction:
    """Aliased cross-energy of f against the generator on the grid i/m.

    Shares the alias kernel and tail handling with pphi, so feeding the
    generator's own profile reproduces the pphi values exactly. A decaying
    cross pairing sums at most |n| <= K and cancels its tail's three
    leading orders when the rings show a clean power law (the unit
    indicator at a = 1 does), stopping below K once the remainder that two
    successive halving levels' fits estimate is within SETTLED, and adding
    it, on the assumption that the power law holds past that level (the
    unit indicator's in-span brackets at K = 1000 to 4000 stop at
    |n| <= 250); otherwise it sums |n| <= 2K for one Richardson step.
    f_hat must return one finite value per frequency it is given.
    """
    gamma = _lattice(m)
    vals = _alias_series(system, gamma, tail_terms, f_fn=f_hat)[0]
    return periodic_grid(vals)


def analysis_translates(system: TranslateSystem, f_hat: Callable,
                        m: int = DEFAULT_GRID, tail_terms: int = DEFAULT_TAIL
                        ) -> np.ndarray:
    """Coefficients <f, phi(. - n a)> for n on the residue ring Z / m, at
    index n mod m, as Fourier coefficients of the aliased cross-energy.

    Exact for f whose bracket is a trigonometric polynomial of degree below
    m/2; otherwise accurate to the bracket's aliasing error.
    """
    b = bracket(system, f_hat, m, tail_terms)
    return np.fft.ifft(b.values)


def modulation_sum(coeffs: np.ndarray, line_indices: np.ndarray) -> np.ndarray:
    """sum_n c_n exp(-2 pi i n a xi) on lattice nodes xi with a*xi = j/m,
    for the m coefficients c_n at index n mod m."""
    return np.fft.fft(coeffs)[np.mod(line_indices, coeffs.size)]


def line_window(system: TranslateSystem, m: int, cover: float) -> np.ndarray:
    """Symmetric line-lattice nodes with step 1/(a m) covering [-cover, cover]."""
    m = whole_number(m, 2, GRID_NODES)
    if not (np.isfinite(cover) and cover > 0):
        raise ValueError(f"cover must be finite and > 0, got {cover!r}")
    h = 1.0 / (system.step * m)
    j = int(np.ceil(cover / h))
    return np.arange(-j, j + 1) * h


def _line_pairing(system: TranslateSystem, f_hat_grid: GridFunction) -> tuple:
    """(h, m, phi_hat, f_hat conj(phi_hat)) on a line grid of step h = 1/(a m):
    what both operator routes act on, with the lattice count m."""
    if f_hat_grid.kind != "line":
        raise ValueError(LINE_GRID)
    h = f_hat_grid.step
    m = whole_count(1.0 / (system.step * h), LATTICE_STEP)
    phi_vals = system.profile(f_hat_grid.nodes())
    return h, m, phi_vals, f_hat_grid.values * np.conj(phi_vals)


def walnut_apply(system: TranslateSystem, f_hat_grid: GridFunction) -> GridFunction:
    """Frame-type operator through the folded cross-energy.

    The transform of S f is phi_hat(xi) times the aliased bracket at a*xi;
    on a lattice with a*step*m = 1 the bracket values are the residue fold
    of f_hat * conj(phi_hat), so no interpolation happens anywhere.
    """
    h, m, phi_vals, w = _line_pairing(system, f_hat_grid)
    a = system.step
    folded = periodize(line_grid(w, h), 1.0 / a,
                       covering_shifts(f_hat_grid, 1.0 / a))
    j = f_hat_grid.index0 + np.arange(f_hat_grid.size)
    bracket_vals = folded.values[np.mod(j, m)] / a
    return line_grid(phi_vals * bracket_vals, h)


def brute_apply(system: TranslateSystem, f_hat_grid: GridFunction,
                n_max: int) -> GridFunction:
    """Same operator by explicit coefficient quadrature and modulation sum,
    truncated at shifts |n| <= n_max. Slow by design (cross-check route):
    every shift meets every line node, with no fold by residue and no FFT."""
    h, m, phi_vals, w = _line_pairing(system, f_hat_grid)
    n_max = whole_number(n_max, 0, "n_max must be a whole number >= 0")
    synth = h * modulation_round_trip(f_hat_grid.index0, f_hat_grid.size,
                                      np.arange(-n_max, n_max + 1), m, w)
    return line_grid(phi_vals * synth, h)


def _sampled_p(system: TranslateSystem, m: int, tail_terms: int) -> np.ndarray:
    """p on the grid i/m: from the system's symbol when it declares one, from
    pphi otherwise. A symbol must give one finite, non-negative value per
    node."""
    if system.symbol is None:
        return pphi(system, m, tail_terms)[0].values
    gamma = _lattice(m)
    p = np.asarray(system.symbol.sample(gamma), dtype=float)
    if p.shape != gamma.shape or not (np.isfinite(p) & (p >= 0)).all():
        raise ValueError(f"{type(system.symbol).__name__} must sample p as "
                         "one finite, non-negative value per node")
    return p


def canonical_dual_translates(system: TranslateSystem, m: int = DEFAULT_GRID,
                              tail_terms: int = DEFAULT_TAIL) -> TranslateSystem:
    """Dual generator: divide the profile by the aliased energy on its support.

    p is sampled once on the grid i/m, from the system's symbol when it
    declares one and from pphi otherwise. Evaluation is exact-lattice only:
    the dual profile accepts nodes xi with a*xi on the grid 1/m Z and
    refuses anything else, because interpolating p would silently break
    reconstruction accuracy.
    """
    a = system.step
    p = _sampled_p(system, m, tail_terms)
    tau = ZERO_MASK_RATIO * float(p.max())

    def p_at(g):
        idx = np.asarray(g, dtype=float) * p.size
        snapped = np.rint(idx)
        if np.max(np.abs(idx - snapped), initial=0.0) > 1e-6:
            raise ValueError("dual profile sampled off the p-lattice")
        return p[np.mod(snapped.astype(int), p.size)]

    def dual_fn(xi):
        xi = np.asarray(xi, dtype=float)
        pv = p_at(a * xi)
        phi = system.profile(xi)
        out = np.zeros_like(phi, dtype=complex)
        live = pv > tau
        out[live] = phi[live] / pv[live]
        return out

    prof = FourierProfile(system.profile.name + "-dual", dual_fn,
                          support=system.profile.support)
    return TranslateSystem(prof, a, name=system.name + "-dual")


@dataclass
class TranslateReconstruction:
    rel_error: float
    coeffs: np.ndarray          # <f, phi(. - n a)> at index n mod m


def reconstruct_translates(system: TranslateSystem, f_hat: Callable,
                           m: int = DEFAULT_GRID, cover: float | None = None,
                           tail_terms: int = DEFAULT_TAIL) -> TranslateReconstruction:
    """Analyze f against the translates and resynthesize through the
    canonical dual; the error is relative l2 over the line window. A probe
    that vanishes on the window is refused before any alias sum."""
    if cover is None:
        if system.profile.support is None:
            raise ValueError("give a window for profiles without support")
        cover = max(abs(system.profile.support[0]),
                    abs(system.profile.support[1]))
    nodes = line_window(system, m, cover)
    ref = np.asarray(f_hat(nodes), dtype=complex)
    denom = np.linalg.norm(ref)
    if denom == 0:
        raise ValueError("zero probe")
    dual = canonical_dual_translates(system, m, tail_terms)
    coeffs = analysis_translates(system, f_hat, m, tail_terms)
    j = np.rint(nodes * system.step * m).astype(int)
    rec = dual.profile(nodes) * modulation_sum(coeffs, j)
    return TranslateReconstruction(
        float(np.linalg.norm(rec - ref) / denom), coeffs)


# ---------------------------------------------------------------------------
# classification


def _grid_lower(p_top: np.ndarray) -> tuple:
    """Lower verdict of a system whose symbol declares no lower bound, off
    p_top, p on the finest grid of GRID_LADDER. The grids are nested
    dyadic, so the grid of size m is the stride p_top[::GRID_LADDER[-1] // m].

    On each grid the live minimum of p is its smallest value above
    LIVE_RATIO times its sup; tail_diagnostic on the ladder of 1/min reads
    Divergent for No (p vanishes where the grids close in), Convergent for
    Yes and Inconclusive for Undecided. A finest minimum next to a node
    where p vanishes reads Undecided as well: a grid cannot tell a jump of
    p to zero from a continuous zero whose nodes stop closing in. An alias
    sum on a coarser grid of its own could stop at another level (its stop
    rule reads maxima over the grid); the strides read the finest grid's
    one decision. No scenario, CLI path or test shows the two differ.
    """
    mins = []
    for m in GRID_LADDER:
        p = p_top[::GRID_LADDER[-1] // m]
        live = p > LIVE_RATIO * p.max()
        if not live.any():
            return UNDECIDED, {"grid_min": mins}
        at = np.flatnonzero(live)[np.argmin(p[live])]
        mins.append(float(p[at]))
    ladder = tail_diagnostic([1.0 / v for v in mins], GRID_LADDER)
    verdict = {DIVERGENT: NO, CONVERGENT: YES}.get(ladder.kind, UNDECIDED)
    at_edge = not (live[at - 1] and live[(at + 1) % live.size])
    if verdict == YES and at_edge:
        verdict = UNDECIDED
    return verdict, {"bound": mins[-1], "grid_min": mins,
                     "ladder": ladder.kind, "exponent": ladder.growth_exponent,
                     "at_zero_edge": at_edge}


def classify_translates(system: TranslateSystem, m: int = DEFAULT_GRID,
                        tail_terms: int = DEFAULT_TAIL) -> Classification:
    """Classify the translate family relative to the closure of its span.

    All span-relative verdicts read off the aliased energy: bounded above
    means Bessel, bounded away from zero on its support means the lower
    inequality holds on the span closure, both together mean frame for the
    span, identically 1 means the translates are orthonormal there. Bessel
    and lower come from core.bound_verdicts on the symbol's bounds. Where
    no symbol declares the sup, the grid's counts when a grid half as fine
    agrees; where none declares the inf, _grid_lower judges p's minimum on
    a ladder of grids, strides of one p on its finest grid: this call's own
    p when no symbol declares p and m is that grid, one _sampled_p else.
    Whole-line completeness is reported as a side note: a vanishing stretch
    of p or a compactly supported profile already rules it out.
    """
    p_grid, rep = pphi(system, m, tail_terms)
    inf, sup = (None, None) if system.symbol is None \
        else essential_bounds(system.symbol)
    grid_sup = sup is None
    if grid_sup and rep.ess_sup <= 1.02 * float(p_grid.values[::2].max()):
        sup = rep.ess_sup
    props = dict(zip(("bessel", "lower_for_span"),
                     bound_verdicts(inf, sup, system.symbol)))
    if grid_sup:
        props["bessel"][1].update(bound=rep.ess_sup, tail_gap=rep.tail_gap,
                                  terms=rep.terms)
    if inf is None:
        top = GRID_LADDER[-1]
        p_top = p_grid.values if system.symbol is None and m == top \
            else _sampled_p(system, top, tail_terms)
        props["lower_for_span"] = _grid_lower(p_top)

    props["frame_for_span"] = (
        frame_verdict(props["bessel"][0], props["lower_for_span"][0]),
        {"from": ("bessel", "lower_for_span")})

    ortho_gap = float(np.abs(p_grid.values - 1.0).max())
    props["orthonormal_for_span"] = (
        YES if ortho_gap <= ORTHO_TOL else NO, {"max_gap_to_one": ortho_gap})

    if rep.zero_fraction > 0 or system.profile.support is not None:
        props["complete_whole_line"] = (
            NO, {"zero_fraction": rep.zero_fraction,
                 "compact_support": system.profile.support is not None})
    else:
        props["complete_whole_line"] = (UNDECIDED, {})

    return Classification(system.name, "closed-span", props)
