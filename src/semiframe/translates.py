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
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    CONVERGENT, DIVERGENT, NO, UNDECIDED, YES, Classification, GridFunction,
    bound_verdicts, covering_shifts, essential_bounds, frame_verdict,
    line_grid, modulation_round_trip, pairwise_sum, periodic_grid, periodize,
    tail_diagnostic, whole_count, whole_number,
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
    when it only decays. energy optionally gives |fn|^2 directly, so the
    self-paired alias sums skip phases that cancel. tail optionally declares
    (s, envelope) with energy(x) = envelope(x) |x|^-s, envelope 1-periodic:
    the alias tail then has a closed form through the Hurwitz zeta. The
    alias sums evaluate blocks on several threads, so fn and energy may be
    called from several threads at once.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple | None = None
    energy: Callable[[np.ndarray], np.ndarray] | None = None
    tail: tuple | None = None

    def __post_init__(self):
        # hurwitz_zeta divides by s - 1
        if self.tail is not None and not (np.isfinite(self.tail[0])
                                          and self.tail[0] > 1):
            raise ValueError("a declared tail exponent must be finite and "
                             "above 1")
        if self.support is not None and not (
                np.all(np.isfinite(self.support))
                and self.support[0] < self.support[1]):
            raise ValueError("a support window (lo, hi) needs lo < hi, both "
                             f"finite, got {self.support}")

    def __call__(self, gamma):
        return self.fn(np.asarray(gamma, dtype=float))

    def energy_at(self, x):
        """|fn(x)|^2 as a real array, from one profile evaluation."""
        if self.energy is not None:
            return self.energy(x)
        v = self.fn(x)
        if np.iscomplexobj(v):
            return v.real * v.real + v.imag * v.imag
        return v * v


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
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError("shift step must be positive and finite")
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

    def energy(g):
        return np.sinc(g) ** 2

    def envelope(g):
        return np.sin(np.pi * g) ** 2 / np.pi ** 2

    return FourierProfile("unit-indicator", fn, support=None,
                          energy=energy, tail=(2, envelope))


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


# Bernoulli numbers B_2, B_4, ..., B_12 of the Euler-Maclaurin remainder
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
HURWITZ_DIRECT = 10
# explicit alias terms |n| <= K ahead of a closed tail: on the unit
# indicator max|p - 1| is 4.4e-16 at K = 10 (m = 256, 1024; 6.7e-16 at
# m = 16384) against 1.6e-15 to 1.9e-15 at K = 10^4
CLOSED_TAIL_TERMS = 10


def hurwitz_zeta(s: float, q) -> np.ndarray:
    """zeta(s, q) = sum_{k >= 0} (q + k)^-s for s > 1, q > 0, vectorized in q.

    The first HURWITZ_DIRECT terms are summed directly; the rest is the
    Euler-Maclaurin integral, endpoint and Bernoulli terms at
    x = q + HURWITZ_DIRECT >= 10, where the first omitted term is below
    1e-16 relative for the exponents the profiles declare.
    """
    q = np.asarray(q, dtype=float)
    x = q + HURWITZ_DIRECT
    total = sum((q + k) ** -s for k in range(HURWITZ_DIRECT))
    total = total + x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** -s
    # j-th correction: B_2j / (2j)! * s (s+1) ... (s+2j-2) * x^(-s-2j+1)
    coef, power = s / 2.0, x ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI, start=1):
        total = total + b * coef * power
        coef *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2))
        power = power / (x * x)
    return total


# one alias-block worker per CPU this process may run on, at most
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# bytes of block arguments held by all workers at once; each worker keeps a
# few arrays of its argument's size alive (37.5 MB for the hat profile at
# m = 2^14), so this caps the extra peak memory of one alias sum whatever
# the CPU count: two workers at m = 2^14, one from m = 2^15 on
ALIAS_MEMORY = 2 ** 24


def _alias_blocks(term, a: float, gamma: np.ndarray, n_lo: int, n_hi: int):
    """sum over n in [n_lo, n_hi] of term((gamma+n)/a), accumulated in blocks
    whose sums are added in block order (core.pairwise_sum).

    Blocks are independent, so they run on one thread per CPU, as far as
    ALIAS_MEMORY allows; their sums are reduced in block order, which keeps
    every value bit-identical to a serial run.
    """
    ns = np.arange(n_lo, n_hi + 1)

    def block_sum(start):
        arg = (gamma[None, :] + ns[start:start + ALIAS_BLOCK, None]) / a
        return term(arg).sum(axis=0)

    starts = range(0, ns.size, ALIAS_BLOCK)
    workers = min(_WORKERS, len(starts),
                  max(1, ALIAS_MEMORY // (ALIAS_BLOCK * gamma.nbytes)))
    if workers == 1:
        return pairwise_sum([block_sum(start) for start in starts])
    # imported on first use: it would add about 9 ms to `import semiframe`
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return pairwise_sum(list(pool.map(block_sum, starts)))


def _closed_tail_ok(profile: FourierProfile, a: float) -> bool:
    """The tail model is periodic along the alias terms only when 1/a is an
    integer: envelope((gamma + n)/a) then equals envelope(gamma/a)."""
    inv = 1.0 / a
    return profile.tail is not None and abs(inv - round(inv)) <= 1e-12 * inv


def _alias_series(system: TranslateSystem, gamma: np.ndarray, tail_terms: int,
                  f_fn=None):
    """Aliased series with either exact finite range or a tail correction.

    Pairs f against the generator profile; with f_fn None (or the profile's
    own fn) the summand is the profile's real energy |phi|^2. Returns
    (values, tail_gap, extrapolated). Compactly supported profiles sum
    exactly over the few overlapping shifts. A self-paired profile with a
    declared tail model and 1/a an integer sums |n| <= min(K,
    CLOSED_TAIL_TERMS) and adds the tail in closed form from there; tail_gap
    is that correction's size. Every other decaying series is summed to K
    and 2K terms, with S_K split as S_{K/2} plus its ring. When S_K and
    S_2K disagree and the two rings shrink by a near-whole power 2^r,
    r >= 1, combining S_K and S_2K removes a K^-r tail (Richardson);
    otherwise the plain S_2K is returned.
    """
    tail_terms = whole_number(tail_terms, 1,
                              "tail_terms must be a whole number >= 1")
    a = system.step
    profile = system.profile
    phi = profile.fn
    self_paired = f_fn is None or f_fn is phi
    if self_paired:
        term = profile.energy_at
    else:
        def term(arg):
            return f_fn(arg) * np.conj(phi(arg))
    if profile.support is not None:
        lo, hi = profile.support
        n_lo = int(np.floor(a * lo)) - 1
        n_hi = int(np.ceil(a * hi)) + 1
        vals = _alias_blocks(term, a, gamma, n_lo, n_hi)
        return vals / a, 0.0, False
    closed = self_paired and _closed_tail_ok(profile, a)
    k = min(tail_terms, CLOSED_TAIL_TERMS) if closed else tail_terms
    if closed:
        s, envelope = profile.tail
        tail = envelope(gamma / a) * a ** s * (
            hurwitz_zeta(s, k + 1 + gamma) + hurwitz_zeta(s, k + 1 - gamma))
        s_k = _alias_blocks(term, a, gamma, -k, k)
        return (s_k + tail) / a, float(np.max(np.abs(tail))) / a, True

    def ring(lo, hi):
        """The terms lo <= |n| <= hi."""
        return _alias_blocks(term, a, gamma, lo, hi) \
            + _alias_blocks(term, a, gamma, -hi, -lo)

    h = k // 2
    s_h = _alias_blocks(term, a, gamma, -h, h)
    ring_k, ring_2k = ring(h + 1, k), ring(k + 1, 2 * k)
    s_k = s_h + ring_k
    s_2k = s_k + ring_2k
    gap = float(np.max(np.abs(ring_2k)))
    scale = float(np.max(np.abs(s_2k))) + np.finfo(float).tiny
    prev = float(np.max(np.abs(ring_k)))
    if gap > 1e-14 * scale and prev > 0:
        r = math.log2(prev) - math.log2(gap)   # the quotient may overflow
        if round(r) >= 1 and abs(r - round(r)) <= 0.25:
            w = 2.0 ** round(r)
            return (w * s_2k - s_k) / (w - 1.0) / a, gap / a, True
    return s_2k / a, gap / a, False


def _lattice(m) -> np.ndarray:
    """The nodes i/m, i = 0..m-1, of the unit-periodic grid that pphi,
    bracket and the canonical dual sample on; m must be a whole number
    >= 2."""
    m = whole_number(m, 2, GRID_NODES)
    return np.arange(m) / m


@dataclass
class PphiReport:
    ess_inf: float
    ess_sup: float
    zero_fraction: float
    tail_gap: float
    extrapolated: bool


def pphi(system: TranslateSystem, m: int = DEFAULT_GRID,
         tail_terms: int = DEFAULT_TAIL):
    """Sample the aliased energy p on the grid i/m, i = 0..m-1.

    Returns (GridFunction, PphiReport). ess bounds are grid extrema over the
    nonzero set; the zero set is cut at ZERO_MASK_RATIO times the sup.
    """
    gamma = _lattice(m)
    vals, gap, extr = _alias_series(system, gamma, tail_terms)
    p = np.real(vals)
    sup = float(p.max())
    tau = ZERO_MASK_RATIO * sup
    live = p > tau
    inf_live = float(p[live].min()) if live.any() else 0.0
    report = PphiReport(inf_live, sup, 1.0 - live.mean(), gap, extr)
    return periodic_grid(p), report


def bracket(system: TranslateSystem, f_hat: Callable, m: int = DEFAULT_GRID,
            tail_terms: int = DEFAULT_TAIL) -> GridFunction:
    """Aliased cross-energy of f against the generator on the grid i/m.

    Shares the alias kernel and tail handling with pphi, so feeding the
    generator's own profile reproduces the pphi values exactly.
    """
    gamma = _lattice(m)
    vals, _, _ = _alias_series(system, gamma, tail_terms, f_fn=f_hat)
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
    pphi otherwise."""
    if system.symbol is not None:
        return np.asarray(system.symbol.sample(_lattice(m)), dtype=float)
    return pphi(system, m, tail_terms)[0].values


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


def _grid_lower(system: TranslateSystem, tail_terms: int) -> tuple:
    """Lower verdict of a system whose symbol declares no lower bound.

    On each grid of GRID_LADDER the live minimum of p is its smallest value
    above LIVE_RATIO times its sup; tail_diagnostic on the ladder of 1/min
    reads Divergent for No (p vanishes where the grids close in), Convergent
    for Yes and Inconclusive for Undecided. A finest minimum next to a node
    where p vanishes reads Undecided as well: a grid cannot tell a jump of
    p to zero from a continuous zero whose nodes stop closing in.
    """
    mins = []
    for m in GRID_LADDER:
        p = _sampled_p(system, m, tail_terms)
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
    a ladder of grids.
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
        props["bessel"][1].update(bound=rep.ess_sup, tail_gap=rep.tail_gap)
    if inf is None:
        props["lower_for_span"] = _grid_lower(system, tail_terms)

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
