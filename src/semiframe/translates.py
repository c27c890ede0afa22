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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    NO, UNDECIDED, YES, GridFunction, covering_shifts, frame_verdict,
    line_grid, pairwise_sum, periodize, tail_diagnostic, whole_count,
)
from .muckenhoupt import plateau_weight

DEFAULT_GRID = 2 ** 14
DEFAULT_TAIL = 10_000
ZERO_MASK_RATIO = 1e-8          # p below this fraction of its sup counts as zero
ALIAS_BLOCK = 64
ORTHO_TOL = 1e-6
LATTICE_STEP = "grid step must subdivide the dual period 1/a"


@dataclass
class FourierProfile:
    """A generator's Fourier transform as a vectorized callable.

    support is a (lo, hi) window outside which the profile vanishes, or None
    when it only decays. energy optionally gives |fn|^2 directly, so the
    self-paired alias sums skip phases that cancel. tail optionally declares
    (s, envelope) with energy(x) = envelope(x) |x|^-s, envelope 1-periodic:
    the alias tail then has a closed form through the Hurwitz zeta.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple | None = None
    descriptor: dict = None
    energy: Callable[[np.ndarray], np.ndarray] | None = None
    tail: tuple | None = None

    def __post_init__(self):
        if self.descriptor is None:
            self.descriptor = {"profile": self.name}

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


@dataclass
class TranslateSystem:
    """Translates of one generator along the lattice step * Z.

    known_p: exact periodic aliased energy, when the profile admits one.
    sup_ladder: (label, ess-sup) pairs whose growth witnesses unboundedness
    of p for profiles built from stepped weights; measured grid suprema
    cannot see plateaus narrower than the grid.
    """

    profile: FourierProfile
    step: float
    name: str = ""
    known_p: Callable[[np.ndarray], np.ndarray] | None = None
    sup_ladder: list | None = None
    ess_inf_hint: float | None = None

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("shift step must be positive")
        if not self.name:
            self.name = f"translates-{self.profile.name}-a{self.step:g}"


def unit_indicator_profile() -> FourierProfile:
    def fn(g):
        return np.exp(-1j * np.pi * g) * np.sinc(g)

    def energy(g):
        return np.sinc(g) ** 2

    def envelope(g):
        return np.sin(np.pi * g) ** 2 / np.pi ** 2

    return FourierProfile("unit-indicator", fn, support=None,
                          descriptor={"profile": "unit-indicator"},
                          energy=energy, tail=(2, envelope))


def raised_cosine_profile() -> FourierProfile:
    def fn(g):
        out = np.zeros(g.shape, dtype=float)
        inside = np.abs(g) <= 1.0
        out[inside] = np.cos(np.pi * g[inside] / 2.0) ** 2
        return out
    return FourierProfile("raised-cosine", fn, support=(-1.0, 1.0),
                          descriptor={"profile": "raised-cosine"})


def plateau_band_system(k_max: int, power: int = 1) -> TranslateSystem:
    """Single-band generator on [0, 1) whose squared profile is the stepped
    plateau weight; with step 1 the aliased energy equals the weight itself,
    bounded below by 1 and climbing the k^(power k) ladder."""
    w = plateau_weight(k_max, power)

    def fn(g):
        out = np.zeros(g.shape, dtype=float)
        inside = (g >= 0.0) & (g < 1.0)
        out[inside] = np.sqrt(w.sample(g[inside]))
        return out

    profile = FourierProfile(f"plateau-band-k{k_max}", fn, support=(0.0, 1.0),
                             descriptor={"profile": "plateau-band",
                                         "k_max": k_max, "power": power})
    ladder = [(k, float(k ** (power * k))) for k in range(2, k_max + 1)]
    return TranslateSystem(
        profile, 1.0, name=f"plateau-band-k{k_max}",
        known_p=lambda g: w.sample(np.mod(np.asarray(g, dtype=float), 1.0)),
        sup_ladder=ladder, ess_inf_hint=1.0)


# ---------------------------------------------------------------------------
# aliased sums on the unit-periodic grid


# Bernoulli numbers B_2, B_4, ..., B_12 of the Euler-Maclaurin remainder
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
HURWITZ_DIRECT = 10


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


def _alias_blocks(term, a: float, gamma: np.ndarray, n_lo: int, n_hi: int):
    """sum over n in [n_lo, n_hi] of term((gamma+n)/a), accumulated in blocks
    with a deterministic pairwise reduction."""
    ns = np.arange(n_lo, n_hi + 1)
    parts = []
    for start in range(0, ns.size, ALIAS_BLOCK):
        blk = ns[start:start + ALIAS_BLOCK]
        arg = (gamma[None, :] + blk[:, None]) / a
        parts.append(term(arg).sum(axis=0))
    return pairwise_sum(parts)


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
    declared tail model and 1/a an integer sums |n| <= K and adds the tail
    in closed form; tail_gap is that correction's size. Every other decaying
    series is summed to K and 2K terms; when the two disagree, combining
    them removes a 1/K tail model.
    """
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
    k = int(tail_terms)
    s_k = _alias_blocks(term, a, gamma, -k, k)
    if self_paired and _closed_tail_ok(profile, a):
        s, envelope = profile.tail
        tail = envelope(gamma / a) * a ** s * (
            hurwitz_zeta(s, k + 1 + gamma) + hurwitz_zeta(s, k + 1 - gamma))
        return (s_k + tail) / a, float(np.max(np.abs(tail))) / a, True
    extra = _alias_blocks(term, a, gamma, k + 1, 2 * k) \
        + _alias_blocks(term, a, gamma, -2 * k, -k - 1)
    s_2k = s_k + extra
    gap = float(np.max(np.abs(extra)))
    scale = float(np.max(np.abs(s_2k))) + np.finfo(float).tiny
    if gap > 1e-14 * scale:
        return (2.0 * s_2k - s_k) / a, gap / a, True
    return s_2k / a, gap / a, False


@dataclass
class PphiReport:
    ess_inf: float
    ess_sup: float
    zero_fraction: float
    tail_gap: float
    extrapolated: bool
    grid_size: int


def pphi(system: TranslateSystem, m: int = DEFAULT_GRID,
         tail_terms: int = DEFAULT_TAIL):
    """Sample the aliased energy p on the grid i/m, i = 0..m-1.

    Returns (GridFunction, PphiReport). ess bounds are grid extrema over the
    nonzero set; the zero set is cut at ZERO_MASK_RATIO times the sup.
    """
    gamma = np.arange(m) / m
    vals, gap, extr = _alias_series(system, gamma, tail_terms)
    p = np.real(vals)
    sup = float(p.max())
    tau = ZERO_MASK_RATIO * sup
    live = p > tau
    inf_live = float(p[live].min()) if live.any() else 0.0
    report = PphiReport(inf_live, sup, 1.0 - live.mean(), gap, extr, m)
    grid = GridFunction(p, 1.0 / m, "periodic")
    return grid, report


def bracket(system: TranslateSystem, f_hat: Callable, m: int = DEFAULT_GRID,
            tail_terms: int = DEFAULT_TAIL) -> GridFunction:
    """Aliased cross-energy of f against the generator on the grid i/m.

    Shares the alias kernel and tail handling with pphi, so feeding the
    generator's own profile reproduces the pphi values exactly.
    """
    gamma = np.arange(m) / m
    vals, _, _ = _alias_series(system, gamma, tail_terms, f_fn=f_hat)
    return GridFunction(vals, 1.0 / m, "periodic")


@dataclass
class TranslateCoefficients:
    """Analysis coefficients <f, phi(. - n a)> for n on the residue ring."""

    values: np.ndarray

    @property
    def size(self) -> int:
        return self.values.size

    def shift(self, n: int) -> complex:
        if abs(n) > self.size // 2:
            raise ValueError("shift index outside the resolved band")
        return complex(self.values[n % self.size])

    def band(self, n_max: int) -> tuple:
        ns = np.arange(-n_max, n_max + 1)
        return ns, np.array([self.shift(int(n)) for n in ns])


def analysis_translates(system: TranslateSystem, f_hat: Callable,
                        m: int = DEFAULT_GRID, tail_terms: int = DEFAULT_TAIL
                        ) -> TranslateCoefficients:
    """Coefficients as Fourier coefficients of the aliased cross-energy.

    Exact for f whose bracket is a trigonometric polynomial of degree below
    m/2; otherwise accurate to the bracket's aliasing error.
    """
    b = bracket(system, f_hat, m, tail_terms)
    return TranslateCoefficients(np.fft.ifft(b.values))


def modulation_sum(coeffs: TranslateCoefficients, line_indices: np.ndarray
                   ) -> np.ndarray:
    """sum_n c_n exp(-2 pi i n a xi) on lattice nodes xi with a*xi = j/m."""
    spectrum = np.fft.fft(coeffs.values)
    return spectrum[np.mod(line_indices, coeffs.size)]


def line_window(system: TranslateSystem, m: int, cover: float) -> np.ndarray:
    """Symmetric line-lattice nodes with step 1/(a m) covering [-cover, cover]."""
    h = 1.0 / (system.step * m)
    j = int(np.ceil(cover / h))
    return np.arange(-j, j + 1) * h


def walnut_apply(system: TranslateSystem, f_hat_grid: GridFunction) -> GridFunction:
    """Frame-type operator through the folded cross-energy.

    The transform of S f is phi_hat(xi) times the aliased bracket at a*xi;
    on a lattice with a*step*m = 1 the bracket values are the residue fold
    of f_hat * conj(phi_hat), so no interpolation happens anywhere.
    """
    if f_hat_grid.kind != "line":
        raise ValueError("expect f sampled on a symmetric line grid")
    a = system.step
    h = f_hat_grid.step
    m = whole_count(1.0 / (a * h), LATTICE_STEP)
    nodes = f_hat_grid.nodes()
    phi_vals = system.profile(nodes)
    w = f_hat_grid.values * np.conj(phi_vals)
    folded = periodize(line_grid(w, h), 1.0 / a,
                       covering_shifts(f_hat_grid, 1.0 / a))
    j = f_hat_grid.index0 + np.arange(f_hat_grid.size)
    bracket_vals = folded.values[np.mod(j, m)] / a
    return line_grid(phi_vals * bracket_vals, h)


def brute_apply(system: TranslateSystem, f_hat_grid: GridFunction,
                n_max: int) -> GridFunction:
    """Same operator by explicit coefficient quadrature and modulation sum,
    truncated at shifts |n| <= n_max. Slow by design (cross-check route)."""
    a = system.step
    h = f_hat_grid.step
    m = whole_count(1.0 / (a * h), LATTICE_STEP)
    nodes = f_hat_grid.nodes()
    phi_vals = system.profile(nodes)
    w = f_hat_grid.values * np.conj(phi_vals)
    j = f_hat_grid.index0 + np.arange(f_hat_grid.size)
    ns = np.arange(-n_max, n_max + 1)
    # exp(2 pi i n j / m) read off the m-th roots of unity at (n j) mod m
    idx = np.multiply.outer(ns, j)
    np.mod(idx, m, out=idx)
    phases = np.exp(2j * np.pi * np.arange(m) / m)[idx]
    coeffs = h * (phases @ w)
    synth = np.conj(np.conj(coeffs) @ phases)
    return line_grid(phi_vals * synth, h)


def canonical_dual_translates(system: TranslateSystem, m: int = DEFAULT_GRID,
                              tail_terms: int = DEFAULT_TAIL) -> TranslateSystem:
    """Dual generator: divide the profile by the aliased energy on its support.

    Evaluation is exact-lattice only: the dual profile accepts nodes xi with
    a*xi on the grid 1/m Z and refuses anything else, because interpolating
    p would silently break reconstruction accuracy.
    """
    a = system.step
    if system.known_p is not None:
        p_at = lambda g: np.asarray(system.known_p(g), dtype=float)
        sup = float(np.max(p_at(np.arange(m) / m)))
    else:
        p_grid, rep = pphi(system, m, tail_terms)
        sup = rep.ess_sup

        def p_at(g):
            idx = np.asarray(g, dtype=float) * m
            snapped = np.rint(idx)
            if np.max(np.abs(idx - snapped)) > 1e-6:
                raise ValueError("dual profile sampled off the p-lattice")
            return p_grid.values[np.mod(snapped.astype(int), m)]

    tau = ZERO_MASK_RATIO * sup

    def dual_fn(xi):
        xi = np.asarray(xi, dtype=float)
        pv = p_at(a * xi)
        phi = system.profile(xi)
        out = np.zeros_like(phi, dtype=complex)
        live = pv > tau
        out[live] = phi[live] / pv[live]
        return out

    prof = FourierProfile(system.profile.name + "-dual", dual_fn,
                          support=system.profile.support,
                          descriptor={"profile": system.profile.name + "-dual"})
    return TranslateSystem(prof, a, name=system.name + "-dual")


@dataclass
class TranslateReconstruction:
    rel_error: float
    coeffs: TranslateCoefficients
    grid_size: int


def reconstruct_translates(system: TranslateSystem, f_hat: Callable,
                           m: int = DEFAULT_GRID, cover: float | None = None,
                           tail_terms: int = DEFAULT_TAIL) -> TranslateReconstruction:
    """Analyze f against the translates and resynthesize through the
    canonical dual; the error is relative l2 over the line window."""
    dual = canonical_dual_translates(system, m, tail_terms)
    coeffs = analysis_translates(system, f_hat, m, tail_terms)
    if cover is None:
        if system.profile.support is None:
            raise ValueError("give a window for profiles without support")
        cover = max(abs(system.profile.support[0]),
                    abs(system.profile.support[1]))
    nodes = line_window(system, m, cover)
    j = np.rint(nodes * system.step * m).astype(int)
    rec = dual.profile(nodes) * modulation_sum(coeffs, j)
    ref = np.asarray(f_hat(nodes), dtype=complex)
    denom = np.linalg.norm(ref)
    if denom == 0:
        raise ValueError("zero probe")
    return TranslateReconstruction(
        float(np.linalg.norm(rec - ref) / denom), coeffs, m)


# ---------------------------------------------------------------------------
# classification


@dataclass
class TranslateClassification:
    name: str
    scope: str
    properties: dict
    ess_inf: float
    ess_sup: float
    zero_fraction: float

    def verdict(self, prop: str) -> str:
        return self.properties[prop][0]


def classify_translates(system: TranslateSystem, m: int = DEFAULT_GRID,
                        tail_terms: int = DEFAULT_TAIL) -> TranslateClassification:
    """Classify the translate family relative to the closure of its span.

    All span-relative verdicts read off the aliased energy: bounded above
    means Bessel, bounded away from zero on its support means the lower
    inequality holds on the span closure, both together mean frame for the
    span, identically 1 means the translates are orthonormal there. Stepped
    profiles carry their supremum ladder, whose growth overrides the grid
    supremum (the grid cannot resolve the narrow high steps). Whole-line
    completeness is reported as a side note: a vanishing stretch of p or a
    compactly supported profile already rules it out.
    """
    p_grid, rep = pphi(system, m, tail_terms)
    props = {}

    if system.sup_ladder is not None and len(system.sup_ladder) >= 3:
        sizes = [k for k, _ in system.sup_ladder]
        sups = [s for _, s in system.sup_ladder]
        # stepped ladders grow faster than any power, bending the log-log
        # fit; the relaxed fit quality still separates them from plateaus
        v = tail_diagnostic(sups, sizes, rel_tol=1e-9, r2_threshold=0.9)
        if v.kind == "Divergent":
            props["bessel"] = (NO, {"sup_ladder_exponent": v.growth_exponent})
        elif v.kind == "Convergent":
            props["bessel"] = (YES, {"bound": float(v.limit_estimate)})
        else:
            props["bessel"] = (UNDECIDED, {"detail": v.detail})
    else:
        coarse = float(p_grid.values[::2].max())
        stable = rep.ess_sup <= 1.02 * coarse
        props["bessel"] = (YES if stable else UNDECIDED,
                           {"bound": rep.ess_sup, "tail_gap": rep.tail_gap})

    inf_hint = system.ess_inf_hint
    live_vals = p_grid.values[p_grid.values > ZERO_MASK_RATIO * rep.ess_sup]
    coarse_inf = float(live_vals[::2].min()) if live_vals.size > 1 else rep.ess_inf
    inf_stable = rep.ess_inf >= 0.5 * coarse_inf
    if inf_hint is not None:
        props["lower_for_span"] = (YES if inf_hint > 0 else NO,
                                   {"bound": inf_hint})
    elif rep.ess_inf > 0 and inf_stable:
        props["lower_for_span"] = (YES, {"bound": rep.ess_inf})
    else:
        props["lower_for_span"] = (UNDECIDED, {"grid_inf": rep.ess_inf})

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

    return TranslateClassification(system.name, "closed-span", props,
                                   rep.ess_inf, rep.ess_sup, rep.zero_fraction)
