"""Weighted exponential systems g(x) exp(2 pi i n b x) on the unit interval.

The weight enters only through |g|^2: with density b <= 1 the frame-type
operator is multiplication by |g|^2 / b, so frame bounds are the essential
bounds of the weight, reconstruction divides the weight back out, and basis
behavior beyond the frame inequalities is an interval-average (A2) question
about |g|^2. Sampling happens on midpoint nodes (i + 1/2) / M, which keeps
DFT phases exact for b = 1 after a half-node twist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NO, UNDECIDED, YES, Classification, VectorFamily, bound_verdicts,
    essential_bounds, frame_verdict, line_grid, periodize, roots_at,
    whole_count, whole_number,
)
from .muckenhoupt import IN_A2, NOT_IN_A2, a2_estimate, weight_candidates

DEFAULT_CELLS = 2 ** 12


def _frequencies(indices) -> np.ndarray:
    """Frequencies of members in the canonical order: members 1, 2, 3, 4,
    5, ... have frequencies 0, 1, -1, 2, -2, ..."""
    return np.where(indices % 2 == 0, indices // 2, -(indices // 2))


def defer_negatives_ordering(n_count: int) -> np.ndarray:
    """Adversarial enumeration: 0, +1..+K first, then -K..-1.

    The negative block arrives in ascending frequency, so for probes with
    1/|n| coefficient decay the largest deferred coefficients land last and
    the partial sums cannot settle early. Needs an odd member count so the
    frequency window is symmetric.
    """
    n_count = whole_number(n_count, 1, "the member count must be a whole "
                           "number >= 1")
    if n_count % 2 == 0:
        raise ValueError("use an odd member count (symmetric frequency window)")
    freqs = _frequencies(np.arange(1, n_count + 1))
    return np.lexsort((freqs, freqs < 0))


@dataclass
class ExponentialSystem:
    """Exponentials at frequencies b*Z under a fixed weight.

    weight models |g|^2 through sample/average_power/ess_bounds; the
    generator g is its positive square root. m is the midpoint-grid cell
    count (a power of two keeps FFTs fast, any even count works).
    """

    weight: object
    b: float = 1.0
    m: int = DEFAULT_CELLS
    name: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.b) and self.b > 0):
            raise ValueError("density must be positive and finite")
        cells = "need an even grid with at least 4 cells"
        self.m = whole_number(self.m, 4, cells)
        if self.m % 2:
            raise ValueError(f"{cells}, got {self.m}")
        if not self.name:
            kind = getattr(self.weight, "descriptor", {}).get("kind", "weight")
            self.name = f"exponentials-{kind}-b{self.b:g}"

    def grid(self) -> np.ndarray:
        return (np.arange(self.m) + 0.5) / self.m

    def g_values(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.weight.sample(self.grid()), dtype=float))


def _probe(system: ExponentialSystem, f_values) -> np.ndarray:
    """f_values as a complex array of one finite value per cell; refuses
    any other shape and any non-finite value."""
    f = np.asarray(f_values, dtype=complex)
    if f.shape != (system.m,):
        raise ValueError(f"a probe needs one value per cell, shape "
                         f"({system.m},), got {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("a probe needs finite values")
    return f


def family_on_grid(system: ExponentialSystem) -> VectorFamily:
    """The system as a vector family on its own grid (dimension = cells).

    Rows are normalized by sqrt(M) so finite-dimensional inner products
    approximate integrals over (0, 1). On x_i = (2i + 1) / 2M the member of
    frequency f is g_i / sqrt(M) times the 2M-th root of unity at
    (f b (2i + 1)) mod 2M, so b must be a whole number. The roots are taken
    once per family and every block gathers from them (core.roots_at).
    """
    b = whole_number(system.b, 1, "grid families need a whole-number density b")
    m = system.m
    scaled = system.g_values() / np.sqrt(m)
    nodes = 2 * np.arange(m) + 1
    roots = np.exp(2j * np.pi * np.arange(2 * m) / (2 * m))

    def block(idx, d):
        if d != m:
            raise ValueError("grid families live at dimension = cell count")
        out = roots_at(roots, _frequencies(idx) * b, nodes)
        out *= scaled
        return out

    return VectorFamily(
        name=system.name, block=block, dense=True, start_index=1,
        min_dim=lambda n: m, perp_directions=None)


# ---------------------------------------------------------------------------
# analysis / synthesis at full window, b = 1


def _twist(m: int) -> np.ndarray:
    """The midpoint twist exp(-i pi n / M) at each frequency n = 0..M-1 mod
    M, taken on its signed representative."""
    n = np.arange(m)
    return np.exp(-1j * np.pi * np.where(n <= m // 2, n, n - m) / m)


def analysis_exponentials(system: ExponentialSystem, f_values: np.ndarray
                          ) -> np.ndarray:
    """Coefficients (1/M) sum f conj(g) exp(-2 pi i n x_i) for all M
    frequencies n, at index n mod M, via one FFT plus the midpoint twist.
    b = 1 only."""
    if system.b != 1.0:
        raise ValueError("full-window FFT analysis needs b = 1")
    m = system.m
    h = _probe(system, f_values) * np.conj(system.g_values())
    return _twist(m) * (np.fft.fft(h) / m)


def synthesis_exponentials(system: ExponentialSystem,
                           coeffs: np.ndarray,
                           weight_values: np.ndarray) -> np.ndarray:
    """sum_n c_n weight_values(x) exp(2 pi i n x) over the full window, with
    c_n at index n mod M."""
    if system.b != 1.0:
        raise ValueError("full-window FFT synthesis needs b = 1")
    series = np.fft.ifft(coeffs * np.conj(_twist(system.m))) * system.m
    return np.asarray(weight_values, dtype=complex) * series


def canonical_dual_values(system: ExponentialSystem) -> np.ndarray:
    """Grid values of the dual generator b / conj(g); refuses weights that
    come arbitrarily close to zero."""
    inf, _ = essential_bounds(system.weight)
    if not inf > 0:
        raise ValueError("dual generator unbounded: weight reaches zero")
    return system.b / np.conj(system.g_values())


def reconstruct_exponentials(system: ExponentialSystem,
                             f_values: np.ndarray) -> float:
    """Relative error of analysis -> dual synthesis at full window, b = 1.

    Exact on the grid up to roundoff: the full DFT window inverts the
    twisted transform, and the dual weight cancels the analysis weight.
    """
    f = _probe(system, f_values)
    norm = np.linalg.norm(f)
    if norm == 0:
        raise ValueError("zero probe")
    coeffs = analysis_exponentials(system, f)
    rec = synthesis_exponentials(system, coeffs, canonical_dual_values(system))
    return float(np.linalg.norm(rec - f) / norm)


def biorthogonality_gap(system: ExponentialSystem, n_max: int) -> float:
    """max |<dual_j, member_k> - delta_jk| over |j|, |k| <= n_max; b = 1 only.

    The pairing integrates (b/conj(g)) * conj(g) * exponentials, so the
    weight cancels exactly and midpoint sums of integer frequencies vanish.
    """
    if system.b != 1.0:
        raise ValueError("biorthogonality holds at critical density b = 1 only")
    n_max = whole_number(n_max, 0, "n_max must be a whole number >= 0")
    if 2 * n_max >= system.m:
        raise ValueError("n_max must stay below M/2: frequencies j and j + M "
                         f"coincide on the midpoint grid, got n_max={n_max} "
                         f"at M={system.m}")
    gram = _dual_gram(system, n_max)
    return float(np.abs(gram - np.eye(len(gram))).max())


def _dual_gram(system: ExponentialSystem, n_max: int) -> np.ndarray:
    """<dual_j, member_k> over |j|, |k| <= n_max: (1/M) sum_i dual_i
    conj(g_i) exp(-2 pi i (k - j) x_i), the analysis coefficient of the
    dual generator at k - j mod M. Past M/2 that coefficient is read at
    k - j - M, which only flips its sign, on an entry that is zero up to
    rounding (the dual cancels the weight)."""
    coeffs = analysis_exponentials(system, canonical_dual_values(system))
    ns = np.arange(2 * n_max + 1)
    return coeffs[(ns[None, :] - ns[:, None]) % system.m]


# ---------------------------------------------------------------------------
# frame-type operator


def t_mult(system: ExponentialSystem, f_values: np.ndarray) -> np.ndarray:
    """Multiplication form |g|^2 / b of the frame-type operator, b <= 1."""
    if system.b > 1.0:
        raise ValueError("multiplication form needs b <= 1")
    w = np.asarray(system.weight.sample(system.grid()), dtype=float)
    return (w / system.b) * _probe(system, f_values)


def t_general(system: ExponentialSystem, f_values: np.ndarray) -> np.ndarray:
    """Folded form valid at any density: (g / b) sum_k (conj(g) f)(x - k/b)
    with zero extension outside (0, 1).

    For b <= 1 only the k = 0 term survives and this reduces to t_mult.
    The fold step M / b must be an integer so shifted copies land on nodes;
    core.periodize folds them.
    """
    m = system.m
    # a fold step past M lands no second copy on the interval, and folding
    # by M instead keeps the folded grid at M nodes
    period = min(whole_count(m / system.b, "cell count must be divisible by "
                             "the fold step M/b"), m)
    g = system.g_values()
    # conj(g) f on the line nodes -M/2..M/2-1, and 0 at M/2 for a symmetric
    # window; node i of the interval is line node i - M/2
    h = np.append(np.conj(g) * _probe(system, f_values), 0.0)
    folded = periodize(line_grid(h, 1.0), period, math.ceil(system.b))
    return (g / system.b) * folded.values[(np.arange(m) - m // 2) % period]


# ---------------------------------------------------------------------------
# classification


def classify_exponentials(system: ExponentialSystem) -> Classification:
    """Read the frame-type inequalities off the weight's essential bounds.

    With b <= 1 the operator is diagonal multiplication, so bounds are
    exact weight statements rather than grid estimates: the lower inequality
    holds with inf |g|^2 / b, the Bessel inequality with sup |g|^2 / b when
    finite, both judged by core.bound_verdicts (a stepped weight's value
    ladder certifies an unbounded supremum that sampling cannot exhibit).
    The basis question beyond the inequalities is delegated to the interval
    average test on |g|^2 and reported as the conditional-basis flag.
    """
    if system.b > 1.0:
        raise ValueError("classification assumes density b <= 1")
    inf_w, sup_w = essential_bounds(system.weight)
    scope = "whole-space" if inf_w > 0 else "closed-span"
    props = dict(zip(("bessel", "lower_bound"), bound_verdicts(
        inf_w / system.b, sup_w / system.b, system.weight)))
    props["frame"] = (
        frame_verdict(props["bessel"][0], props["lower_bound"][0]),
        {"from": ("bessel", "lower_bound")})

    if system.b == 1.0:
        a2 = a2_estimate(system.weight, candidates=weight_candidates(system.weight))
        flag = YES if a2.verdict == IN_A2 else NO if a2.verdict == NOT_IN_A2 \
            else UNDECIDED
        props["conditional_basis"] = (flag, {"a2": a2.verdict,
                                             "constant": a2.constant_estimate})
        props["unconditional_basis"] = (props["frame"][0],
                                        {"same_as": "frame, at b = 1"})
    return Classification(system.name, scope, props)
