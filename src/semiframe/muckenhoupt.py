"""Muckenhoupt-style interval diagnostics for weights on (0, 1).

The product of an interval average of a weight with the interval average of
its reciprocal is at least 1, and a weight belongs to the A2 class when that
product is uniformly bounded over subintervals. Piecewise-constant weights
with rational breakpoints are handled in exact Fraction arithmetic, because
the interesting plateaus here are far narrower than any floating-point
sampling grid can see.

The dyadic scan asks each weight class for one level at a time through its
dyadic_level kernel, so it visits only the intervals that can exceed 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import whole_number

DYADIC_DEPTH = 14
MIN_PLATEAUS = 2
MAX_PLATEAUS = 12
GROWTH_FACTOR = 10.0            # candidate-ladder ratio growth for a NotInA2 call
A2_BOUND = 1e6                  # a ratio above this is a NotInA2 witness
IN_A2 = "InA2"
NOT_IN_A2 = "NotInA2"
UNDECIDED_A2 = "Inconclusive"


class _LevelArrays:
    """Weights that average over array endpoints, by _average(q, a, b),
    evaluate a whole dyadic level in one numpy call."""

    def average_power(self, q: int, a, b):
        """Average of omega^q over (a, b), 0 <= a < b <= 1, for arrays too."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if not np.all((0.0 <= a) & (a < b) & (b <= 1.0)):
            raise ValueError("need 0 <= a < b <= 1")
        out = self._average(q, a, b)
        return out if out.ndim else float(out)

    def dyadic_level(self, level: int):
        n = 2 ** level
        j = np.arange(n)
        a, b = j / n, (j + 1) / n
        mean = self.average_power(1, a, b)
        mean_rec = self.average_power(-1, a, b)
        with np.errstate(invalid="ignore"):
            r = np.where((mean == math.inf) | (mean_rec == math.inf),
                         math.inf, mean * mean_rec)
        i = int(np.argmax(r))
        return (float(r[i]), i) if r[i] > 1.0 else (1.0, None)


class PowerWeight(_LevelArrays):
    """omega(x) = x^alpha on (0, 1); closed-form interval averages.

    Averages of omega^q over (a, b) with a = 0 are finite only for
    q * alpha > -1; otherwise math.inf is returned. The A2 ratio anchored at
    zero is scale-free, which the closed form preserves exactly by never
    forming b^alpha on its own.
    """

    def __init__(self, alpha: float):
        self.alpha = float(alpha)
        if not math.isfinite(self.alpha):
            raise ValueError("power exponent must be finite")
        self.descriptor = {"kind": "power", "alpha": self.alpha}

    def _average(self, q: int, a, b):
        p = q * self.alpha
        # float_power calls the C library's pow for every element, as Python's
        # float ** does; numpy's ** on arrays may differ from it in the last bit
        with np.errstate(divide="ignore"):
            if p == -1.0:
                out = np.log(b / a) / (b - a)
            else:
                out = (np.float_power(b, p + 1) - np.float_power(a, p + 1)) \
                    / ((p + 1) * (b - a))
            at0 = math.inf if p <= -1.0 else np.float_power(b, p) / (p + 1.0)
        return np.where(a == 0.0, at0, out)

    def sample(self, x):
        """x^alpha on [0, 1], or on (0, 1] when alpha < 0; refuses any other
        point."""
        x = np.asarray(x, dtype=float)
        domain = (x > 0.0 if self.alpha < 0 else x >= 0.0) & (x <= 1.0)
        if not np.all(domain):
            raise ValueError(f"x^{self.alpha:g} is sampled on "
                             f"{'(0, 1]' if self.alpha < 0 else '[0, 1]'} only")
        return x ** self.alpha

    def ess_bounds(self):
        if self.alpha > 0:
            return 0.0, 1.0
        if self.alpha < 0:
            return 1.0, math.inf
        return 1.0, 1.0


class PiecewiseWeight:
    """Piecewise-constant weight from rational breakpoints and values.

    pieces: list of (left, right, value) with exact endpoints covering (0, 1).
    All averaging is exact Fraction arithmetic.
    """

    def __init__(self, pieces, descriptor=None):
        pieces = list(pieces)
        for _, _, v in pieces:
            # a positive value whose float underflows to 0 would read as 0
            if not (0 < v <= sys.float_info.max and float(v) > 0):
                raise ValueError("weight values must be positive and finite, "
                                 f"got {v!r}")
        self.pieces = [(Fraction(a), Fraction(b), Fraction(v)) for a, b, v in pieces]
        if not self.pieces or self.pieces[0][0] != 0 or self.pieces[-1][1] != 1:
            raise ValueError("pieces must cover (0, 1)")
        for (a0, b0, _), (a1, b1, _) in zip(self.pieces, self.pieces[1:]):
            if b0 != a1 or a0 >= b0:
                raise ValueError("pieces must be increasing and contiguous")
        self.descriptor = descriptor or {"kind": "piecewise",
                                         "pieces": len(self.pieces)}

    def average_power(self, q: int, a, b) -> Fraction:
        a, b = Fraction(a), Fraction(b)
        if not (0 <= a < b <= 1):
            raise ValueError("need 0 <= a < b <= 1")
        total = Fraction(0)
        for lo, hi, v in self.pieces:
            left, right = max(lo, a), min(hi, b)
            if left < right:
                total += (v ** q) * (right - left)
        return total / (b - a)

    def dyadic_level(self, level: int):
        """Exact ratios on the intervals that hold an interior breakpoint;
        every other interval lies inside one piece, where the ratio is 1."""
        n, best = 2 ** level, (1.0, None)
        inner = {math.floor(b * n) for _, b, _ in self.pieces[:-1]
                 if (b * n).denominator != 1}
        for j in sorted(inner):
            r = float(a2_ratio(self, Fraction(j, n), Fraction(j + 1, n)))
            if r > best[0]:
                best = (r, j)
        return best

    def sample(self, x):
        """Float evaluation with half-open pieces [left, right).

        Plateaus narrower than float resolution around a query point are
        invisible here by construction; exact work goes through
        average_power instead.
        """
        x = np.asarray(x, dtype=float)
        edges = np.array([float(b) for _, b, _ in self.pieces])
        vals = np.array([float(v) for _, _, v in self.pieces])
        idx = np.clip(np.searchsorted(edges, x, side="right"), 0, vals.size - 1)
        return vals[idx]

    def ess_bounds(self):
        vals = [v for _, _, v in self.pieces]
        return float(min(vals)), float(max(vals))

    def value_ladder(self) -> list:
        """(label, value) per piece, the exact supremum ladder by piece."""
        return [(i, float(v)) for i, (_, _, v) in enumerate(self.pieces, start=1)]


class ConstantWeight(PiecewiseWeight):
    """omega(x) = c, one piece."""

    def __init__(self, c):
        super().__init__([(0, 1, c)])
        self.descriptor = {"kind": "constant", "value": float(c)}


class SampledWeight(_LevelArrays):
    """Positive samples on the uniform cell partition of (0, 1).

    Cell i covers (i/M, (i+1)/M) with the sampled value held constant, so
    interval averages reduce to prefix sums with fractional end cells.
    """

    def __init__(self, values, descriptor=None):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v) & (v > 0)):
            raise ValueError("need a 1-d array of finite positive samples")
        self.values = v
        self.m = v.size
        self._prefix = {}
        self.descriptor = descriptor or {"kind": "sampled", "cells": self.m}

    def _prefix_for(self, q: int) -> np.ndarray:
        if q not in self._prefix:
            self._prefix[q] = np.concatenate([[0.0], np.cumsum(self.values ** q)])
        return self._prefix[q]

    def _average(self, q: int, a, b):
        pre = self._prefix_for(q)
        xa, xb = a * self.m, b * self.m
        ia, ib = np.floor(xa).astype(int), np.ceil(xb).astype(int)
        # the fractional end cells; a whole end cell has a zero weight
        total = pre[ib] - pre[ia]
        total -= (xa - ia) * np.float_power(self.values[ia], q)
        total -= (ib - xb) * np.float_power(self.values[ib - 1], q)
        return total / (xb - xa)

    def sample(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip((x * self.m).astype(int), 0, self.m - 1)
        return self.values[idx]

    def ess_bounds(self):
        return float(self.values.min()), float(self.values.max())


class ScaledWeight:
    """omega(x) = base(x / scale): delegates to the base on the unscaled
    interval, so anchored ratios are exactly scale invariant."""

    def __init__(self, base, scale):
        if not float(scale) > 0:
            raise ValueError("scale must be positive")
        self.base = base
        self.scale = scale
        self.descriptor = {"kind": "scaled", "scale": float(scale),
                           "base": getattr(base, "descriptor", None)}

    def average_power(self, q: int, a, b):
        s = self.scale
        return self.base.average_power(q, a / s, b / s)

    def sample(self, x):
        return self.base.sample(np.asarray(x, dtype=float) / float(self.scale))


def a2_ratio(weight, a, b, q: int = 1):
    """Interval A2 ratio of omega^q: avg(omega^q) * avg(omega^-q) on (a, b).

    Exact when the weight averages exactly; always >= 1 by the mean
    inequality, with equality only for constant weights.
    """
    mean = weight.average_power(q, a, b)
    mean_rec = weight.average_power(-q, a, b)
    if mean == math.inf or mean_rec == math.inf:
        return math.inf
    return mean * mean_rec


# ---------------------------------------------------------------------------
# the plateau weight


def plateau_breakpoints(k_max: int) -> list:
    """s_k = sum_{j=2}^{k} j^{-3j}, exact."""
    points, acc = [Fraction(0)], Fraction(0)
    for j in range(2, k_max + 1):
        acc += Fraction(1, j ** (3 * j))
        points.append(acc)
    return points


def plateau_weight(k_max: int, power: int = 1) -> PiecewiseWeight:
    """Stepped weight with value k^(power*k) on the k-th plateau.

    Plateau k (k = 2..k_max) spans (s_{k-1}, s_k) with s_k the partial sums
    of j^{-3j}; the remaining (s_{k_max}, 1) holds value 1. Plateau widths
    shrink super-exponentially, so interval ratios across consecutive
    plateaus grow without bound while any uniform sampling grid sees almost
    none of them.
    """
    rule = f"k_max must be a whole number in [{MIN_PLATEAUS}, {MAX_PLATEAUS}]"
    k_max = whole_number(k_max, MIN_PLATEAUS, rule)
    if k_max > MAX_PLATEAUS:
        raise ValueError(f"{rule}, got {k_max}")
    pts = plateau_breakpoints(k_max)
    pieces = [(pts[k - 2], pts[k - 1], Fraction(k ** (power * k)))
              for k in range(2, k_max + 1)]
    pieces.append((pts[-1], Fraction(1), Fraction(1)))
    return PiecewiseWeight(pieces, descriptor={
        "kind": "plateau", "k_max": k_max, "power": power})


def plateau_candidates(k_max: int) -> list:
    """Intervals straddling each plateau boundary.

    I_k is centered at s_k with half-width (k+1)^{-3(k+1)} / 2, which puts
    its left half inside plateau k and its right half inside plateau k+1
    (or the trailing region when k = k_max). Returns (k, a, b) triples.
    """
    pts = plateau_breakpoints(k_max)
    out = []
    for k in range(2, k_max + 1):
        eps = Fraction(1, 2 * (k + 1) ** (3 * (k + 1)))
        out.append((k, pts[k - 1] - eps, pts[k - 1] + eps))
    return out


def plateau_ratio_closed_form(k: int, power: int = 1) -> Fraction:
    """Exact ratio on the straddling interval I_k for consecutive plateaus.

    With r = (k+1)^(p(k+1)) / k^(pk) the two half-averages multiply out to
    (2 + r + 1/r) / 4, which already exceeds (k+1)^(2p) / 4.
    """
    r = Fraction((k + 1) ** (power * (k + 1)), k ** (power * k))
    return (2 + r + 1 / r) / 4


# ---------------------------------------------------------------------------
# estimation


@dataclass
class A2Report:
    verdict: str
    constant_estimate: float
    witnesses: list = field(default_factory=list)   # (label, a, b, ratio) strings
    detail: str = ""

    def __bool__(self):
        return self.verdict == IN_A2


def _interval_label(a, b) -> str:
    af, bf = float(a), float(b)
    return f"({af:.6e}, {bf:.6e})"


def a2_estimate(weight, candidates=None, depth: int = DYADIC_DEPTH) -> A2Report:
    """Estimate the A2 constant of the weight and classify it.

    Visits only the dyadic subintervals of (0, 1) that can exceed 1, down to
    the given depth, through the weight's dyadic_level(level) kernel: the
    largest ratio of a level and the first j attaining it. Any
    caller-supplied candidate intervals (k, a, b) come first. A candidate
    ladder whose ratios keep growing, or any ratio above A2_BOUND, forces
    NotInA2 with the witnesses recorded; otherwise the verdict reads whether
    the supremum has stopped moving between the two deepest dyadic
    generations, and the constant is the supremum over every generation
    scanned.
    """
    depth = whole_number(depth, 1, "dyadic depth must be at least 1 and "
                         "a whole number")
    if not callable(getattr(weight, "dyadic_level", None)):
        raise ValueError(f"{type(weight).__name__} has no dyadic-level kernel "
                         "(dyadic_level); the A2 scan reads each level from it")
    witnesses = []
    if candidates:
        ladder = []
        for k, a, b in candidates:
            r = a2_ratio(weight, a, b)
            ladder.append(float(r))
            witnesses.append((f"candidate-{k}", _interval_label(a, b), float(r)))
        if len(ladder) >= 3:
            grew = all(u < v for u, v in zip(ladder, ladder[1:]))
            if (grew and ladder[-1] > GROWTH_FACTOR * ladder[0]) \
                    or ladder[-1] > A2_BOUND:
                return A2Report(NOT_IN_A2, math.inf, witnesses,
                                "candidate interval ratios grow without sign of a cap")

    sup_by_level = []
    best = (1.0, None)
    for level in range(depth + 1):
        sup, j = weight.dyadic_level(level)
        sup_by_level.append(sup)
        if sup > best[0]:
            best = (sup, _interval_label(j / 2 ** level, (j + 1) / 2 ** level))
        if sup > A2_BOUND:
            witnesses.append((f"dyadic-L{level}", best[1], sup))
            return A2Report(NOT_IN_A2, math.inf, witnesses,
                            "dyadic ratio exceeded the declared bound")
    if best[1] is not None:
        witnesses.append(("dyadic-sup", best[1], best[0]))
    constant = max(sup_by_level)
    tail_move = abs(sup_by_level[-1] - sup_by_level[-2]) / sup_by_level[-1]
    if tail_move < 0.05:
        return A2Report(IN_A2, constant, witnesses,
                        f"dyadic suprema settled at depth {depth}")
    return A2Report(UNDECIDED_A2, constant, witnesses,
                    "dyadic suprema still moving at the deepest level")
