"""Operation ledger for the benchmark.

An operation is one library call plus its oracle check. It fails when the
call raises, returns the wrong verdict or misses its tolerance. The ledger
counts attempts and failures and keeps, for every operation that has a
tolerance, its accuracy in digits: log10(tol / err).

Every attempt is timed twice over: in plain seconds, and in reference
seconds, its seconds scaled by REFERENCE_S over the reference kernel's time
measured right before and right after it (the faster of the two, so that a
passing stall of one sample does not count). The shared host this runs on
speeds up and slows down by a quarter and more over tens of seconds; the
ratio to a fixed kernel timed next to the operation removes most of that
and none of the operation's own cost.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

# error floor for exact results, so their digit count stays finite
ERR_FLOOR = 1e-300

# the reference kernel's fastest time, in seconds, when run on its own on
# the 2.1-GHz Xeon host the benchmark was tuned on; between operations it
# runs faster still (its BLAS threads are awake), so reference seconds read
# about a third more than plain seconds there
REFERENCE_S = 0.006
_REF_MATRIX = (np.arange(384 * 384).reshape(384, 384) % 7 + 1j).astype(complex)
_REF_PRODUCT = np.zeros_like(_REF_MATRIX)


def reference_kernel() -> float:
    """Seconds for exact rational sums in the interpreter and a 384 x 384
    complex matrix product on the BLAS threads, into a buffer it reuses so
    that the allocator's state does not enter."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i * i)
    np.matmul(_REF_MATRIX, _REF_MATRIX, out=_REF_PRODUCT)
    return time.perf_counter() - t0


class Check:
    """The oracle side of one operation; collects every missed condition."""

    def __init__(self, ledger: "Ledger", name: str):
        self.ledger = ledger
        self.name = name
        self.problems = []

    def within(self, err: float, tol: float, metric: str | None = None) -> None:
        """err must not exceed tol; NaN never passes."""
        err = float(err)
        self.ledger.record_error(metric or self.name + ".err", err)
        if math.isfinite(err):
            self.ledger.digits[self.name] = min(
                self.ledger.digits.get(self.name, math.inf),
                math.log10(tol / max(err, ERR_FLOOR)))
        if not err <= tol:
            self.problems.append(f"err {err:.3e} above tol {tol:.1e}")

    def expect(self, got, want) -> None:
        """A verdict must equal its expected value."""
        if self.name in self.ledger.wrong:
            want = ("deliberately wrong", want)
        if got != want:
            self.problems.append(f"got {got!r}, want {want!r}")

    def holds(self, condition: bool, what: str) -> None:
        if not condition:
            self.problems.append(what)


class Ledger:
    """Attempted and failed operations of one workload pass.

    `wrong` names operations whose expected verdict is replaced by a wrong
    one; the self-test uses it to show that failures are counted.
    """

    def __init__(self, wrong=()):
        self.wrong = frozenset(wrong)
        self._ref_s = None        # the reference kernel's latest time
        self.attempted = 0
        self.failures = []          # (operation, [problem, ...])
        self.digits = {}            # operation -> log10(tol / err)
        self.errors = {}            # accuracy metric -> largest err seen
        self.seconds = defaultdict(list)   # operation -> time of each attempt
        self.ref_seconds = defaultdict(list)   # the same in reference seconds

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        check = Check(self, name)
        if self._ref_s is None:
            self._ref_s = reference_kernel()
        t0 = time.perf_counter()
        try:
            yield check
        except Exception as exc:   # a raising library call is a failed operation
            self.failures.append((name, [f"raised {type(exc).__name__}: {exc}"]))
            return
        finally:
            self._timed(name, time.perf_counter() - t0)
        if check.problems:
            self.failures.append((name, check.problems))

    def _timed(self, name: str, seconds: float) -> None:
        self.seconds[name].append(seconds)
        before, self._ref_s = self._ref_s, reference_kernel()
        self.ref_seconds[name].append(
            seconds * REFERENCE_S / min(before, self._ref_s))

    def pass_seconds(self, passes: int, reference: bool = True) -> float:
        """One pass with every operation at its median attempt among the
        first `passes` passes."""
        times = self.ref_seconds if reference else self.seconds
        return sum(statistics.median(ts[:passes]) for ts in times.values())

    def record_error(self, metric: str, err: float) -> None:
        prev = self.errors.get(metric)
        self.errors[metric] = err if prev is None or not err <= prev else prev

    @property
    def failed(self) -> int:
        return len(self.failures)

    def digits_min(self) -> float:
        return min(self.digits.values()) if self.digits else math.nan

    def least_accurate(self) -> str | None:
        return min(self.digits, key=self.digits.get) if self.digits else None
