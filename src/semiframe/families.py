"""Concrete vector families used by the scenario registry and the tests.

Index conventions: members are numbered from each family's start index and
live against the standard basis e_1, e_2, ... (1-based labels, 0-based
storage). Each family declares its members once, as one rule over an array
of indices: the sparse ones as COO triplets (rows, positions, values), the
dense one as an (N, d) array. Non-integer powers are taken with scalar pow
over the index list, because numpy's array power can differ from it by an
ulp and the frame-action diagnostics magnify member ulps.
"""

from __future__ import annotations

import numpy as np

from .core import VectorFamily

# e_1 coefficient of every long-enough prefix of the interleaved family
INTERLEAVED_HEAD = 2.0 - 2.0 ** 1.2 + 2.0 ** 3.2

DIFFERENCE_POWER = 1.6          # 8/5, scale of the difference stream
TARGET_POWER = -2.0             # decay of the probe vector h_n = n^-2


def _powers(indices: np.ndarray, power: float) -> np.ndarray:
    """float(n) ** power for each index n, by Python's scalar pow."""
    return np.array([float(n) ** power for n in indices.tolist()])


def _diagonal(indices: np.ndarray, values: np.ndarray) -> tuple:
    """COO triplets of the members values[r] e_{indices[r]}."""
    return np.arange(indices.size), indices - 1, values


def orthonormal_family() -> VectorFamily:
    return VectorFamily(
        name="orthonormal", start_index=1, min_dim=lambda n: n,
        block=lambda idx: _diagonal(idx, np.ones(idx.size)),
        perp_directions=None)


def shared_direction_family(power: float = 0.0, name: str | None = None) -> VectorFamily:
    """Members n^power (e_1 + e_n) for n >= 2.

    Every member leans on e_1, so e_1 itself is orthogonal to no member and
    the analysis domain closure misses it. power 0 keeps unit-size links;
    positive power makes the family unbounded while the expansion dual
    {e_n / n^power} stays Bessel.
    """

    def block(idx):
        pos = np.stack([np.zeros_like(idx), idx - 1], axis=1)
        return (np.repeat(np.arange(idx.size), 2), pos.ravel(),
                np.repeat(_powers(idx, power), 2))

    return VectorFamily(
        name=name or f"shared-direction-p{power:g}",
        start_index=2, min_dim=lambda n: n + 1, block=block,
        perp_directions=(0,))


def scaled_basis_family(power: float) -> VectorFamily:
    """Members n^power e_n; diagonal, so every diagnostic has a closed form."""
    return VectorFamily(
        name=f"scaled-basis-p{power:g}", start_index=1, min_dim=lambda n: n,
        block=lambda idx: _diagonal(idx, _powers(idx, power)),
        perp_directions=None)


def seeded_dense_family(seed: int) -> VectorFamily:
    """Dense complex Gaussian members, deterministic in (seed, index, d)."""

    def member(idx, d):
        rng = np.random.default_rng([seed, idx, d])
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.sqrt(2 * d)

    return VectorFamily(
        name=f"seeded-dense-{seed}", start_index=1,
        min_dim=lambda n: max(4, n // 2), dense=True,
        block=lambda idx, d: np.array([member(i, d) for i in idx.tolist()]),
        perp_directions=None)


# ---------------------------------------------------------------------------
# interleaved difference family and its closed forms


def _telescoped(n):
    """n^{16/5} (n^-2 - (n-1)^-2) in cancellation-free form, n >= 2."""
    n = np.asarray(n, dtype=float)
    return -(2 * n - 1) * n ** 1.2 / (n - 1) ** 2


def interleaved_coefficients(k_lo: int, k_hi: int):
    """Per-coordinate prefix coefficients against the probe h_n = n^-2.

    After both streams pass coordinate n, its coefficient settles at
    alpha_n; mid-round the active coordinate k carries beta_k after the
    diagonal member and gamma_k after the difference member. All three are
    evaluated in telescoped form so no significance is lost to cancellation.
    Returns (alpha, beta, gamma) for indices k_lo..k_hi inclusive, k_lo >= 2.
    """
    if k_lo < 2:
        raise ValueError("coefficients start at index 2")
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    u_k = _telescoped(k)
    u_next = _telescoped(k + 1)
    alpha = u_k - u_next + 1.0 / k
    beta = u_k + 1.0 / k
    gamma = u_k
    return alpha, beta, gamma


def interleaved_prefix_norms(m_max: int) -> np.ndarray:
    """Norms of the first m partial sums of the frame-operator series at h.

    Closed form: the e_1 coefficient freezes at INTERLEAVED_HEAD once the
    third member lands, interior coordinates freeze at alpha_n, and the live
    coordinate alternates between gamma_k and beta_k. Valid for every m, so
    the strong-sum growth is measurable far beyond dense truncations.
    """
    if m_max < 1:
        raise ValueError("need at least one prefix")
    norms_sq = np.empty(m_max)
    norms_sq[0] = 1.0
    if m_max >= 2:
        norms_sq[1] = 4.0
    if m_max >= 3:
        k_top = (m_max + 1) // 2
        alpha, beta, gamma = interleaved_coefficients(2, k_top + 1)
        head = INTERLEAVED_HEAD ** 2
        # settled[j] = sum of alpha_n^2 for n = 2..(j+1); settled[-1] -> empty
        settled = np.concatenate([[0.0], np.cumsum(alpha ** 2)])
        m = np.arange(3, m_max + 1)
        k = (m + 1) // 2
        live = np.where(m % 2 == 1, gamma[k - 2], beta[k - 2])
        # float_power squares exactly as the scalar live ** 2 does
        norms_sq[2:] = head + settled[k - 2] + np.float_power(live, 2)
    return np.sqrt(norms_sq)


def interleaved_difference_family() -> VectorFamily:
    """Two interleaved streams: difference members n^{8/5}(e_n - e_{n-1})
    led by e_1, and diagonal members sqrt(n) e_n.

    The diagonal stream keeps coefficient pairings summable for polynomially
    decaying probes while the difference stream makes the pointwise operator
    sums grow, so the quadratic-form domain strictly exceeds the strong one.
    """

    def block(idx):
        # odd members 2k - 1 are e_1 (k = 1) or k^{8/5} (e_k - e_{k-1}), even
        # members 2k are sqrt(k) e_k; each row holds a leading entry and, for
        # a difference, a second at storage position k - 1, in row order
        odd = idx % 2 == 1
        k = (idx + 1) // 2
        diff = odd & (k > 1)
        w = _powers(k, DIFFERENCE_POWER)
        lead = np.where(diff, -w, np.where(odd, 1.0, np.sqrt(k)))
        pos = np.stack([np.where(diff, k - 2, k - 1), k - 1], axis=1)
        vals = np.stack([lead, w], axis=1)
        taken = np.stack([np.ones_like(diff), diff], axis=1)
        rows = np.repeat(np.arange(idx.size), 2).reshape(-1, 2)
        return rows[taken], pos[taken], vals[taken]

    return VectorFamily(
        name="interleaved-difference", start_index=1,
        min_dim=lambda n: (n + 1) // 2, block=block, perp_directions=None,
        prefix_norm_rule=lambda ms: interleaved_prefix_norms(int(np.max(ms)))[
            np.asarray(ms, dtype=int) - 1])


def decaying_probe(d: int, power: float = TARGET_POWER) -> np.ndarray:
    """The probe vector with entries n^power, default n^-2."""
    n = np.arange(1, d + 1, dtype=float)
    return (n ** power).astype(complex)
