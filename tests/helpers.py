"""Families and index maps that only the tests read.

The diagonal families have a closed form for every diagnostic, the registry
list sweeps the families the scenarios materialize, and the scalar
frequency map is the oracle for the grid families' vectorized one.
"""

import numpy as np

from semiframe.core import VectorFamily
from semiframe.exponentials import ExponentialSystem, family_on_grid
from semiframe.families import (
    interleaved_difference_family, seeded_dense_family,
    shared_direction_family,
)
from semiframe.muckenhoupt import ConstantWeight, plateau_weight


def _diagonal(indices, values):
    """COO triplets of the members values[r] e_{indices[r]}."""
    return np.arange(indices.size), indices - 1, values


def orthonormal_family() -> VectorFamily:
    return VectorFamily(
        name="orthonormal", start_index=1, min_dim=lambda n: n,
        block=lambda idx: _diagonal(idx, np.ones(idx.size)),
        perp_directions=None)


def scaled_basis_family(power: float) -> VectorFamily:
    """Members n^power e_n; diagonal, so every diagnostic has a closed form."""
    return VectorFamily(
        name=f"scaled-basis-p{power:g}", start_index=1, min_dim=lambda n: n,
        block=lambda idx: _diagonal(idx, np.float_power(idx, power)),
        perp_directions=None)


def registry_vector_families() -> list:
    """(scenario, family, level) triples for sweeps over materialized
    families; grid scenarios reuse their generating systems."""
    esys_flat = ExponentialSystem(ConstantWeight(1), 1.0, 1024,
                                  name="flat-exponentials")
    esys_plateau = ExponentialSystem(plateau_weight(6, power=2), 1.0, 1024,
                                     name="plateau-exponentials")
    return [
        ("diana", shared_direction_family(0.0, name="diana-links"),
         (257, 256)),
        ("stoeva", shared_direction_family(1.0, name="growing-links"),
         (257, 256)),
        ("interleaved-chi", interleaved_difference_family(), (258, 513)),
        ("ordering-sensitivity", family_on_grid(esys_flat), (1024, 513)),
        ("plateau-exp", family_on_grid(esys_plateau), (1024, 513)),
        ("seeded", seeded_dense_family(11), (64, 128)),
    ]


def frequency_of(member_index: int) -> int:
    """Canonical order 1, 2, 3, 4, 5, ... <-> frequencies 0, 1, -1, 2, -2, ..."""
    if member_index < 1:
        raise ValueError("members are numbered from 1")
    return member_index // 2 if member_index % 2 == 0 else -(member_index // 2)


def member_of(freq: int) -> int:
    if freq == 0:
        return 1
    return 2 * freq if freq > 0 else 2 * (-freq) + 1
