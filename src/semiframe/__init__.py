"""Numerical workbench for analysis/synthesis operator pairs that keep a
lower frame inequality but may lose the upper one.

Submodules: core (families, ladders, grids, convergence verdicts),
operators (analysis/synthesis matrices, canonical duals, domain
diagnostics), families (worked vector families), translates (shift systems
on the Fourier side), exponentials (weighted exponential systems),
muckenhoupt (interval-average weight tests), scenarios (the registry),
report (serialization), cli (command line).
"""

from .core import (
    CONVERGENT, DIVERGENT, INCONCLUSIVE,
    ConvergenceVerdict, GridFunction, TruncationLadder, VectorFamily,
    default_ladder, instantiate, line_grid, periodic_grid,
    periodization_gap, periodize, tail_diagnostic,
)
from .operators import (
    canonical_dual, dual_via_pseudoinverse, frame_matrix, lower_bound,
    parseval_canonical, projector_for, reconstruct, s_apply, w_membership,
)
from .families import (
    interleaved_difference_family, orthonormal_family, scaled_basis_family,
    seeded_dense_family, shared_direction_family,
)
from .translates import (
    TranslateSystem, canonical_dual_translates, classify_translates,
    plateau_band_system, pphi, raised_cosine_profile,
    reconstruct_translates, unit_indicator_profile, walnut_apply,
)
from .exponentials import (
    ExponentialSystem, classify_exponentials, reconstruct_exponentials,
)
from .muckenhoupt import (
    ConstantWeight, PowerWeight, a2_estimate, a2_ratio, plateau_weight,
)
from .scenarios import run_scenario, scenario_names

__version__ = "0.1.0"
