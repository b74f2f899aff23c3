"""Exact distribution and moments of lattice-point counts of randomly
shifted integer polytopes, plus a mechanical verifier for the identities,
scaling laws and counterexamples that govern them."""

from .counting import (
    CountResult,
    ShiftStream,
    ZonotopeSpec,
    count_at,
    zonotope_constant,
    zonotope_polytope,
)
from .distributions import (
    CountDistribution,
    MomentReport,
    exact_covariance,
    exact_distribution,
    exact_mean,
    exact_variance,
    mc_distribution,
)
from .errors import (
    CellBudgetExceeded,
    DegenerateInput,
    GeometryError,
    SingularMatrix,
    UnknownIdentity,
)
from .geometry import (
    HalfSpace,
    Polytope,
    affine_image,
    clip,
    determinant,
    intersect,
    minkowski_sum,
    polytope_from_json,
    polytope_to_json,
    unit_cube,
)

__version__ = "0.1.0"
