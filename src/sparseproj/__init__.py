"""Exact geometric resolutions of coordinate projections of sparse systems.

The submodules ``rat`` and ``pade`` keep their module names here: their
functions of the same names are not re-exported, so import them from the
submodules (``from sparseproj.pade import pade``).
"""

from .rat import Rat
from .mpoly import SparsePoly, mpoly_gcd
from .ratfun import RatFun, ratfun_normalize
from .upoly import UniPoly, upoly_divrem
from .polytope import Support, SupportFamily, mixed_volume
from .supports import gamma_decomposition, project_supports, trans_basis
from .series import SeriesRing, TruncSeries
from .zerodim import GeometricResolution, count_toric_roots, solve_toric_0d
from .lifting import LiftedResolution, newton_hensel_lift
from .projection import (
    ProjectionProblem,
    ProjectionResult,
    geom_res_proj,
    parametric_toric_geomres,
    q_projection,
    verify_resolution,
)
from .formats import emit_resolution, parse_resolution, parse_system

__version__ = "0.1.0"

__all__ = [
    "Rat", "SparsePoly", "mpoly_gcd", "RatFun", "ratfun_normalize",
    "UniPoly", "upoly_divrem",
    "Support", "SupportFamily", "mixed_volume",
    "gamma_decomposition", "project_supports", "trans_basis",
    "SeriesRing", "TruncSeries",
    "GeometricResolution", "count_toric_roots", "solve_toric_0d",
    "LiftedResolution", "newton_hensel_lift",
    "ProjectionProblem", "ProjectionResult", "geom_res_proj",
    "parametric_toric_geomres", "q_projection", "verify_resolution",
    "emit_resolution", "parse_resolution", "parse_system",
    "__version__",
]
