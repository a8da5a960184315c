"""Generation, verification, and geometric scoring of spherical
t-designs: point sets whose equal-weight quadrature rule integrates all
spherical polynomials up to a given degree exactly."""

from .pointset import (PointSet, ParamVector, param_to_points,
                       points_to_param, normalize_pointset, read_pointset,
                       write_pointset, n_free)
from .specfun import (dim_harmonic, dim_poly, jacobi_eval, jacobi_deriv,
                      jacobi_batch, jacobi_at_one, sph_harmonics_s2,
                      sph_harmonics_s2_jacobian, row_degrees,
                      jacobi_largest_zero)
from .criteria import (PsiSpec, make_psi, psi_eval, variational_value,
                       weyl_residual, weyl_jacobian, WeylResidual,
                       PSI1, PSI2, PSI3)
from .bounds import n_star, n_plus, n_hat, n_bar, BoundsRow, bounds_row
from .geometry import separation, mesh_norm, mesh_ratio, GeometryReport
from .quadrature import verify_design, DesignReport
from .optimizer import (SolveOptions, SolveResult, initial_points,
                        minimize_variational, solve_lsq, generate_design)
from . import polytopes

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
