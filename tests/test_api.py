"""The public surface: parameter names of every callable the package
exports."""

import inspect

import sphdesign

# a parameter added or removed must be recorded here on purpose
SIGNATURES = {
    "BoundsRow": ("d", "t", "n_star", "n_plus", "n_hat", "n_bar", "dim_poly"),
    "DesignReport": ("t_claimed", "max_abs_weyl", "V1", "V2", "V3", "rTr",
                     "is_design", "exactness_degree"),
    "GeometryReport": ("delta", "h", "rho", "h_accuracy"),
    "ParamVector": ("d", "N", "symmetric", "values"),
    "PointSet": ("d", "coords", "symmetric"),
    "PsiSpec": ("kind", "d", "t", "a0", "psi_at_1"),
    "SolveOptions": ("restarts", "seed"),
    "SolveResult": ("pointset", "converged", "rtr", "v1", "v2", "v3",
                    "iterations", "geometry"),
    "WeylResidual": ("t", "r", "weights", "tables", "reduced"),
    "bounds_row": ("d", "t"),
    "dim_harmonic": ("d", "ell"),
    "dim_poly": ("d", "t"),
    "generate_design": ("d", "t", "N", "symmetric", "opts"),
    "initial_points": ("d", "N", "kind", "seed"),
    "jacobi_at_one": ("alpha", "ell"),
    "jacobi_batch": ("alpha", "beta", "L", "z"),
    "jacobi_deriv": ("alpha", "beta", "n", "z"),
    "jacobi_eval": ("alpha", "beta", "n", "z"),
    "jacobi_largest_zero": ("alpha", "beta", "n"),
    "make_psi": ("kind", "d", "t"),
    "mesh_norm": ("X",),
    "mesh_ratio": ("X", "accuracy"),
    "minimize_variational": ("X0", "t"),
    "n_bar": ("d", "t"),
    "n_free": ("d", "N", "symmetric"),
    "n_hat": ("d", "t"),
    "n_plus": ("d", "t"),
    "n_star": ("d", "t"),
    "normalize_pointset": ("X",),
    "param_to_points": ("p",),
    "points_to_param": ("X",),
    "psi_eval": ("spec", "z"),
    "read_pointset": ("path",),
    "row_degrees": ("L",),
    "separation": ("X",),
    "solve_lsq": ("X0", "t"),
    "sph_harmonics_s2": ("L", "coords"),
    "sph_harmonics_s2_jacobian": ("tables", "even"),
    "variational_value": ("X", "spec"),
    "verify_design": ("X", "t_max", "tolerance"),
    "weyl_jacobian": ("residual",),
    "weyl_residual": ("X", "t"),
    "write_pointset": ("X", "path", "t"),
}


def test_public_signatures():
    got = {name: tuple(inspect.signature(obj).parameters)
           for name in sphdesign.__all__
           for obj in [getattr(sphdesign, name)] if callable(obj)}
    assert got == SIGNATURES
