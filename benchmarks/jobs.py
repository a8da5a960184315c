"""Workloads of the sphdesign benchmark: inputs made from a seed, the job
list, and the correctness gate every job must pass.

Workloads (each a closed loop with one client; NOTES.md has the
measurements behind the choices):

gen_s2  generate_design(2, 5) at 24 solver seeds.  The Levenberg-Marquardt
        (LM) stack does the solving: harmonics, Weyl residual and
        Jacobian, angle packing, comp_sum and the dense solve.  t=5 has
        odd degree and even N, so every job runs the antipodal scan on the
        reduced residual as well as five general starts.  Its cost varies
        little with the seed; most other degrees vary several-fold.
        About a third of the time is mesh_norm, since generate_design
        scores every converged start with mesh_ratio.
gen_s3  generate_design(3, 2) at 44 solver seeds: pair sums and L-BFGS-B
        instead of harmonics and LM, so an LM-only change must show no
        effect here.  About 70% of the time is the 4-d mesh_norm of the
        starts' scoring.  Higher degrees vary more with the seed, and
        t=4 does not converge at every seed.
check   read_pointset, verify_design and mesh_ratio on stored sets: the
        octahedron (t=3), icosahedron (t=5), 24-cell (t=5), 600-cell and
        120-cell (t=11), and seeded random S^2 sets of N=222 (t=20) and
        N=1302 (t=50).  No optimizer runs.

A gen job is the user's whole task: generate, then verify and score the
returned design independently of what the solver reported.
"""

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from sphdesign import (bounds, criteria, geometry, optimizer, pointset,
                       polytopes, quadrature)

WORKLOADS = ("gen_s2", "gen_s3", "check")
# end-to-end metric -> unit
END_TO_END = {"wall_s": "s", "verify_s": "s", "geom_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "rho_max": "1"}
RESTARTS = 5
GEN_DEGREES = {2: 5, 3: 2}
GEN_SEEDS = {2: 24, 3: 44}
RHO_LIMIT_S2 = 1.85
MESH_ACCURACY = 1e-4


@dataclass
class JobOutcome:
    """One job's timed intervals, verdict and output fingerprint.

    wall, verify and geom are (start, end) perf_counter readings of the
    whole job, of its verification and of its mesh_ratio call.
    """
    label: str
    wall: tuple
    verify: tuple
    geom: tuple
    rho: float
    problems: list = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self):
        return not self.problems

    @property
    def wall_s(self):
        return self.wall[1] - self.wall[0]


def _hex(x):
    return float(x).hex()


def fingerprint(coords, *numbers):
    """Digest of the returned points and reported figures, bit for bit."""
    h = hashlib.sha256(np.ascontiguousarray(coords).tobytes())
    h.update(" ".join(_hex(v) if not isinstance(v, (bool, int, np.integer))
                      else repr(int(v)) for v in numbers).encode())
    return h.hexdigest()


def report_numbers(rep):
    return (rep.max_abs_weyl, rep.V1, rep.V2, rep.V3, rep.rTr,
            rep.is_design, rep.exactness_degree)


def geo_numbers(geo):
    return (geo.delta, geo.h, geo.rho, geo.h_accuracy)


# --- gates -------------------------------------------------------------

def gate_gen(d, t, result, report, geo):
    """Problems with one generated design; empty when it passes."""
    problems = []
    N = result.pointset.N
    if not result.converged:
        problems.append("not converged")
    if d == 2:
        if N != bounds.n_default(2, t):
            problems.append("N=%d, expected %d" % (N, bounds.n_default(2, t)))
        if not result.rtr <= 1e-22 * N * N:
            problems.append("rtr %.3g above 1e-22 N^2" % result.rtr)
        if not geo.rho <= RHO_LIMIT_S2:
            problems.append("rho %.4f above %.2f" % (geo.rho, RHO_LIMIT_S2))
    else:
        if N != bounds.n_hat(d, t):
            problems.append("N=%d, expected %d" % (N, bounds.n_hat(d, t)))
        vmax = max(abs(result.v1), abs(result.v2), abs(result.v3))
        if not vmax <= 1e-12:
            problems.append("max |V| %.3g above 1e-12" % vmax)
    if not report.is_design:
        problems.append("independent verification rejects degree %d" % t)
    if result.geometry != geo:
        problems.append("reported geometry differs from a fresh mesh_ratio")
    return problems


# acceptance-suite reference geometry (delta, h, rho) of the polytopes
POLYTOPE_CASES = [
    ("octahedron", polytopes.octahedron, 3, (1.5708, 0.9553, 1.22)),
    ("icosahedron", polytopes.icosahedron, 5, (1.1071, 0.6524, 1.18)),
    ("cell24", polytopes.cell24, 5, (1.0472, 0.7854, 1.50)),
    ("cell600", polytopes.cell600, 11, (0.6283, 0.3881, 1.24)),
    ("cell120", polytopes.cell120, 11, (0.2709, 0.3881, 2.87)),
]
RANDOM_CASES = [(222, 20), (1302, 50)]
GEOMETRY_TOL = (5e-4, 5e-4, 5e-3)


def gate_check(X, t, report, geo, reference):
    """Problems with the verdict on one stored set.

    reference is the (delta, h, rho) of a known design, or None for a
    random set, which must be rejected and whose psi3 value must equal
    a0 rTr / N^2 (the variational and Weyl-sum views agree).
    """
    problems = []
    if reference is not None:
        if not report.is_design or report.exactness_degree != t:
            problems.append("design=%s exactness=%d, expected a %d-design"
                            % (report.is_design, report.exactness_degree, t))
        for name, got, want, tol in zip(("delta", "h", "rho"),
                                        geo_numbers(geo)[:3], reference,
                                        GEOMETRY_TOL):
            if not abs(got - want) <= tol:
                problems.append("%s %.5f, reference %.4f" % (name, got, want))
    else:
        if report.is_design:
            problems.append("a random set accepted as a %d-design" % t)
        a0 = criteria.make_psi(criteria.PSI3, 2, t).a0
        weyl_view = a0 * report.rTr / (X.N * X.N)
        if not abs(report.V3 - weyl_view) <= 1e-10 * abs(report.V3):
            problems.append("psi3 V %.17g but a0 rTr/N^2 %.17g"
                            % (report.V3, weyl_view))
    return problems


# --- jobs --------------------------------------------------------------

def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (start, time.perf_counter())


def gen_label(d, t, seed):
    return "d=%d,t=%d,seed=%d" % (d, t, seed)


def gen_job(d, t, seed):
    """Generate, verify and score one design (functions are looked up at
    call time, so a traced run sees its wrappers)."""
    start = time.perf_counter()
    result = optimizer.generate_design(
        d, t, opts=optimizer.SolveOptions(seed=seed, restarts=RESTARTS))
    report, verify = _timed(quadrature.verify_design, result.pointset, t)
    geo, geom = _timed(geometry.mesh_ratio, result.pointset,
                       accuracy=MESH_ACCURACY)
    wall = (start, time.perf_counter())
    digest = fingerprint(result.pointset.coords, result.converged, result.v1,
                         result.v2, result.v3, result.rtr, result.iterations,
                         *report_numbers(report), *geo_numbers(geo))
    return JobOutcome(label=gen_label(d, t, seed), wall=wall,
                      verify=verify, geom=geom, rho=geo.rho,
                      problems=gate_gen(d, t, result, report, geo),
                      digest=digest)


def check_job(label, path, t, reference):
    start = time.perf_counter()
    X = pointset.read_pointset(path)
    report = quadrature.verify_design(X, t)
    verify = (start, time.perf_counter())
    geo, geom = _timed(geometry.mesh_ratio, X, accuracy=MESH_ACCURACY)
    wall = (start, time.perf_counter())
    digest = fingerprint(X.coords, *report_numbers(report),
                         *geo_numbers(geo))
    return JobOutcome(label=label, wall=wall, verify=verify, geom=geom,
                      rho=geo.rho if reference is not None else float("nan"),
                      problems=gate_check(X, t, report, geo, reference),
                      digest=digest)


def random_s2(N, seed):
    """Seeded isotropic random points on S^2."""
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((N, 3))
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    return pointset.PointSet(d=2, coords=coords)


def _guarded(label, fn):
    """The job fn, failing instead of raising when the program raises."""
    def job():
        start = time.perf_counter()
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - reported as a failed job
            now = time.perf_counter()
            return JobOutcome(label=label, wall=(start, now),
                              verify=(now, now), geom=(now, now),
                              rho=float("nan"),
                              problems=["raised %r" % (exc,)])
    return job


def prepare(workload, seed, workdir, traced=False):
    """Build the inputs of one workload.

    Returns (jobs, build times) where jobs is a list of zero-argument
    callables returning JobOutcome and build times holds the seconds
    spent in the bounds and polytopes modules.  A traced run of a gen
    workload takes the first half of the solver seeds, because it runs
    its job list three times.
    """
    built = {"bounds": 0.0, "polytopes": 0.0}
    if workload in ("gen_s2", "gen_s3"):
        d = 2 if workload == "gen_s2" else 3
        t = GEN_DEGREES[d]
        start = time.perf_counter()
        bounds.n_default(d, t)
        bounds.n_hat(d, t)
        built["bounds"] = time.perf_counter() - start
        k = GEN_SEEDS[d]
        # solver seeds of different runs never overlap
        seeds = range(seed * k, seed * k + (k // 2 if traced else k))
        return [_guarded(gen_label(d, t, s), lambda s=s: gen_job(d, t, s))
                for s in seeds], built
    if workload != "check":
        raise ValueError("unknown workload %r" % (workload,))
    jobs = []
    for label, make, t, ref in POLYTOPE_CASES:
        X, (start, end) = _timed(make)
        built["polytopes"] += end - start
        path = os.path.join(workdir, label + ".txt")
        pointset.write_pointset(X, path, t=t)
        jobs.append((label, path, t, ref))
    for i, (N, t) in enumerate(RANDOM_CASES):
        X = random_s2(N, seed * len(RANDOM_CASES) + i)
        label = "random%d" % N
        path = os.path.join(workdir, label + ".txt")
        pointset.write_pointset(X, path)
        jobs.append((label, path, t, None))
    return [_guarded(j[0], lambda j=j: check_job(*j)) for j in jobs], built


def warm_up(workload):
    """One small job, so lazy imports and first-call costs are paid in
    set-up."""
    if workload == "gen_s2":
        optimizer.generate_design(2, 2, opts=optimizer.SolveOptions(restarts=1))
    elif workload == "gen_s3":
        optimizer.generate_design(3, 2, opts=optimizer.SolveOptions(restarts=1))
    else:
        X = polytopes.octahedron()
        quadrature.verify_design(X, 3)
        geometry.mesh_ratio(X, accuracy=MESH_ACCURACY)
