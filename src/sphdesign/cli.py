"""Command-line front end.

Subcommands: bounds (point-count table), gen (optimize a design),
verify (check the design property of a point file), geom (geometric
quality), table (CSV summary over a directory of stored designs).

Exit codes: 0 success or verification pass, 1 verification fail or,
for gen, no start converged, 2 input or usage error or out of memory.
"""

import argparse
import json
import os
import sys

from . import bounds as bounds_mod
from . import criteria, geometry, optimizer, quadrature
from .errors import SphDesignError
from .pointset import read_pointset, write_pointset, n_free
from .specfun import dim_poly

V_FMT = "%.1e"
ANGLE_FMT = "%.4f"
RHO_FMT = "%.2f"


def _check_range(args):
    """Reject a bad dimension or degree range before any output."""
    if args.d < 1:
        raise SphDesignError("d must be >= 1, got %d" % args.d)
    if args.t_min > args.t_max or args.t_min < 1:
        raise SphDesignError("need 1 <= t-min <= t-max")


def cmd_bounds(args):
    _check_range(args)
    # rows are written once all are built, so a failing row leaves no
    # partial table on stdout
    out = ["t,N_star,N_plus,N_hat,N_bar,dim_poly\n"]
    for t in range(args.t_min, args.t_max + 1):
        if args.symmetric and t % 2 == 0:
            continue
        row = bounds_mod.bounds_row(args.d, t)
        nbar = "" if row.n_bar < 0 else str(row.n_bar)
        out.append("%d,%d,%d,%d,%s,%d\n" % (t, row.n_star, row.n_plus,
                                            row.n_hat, nbar, row.dim_poly))
    sys.stdout.write("".join(out))
    return 0


def cmd_gen(args):
    # a bad output path is found before minutes of generation, not after
    if not args.output:
        raise SphDesignError("output path is empty")
    out_dir = os.path.dirname(args.output) or "."
    if not os.path.isdir(out_dir):
        raise SphDesignError("output directory %s does not exist" % out_dir)
    if os.path.isdir(args.output):
        raise SphDesignError("output %s is a directory" % args.output)
    opts = optimizer.SolveOptions(seed=args.seed, restarts=args.restarts)
    result = optimizer.generate_design(args.d, args.t, N=args.n,
                                       symmetric=args.symmetric, opts=opts)
    write_pointset(result.pointset, args.output, t=args.t)
    geo = result.geometry
    line = ("t=%d N=%d converged=%s V1=" + V_FMT + " V2=" + V_FMT +
            " V3=" + V_FMT + " rTr=%s" +
            " delta=" + ANGLE_FMT + " h=" + ANGLE_FMT + " rho=" + RHO_FMT) % (
        args.t, result.pointset.N, result.converged, result.v1, result.v2,
        result.v3, _fmt_opt(result.rtr), geo.delta, geo.h, geo.rho)
    print(line)
    return 0 if result.converged else 1


def cmd_verify(args):
    X = read_pointset(args.file)
    report = quadrature.verify_design(X, args.t, tolerance=args.tol)
    if args.json:
        print(json.dumps(report.to_dict(), allow_nan=False))
    else:
        verdict = "PASS" if report.is_design else "FAIL"
        print("%s t=%d exactness_degree=%d max_abs_weyl=%s V1=%s V2=%s V3=%s"
              % (verdict, args.t, report.exactness_degree,
                 _fmt_opt(report.max_abs_weyl), V_FMT % report.V1,
                 V_FMT % report.V2, V_FMT % report.V3))
    return 0 if report.is_design else 1


def _fmt_opt(v):
    return "n/a" if v != v else V_FMT % v


def cmd_geom(args):
    X = read_pointset(args.file)
    rep = geometry.mesh_ratio(X)
    print(("delta=" + ANGLE_FMT + " h=" + ANGLE_FMT + " rho=" + RHO_FMT)
          % (rep.delta, rep.h, rep.rho))
    return 0


def cmd_table(args):
    _check_range(args)
    if not os.path.isdir(args.designs_dir):
        raise SphDesignError("--designs-dir %s is not a directory"
                             % args.designs_dir)
    # rows are written once all are built, so a bad design file leaves
    # no partial table on stdout
    out = ["t,N_star,N_plus,N,n,m,V_psi1,V_psi2,V_psi3,rTr,delta,h,rho\n"]
    for t in range(args.t_min, args.t_max + 1):
        if args.symmetric and t % 2 == 0:
            continue
        row = bounds_mod.bounds_row(args.d, t)
        name = "d%d_t%d%s.txt" % (args.d, t, "_sym" if args.symmetric else "")
        path = os.path.join(args.designs_dir, name)
        default_n = bounds_mod.n_default(args.d, t, args.symmetric)
        if args.symmetric:
            m = bounds_mod.m_sym(args.d, t)
        else:
            m = dim_poly(args.d, t) - 1
        if not os.path.exists(path):
            sys.stderr.write("warning: missing design file %s\n" % path)
            n = n_free(args.d, default_n, args.symmetric)
            out.append("%d,%d,%d,%d,%d,%d,,,,,,,\n" % (
                t, row.n_star, row.n_plus, default_n, n, m))
            continue
        X = read_pointset(path)
        if X.d != args.d:
            raise SphDesignError("%s holds points on S^%d, not S^%d"
                                 % (path, X.d, args.d))
        # n counts the file's free angles and m the table's conditions
        if X.symmetric != args.symmetric:
            kind = ("general", "symmetric")
            raise SphDesignError("%s holds a %s set, the table is %s" % (
                path, kind[X.symmetric], kind[args.symmetric]))
        n = n_free(args.d, X.N, X.symmetric)
        vs, res = criteria.design_values(X, t)
        rtr = float("nan") if res is None else res.rtr
        geo = geometry.mesh_ratio(X)
        out.append(("%d,%d,%d,%d,%d,%d," + V_FMT + "," + V_FMT + "," + V_FMT
                    + ",%s," + ANGLE_FMT + "," + ANGLE_FMT + "," + RHO_FMT
                    + "\n")
                   % (t, row.n_star, row.n_plus, X.N, n, m, vs[0], vs[1],
                      vs[2], _fmt_opt(rtr), geo.delta, geo.h, geo.rho))
    sys.stdout.write("".join(out))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="sphdesign",
                                 description="spherical t-design toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="point-count bounds per degree")
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--t-min", type=int, default=1)
    b.add_argument("--t-max", type=int, required=True)
    b.add_argument("--symmetric", action="store_true")
    b.set_defaults(func=cmd_bounds)

    g = sub.add_parser("gen", help="generate a design by optimization")
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--symmetric", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--restarts", type=int, default=5)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="verify the design property")
    v.add_argument("file")
    v.add_argument("--t", type=int, required=True)
    v.add_argument("--tol", type=float, default=quadrature.DEFAULT_TOL)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    ge = sub.add_parser("geom", help="separation, mesh norm, mesh ratio")
    ge.add_argument("file")
    ge.set_defaults(func=cmd_geom)

    tb = sub.add_parser("table", help="CSV summary over stored designs")
    tb.add_argument("--d", type=int, default=2)
    tb.add_argument("--t-min", type=int, default=1)
    tb.add_argument("--t-max", type=int, required=True)
    tb.add_argument("--symmetric", action="store_true")
    tb.add_argument("--designs-dir", required=True)
    tb.set_defaults(func=cmd_table)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SphDesignError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except MemoryError as exc:
        sys.stderr.write("error: out of memory: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
