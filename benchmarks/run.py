"""Benchmark of sphdesign: time to a verified design, check throughput,
and per-module cost.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload gen_s2 --seed 1 --seconds 32 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end figures, measured without tracing, with every time scaled
to a reference host speed (speed.py); with --trace 1 they are the
per-layer figures of a traced run.  See benchmarks/NOTES.md.
"""

import os
import sys
import time

# BLAS threads are pinned before numpy is first imported; threadpoolctl
# is not available, so the environment is the only control
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
# installed packages are read from their installed bytecode, and no
# bytecode is written anywhere
sys.dont_write_bytecode = True
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# cold set-ups per run, each in its own process; setup_s is their median
SETUP_RUNS = 3


class _SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    """Compiles a module from its source, ignoring cached bytecode."""

    def get_code(self, fullname):
        return compile(self.get_data(self.path), self.path, "exec",
                       dont_inherit=True)


def compile_repo_sources():
    """Make every later import of a module of this checkout compile it
    from source.  Bytecode that other tools leave in __pycache__ (a test
    run writes it) would otherwise make the import cost in setup_s depend
    on which commit they last ran."""
    files = importlib.machinery.FileFinder.path_hook(
        (_SourceOnlyLoader, importlib.machinery.SOURCE_SUFFIXES))

    def hook(path):
        if not os.path.abspath(path).startswith(ROOT + os.sep):
            raise ImportError("outside the checkout")
        return files(path)

    sys.path_hooks.insert(0, hook)
    sys.path_importer_cache.clear()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload, seed):
    import numpy
    import scipy
    return {"workload": workload, "seed": seed,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_env": BLAS_ENV,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu": _cpu_model(), "loadavg": os.getloadavg()}


def summarize(outcomes, speed):
    """Figures of one pass, each time at reference host speed."""
    spans = ("wall", "verify", "geom")
    figures = {k + "_s": sum(speed.scaled(*getattr(o, k)) for o in outcomes)
               for k in spans}
    figures["rho_max"] = max((o.rho for o in outcomes if o.rho == o.rho),
                             default=0.0)
    measured = [sum(getattr(o, k)[1] - getattr(o, k)[0] for o in outcomes)
                for k in spans]
    print("pass: wall/verify/geom %.4f %.4f %.4f s measured, %.4f %.4f "
          "%.4f s at reference speed; %s" % (
              *measured, figures["wall_s"], figures["verify_s"],
              figures["geom_s"], " ".join("%s=%.3f" % (o.label, o.wall_s)
                                          for o in outcomes)),
          file=sys.stderr)
    return figures


class Verdict:
    """Counts jobs and collects everything that makes a run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add_pass(self, outcomes, tag):
        for o in outcomes:
            self.attempted += 1
            if not o.ok:
                self.failed += 1
                self.errors.append("%s %s: %s" % (tag, o.label,
                                                  "; ".join(o.problems)))

    def same_outputs(self, a, b, what):
        for x, y in zip(a, b):
            if x.digest != y.digest:
                self.errors.append("nondeterminism: %s differs for %s"
                                   % (what, x.label))

    @property
    def correct(self):
        return not self.errors


def cold_setup_s(workload, seed):
    """Set-up seconds of a fresh process running only the set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120,
        text=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(jobs, seconds, verdict, speed):
    """Untraced passes while the next one fits in the time budget; the
    first pass always runs.  Returns the medians over passes."""
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start + wall <= seconds:
        outcomes = [job() for job in jobs]
        wall = sum(o.wall_s for o in outcomes)
        verdict.add_pass(outcomes, "pass %d" % (len(passes) + 1))
        if passes:
            verdict.same_outputs(passes[0], outcomes, "a repeated pass")
        passes.append(outcomes)
    runs = [summarize(outcomes, speed) for outcomes in passes]
    return {k: statistics.median(f[k] for f in runs) for k in runs[0]}


def measure_traced(jobs, verdict, tracer_mod):
    """Each job runs untraced, then under two separate tracers, so that
    machine speed drifts hit all three alike.  The traced outputs must
    equal the untraced ones bit for bit and the exact counts must repeat
    between the two tracers."""
    tracers = [tracer_mod.Tracer() for _ in range(2)]
    plain_wall = 0.0
    traced_walls = [0.0, 0.0]
    for job in jobs:
        plain = job()
        verdict.add_pass([plain], "untraced")
        plain_wall += plain.wall_s
        for i, tracer in enumerate(tracers):
            tracer.install(tracer_mod.sphdesign_targets())
            try:
                traced = job()
            finally:
                tracer.uninstall()
            verdict.add_pass([traced], "traced %d" % (i + 1))
            verdict.same_outputs([plain], [traced], "the traced output")
            traced_walls[i] += traced.wall_s
    layers = [tracer_mod.layer_metrics(t.agg) for t in tracers]
    for name in tracer_mod.EXACT_COUNTS:
        a, b = layers[0][name][0], layers[1][name][0]
        if a != b:
            verdict.errors.append("nondeterminism: %s %d then %d"
                                  % (name, a, b))
    out = dict(layers[0])
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            out[name] = (statistics.median([value, layers[1][name][0]]), unit)
    out["trace.overhead_s"] = (statistics.median(traced_walls) - plain_wall,
                               "s")
    print("untraced %.3f s, traced %.3f s and %.3f s"
          % (plain_wall, traced_walls[0], traced_walls[1]), file=sys.stderr)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up, print it and exit; the "
                         "benchmark starts itself so to measure setup_s")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "sphdesign")):
        print("error: no sphdesign sources under %s; run from the root of "
              "a source checkout" % SRC, file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    compile_repo_sources()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import speed as speed_mod
    # host speed is sampled from here on, so set-up is scaled too
    with speed_mod.HostSpeed() as speed:
        import jobs as jobs_mod
        import tracer as tracer_mod
        if args.workload not in jobs_mod.WORKLOADS:
            print("error: --workload must be one of %s"
                  % ", ".join(jobs_mod.WORKLOADS), file=sys.stderr)
            return 2
        work_root = os.path.join(ROOT, ".bench_work")
        os.makedirs(work_root, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
        try:
            jobs, build = jobs_mod.prepare(args.workload, args.seed, workdir,
                                           bool(args.trace))
            jobs_mod.warm_up(args.workload)
            setup_s = speed.scaled(PROCESS_START, time.perf_counter())
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            print(json.dumps({"meta": metadata(args.workload, args.seed)}))
            verdict = Verdict()
            if args.trace:
                metrics = measure_traced(jobs, verdict, tracer_mod)
                metrics["bounds.setup_s"] = (build["bounds"], "s")
                metrics["polytopes.setup_s"] = (build["polytopes"], "s")
            else:
                figures = measure(jobs, args.seconds, verdict, speed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(work_root)
            except OSError:
                pass
    if not args.trace:
        figures["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + [cold_setup_s(args.workload, args.seed)
                              for _ in range(SETUP_RUNS - 1)]
        print("set-ups %s s" % " ".join("%.3f" % v for v in setups),
              file=sys.stderr)
        figures["setup_s"] = statistics.median(setups)
        metrics = {name: (figures[name], unit)
                   for name, unit in jobs_mod.END_TO_END.items()}
    for line in verdict.errors:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
