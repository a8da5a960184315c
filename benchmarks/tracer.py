"""Per-layer spans measured from outside the package.

Public functions are wrapped at every module binding that holds them,
so a call is traced under the name its caller looks it up through
(`comp_sum` is imported by name into `criteria`, `quadrature` and
`geometry`; patching `summation.comp_sum` alone would miss those).
Spans are aggregated in memory as they close: leaf layers fire
millions of times, so no per-call record is kept.

A layer's self time is its span's duration minus the time covered by
its child spans.  Spans on one thread nest, so the covered time is the
sum of the direct children's durations.
"""

import sys
import time

import numpy as np


class Stat:
    """Aggregate of all closed spans of one name."""
    __slots__ = ("calls", "total_s", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0


class SpanAggregator:
    """Nested spans folded into per-name totals.

    enter() opens a span, exit() closes the innermost one and charges
    its duration to the parent's covered time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = {}
        self._stack = []  # [name, start, covered_by_children, frame_state]

    def enter(self, name, state=None):
        self._stack.append([name, self.clock(), 0.0, state])

    def exit(self, failed=False):
        name, start, covered, state = self._stack.pop()
        dur = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - covered
        if failed:
            st.failed += 1
        if self._stack:
            self._stack[-1][2] += dur
        return state

    def active(self, name):
        """True when a span of this name is open."""
        return any(frame[0] == name for frame in self._stack)

    def innermost_state(self, name):
        """Frame state of the innermost open span of this name, or None."""
        for frame in reversed(self._stack):
            if frame[0] == name:
                return frame[3]
        return None

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def stat(self, name):
        return self.stats.get(name) or Stat()


def _sphdesign_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "sphdesign"
                                    or key.startswith("sphdesign."))]


class Tracer:
    """Installs timing wrappers into sphdesign and removes them again.

    Each target is (module, attribute, span name, hooks); hooks may
    hold `before(agg, args, kwargs)` returning per-frame state,
    `after(agg, state, args, kwargs, result)`, and `only_under`, a span
    name outside of which calls pass through untraced.
    """

    def __init__(self):
        self.agg = SpanAggregator()
        self._patched = []

    def _wrap(self, original, span, hooks):
        agg = self.agg
        before = hooks.get("before")
        after = hooks.get("after")
        only_under = hooks.get("only_under")

        def traced(*args, **kwargs):
            if only_under is not None and not agg.active(only_under):
                return original(*args, **kwargs)
            state = before(agg, args, kwargs) if before else None
            agg.enter(span, state)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                agg.exit(failed=True)
                raise
            agg.exit()
            if after:
                after(agg, state, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, targets):
        modules = _sphdesign_modules()
        for module, attr, span, hooks in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(original, span, hooks)
            bound = False
            for mod in modules + [module]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))
                        bound = True
            if not bound:
                raise RuntimeError("no binding of %s found" % span)

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched = []


# --- the layers of sphdesign -------------------------------------------

def _elements(agg, args, kwargs):
    values = args[0] if args else kwargs["values"]
    agg.count("summation.comp_sum.elements", int(np.size(values)))


def _under_lm(agg, args, kwargs):
    if agg.active("optimizer.solve_lsq"):
        agg.count("optimizer.lm_iterations")


def _under_verify(agg, args, kwargs):
    if agg.active("quadrature.verify_design"):
        agg.count("quadrature.variational_evals")


def _lm_residual(agg, state, args, kwargs, result):
    # the solver compares f = r^T W r between its current point and each
    # trial; the same expression gives the same bits here
    evals = agg.innermost_state("optimizer.solve_lsq")
    if evals is not None:
        evals.append(float(np.dot(result.weights * result.r, result.r)))


def _lm_solve_begin(agg, args, kwargs):
    return []


def _lm_solve_end(agg, evals, args, kwargs, result):
    # first evaluation: the start; last: the final report of the solve;
    # the ones between are trial steps, accepted when they lower f
    trials = evals[1:-1]
    best = evals[0] if evals else 0.0
    accepted = 0
    for f in trials:
        if f < best:
            best = f
            accepted += 1
    agg.count("optimizer.lm_trials", len(trials))
    agg.count("optimizer.lm_accepted", accepted)
    _solve_end(agg, None, args, kwargs, result)


def _solve_end(agg, state, args, kwargs, result):
    agg.count("optimizer.solves")
    if result.converged:
        agg.count("optimizer.converged")


def sphdesign_targets():
    """Wrap targets for every layer the benchmark reports."""
    from sphdesign import (criteria, geometry, optimizer, pointset,
                           quadrature, specfun, summation)
    none = {}
    return [
        (specfun, "sph_harmonics_s2", "specfun.sph_harmonics_s2", none),
        (specfun, "sph_harmonics_s2_jacobian",
         "specfun.sph_harmonics_s2_jacobian", none),
        (specfun, "jacobi_batch", "specfun.jacobi_batch", none),
        (criteria, "weyl_residual", "criteria.weyl_residual",
         {"after": _lm_residual}),
        (criteria, "weyl_residual_reduced", "criteria.weyl_residual_reduced",
         {"after": _lm_residual}),
        (criteria, "weyl_jacobian", "criteria.weyl_jacobian",
         {"before": _under_lm}),
        (criteria, "variational_value", "criteria.variational_value",
         {"before": _under_verify}),
        (criteria, "variational_value_and_param_gradient",
         "criteria.variational_value_and_param_gradient", none),
        (pointset, "param_to_points", "pointset.param_to_points", none),
        (pointset, "points_to_param", "pointset.points_to_param", none),
        (pointset, "normalize_pointset", "pointset.normalize_pointset", none),
        (pointset, "param_jacobian_point", "pointset.param_jacobian_point",
         none),
        (pointset, "read_pointset", "pointset.read_pointset", none),
        (summation, "comp_sum", "summation.comp_sum", {"before": _elements}),
        (optimizer, "generate_design", "optimizer.generate_design", none),
        (optimizer, "solve_lsq_with_hops", "optimizer.solve_lsq_with_hops",
         none),
        (optimizer, "solve_lsq", "optimizer.solve_lsq",
         {"before": _lm_solve_begin, "after": _lm_solve_end}),
        (optimizer, "minimize_variational", "optimizer.minimize_variational",
         {"after": _solve_end}),
        (np.linalg, "solve", "optimizer.linsolve",
         {"only_under": "optimizer.solve_lsq"}),
        (quadrature, "verify_design", "quadrature.verify_design", none),
        (geometry, "mesh_ratio", "geometry.mesh_ratio", none),
        (geometry, "mesh_norm", "geometry.mesh_norm", none),
        (geometry, "separation", "geometry.separation", none),
    ]


OPTIMIZER_SPANS = ("optimizer.generate_design", "optimizer.solve_lsq_with_hops",
                   "optimizer.solve_lsq", "optimizer.minimize_variational")

# span name -> statistics reported for it
REPORTED = {
    "specfun.sph_harmonics_s2": ("calls", "self_s"),
    "specfun.sph_harmonics_s2_jacobian": ("calls", "self_s"),
    "specfun.jacobi_batch": ("calls", "self_s"),
    "criteria.weyl_residual": ("calls", "self_s"),
    "criteria.weyl_residual_reduced": ("calls", "self_s"),
    "criteria.weyl_jacobian": ("calls", "self_s"),
    "criteria.variational_value": ("calls", "self_s"),
    "criteria.variational_value_and_param_gradient": ("calls", "self_s"),
    "pointset.param_to_points": ("calls", "self_s"),
    "pointset.points_to_param": ("calls", "self_s"),
    "pointset.normalize_pointset": ("calls", "self_s"),
    "pointset.param_jacobian_point": ("calls", "self_s"),
    "pointset.read_pointset": ("calls", "self_s"),
    "summation.comp_sum": ("calls", "self_s"),
    "optimizer.solve_lsq": ("calls",),
    "optimizer.linsolve": ("calls", "self_s", "failed"),
    "optimizer.minimize_variational": ("calls",),
    "quadrature.verify_design": ("calls", "self_s"),
    "geometry.mesh_ratio": ("calls", "self_s"),
    "geometry.mesh_norm": ("self_s",),
    "geometry.separation": ("self_s",),
}

# counts that must repeat exactly between the two tracers of a traced run
EXACT_COUNTS = ("optimizer.lm_iterations", "optimizer.lm_trials",
                "optimizer.linsolve.calls", "summation.comp_sum.calls",
                "criteria.variational_value_and_param_gradient.calls",
                "quadrature.variational_evals")


def layer_metrics(agg):
    """Flat {metric name: (value, unit)} of the per-layer figures."""
    out = {}
    for span, stats in REPORTED.items():
        st = agg.stat(span)
        for key in stats:
            if key == "self_s":
                out[span + ".self_s"] = (st.self_s, "s")
            else:
                out[span + "." + key] = (getattr(st, key), "count")
    c = agg.counters
    out["summation.comp_sum.elements"] = (
        c.get("summation.comp_sum.elements", 0), "count")
    out["optimizer.lm_iterations"] = (c.get("optimizer.lm_iterations", 0),
                                      "count")
    trials = c.get("optimizer.lm_trials", 0)
    out["optimizer.lm_trials"] = (trials, "count")
    out["optimizer.lm_accept_ratio"] = (
        c.get("optimizer.lm_accepted", 0) / trials if trials else 0.0, "ratio")
    solves = c.get("optimizer.solves", 0)
    out["optimizer.converged_ratio"] = (
        c.get("optimizer.converged", 0) / solves if solves else 0.0, "ratio")
    out["optimizer.self_s"] = (
        sum(agg.stat(s).self_s for s in OPTIMIZER_SPANS), "s")
    out["quadrature.variational_evals"] = (
        c.get("quadrature.variational_evals", 0), "count")
    return out
