"""Tests of the benchmark itself: span arithmetic, tracer installation,
the correctness gates, and the metric list in BENCHMARK.json."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from sphdesign import (criteria, geometry, optimizer, polytopes,  # noqa: E402
                       quadrature, summation)
from sphdesign.pointset import PointSet  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 5] (which holds C [2, 4]) and B [6, 7]
    agg = tracer.SpanAggregator(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    agg.enter("A")
    agg.enter("B")
    agg.enter("C")
    agg.exit()
    agg.exit()
    agg.enter("B")
    agg.exit()
    agg.exit()
    a, b, c = agg.stat("A"), agg.stat("B"), agg.stat("C")
    assert (a.calls, a.total_s, a.self_s) == (1, 10, 5)
    assert (b.calls, b.total_s, b.self_s) == (2, 5, 3)
    assert (c.calls, c.total_s, c.self_s) == (1, 2, 2)
    # self times partition the root span
    assert a.self_s + b.self_s + c.self_s == a.total_s


def test_self_time_of_recursive_span_and_failure():
    agg = tracer.SpanAggregator(clock=FakeClock([0, 2, 3, 8]))
    agg.enter("f")
    agg.enter("f")
    agg.exit(failed=True)
    agg.exit()
    f = agg.stat("f")
    assert (f.calls, f.total_s, f.self_s, f.failed) == (2, 9, 8, 1)


def test_host_speed_scaling():
    hs = speed.HostSpeed()
    # probes at 1.0, 2.0 and 3.0 s took 1, 2 and 3 reference durations;
    # each interruption cost 0.1 s of the interval it fell in
    hs.starts = [1.0, 2.0, 3.0]
    hs.probes = [r * speed.REF_PROBE_S for r in (1.0, 2.0, 3.0)]
    hs.busy = [0.1, 0.1, 0.1]
    # [1.5, 2.5] holds the second interruption, its padding reaches none
    # of the others: 0.9 s at twice the reference duration
    assert hs.scaled(1.5, 2.5) == pytest.approx(0.45)
    # [0, 10] holds all three: 9.7 s at twice the reference duration
    assert hs.scaled(0.0, 10.0) == pytest.approx(4.85)
    # no sample within the padding: the nearest ones count
    assert hs.factor(5.0, 5.1) == pytest.approx(1.0 / 3.0)
    assert hs.factor(0.1, 0.2) == pytest.approx(1.0)


def test_host_speed_samples_while_entered():
    with speed.HostSpeed() as hs:
        deadline = time.perf_counter() + 5 * speed.PERIOD
        while time.perf_counter() < deadline:
            pass
    taken = len(hs.starts)
    assert taken >= 2
    assert all(0.0 < p <= b for p, b in zip(hs.probes, hs.busy))
    time.sleep(2 * speed.PERIOD)
    assert len(hs.starts) == taken


def test_tracer_wraps_every_binding_and_restores_them():
    original = summation.comp_sum
    t = tracer.Tracer()
    t.install(tracer.sphdesign_targets())
    try:
        assert criteria.comp_sum is not original
        assert criteria.comp_sum is summation.comp_sum
        traced = quadrature.verify_design(polytopes.cell24(), 5)
    finally:
        t.uninstall()
    assert criteria.comp_sum is original and summation.comp_sum is original
    assert np.linalg.solve.__name__ == "solve"
    layers = tracer.layer_metrics(t.agg)
    # three psi values at t = 5, then three per degree 1..5
    assert layers["quadrature.variational_evals"][0] == 18
    assert layers["criteria.variational_value.calls"][0] == 18
    assert layers["summation.comp_sum.calls"][0] == 18
    assert layers["summation.comp_sum.elements"][0] == 18 * 24 * 24
    plain = quadrature.verify_design(polytopes.cell24(), 5)
    assert (jobs.fingerprint(np.empty(0), *jobs.report_numbers(traced))
            == jobs.fingerprint(np.empty(0), *jobs.report_numbers(plain)))


def test_lm_counts_are_consistent():
    t = tracer.Tracer()
    t.install(tracer.sphdesign_targets())
    try:
        optimizer.generate_design(2, 2, opts=optimizer.SolveOptions(restarts=1))
    finally:
        t.uninstall()
    layers = tracer.layer_metrics(t.agg)
    trials = layers["optimizer.lm_trials"][0]
    # every successful dense solve is followed by one trial evaluation
    assert trials == (layers["optimizer.linsolve.calls"][0]
                      - layers["optimizer.linsolve.failed"][0])
    assert trials >= layers["optimizer.lm_iterations"][0] > 0
    assert 0.0 < layers["optimizer.lm_accept_ratio"][0] <= 1.0
    assert layers["optimizer.converged_ratio"][0] == 1.0


def _nudge(X, index=1, angle=1e-3):
    """X with one point turned by the given angle."""
    coords = np.array(X.coords)
    x = coords[index]
    v = np.random.default_rng(0).standard_normal(x.size)
    v -= np.dot(v, x) * x
    coords[index] = np.cos(angle) * x + np.sin(angle) * v / np.linalg.norm(v)
    return PointSet(d=X.d, coords=coords, symmetric=X.symmetric)


def test_gen_gate_rejects_a_perturbed_design():
    result = optimizer.generate_design(
        2, 2, opts=optimizer.SolveOptions(seed=0, restarts=1))
    report = quadrature.verify_design(result.pointset, 2)
    geo = geometry.mesh_ratio(result.pointset, accuracy=jobs.MESH_ACCURACY)
    assert jobs.gate_gen(2, 2, result, report, geo) == []
    bad = dataclasses.replace(result, pointset=_nudge(result.pointset))
    report = quadrature.verify_design(bad.pointset, 2)
    geo = geometry.mesh_ratio(bad.pointset, accuracy=jobs.MESH_ACCURACY)
    problems = jobs.gate_gen(2, 2, bad, report, geo)
    assert any("verification" in p for p in problems)
    assert any("geometry" in p for p in problems)


@pytest.mark.parametrize("index", [0, 1])
def test_check_gate_rejects_a_perturbed_polytope(index):
    label, make, t, ref = jobs.POLYTOPE_CASES[index]
    X = make()
    ok = jobs.gate_check(X, t, quadrature.verify_design(X, t),
                         geometry.mesh_ratio(X, accuracy=1e-4), ref)
    assert ok == []
    Y = _nudge(X, angle=1e-2)
    problems = jobs.gate_check(Y, t, quadrature.verify_design(Y, t),
                               geometry.mesh_ratio(Y, accuracy=1e-4), ref)
    assert any("expected a %d-design" % t in p for p in problems)


def test_check_gate_on_a_random_set():
    X = jobs.random_s2(60, 0)
    assert jobs.gate_check(X, 6, quadrature.verify_design(X, 6),
                           geometry.mesh_ratio(X, accuracy=1e-4), None) == []


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    reported = set(tracer.layer_metrics(tracer.SpanAggregator()))
    reported |= {"trace.overhead_s", "bounds.setup_s", "polytopes.setup_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {m["name"] for m in spec["end_to_end"]} == set(jobs.END_TO_END)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "check",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
