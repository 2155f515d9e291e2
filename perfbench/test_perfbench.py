"""Fast checks of the benchmark's own machinery (no workload is run)."""

import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gaugelab as gl
import pb_trace
import pb_workloads
import run
import worker

HERE = Path(__file__).resolve().parent


# -- tail percentile ----------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    xs = list(np.random.default_rng(0).permutation(np.arange(1.0, 26.0)))
    value, pct, beyond = run.tail(xs)
    assert value == 15.0 and pct == pytest.approx(60.0) and beyond == 10
    assert sum(x > value for x in xs) == 10


def test_tail_never_below_the_median():
    value, pct, beyond = run.tail([3.0, 1.0, 2.0] + [9.0] * 10)
    assert (value, pct, beyond) == (9.0, pytest.approx(100.0 * 7 / 13), 6)
    assert run.tail([2.0, 5.0, 4.0]) == (4.0, pytest.approx(200.0 / 3), 1)
    assert run.tail([2.0, 5.0, 4.0, 3.0]) == (4.0, 75.0, 1)
    assert run.tail([7.0]) == (7.0, 100.0, 0)


# -- self-time arithmetic ---------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 0, 0],
        ["a", 1.0, 4.0, 0, 0, 5],
        ["leaf", 2.0, 3.0, 1, 0, 0],
        ["b", 5.0, 6.0, 0, 0, 7],
        ["root", 20.0, 21.5, -1, 1, 0],
        ["setup", -5.0, -1.0, -1, -1, 0],
    ]
    assert pb_trace.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.5, 4.0]
    agg = pb_trace.summarize(spans, {0, 1})
    assert agg["root"] == {"self_s": 7.5, "incl_s": 11.5, "calls": 2, "work": 0}
    assert agg["a"]["work"] == 5 and "setup" not in agg
    assert pb_trace.top_level_time(spans, {0, 1}) == 11.5
    total_self = sum(v["self_s"] for v in agg.values())
    assert total_self == pytest.approx(pb_trace.top_level_time(spans, {0, 1}))


# -- wrapping and unwrapping ---------------------------------------------------------


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "gaugelab" or name.startswith("gaugelab."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for meth, fn in vars(obj).items():
                        out[(name, attr, meth)] = fn
    return out


def test_tracer_wraps_every_binding_and_removes_all():
    before = _bindings()
    original = gl.measures.ft_many
    tracer = pb_trace.Tracer().install()
    try:
        assert gl.measures.ft_many is not original
        assert gl.goodness.ft_many is gl.measures.ft_many is gl.ft_many
        assert gl.HPolytope.gauge_many is not before[("gaugelab.bodies", "HPolytope",
                                                     "gauge_many")]
        mu = gl.AtomicMeasure([[0.5, 0.0], [-0.5, 0.0]], [0.5, 0.5])
        tracer.op = 0
        gl.goodness_profile(mu, 1.0, [1.0, 2.0], 8)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    names = [s[0] for s in tracer.spans]
    assert names == ["goodness.goodness_profile", "measures.ft_many", "measures.ft_many"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert [s[5] for s in tracer.spans] == [0, 16, 16]


def test_untraced_processes_never_load_the_tracer():
    code = ("import sys, worker, pb_workloads, run; "
            "sys.exit('pb_trace' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, timeout=60)
    assert proc.returncode == 0


# -- gates -------------------------------------------------------------------------


class _Flaky:
    """Fake workload: of every four ops one returns a corrupted result and one raises."""

    def __init__(self):
        self.i = 0

    def next_input(self):
        return self.i

    def run(self, i):
        time.sleep(0.002)
        if i % 4 == 3:
            raise ValueError("op failure")
        return "bad" if i % 4 == 1 else "good"

    def check(self, i, out):
        return out == "good"

    def advance(self, i, out, ok):
        self.i += 1


def test_loop_counts_corrupted_and_raising_ops_as_failed():
    times, attempted, failed = worker.run_loop(_Flaky(), 0.05)
    assert attempted == len(times) >= 4
    assert failed == attempted // 2


def _positivity_gate():
    wl = object.__new__(pb_workloads.Positivity)
    wl.relgap_max, wl.i1_floor, wl.j, wl.j_stop = 0.0, 0.5, 0, 10
    return wl


def test_positivity_gate_rejects_corrupted_split():
    wl = _positivity_gate()
    good = gl.SplitResult(0.3, 0.05, 1.0, 0.25, 0.125, 1.375, 0.0)
    assert wl.check(None, (good, 1.375 * (1 + 1e-4)))
    assert not wl.check(None, (good, 1.375 * 1.05))
    torn = gl.SplitResult(0.3, 0.05, 1.0, 0.25, 0.125, 1.5, 0.0)
    assert not wl.check(None, (torn, 1.5))


def test_rings_gate_rejects_sup_above_mass():
    wl = object.__new__(pb_workloads.Rings)
    wl.mass, wl.piece_mass, wl.referenced, wl.cert_over_sup = 1.0, 0.25, True, 0.0
    scan = SimpleNamespace(envelope=np.array([0.1, 0.05]))
    report = gl.GoodnessReport(200.0, [250.0], [0.2], [3.0])
    assert wl.check((200.0, 250.0), (report, scan))
    report = gl.GoodnessReport(200.0, [250.0], [1.01], [3.0])
    assert not wl.check((200.0, 250.0), (report, scan))


def test_polytope_gate_rejects_shifted_zero():
    wl = object.__new__(pb_workloads.Polytope)
    wl.pair_gauges = [np.array([2.0, 4.0])]
    wl.wiener_relerr = wl.pair_abserr = wl.zero_abserr = 0.0
    audit = SimpleNamespace(passed=True, wiener_value=0.126)
    report = gl.GapReport(np.array([0.0, 2.0, 4.0, 6.0]), [], 0.0, 40.0, 1e-9)
    zeros = np.arange(1.0, 6.0)
    brackets = np.stack([zeros - 0.01, zeros + 0.01], axis=1)
    assert wl.check(0, (audit, report, gl.ZeroLedger(zeros, brackets, (0.5, 6.0), False)))
    shifted = zeros + np.array([0, 0, 1e-6, 0, 0])
    assert not wl.check(0, (audit, report, gl.ZeroLedger(shifted, brackets, (0.5, 6.0), False)))


# -- the declared metrics ----------------------------------------------------------------


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["end_to_end"] == [dict(name=n, unit=u, better=b, bound=x)
                                  for n, u, b, x in run.END_TO_END]
    assert spec["per_layer"] == [dict(name=n, unit=u, better=b)
                                 for n, u, b, _ in run.PER_LAYER]
