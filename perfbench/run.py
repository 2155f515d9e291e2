"""gaugelab benchmark runner.

    python3 perfbench/run.py --workload positivity|rings|polytope \
        --seed N --seconds S --trace 0|1

Run from the root of a gaugelab checkout; the package is imported from that
checkout's src/.  Each invocation measures one workload in fresh processes:
with --trace 0, SETUP_PROBES set-up-only processes and then one measuring
process whose timed loop runs for S seconds of op time; with --trace 1, one
measuring process with span tracing installed.  The last stdout line is the
result record {"correct", "attempted", "failed", "metrics"}; the line before
it, and a copy under perfbench/out/, carry the run's details (tail
percentile, health figures, versions, machine).

The benchmark's own metrics and workloads are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("positivity", "rings", "polytope")
SETUP_PROBES = 3
DEADLINE_S = 170.0   # every process started here ends within this
TAIL_BEYOND = 10     # ops that must lie above a reported tail percentile

# (name, unit, better, bound) of each end-to-end metric, measured untraced.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.24),
    ("op_s_p50", "s", "lower", 0.24),
    ("op_s_tail", "s", "lower", 0.24),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("ops_ok_frac", "ratio", "higher", 0.01),
)

# (name, unit, better, source) of each per-layer metric of the traced run.
# Sources name a figure of worker.layer_metrics or of the workload's health();
# a figure a workload does not produce reads 0 there.  self_s and calls are
# per op; "setup." sources are totals over the one traced set-up.
PER_LAYER = (
    # positivity
    ("correlation.split_integrals.self_s", "s", "lower", None),
    ("correlation.direct_correlation.self_s", "s", "lower", None),
    ("correlation.split_integrals.atom_gridpts_per_s", "1/s", "higher",
     "correlation.split_integrals.work_per_s"),
    ("correlation.direct_correlation.atom_cells_per_s", "1/s", "higher",
     "correlation.direct_correlation.work_per_s"),
    ("measures.AtomicMeasure.is_symmetric.self_s", "s", "lower", None),
    ("measures.AtomicMeasure.is_symmetric.calls", "calls/op", "lower", None),
    ("correlation.scales_per_set", "scales", "lower", None),
    ("correlation.decisive_frac", "ratio", "higher", None),
    ("correlation.random_indicator.self_s", "s", "lower",
     "setup.correlation.random_indicator.self_s"),
    ("correlation.random_indicator.incl_s", "s", "lower",
     "setup.correlation.random_indicator.incl_s"),
    # rings
    ("measures.ft_many.self_s", "s", "lower", None),
    ("measures.ft_many.calls", "calls/op", "lower", None),
    ("measures.ft_many.atom_freqs_per_s", "1/s", "higher", "measures.ft_many.work_per_s"),
    ("goodness.goodness_profile.self_s", "s", "lower", None),
    ("measures.decay_scan.self_s", "s", "lower", None),
    ("goodness.construct_good_measure.self_s", "s", "lower",
     "setup.goodness.construct_good_measure.self_s"),
    ("goodness.construct_good_measure.incl_s", "s", "lower",
     "setup.goodness.construct_good_measure.incl_s"),
    # polytope
    ("measures.ft_profile.self_s", "s", "lower", None),
    ("measures.ft_profile.atom_freqs_per_s", "1/s", "higher", "measures.ft_profile.work_per_s"),
    ("measures.wiener_atom_mass.self_s", "s", "lower", None),
    ("goodness.polytope_bound_audit.self_s", "s", "lower", None),
    ("distances.distance_set.self_s", "s", "lower", None),
    ("distances.distance_set.pairs_per_s", "1/s", "higher", "distances.distance_set.work_per_s"),
    ("bodies.HPolytope.gauge_many.self_s", "s", "lower", None),
    ("bodies.HPolytope.gauge_many.calls", "calls/op", "lower", None),
    ("spectra.radial_zero_scan.self_s", "s", "lower", None),
    ("spectra.chi_hat_many.self_s", "s", "lower", None),
    ("spectra.chi_hat.self_s", "s", "lower", None),
    ("spectra.chi_hat.calls", "calls/op", "lower", None),
    # every workload's set-up
    ("bodies.triangulate_boundary.self_s", "s", "lower",
     "setup.bodies.triangulate_boundary.self_s"),
    ("bodies.triangulate_boundary.incl_s", "s", "lower",
     "setup.bodies.triangulate_boundary.incl_s"),
    # health: gate error magnitudes and tracing cost
    ("goodness.cert_over_sup_max", "ratio", "lower", None),
    ("goodness.ring_ref_abserr", "1", "lower", None),
    ("goodness.square_wiener_relerr", "ratio", "lower", None),
    ("correlation.split_direct_relgap_max", "ratio", "lower", None),
    ("distances.pair_gauge_abserr_max", "1", "lower", None),
    ("spectra.square_zero_abserr_max", "1", "lower", None),
    ("trace.overhead_frac", "ratio", "lower", None),
    ("trace.spans_per_op", "spans/op", "lower", None),
    ("trace.op_s_p50", "s", "lower", None),
)


def machine_info(root: Path):
    """Facts recorded with every result: source identity, versions, machine."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gaugelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}


def run_worker(args, env, deadline):
    """Run worker.py to completion and return its JSON record (or raise)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed before a worker could start")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values, beyond=TAIL_BEYOND):
    """Highest nearest-rank percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond).  The sample of rank
    n - beyond (1-based, ascending) has `beyond` samples ranked above it.
    A tail never sits below the median: with fewer than 2 * beyond + 1
    samples the rank floor(n / 2) + 1 (the median, or the upper of the two
    middle samples) is used instead, and samples_beyond reports how many
    samples rank above it.
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(n - beyond, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(measure, setup_samples):
    times = measure["op_times"]
    passed = measure["attempted"] - measure["failed"]
    tail_s, pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": passed / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "peak_rss_mb": measure["peak_rss_kib"] / 1024.0,
        "ops_ok_frac": passed / measure["attempted"],
    }
    details = {"op_s_tail_percentile": pct, "op_s_tail_ops_beyond": beyond,
               "ops": len(times), "op_times": times,
               "ops_failed_frac": measure["failed"] / measure["attempted"],
               "setup_s_samples": setup_samples}
    return values, details


def per_layer(measure):
    figures = dict(measure["layers"], **measure["health"])
    figures["trace.op_s_p50"] = statistics.median(measure["op_times"])
    return {name: figures.get(source or name, 0.0) for name, _, _, source in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description="gaugelab benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "gaugelab" / "__init__.py").is_file():
        print(f"perfbench: no gaugelab package at {root / 'src' / 'gaugelab'}; "
              "run from the root of a gaugelab checkout", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    caps = {var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1", **caps)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measure_args = [*common, "--role", "measure", "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]

    try:
        if args.trace:
            measure = run_worker([*measure_args, "--spans", str(out_dir / f"spans-{tag}.json")],
                                 env, deadline)
            metrics = per_layer(measure)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            details = {}
        else:
            probes = [run_worker([*common, "--role", "setup"], env, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            measure = run_worker(measure_args, env, deadline)
            metrics, details = end_to_end(measure, probes + [measure["setup_s"]])
            units = {name: unit for name, unit, _, _ in END_TO_END}
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    expected = str((root / "src" / "gaugelab" / "__init__.py").resolve())
    if str(Path(measure["gaugelab_file"]).resolve()) != expected:
        print(f"perfbench: imported {measure['gaugelab_file']}, not {expected}", file=sys.stderr)
        return 1
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, gaugelab_file=measure["gaugelab_file"],
                   numpy=measure["numpy"], scipy=measure["scipy"], thread_caps=caps,
                   health=measure["health"], **machine_info(root))
    result = {"correct": measure["failed"] == 0, "attempted": measure["attempted"],
              "failed": measure["failed"],
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
