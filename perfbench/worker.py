"""One benchmark process: set up a workload, then optionally run its timed loop.

    python3 perfbench/worker.py --workload NAME --seed N --role setup
    python3 perfbench/worker.py --workload NAME --seed N --role measure \
        --seconds S --trace 0|1 [--spans PATH]

run.py starts this in a fresh process with PYTHONPATH pointing at the
checkout's src/ and the BLAS/OpenMP thread counts capped.  The last stdout
line is a JSON record.  The setup clock starts before numpy is imported, so
setup_s covers the fresh-process import plus the workload's construction.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_loop(workload, seconds, tracer=None):
    """Closed loop of ops for `seconds` of summed op wall time.

    The loop stops before an op that would, at the last op's duration, end
    more than half an op past the budget, so a run's length stays close to
    `seconds` however long one op takes.  Returns (op wall times, attempted,
    failed).  An op that raises or fails a gate counts as failed; the loop
    goes on.
    """
    op_times = []
    failed = 0
    busy = 0.0
    while not op_times or busy + 0.5 * op_times[-1] < seconds:
        inp = workload.next_input()
        if tracer is not None:
            tracer.op = len(op_times)
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception:  # a failing op is counted, not fatal
            out = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = tracer.IDLE_OP
        op_times.append(elapsed)
        busy += elapsed
        ok = False
        if out is not None:
            try:
                ok = bool(workload.check(inp, out))
            except Exception:
                traceback.print_exc()
        failed += not ok
        workload.advance(inp, out, ok)
    return op_times, len(op_times), failed


def layer_metrics(tracer, n_ops, op_wall):
    """Per-layer figures from the traced spans: per-op self times and calls, rates."""
    import pb_trace

    ops = set(range(n_ops))
    per_op = pb_trace.summarize(tracer.spans, ops)
    setup = pb_trace.summarize(tracer.spans, {tracer.SETUP_OP})
    out = {}
    for name, a in per_op.items():
        out[f"{name}.self_s"] = a["self_s"] / n_ops
        out[f"{name}.calls"] = a["calls"] / n_ops
        if a["work"]:
            out[f"{name}.work_per_s"] = a["work"] / a["incl_s"]
    for name, a in setup.items():
        out[f"setup.{name}.self_s"] = a["self_s"]
        out[f"setup.{name}.incl_s"] = a["incl_s"]
    covered = pb_trace.top_level_time(tracer.spans, ops)
    out["trace.overhead_frac"] = (op_wall - covered) / op_wall
    out["trace.spans_per_op"] = sum(1 for s in tracer.spans if s[4] in ops) / n_ops
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file for the raw spans of a traced run")
    args = ap.parse_args(argv)

    import numpy as np
    import scipy

    import gaugelab

    tracer = None
    if args.trace:
        import pb_trace

        tracer = pb_trace.Tracer().install()
    import pb_workloads

    workload = pb_workloads.WORKLOADS[args.workload](gaugelab, args.seed)
    setup_s = time.perf_counter() - _T0
    record = {"setup_s": setup_s, "gaugelab_file": gaugelab.__file__,
              "numpy": np.__version__, "scipy": scipy.__version__}
    if args.role == "measure":
        op_times, attempted, failed = run_loop(workload, args.seconds, tracer)
        record.update(op_times=op_times, attempted=attempted, failed=failed,
                      health=workload.health(),
                      peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = layer_metrics(tracer, attempted, sum(op_times))
            if args.spans:
                with open(args.spans, "w") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent", "op", "work"],
                               "spans": tracer.spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
