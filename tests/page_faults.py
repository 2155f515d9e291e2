"""Minor page faults per warm op of each benchmark workload, for reading only.

    python tests/page_faults.py [--seconds S] [WORKLOAD ...]

Builds each named workload of perfbench/pb_workloads.py (all three by default) from the
checkout's src/ at seed 1, each in a fresh process as the benchmark does (glibc raises its
mmap threshold after freeing a large block, so one workload's arrays would change the next
one's faults), runs 30 warm-up ops, then runs ops for S seconds of op time and prints the
minor page faults (getrusage ru_minflt) and the milliseconds per op, both counted around
the op alone: the workload's gates and bookkeeping run outside the count.  A fresh array the
allocator has to map anew costs one fault per 4 KiB page it touches, so a warm op that
reuses its buffers reads near 0.  Nothing is gated on a figure.
"""

import argparse
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gaugelab  # noqa: E402
import pb_workloads  # noqa: E402

SEED, WARM = 1, 30   # the workloads' seed and the ops run before counting


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _op(workload):
    """(faults, seconds) of one op; the op's gate and advance run outside both."""
    inp = workload.next_input()
    faults, start = _minflt(), time.perf_counter()
    out = workload.run(inp)
    elapsed, faults = time.perf_counter() - start, _minflt() - faults
    workload.advance(inp, out, workload.check(inp, out))
    return faults, elapsed


def faults_per_op(name, seconds):
    """(ops, minor faults per op, ms per op) of the workload's warm ops."""
    workload = pb_workloads.WORKLOADS[name](gaugelab, SEED)
    for _ in range(WARM):
        _op(workload)
    ops = faults = busy = 0
    while busy < seconds:
        f, s = _op(workload)
        ops, faults, busy = ops + 1, faults + f, busy + s
    return ops, faults / ops, 1e3 * busy / ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(pb_workloads.WORKLOADS))
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--here", action="store_true", help="measure in this process")
    args = ap.parse_args(argv)
    if args.here:
        for name in args.workloads:
            ops, faults, ms = faults_per_op(name, args.seconds)
            print(f"{name}: {ops} warm ops, {faults:.1f} minor faults per op, "
                  f"{ms:.2f} ms per op", flush=True)
        return
    for name in args.workloads:
        subprocess.run([sys.executable, __file__, "--here", "--seconds", str(args.seconds), name],
                       check=True)


if __name__ == "__main__":
    main()
