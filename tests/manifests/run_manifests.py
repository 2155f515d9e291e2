"""Run every CLI manifest in this directory and print the SHA-256 of every file made.

    python tests/manifests/run_manifests.py WORKDIR

WORKDIR must be new or empty.  inputs.py first writes the input files to
WORKDIR/inputs; then each NAME.json here runs with WORKDIR as the working
directory and writes to WORKDIR/NAME.  A file that holds a manifest runs as
`gaugelab --manifest FILE`; a file {"argv": [...]} runs as `gaugelab ARGV`, a flag
run.  The package is imported from this checkout's src/.

Output, one line each: `inputs/FILE SHA256`, then per run
`== NAME exit CODE: LAST STDERR LINE` and `NAME/FILE SHA256` for each file the
run wrote.  Two checkouts, or two runs of one, compare with diff.  The exit
status is 1 when some run ends in an exit code that the CLI does not define
(an uncaught exception).  Only the standard library is used here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def digests(root, top):
    for path in sorted(p for p in (root / top).rglob("*") if p.is_file()):
        yield f"{path.relative_to(root).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}"


def main(workdir):
    work = Path(workdir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        sys.exit(f"{work} is not empty")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parents[1] / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, str(HERE / "inputs.py"), "inputs"], cwd=work, env=env,
                   check=True)
    print("\n".join(digests(work, "inputs")))
    crashed = []
    for spec in sorted(HERE.glob("*.json")):
        argv = json.loads(spec.read_text()).get("argv") or ["--manifest", str(spec)]
        proc = subprocess.run([sys.executable, "-m", "gaugelab.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=600)
        errors = proc.stderr.strip().splitlines()
        print(f"== {spec.stem} exit {proc.returncode}: {errors[-1] if errors else '-'}")
        if (work / spec.stem).is_dir():
            print("\n".join(digests(work, spec.stem)))
        if proc.returncode not in (0, 2, 3, 4):
            crashed.append(spec.stem)
    if crashed:
        sys.exit(f"runs ended by an uncaught exception: {', '.join(crashed)}")


if __name__ == "__main__":
    main(sys.argv[1])
