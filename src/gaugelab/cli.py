"""Batch command-line surface with reproducible experiment manifests.

Every invocation resolves to an ExperimentManifest (command, input files,
numeric parameters, output directory, seed); identical manifests produce
byte-identical outputs.  Results are CSV files with '.' decimals and
17-significant-digit floats, plus a run.log echoing every resolved
parameter and the explicit constants of the positivity machine.

Exit codes: 0 ok, 2 bad input, 3 hypothesis violation, 4 numeric budget
exceeded.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bodies, correlation, distances, errors, goodness, measures, spectra
from .errors import BadInputError, BudgetExceededError, HypothesisViolationError, fmt, write_csv


# -- parameters ------------------------------------------------------------------
# A reader turns a flag string or a JSON value into one typed parameter, or raises
# TypeError or ValueError, which _read reports as bad input naming the key.  An integer
# may be given as a float or string of integral value; a pair as `a,b` or [a, b]; a grid
# as `start,stop,count` with count >= 1; a lattice as `Zd` with d >= 1.


def _finite(value):
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(value)
    return x


def _integer(value):
    x = _finite(value)
    if not x.is_integer():
        raise ValueError(value)
    return value if type(value) is int else int(x)


def _pair(value):
    a, b = map(_finite, value.split(",") if isinstance(value, str) else value)
    return a, b


def _grid(value):
    start, stop, count = str(value).split(",")
    count = _integer(count)
    if count < 1:
        raise ValueError(value)
    return np.linspace(_finite(start), _finite(stop), count)


def _lattice(value):
    if not str(value).upper().startswith("Z") or int(value[1:]) < 1:
        raise ValueError(value)
    return int(value[1:])


def _vector(value):
    return np.array([float(v) for v in str(value).split(",")], dtype=float)


def _vectors(value):
    return [_vector(part) for part in str(value).split(";")]


def _read(key, reader, value):
    try:
        return reader(value)
    except (TypeError, ValueError, OverflowError):
        raise BadInputError(f"cannot read --{key} from {value!r}") from None


# _PARAMS[command][key] is (reader, default) for each parameter of the command, where the
# default ... makes the key required.  _FILE marks an input-file flag, which the manifest
# keeps in its own field (body, points, indicator), not in its params.
_FILE = None
_MESH = {"body": _FILE, "resolution": (_integer, 4096)}
_LATTICE = {"body": _FILE, "points": _FILE, "lattice": (_lattice, None),
            "range": (_pair, (-10.0, 10.0)), "spacing": (_finite, 1.0)}
_PARAMS = {
    "body": {"body": _FILE, "resolution": (_integer, 1024)},
    "gauge": {"body": _FILE, "point": (_vector, None), "points": _FILE},
    "distset": {**_LATTICE, "tmax": (_finite, ...)},
    "gaps": {"distances": (str, ...), "eps": (_finite, ...), "t0": (_finite, 0.0),
             "tmax": (_finite, None)},
    "ftscan": {**_MESH, "eta": (_vectors, ...), "tgrid": (_grid, ...)},
    "project": {**_MESH, "eta": (_vectors, ...), "bins": (_integer, measures.DEFAULT_BINS)},
    "wiener": {**_MESH, "eta": (_vectors, ...), "T": (_finite, ...),
               "samples": (_integer, None)},
    "decay": {**_MESH, "thetas": (_vectors, ...), "rcap": (_finite, ...),
              "delta": (_finite, ...), "tgrid": (_grid, ...)},
    "goodness": {"body": _FILE, "N": (_integer, ...), "rcap": (_finite, ...),
                 "delta": (_finite, ...), "resolution": (_integer, 16384),
                 "angular": (_integer, 16384)},
    "audit": {"body": _FILE, "measure": (str, None), "T": (_finite, ...),
              "resolution": (_integer, 2048)},
    "bourgain": {"body": _FILE, "set": _FILE, "eps": (_finite, 0.3), "delta": (_finite, ...),
                 "grid": (_integer, 256), "resolution": (_integer, 512),
                 "shells": (_vector, None)},
    "zeros": {"body": _FILE, "window": (_pair, ...), "steps": (_integer, ...)},
    "spectrum": {**_LATTICE, "R": (_finite, ...), "ortho_tol": (_finite, None)},
}


def _params(manifest):
    """The parameters of manifest.command, read and with their defaults filled in; bad
    input on a key the command does not declare, an unreadable value or a missing one."""
    table = _PARAMS[manifest.command]
    if "body" in table and not manifest.body:
        raise BadInputError(f"command {manifest.command!r} needs --body")
    typed = {key: spec[1] for key, spec in table.items() if spec is not _FILE}
    for key, value in manifest.params.items():
        if table.get(key) is _FILE:   # an undeclared key or a file flag
            raise BadInputError(f"command {manifest.command!r} takes no parameter {key!r}")
        typed[key] = _read(key, table[key][0], value)
    for key, value in typed.items():
        if value is ...:
            raise BadInputError(f"command {manifest.command!r} needs --{key}")
    return typed


def _directions(manifest, p, key, dim):
    """The vectors of --key as unit rows; bad input unless each is nonzero and has the
    body's dimension.  project and wiener take one vector, divided by its vector norm,
    which can round apart from the row norm of _unit_rows in the last bit."""
    rows = p[key]
    if any(row.size != dim for row in rows):
        raise BadInputError(f"--{key} needs vectors of length {dim}")
    units, _ = measures._unit_rows(np.stack(rows), f"--{key}")
    if manifest.command not in ("project", "wiener"):
        return units
    if len(rows) > 1:
        raise BadInputError(f"{manifest.command} takes one --{key} vector")
    return rows[0] / np.linalg.norm(rows[0])


@dataclass
class ExperimentManifest:
    """Everything needed to reproduce one run byte-for-byte."""

    command: str
    out: str = "."
    seed: int = 0
    body: str | None = None
    points: str | None = None
    indicator: str | None = None
    params: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    @staticmethod
    def from_file(path):
        spec = errors.read_json(path, "manifest")
        if not isinstance(spec, dict) or not isinstance(spec.get("params", {}), dict):
            raise BadInputError(f"manifest {path} must be a JSON object with object params")
        fields = {key: spec.get(key) for key in ("command", "out", "body", "points", "indicator")}
        for key, value in fields.items():
            if not isinstance(value, (str, type(None))):
                raise BadInputError(f"manifest field {key!r} must be a string or null")
        if fields["out"] is None:
            fields["out"] = "."
        return ExperimentManifest(**fields,
                                  seed=_read("seed", _integer, spec.get("seed", 0)),
                                  params=spec.get("params", {}))


class _RunLog:
    def __init__(self, manifest: ExperimentManifest):
        self.lines = [f"command: {manifest.command}", f"seed: {manifest.seed}"]
        for key in ("body", "points", "indicator", "out"):
            val = getattr(manifest, key)
            if val is not None:
                self.lines.append(f"{key}: {val}")
        for key in sorted(manifest.params):
            self.lines.append(f"param {key}: {fmt(manifest.params[key])}")

    def add(self, key, value):
        self.lines.append(f"{key}: {fmt(value)}")

    def write(self, outdir: Path):
        (outdir / "run.log").write_text("\n".join(self.lines) + "\n")


def _boundary_measure(p, body, log):
    mesh = bodies.triangulate_boundary(body, p["resolution"])
    log.add("mesh nodes", len(mesh))
    log.add("mesh mass", mesh.total_mass)
    return measures.from_mesh(mesh, normalize=True), mesh


# -- command handlers -----------------------------------------------------------


def _cmd_body(manifest, p, body, outdir, log):
    mesh = bodies.triangulate_boundary(body, p["resolution"])
    log.add("dim", body.dim)
    log.add("scale", body.scale)
    log.add("inner radius", body.inner_radius())
    log.add("outer radius", body.outer_radius())
    log.add("mesh nodes", len(mesh))
    log.add("surface mass", mesh.total_mass)
    d = body.dim
    header = [f"x{i}" for i in range(d)] + [f"n{i}" for i in range(d)] + ["w"]
    rows = [list(x) + list(n) + [w] for x, n, w in
            zip(mesh.positions, mesh.normals, mesh.weights)]
    write_csv(outdir / "mesh.csv", header, rows)


def _cmd_gauge(manifest, p, body, outdir, log):
    if p["point"] is not None:
        pts = p["point"][None, :]
    elif manifest.points:
        pts = distances.PointSet.load_csv(manifest.points).points
    else:
        raise BadInputError("gauge needs --point or --points")
    if pts.shape[1] != body.dim:
        raise BadInputError(f"gauge needs points of dimension {body.dim}")
    g = body.gauge_many(pts)
    dg = body.dual_gauge_many(pts)
    header = [f"x{i}" for i in range(body.dim)] + ["gauge", "dual_gauge"]
    write_csv(outdir / "gauge.csv", header,
              [list(x) + [gv, dv] for x, gv, dv in zip(pts, g, dg)])
    log.add("points", len(pts))


def _write_distances(outdir, report):
    write_csv(outdir / "distances.csv", ["value"], [[v] for v in report.distances])
    write_csv(outdir / "gaps.csv", ["start", "length"], report.gaps)


def _points_from_manifest(manifest, p):
    if manifest.points:
        return distances.PointSet.load_csv(manifest.points)
    if p["lattice"] is not None:
        return distances.lattice_points(p["lattice"], *p["range"], p["spacing"])
    raise BadInputError("need --points or --lattice")


def _cmd_distset(manifest, p, body, outdir, log):
    pts = _points_from_manifest(manifest, p)
    report = distances.distance_set(pts, body, p["tmax"])
    _write_distances(outdir, report)
    log.add("points", len(pts))
    log.add("distinct distances", len(report.distances))
    log.add("separation witness", report.separation_witness)
    log.add("separated", report.separated)
    (outdir / "summary.txt").write_text(
        f"{len(pts)} points give {len(report.distances)} distinct distances up to "
        f"{fmt(p['tmax'])}; {len(report.gaps)} gaps; separated="
        f"{report.separated} (witness {fmt(report.separation_witness)})\n")


def _cmd_gaps(manifest, p, body, outdir, log):
    vals = errors.read_csv(p["distances"], "distances").ravel()
    t_max = p["tmax"]
    if t_max is None:
        t_max = float(vals.max()) if vals.size else 0.0
    report = distances.GapReport.from_values(vals, t_max)
    count, found = distances.gap_scan(report, p["eps"], p["t0"])
    write_csv(outdir / "gapscan.csv", ["start", "length"], found)
    log.add("gap count", count)


def _cmd_ftscan(manifest, p, body, outdir, log):
    mu, _ = _boundary_measure(p, body, log)
    etas = _directions(manifest, p, "eta", body.dim)
    t_grid = p["tgrid"]
    points = (t_grid[None, :, None] * etas[:, None, :]).reshape(-1, body.dim)
    vals = measures.ft_many(mu, points)
    if np.any(np.abs(vals) > mu.abs_mass * (1 + 1e-12) + 1e-15):
        raise BadInputError("transform values exceed the total mass bound")
    rows = []
    for k, along_eta in enumerate(vals.reshape(len(etas), t_grid.size)):
        for t, v in zip(t_grid, along_eta):
            rows.append([t, k, v.real, v.imag, abs(v)])
    write_csv(outdir / "ftscan.csv", ["t", "eta_index", "re", "im", "abs"], rows)
    log.add("directions", len(etas))
    log.add("lipschitz bound", mu.lipschitz_bound)


def _cmd_project(manifest, p, body, outdir, log):
    mu, _ = _boundary_measure(p, body, log)
    eta = _directions(manifest, p, "eta", body.dim)
    line = measures.project_measure(mu, eta, p["bins"])
    write_csv(outdir / "atoms.csv", ["location", "mass"],
              list(zip(line.atom_positions, line.atom_masses)))
    write_csv(outdir / "density.csv", ["bin_lo", "bin_hi", "mass"],
              list(zip(line.bin_edges[:-1], line.bin_edges[1:], line.bin_masses)))
    log.add("atom mass", float(np.sum(line.atom_masses)))
    log.add("density mass", float(np.sum(line.bin_masses)))


def _cmd_wiener(manifest, p, body, outdir, log):
    mu, _ = _boundary_measure(p, body, log)
    eta = _directions(manifest, p, "eta", body.dim)
    val = measures.wiener_atom_mass(mu, eta, p["T"], p["samples"])
    write_csv(outdir / "wiener.csv", ["T", "value", "sqrt_value"],
              [[p["T"], val, math.sqrt(max(val, 0.0))]])
    log.add("wiener value", val)


def _cmd_decay(manifest, p, body, outdir, log):
    _, mesh = _boundary_measure(p, body, log)
    thetas = _directions(manifest, p, "thetas", body.dim)
    dots = np.clip(mesh.normals @ thetas.T, -1, 1)
    sel = np.min(np.arccos(dots), axis=1) < p["rcap"]
    if not np.any(sel):
        raise HypothesisViolationError("no boundary mass under the requested caps")
    piece = measures.from_mesh(mesh.restrict(sel))
    result = measures.decay_scan(piece, thetas, p["delta"], p["tgrid"], return_table=True)
    rows = []
    for t, at_t in zip(result.t_grid, result.table):
        for k, v in enumerate(at_t):
            rows.append([t, k, v.real, v.imag, abs(v)])
    write_csv(outdir / "decay.csv", ["t", "eta_index", "re", "im", "abs"], rows)
    write_csv(outdir / "envelope.csv", ["t", "sup_abs", "cert_err"],
              list(zip(result.t_grid, result.envelope, result.cert_errors)))
    log.add("piece mass", piece.total_mass)
    log.add("admissible directions", result.etas.shape[0])


def _cmd_goodness(manifest, p, body, outdir, log):
    if body.dim != 2:
        raise BadInputError("the goodness command auto-places caps in the plane only")
    n_caps = p["N"]
    mesh = bodies.triangulate_boundary(body, p["resolution"])
    ang = (np.arange(n_caps) + 0.5) * np.pi / n_caps   # caps centred on the upper half circle
    caps = bodies.CapFamily(np.stack([np.cos(ang), np.sin(ang)], axis=1), p["rcap"])
    mu = goodness.construct_good_measure(body, mesh, caps)
    R, report = goodness.stabilized_goodness(mu, p["rcap"], angular_resolution=p["angular"])
    write_csv(outdir / "goodness.csv", ["shell_radius", "sup_est", "cert_err"],
              report.rows())
    bound = 1.0 / n_caps + p["delta"]
    log.add("caps", n_caps)
    log.add("delta0", caps.delta0)
    log.add("achieved R", R)
    log.add("eps_hat", report.eps_hat)
    log.add("target 1/N + delta", bound)
    log.add("within target", report.eps_hat <= bound)
    (outdir / "summary.txt").write_text(
        f"N={n_caps} R={fmt(R)} eps_hat={fmt(report.eps_hat)} "
        f"target={fmt(bound)} ok={report.eps_hat <= bound}\n")


def _cmd_audit(manifest, p, body, outdir, log):
    if not isinstance(body, bodies.HPolytope):
        raise BadInputError("audit needs an H-polytope body")
    if p["measure"]:
        mu = measures.load_measure(p["measure"])
    else:
        mesh = bodies.triangulate_boundary(body, p["resolution"])
        mu = measures.from_mesh(mesh, normalize=True)
    result = goodness.polytope_bound_audit(body, mu, p["T"])
    write_csv(outdir / "audit.csv",
              ["N", "best_mass", "wiener", "sqrt_wiener", "pair_bound",
               "goodness_floor", "passed"],
              [[result.n_directions, result.best_pair_mass, result.wiener_value,
                result.wiener_sqrt, result.pair_lower_bound,
                result.goodness_floor, result.passed]])
    log.add("N", result.n_directions)
    log.add("best pair mass", result.best_pair_mass)
    log.add("sqrt wiener", result.wiener_sqrt)
    log.add("goodness floor", result.goodness_floor)


def _cmd_bourgain(manifest, p, body, outdir, log):
    delta = p["delta"]
    if manifest.indicator:
        f = correlation.load_indicator(manifest.indicator)
    else:
        consts_vol = correlation.BourgainConstants(body.dim).omega_d
        f = correlation.random_indicator(body.dim, p["grid"], p["eps"] * consts_vol,
                                         manifest.seed)
    mesh = bodies.triangulate_boundary(body, p["resolution"])
    sigma = measures.from_mesh(mesh, normalize=True)
    consts = correlation.BourgainConstants(f.dim)
    plan = correlation.LacunaryPlan.geometric(delta, 1.0 / delta, d=f.dim, eps=f.measure)
    sigma_report = None
    if p["shells"] is not None:
        shells = p["shells"]
        sigma_report = goodness.goodness_profile(sigma, float(np.min(shells)), shells)
        log.add("sigma goodness R", sigma_report.R)
        log.add("sigma eps_hat", sigma_report.eps_hat)
    result = correlation.lacunary_search(f, sigma, plan, goodness=sigma_report)
    write_csv(outdir / "bourgain.csv",
              ["j", "t_j", "I1", "I2", "I3", "direct", "verdict"], result.rows)
    log.add("set measure", f.measure)
    log.add("omega_d", consts.omega_d)
    log.add("theta", consts.theta)
    log.add("eta(|A|)", consts.eta(f.measure))
    log.add("I1 constant", consts.i1_constant)
    log.add("positivity constant", consts.positivity_constant)
    log.add("J bound", plan.j_bound)
    log.add("j0 index", plan.j0_index + 1)
    log.add("body scale factor", body.scale)
    for line in result.diagnostics:
        log.add("diagnostic", line)
    log.add("verdict", result.verdict)
    if not result.found:
        raise HypothesisViolationError(result.verdict)


def _cmd_zeros(manifest, p, body, outdir, log):
    ledger = spectra.radial_zero_scan(body, p["window"], p["steps"])
    spacings = np.concatenate([[math.nan], ledger.spacings])   # zip stops at the zeros
    write_csv(outdir / "zeros.csv", ["zero_radius", "spacing"],
              list(zip(ledger.zeros, spacings)))
    mean, dev = ledger.tail_spacing()
    log.add("zeros found", ledger.zeros.size)
    log.add("tail spacing mean", mean)
    log.add("tail spacing max deviation", dev)
    log.add("approximate profile", ledger.approximate)


def _cmd_spectrum(manifest, p, body, outdir, log):
    pts = _points_from_manifest(manifest, p)
    result = spectra.spectrum_gap_pipeline(pts, body, p["R"], ortho_tol=p["ortho_tol"])
    result.sparsified.save_csv(outdir / "sparsified.csv")
    _write_distances(outdir, result.report)
    log.add("input points", len(pts))
    log.add("kept points", len(result.sparsified))
    if result.residual is not None:
        log.add("orthogonality residual", result.residual)
    (outdir / "summary.txt").write_text(
        f"kept={len(result.sparsified)} distances={len(result.report.distances)} "
        f"gaps={len(result.report.gaps)}\n")


_HANDLERS = {
    "body": _cmd_body, "gauge": _cmd_gauge, "distset": _cmd_distset,
    "gaps": _cmd_gaps, "ftscan": _cmd_ftscan, "project": _cmd_project,
    "wiener": _cmd_wiener, "decay": _cmd_decay, "goodness": _cmd_goodness,
    "audit": _cmd_audit, "bourgain": _cmd_bourgain, "zeros": _cmd_zeros,
    "spectrum": _cmd_spectrum,
}
COMMANDS = tuple(_HANDLERS)


def run(manifest: ExperimentManifest) -> int:
    """Execute a manifest; returns the process exit code."""
    if manifest.command not in _HANDLERS:
        raise BadInputError(f"unknown command {manifest.command!r}")
    p = _params(manifest)
    outdir = Path(manifest.out)
    outdir.mkdir(parents=True, exist_ok=True)
    log = _RunLog(manifest)
    errors.write_json(outdir / "manifest.json", manifest.to_dict(), indent=2)
    body = bodies.load_body(manifest.body) if "body" in _PARAMS[manifest.command] else None
    _HANDLERS[manifest.command](manifest, p, body, outdir, log)
    log.write(outdir)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gaugelab",
        description="Gauge-norm and boundary-measure numerics, batch mode")
    parser.add_argument("--manifest", help="run a saved manifest JSON instead of flags")
    sub = parser.add_subparsers(dest="command")
    for name, table in _PARAMS.items():
        p = sub.add_parser(name)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=0)
        for key in table:
            if key == "range":
                p.add_argument("--range", nargs=2, type=float)
            else:
                p.add_argument(f"--{key}")
    return parser


def _manifest_from_args(args) -> ExperimentManifest:
    table = _PARAMS[args.command]   # out, seed and the file flags are manifest fields
    params = {key: val for key, val in vars(args).items()
              if val is not None and table.get(key) is not _FILE}
    return ExperimentManifest(
        command=args.command, out=args.out, seed=args.seed,
        body=getattr(args, "body", None), points=getattr(args, "points", None),
        indicator=getattr(args, "set", None), params=params)


_NEGATIVE_LIST = re.compile(r"-[\d.][\w.+-]*[,;][\w.+,;-]*")


def main(argv=None) -> int:
    args = []   # argparse reads a value like -1,0 as a flag: pass it on as --flag=-1,0
    for arg in sys.argv[1:] if argv is None else argv:
        if args and re.fullmatch(r"--\w+", args[-1]) and _NEGATIVE_LIST.fullmatch(arg):
            args[-1] += f"={arg}"
        else:
            args.append(arg)
    parser = _build_parser()
    args = parser.parse_args(args)
    try:
        if args.manifest:
            manifest = ExperimentManifest.from_file(args.manifest)
        elif args.command:
            manifest = _manifest_from_args(args)
        else:
            parser.print_usage(sys.stderr)
            return 2
        return run(manifest)
    except BadInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
