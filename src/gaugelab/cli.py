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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bodies, correlation, distances, errors, goodness, measures, spectra
from .errors import BadInputError, BudgetExceededError, HypothesisViolationError


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _parse_vector(text):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise BadInputError(f"cannot parse vector {text!r}") from None


def _directions(manifest, key, dim):
    """The `;`-separated vectors of --key as unit rows; bad input unless each is nonzero
    and has the body's dimension.  project and wiener take one vector, divided by its
    vector norm, which can round apart from the row norm of _unit_rows in the last bit."""
    rows = [_parse_vector(part) for part in str(_need(manifest, key)[0]).split(";")]
    if any(row.size != dim for row in rows):
        raise BadInputError(f"--{key} needs vectors of length {dim}")
    units, _ = measures._unit_rows(np.stack(rows), f"--{key}")
    if manifest.command not in ("project", "wiener"):
        return units
    if len(rows) > 1:
        raise BadInputError(f"{manifest.command} takes one --{key} vector")
    return rows[0] / np.linalg.norm(rows[0])


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise BadInputError("grid spec must be start,stop,count")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise BadInputError("grid count must be >= 1")
    return np.linspace(a, b, n)


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
        return {"command": self.command, "out": self.out, "seed": self.seed,
                "body": self.body, "points": self.points,
                "indicator": self.indicator, "params": dict(self.params)}

    @staticmethod
    def from_file(path):
        spec = errors.read_json(path, "manifest")
        if spec.get("command") not in COMMANDS:
            raise BadInputError(f"unknown command {spec.get('command')!r}")
        return ExperimentManifest(
            command=spec["command"], out=spec.get("out", "."),
            seed=int(spec.get("seed", 0)), body=spec.get("body"),
            points=spec.get("points"), indicator=spec.get("indicator"),
            params=dict(spec.get("params", {})))


class _RunLog:
    def __init__(self, manifest: ExperimentManifest):
        self.lines = [f"command: {manifest.command}", f"seed: {manifest.seed}"]
        for key in ("body", "points", "indicator", "out"):
            val = getattr(manifest, key)
            if val is not None:
                self.lines.append(f"{key}: {val}")
        for key in sorted(manifest.params):
            self.lines.append(f"param {key}: {_fmt(manifest.params[key])}")

    def add(self, key, value):
        self.lines.append(f"{key}: {_fmt(value)}")

    def write(self, outdir: Path):
        (outdir / "run.log").write_text("\n".join(self.lines) + "\n")


def _need(manifest, *keys):
    for key in keys:
        if key not in manifest.params:
            raise BadInputError(f"command {manifest.command!r} needs --{key}")
    return [manifest.params[k] for k in keys]


def _load_body(manifest):
    if not manifest.body:
        raise BadInputError(f"command {manifest.command!r} needs --body")
    return bodies.load_body(manifest.body)


def _boundary_measure(manifest, body, log):
    resolution = int(manifest.params.get("resolution", 4096))
    mesh = bodies.triangulate_boundary(body, resolution)
    log.add("mesh nodes", len(mesh))
    log.add("mesh mass", mesh.total_mass)
    normalize = bool(manifest.params.get("normalize", True))
    return measures.from_mesh(mesh, normalize=normalize), mesh


# -- command handlers -----------------------------------------------------------


def _cmd_body(manifest, outdir, log):
    body = _load_body(manifest)
    resolution = int(manifest.params.get("resolution", 1024))
    mesh = bodies.triangulate_boundary(body, resolution)
    log.add("dim", body.dim)
    log.add("scale", body.scale)
    log.add("inner radius", body.inner_radius())
    log.add("outer radius", body.outer_radius())
    log.add("mesh nodes", len(mesh))
    log.add("surface mass", mesh.total_mass)
    d = body.dim
    header = [f"x{i}" for i in range(d)] + [f"n{i}" for i in range(d)] + ["w"]
    rows = [list(p) + list(n) + [w] for p, n, w in
            zip(mesh.positions, mesh.normals, mesh.weights)]
    _write_csv(outdir / "mesh.csv", header, rows)


def _cmd_gauge(manifest, outdir, log):
    body = _load_body(manifest)
    if "point" in manifest.params:
        pts = _parse_vector(manifest.params["point"])[None, :]
    elif manifest.points:
        pts = distances.PointSet.load_csv(manifest.points).points
    else:
        raise BadInputError("gauge needs --point or --points")
    g = body.gauge_many(pts)
    dg = body.dual_gauge_many(pts)
    header = [f"x{i}" for i in range(body.dim)] + ["gauge", "dual_gauge"]
    _write_csv(outdir / "gauge.csv", header,
               [list(p) + [gv, dv] for p, gv, dv in zip(pts, g, dg)])
    log.add("points", len(pts))


def _write_distances(outdir, report):
    _write_csv(outdir / "distances.csv", ["value"], [[v] for v in report.distances])
    _write_csv(outdir / "gaps.csv", ["start", "length"], report.gaps)


def _points_from_manifest(manifest):
    if manifest.points:
        return distances.PointSet.load_csv(manifest.points)
    lattice = manifest.params.get("lattice")
    if lattice:
        if not lattice.upper().startswith("Z"):
            raise BadInputError("lattice spec must look like Z2 or Z3")
        dim = int(lattice[1:])
        lo, hi = manifest.params.get("range", (-10.0, 10.0))
        spacing = float(manifest.params.get("spacing", 1.0))
        return distances.lattice_points(dim, float(lo), float(hi), spacing)
    raise BadInputError("need --points or --lattice")


def _cmd_distset(manifest, outdir, log):
    body = _load_body(manifest)
    pts = _points_from_manifest(manifest)
    (t_max,) = _need(manifest, "tmax")
    report = distances.distance_set(pts, body, float(t_max))
    _write_distances(outdir, report)
    log.add("points", len(pts))
    log.add("distinct distances", len(report.distances))
    log.add("separation witness", report.separation_witness)
    log.add("separated", report.separated)
    (outdir / "summary.txt").write_text(
        f"{len(pts)} points give {len(report.distances)} distinct distances up to "
        f"{_fmt(float(t_max))}; {len(report.gaps)} gaps; separated="
        f"{report.separated} (witness {_fmt(report.separation_witness)})\n")


def _cmd_gaps(manifest, outdir, log):
    path = manifest.params.get("distances")
    if not path:
        raise BadInputError("gaps needs --distances (a distances.csv)")
    vals = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)
    eps = float(_need(manifest, "eps")[0])
    t0 = float(manifest.params.get("t0", 0.0))
    t_max = float(manifest.params.get("tmax", vals.max() if vals.size else 0.0))
    report = distances.GapReport.from_values(vals, t_max, t0=t0)
    count, found = distances.gap_scan(report, eps, t0)
    _write_csv(outdir / "gapscan.csv", ["start", "length"], found)
    log.add("gap count", count)


def _cmd_ftscan(manifest, outdir, log):
    body = _load_body(manifest)
    mu, _ = _boundary_measure(manifest, body, log)
    etas = _directions(manifest, "eta", body.dim)
    t_grid = _parse_grid(str(_need(manifest, "tgrid")[0]))
    points = (t_grid[None, :, None] * etas[:, None, :]).reshape(-1, body.dim)
    vals = measures.ft_many(mu, points)
    if np.any(np.abs(vals) > mu.abs_mass * (1 + 1e-12) + 1e-15):
        raise BadInputError("transform values exceed the total mass bound")
    rows = []
    for k in range(etas.shape[0]):
        for i, t in enumerate(t_grid):
            v = vals[k * t_grid.size + i]
            rows.append([t, k, v.real, v.imag, abs(v)])
    _write_csv(outdir / "ftscan.csv", ["t", "eta_index", "re", "im", "abs"], rows)
    log.add("directions", len(etas))
    log.add("lipschitz bound", mu.lipschitz_bound)


def _cmd_project(manifest, outdir, log):
    body = _load_body(manifest)
    mu, _ = _boundary_measure(manifest, body, log)
    eta = _directions(manifest, "eta", body.dim)
    bins = int(manifest.params.get("bins", measures.DEFAULT_BINS))
    line = measures.project_measure(mu, eta, bins)
    _write_csv(outdir / "atoms.csv", ["location", "mass"],
               list(zip(line.atom_positions, line.atom_masses)))
    rows = [[line.bin_edges[i], line.bin_edges[i + 1], line.bin_masses[i]]
            for i in range(line.bin_masses.size)]
    _write_csv(outdir / "density.csv", ["bin_lo", "bin_hi", "mass"], rows)
    log.add("atom mass", float(np.sum(line.atom_masses)))
    log.add("density mass", float(np.sum(line.bin_masses)))


def _cmd_wiener(manifest, outdir, log):
    body = _load_body(manifest)
    mu, _ = _boundary_measure(manifest, body, log)
    eta = _directions(manifest, "eta", body.dim)
    T = float(_need(manifest, "T")[0])
    samples = manifest.params.get("samples")
    try:   # wiener_atom_mass refuses a count that is not a positive integer
        samples = float(samples) if samples else None
    except ValueError:
        raise BadInputError(f"--samples must be a number, not {samples!r}") from None
    val = measures.wiener_atom_mass(mu, eta, T, samples)
    _write_csv(outdir / "wiener.csv", ["T", "value", "sqrt_value"],
               [[T, val, math.sqrt(max(val, 0.0))]])
    log.add("wiener value", val)


def _cmd_decay(manifest, outdir, log):
    body = _load_body(manifest)
    _, mesh = _boundary_measure(manifest, body, log)
    thetas = _directions(manifest, "thetas", body.dim)
    r_cap = float(_need(manifest, "rcap")[0])
    delta = float(_need(manifest, "delta")[0])
    t_grid = _parse_grid(str(_need(manifest, "tgrid")[0]))
    dots = np.clip(mesh.normals @ thetas.T, -1, 1)
    sel = np.min(np.arccos(dots), axis=1) < r_cap
    if not np.any(sel):
        raise HypothesisViolationError("no boundary mass under the requested caps")
    piece = measures.from_mesh(mesh.restrict(sel))
    result = measures.decay_scan(piece, thetas, delta, t_grid, return_table=True)
    rows = []
    for i, t in enumerate(result.t_grid):
        for k in range(result.etas.shape[0]):
            v = result.table[i, k]
            rows.append([t, k, v.real, v.imag, abs(v)])
    _write_csv(outdir / "decay.csv", ["t", "eta_index", "re", "im", "abs"], rows)
    _write_csv(outdir / "envelope.csv", ["t", "sup_abs", "cert_err"],
               list(zip(result.t_grid, result.envelope, result.cert_errors)))
    log.add("piece mass", piece.total_mass)
    log.add("admissible directions", result.etas.shape[0])


def _upper_half_caps(n_caps, r_cap):
    ang = (np.arange(n_caps) + 0.5) * np.pi / n_caps
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return bodies.CapFamily(dirs, r_cap)


def _cmd_goodness(manifest, outdir, log):
    body = _load_body(manifest)
    if body.dim != 2:
        raise BadInputError("the goodness command auto-places caps in the plane only")
    n_caps = int(_need(manifest, "N")[0])
    r_cap = float(_need(manifest, "rcap")[0])
    delta = float(_need(manifest, "delta")[0])
    resolution = int(manifest.params.get("resolution", 16384))
    mesh = bodies.triangulate_boundary(body, resolution)
    caps = _upper_half_caps(n_caps, r_cap)
    mu = goodness.construct_good_measure(body, mesh, caps)
    R, report = goodness.stabilized_goodness(
        mu, r_cap, angular_resolution=int(manifest.params.get("angular", 16384)))
    _write_csv(outdir / "goodness.csv", ["shell_radius", "sup_est", "cert_err"],
               report.rows())
    bound = 1.0 / n_caps + delta
    floor = 1.0 / (math.sqrt(2.0) * n_caps)
    log.add("caps", n_caps)
    log.add("delta0", caps.delta0)
    log.add("achieved R", R)
    log.add("eps_hat", report.eps_hat)
    log.add("target 1/N + delta", bound)
    log.add("lower_bound_1_over_sqrt2N", floor)
    log.add("within target", report.eps_hat <= bound)
    (outdir / "summary.txt").write_text(
        f"N={n_caps} R={_fmt(R)} eps_hat={_fmt(report.eps_hat)} "
        f"target={_fmt(bound)} lower_bound_1_over_sqrt2N={_fmt(floor)} "
        f"ok={report.eps_hat <= bound}\n")


def _cmd_audit(manifest, outdir, log):
    body = _load_body(manifest)
    if not isinstance(body, bodies.HPolytope):
        raise BadInputError("audit needs an H-polytope body")
    T = float(_need(manifest, "T")[0])
    if manifest.params.get("measure"):
        mu = measures.load_measure(manifest.params["measure"])
    else:
        mesh = bodies.triangulate_boundary(body, int(manifest.params.get("resolution", 2048)))
        mu = measures.from_mesh(mesh, normalize=True)
    result = goodness.polytope_bound_audit(body, mu, T)
    _write_csv(outdir / "audit.csv",
               ["N", "best_mass", "wiener", "sqrt_wiener", "pair_bound",
                "goodness_floor", "passed"],
               [[result.n_directions, result.best_pair_mass, result.wiener_value,
                 result.wiener_sqrt, result.pair_lower_bound,
                 result.goodness_floor, result.passed]])
    log.add("N", result.n_directions)
    log.add("best pair mass", result.best_pair_mass)
    log.add("sqrt wiener", result.wiener_sqrt)
    log.add("goodness floor", result.goodness_floor)


def _cmd_bourgain(manifest, outdir, log):
    body = _load_body(manifest)
    delta = float(_need(manifest, "delta")[0])
    grid = int(manifest.params.get("grid", 256))
    if manifest.indicator:
        f = correlation.load_indicator(manifest.indicator)
    else:
        eps_frac = float(manifest.params.get("eps", 0.3))
        consts_vol = correlation.BourgainConstants(body.dim).omega_d
        f = correlation.random_indicator(body.dim, grid, eps_frac * consts_vol,
                                         manifest.seed)
    mesh = bodies.triangulate_boundary(body, int(manifest.params.get("resolution", 512)))
    sigma = measures.from_mesh(mesh, normalize=True)
    if not sigma.is_symmetric():
        raise BadInputError("boundary measure is not symmetric; "
                            "the frequency-side correlation needs a real transform")
    consts = correlation.BourgainConstants(f.dim)
    plan = correlation.LacunaryPlan.geometric(delta, 1.0 / delta, d=f.dim, eps=f.measure)
    sigma_report = None
    if manifest.params.get("shells"):
        shells = _parse_vector(str(manifest.params["shells"]))
        sigma_report = goodness.goodness_profile(sigma, float(np.min(shells)), shells)
        log.add("sigma goodness R", sigma_report.R)
        log.add("sigma eps_hat", sigma_report.eps_hat)
    result = correlation.lacunary_search(f, sigma, plan, goodness=sigma_report)
    rows = [[j, t, i1, i2, i3, "" if direct is None else direct, verdict]
            for (j, t, i1, i2, i3, direct, verdict) in result.rows]
    _write_csv(outdir / "bourgain.csv",
               ["j", "t_j", "I1", "I2", "I3", "direct", "verdict"], rows)
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


def _cmd_zeros(manifest, outdir, log):
    body = _load_body(manifest)
    window = _parse_vector(str(_need(manifest, "window")[0]))
    steps = int(_need(manifest, "steps")[0])
    ledger = spectra.radial_zero_scan(body, (window[0], window[1]), steps)
    spacings = np.concatenate([[math.nan], ledger.spacings]) if ledger.zeros.size \
        else np.empty(0)
    _write_csv(outdir / "zeros.csv", ["zero_radius", "spacing"],
               list(zip(ledger.zeros, spacings)))
    mean, dev = ledger.tail_spacing()
    log.add("zeros found", ledger.zeros.size)
    log.add("tail spacing mean", mean)
    log.add("tail spacing max deviation", dev)
    log.add("approximate profile", ledger.approximate)


def _cmd_spectrum(manifest, outdir, log):
    body = _load_body(manifest)
    pts = _points_from_manifest(manifest)
    R = float(_need(manifest, "R")[0])
    tol = manifest.params.get("ortho_tol")
    result = spectra.spectrum_gap_pipeline(pts, body, R,
                                           ortho_tol=float(tol) if tol else None)
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
    outdir = Path(manifest.out)
    outdir.mkdir(parents=True, exist_ok=True)
    log = _RunLog(manifest)
    errors.write_json(outdir / "manifest.json", manifest.to_dict(), indent=2)
    _HANDLERS[manifest.command](manifest, outdir, log)
    log.write(outdir)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gaugelab",
        description="Gauge-norm and boundary-measure numerics, batch mode")
    parser.add_argument("--manifest", help="run a saved manifest JSON instead of flags")
    sub = parser.add_subparsers(dest="command")

    def add(name, *flags):
        p = sub.add_parser(name)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=0)
        for flag in flags:
            p.add_argument(flag)
        return p

    add("body", "--body", "--resolution")
    add("gauge", "--body", "--point", "--points")
    p = add("distset", "--body", "--points", "--lattice", "--tmax", "--spacing")
    p.add_argument("--range", nargs=2, type=float)
    add("gaps", "--distances", "--eps", "--t0", "--tmax")
    add("ftscan", "--body", "--eta", "--tgrid", "--resolution")
    add("project", "--body", "--eta", "--bins", "--resolution")
    add("wiener", "--body", "--eta", "--T", "--samples", "--resolution")
    add("decay", "--body", "--thetas", "--rcap", "--delta", "--tgrid", "--resolution")
    add("goodness", "--body", "--N", "--rcap", "--delta", "--resolution", "--angular")
    add("audit", "--body", "--measure", "--T", "--resolution")
    add("bourgain", "--body", "--set", "--eps", "--delta", "--grid", "--resolution",
        "--shells")
    add("zeros", "--body", "--window", "--steps")
    p = add("spectrum", "--body", "--points", "--lattice", "--R", "--ortho_tol", "--spacing")
    p.add_argument("--range", nargs=2, type=float)
    return parser


def _manifest_from_args(args) -> ExperimentManifest:
    params = {}
    skip = {"command", "manifest", "out", "seed", "body", "points", "set"}
    for key, val in vars(args).items():
        if key in skip or val is None:
            continue
        params[key] = val
    return ExperimentManifest(
        command=args.command, out=args.out, seed=args.seed,
        body=getattr(args, "body", None), points=getattr(args, "points", None),
        indicator=getattr(args, "set", None), params=params)


_NEGATIVE_LIST = re.compile(r"-[\d.][\w.+-]*[,;][\w.+,;-]*")


def main(argv=None) -> int:
    args = []   # argparse reads a value like -1,0 as a flag: pass it on as --flag=-1,0
    for arg in sys.argv[1:] if argv is None else argv:
        flag = args[-1] if args and args[-1].startswith("--") and "=" not in args[-1] else None
        if flag and _NEGATIVE_LIST.fullmatch(arg):
            args[-1] = f"{flag}={arg}"
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
