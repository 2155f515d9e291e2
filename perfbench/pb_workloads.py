"""The three benchmark workloads: inputs from a seed, one op, gates per op.

Each workload is a closed loop driven by worker.py: `next_input()` picks the
next op's inputs, `run(inp)` is the timed op and calls only gaugelab's
public API, `check(inp, out)` gates the result against references computed
here (never by gaugelab) and returns whether the op passed, and `advance`
moves the loop on.  Gates and references run outside the timed region;
`health()` reports the largest gate errors seen.
"""

from __future__ import annotations

import math

import numpy as np

# -- positivity ----------------------------------------------------------------

DELTA = 0.05
PLAN_R = 20.0
SET_MEASURE = 0.3 * math.pi          # |A| = 0.3 * omega_2
SET_CLASSES = ((256, 512), (128, 2048), (256, 512))   # (grid m, disk atoms), cycled
POOL_SETS = 6
SPLIT_DIRECT_REL = 0.02


def _explicit_constants(d, eps):
    """(i1 constant, pigeonhole budget offset) of the positivity argument, recomputed."""
    omega = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    base = omega / (4 ** d * math.pi ** d)
    theta = base / 80.0
    return base / 8.0, 1 + math.ceil(10.0 / theta / eps * math.log(1.0 / DELTA))


class Positivity:
    """One scale of the lacunary search (split_integrals + direct_correlation) per op.

    Sets come from a seeded pool, two of every three at m=256 against the
    512-atom disk measure and one at m=128 against 2048 atoms; each set's
    scales run from j0 until the first positive one, as lacunary_search does.
    """

    name = "positivity"

    def __init__(self, gl, seed):
        self.gl = gl
        rng = np.random.default_rng(seed)
        disk = gl.ball_body(2)
        self.sigmas = {atoms: gl.from_mesh(gl.triangulate_boundary(disk, atoms), normalize=True)
                       for atoms in sorted({a for _, a in SET_CLASSES})}
        self.pool = []
        for k in range(POOL_SETS):
            m, atoms = SET_CLASSES[k % len(SET_CLASSES)]
            f = gl.random_indicator(2, m, SET_MEASURE, seed=int(rng.integers(2 ** 31)))
            t1 = float(rng.uniform(0.3, 0.49))
            self.pool.append((f, atoms, t1))
        self._start_set(0)
        self.sets_done = 0
        self.scales_done = 0
        self.scales_in_done_sets = 0
        self.relgap_max = 0.0

    def _start_set(self, k):
        f, atoms, t1 = self.pool[k % len(self.pool)]
        if k >= len(self.pool):
            # A reused set starts from a fresh indicator so it pays for its spectrum again.
            f = self.gl.GridIndicator(f.dim, f.m, f.cells)
        eps = int(np.count_nonzero(f.cells)) * f.h ** f.dim
        self.set_index = k
        self.f, self.sigma = f, self.sigmas[atoms]
        self.plan = self.gl.LacunaryPlan.geometric(DELTA, PLAN_R, t1=t1, d=2, eps=eps)
        self.j = self.plan.j0_index
        i1_const, offset = _explicit_constants(2, eps)
        self.i1_floor = i1_const * eps * eps
        self.j_stop = min(len(self.plan.t), self.plan.j0_index + offset)

    def next_input(self):
        return (self.f, self.sigma, float(self.plan.t[self.j]))

    def run(self, inp):
        f, sigma, t = inp
        split = self.gl.split_integrals(f, sigma, t, DELTA)
        direct = self.gl.direct_correlation(f, sigma, t)
        return split, direct

    @staticmethod
    def positive(out):
        split, direct = out
        return split.lower_bound > 0 and direct > 0

    def check(self, inp, out):
        split, direct = out
        relgap = abs(split.total - direct) / abs(direct)
        self.relgap_max = max(self.relgap_max, relgap)
        ok = (split.i1 + split.i2 + split.i3 == split.total
              and relgap <= SPLIT_DIRECT_REL
              and split.i1 >= self.i1_floor
              and (self.positive(out) or self.j + 1 < self.j_stop))
        return ok

    def advance(self, inp, out, ok):
        self.scales_done += 1
        if out is not None and self.positive(out):
            self.sets_done += 1
            self.scales_in_done_sets += self.j - self.plan.j0_index + 1
        elif ok:
            self.j += 1
            return
        self._start_set(self.set_index + 1)

    def health(self):
        done = self.sets_done
        return {"correlation.split_direct_relgap_max": self.relgap_max,
                # scales per set that turned positive; the unfinished last set is left out
                "correlation.scales_per_set": self.scales_in_done_sets / done if done else 0.0,
                "correlation.decisive_frac": done / max(1, self.scales_done)}


# -- rings -------------------------------------------------------------------------

RING_DIRECTIONS = 16384
RING_BASES = (200.0, 400.0, 800.0, 1600.0, 3200.0)
RING_STEPS = 4                      # shells per base, R * (1 + k / 4)
DECAY_T = (10.0, 40.0)
REF_ABS_TOL = 1e-9


def dense_ring_sup(positions, weights, rho, n_dirs, block=256):
    """max_k |sum_j w_j exp(-2 pi i rho <x_j, eta_k>)| on eta_k = angle 2 pi k / n_dirs."""
    ang = np.arange(n_dirs) * (2 * np.pi / n_dirs)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    best = 0.0
    for s in range(0, n_dirs, block):
        phase = (2 * np.pi * rho) * (dirs[s:s + block] @ positions.T)
        re = np.cos(phase) @ weights
        im = np.sin(phase) @ weights
        best = max(best, float(np.max(np.hypot(re, im))))
    return best


class Rings:
    """goodness_profile on one 16384-direction shell plus one small decay_scan per op.

    Shell radii run over the stabilized_goodness ladder R (1 + k/4) for
    R = 200 ... 3200 in a seeded order, cycled.
    """

    name = "rings"

    def __init__(self, gl, seed):
        self.gl = gl
        rng = np.random.default_rng(seed)
        disk = gl.ball_body(2)
        ang = (np.arange(5) + 0.5) * np.pi / 5
        caps = gl.CapFamily(np.stack([np.cos(ang), np.sin(ang)], axis=1), 0.05)
        self.mu = gl.construct_good_measure(disk, gl.triangulate_boundary(disk, 16384), caps)
        mesh = gl.triangulate_boundary(disk, 8192)
        nang = np.arctan2(mesh.normals[:, 1], mesh.normals[:, 0])
        self.piece = gl.from_mesh(mesh.restrict((nang > 0) & (nang < math.pi / 2)))
        grid = np.linspace(0.05, math.pi / 2 - 0.05, 30)
        self.thetas = np.stack([np.cos(grid), np.sin(grid)], axis=1)
        ladder = [(R, R * (1.0 + k / RING_STEPS)) for R in RING_BASES for k in range(RING_STEPS)]
        self.ladder = [ladder[i] for i in rng.permutation(len(ladder))]
        self.mass = float(np.sum(self.mu.weights))
        self.piece_mass = float(np.sum(self.piece.weights))
        self.i = 0
        self.referenced = False
        self.ref_abserr = 0.0
        self.cert_over_sup = 0.0

    def next_input(self):
        return self.ladder[self.i % len(self.ladder)]

    def run(self, inp):
        R, rho = inp
        report = self.gl.goodness_profile(self.mu, R, [rho], RING_DIRECTIONS)
        scan = self.gl.decay_scan(self.piece, self.thetas, 0.3, list(DECAY_T))
        return report, scan

    def check(self, inp, out):
        report, scan = out
        sup = float(report.shell_sups[0])
        self.cert_over_sup = max(self.cert_over_sup, float(report.cert_errors[0]) / sup)
        ok = sup <= self.mass * (1 + 1e-12)
        if not self.referenced:
            self.referenced = True
            ref = dense_ring_sup(np.asarray(self.mu.positions), np.asarray(self.mu.weights),
                                 inp[1], RING_DIRECTIONS)
            self.ref_abserr = abs(sup - ref)
            ok = ok and self.ref_abserr <= REF_ABS_TOL
        env = scan.envelope
        return ok and env[1] < env[0] < self.piece_mass

    def advance(self, inp, out, ok):
        self.i += 1

    def health(self):
        return {"goodness.cert_over_sup_max": self.cert_over_sup,
                "goodness.ring_ref_abserr": self.ref_abserr}


# -- polytope --------------------------------------------------------------------

AUDIT_T = 200.0
DIST_TMAX = 40.0
ZERO_WINDOW = (0.5, 6.0)
ZERO_STEPS = 400
LATTICE_HALF = 20
CHECK_PAIRS = 200
RANDOM_BODIES = 8
WIENER_SQUARE = 0.125


def hpolytope_gauge(normals, offsets, X):
    """max_k <x, n_k> / h_k, clipped at 0: the gauge of an origin-symmetric H-polytope."""
    return np.maximum(np.max((X @ normals.T) / offsets[None, :], axis=1), 0.0)


class Polytope:
    """Facet-pair audit, lattice distance set and indicator zeros per op.

    Bodies are cycled in order: the half-cube square, the regular hexagon and
    a seeded random_symmetric_polytope(2, 6), each with a 4096-node boundary
    probability measure; the lattice is Z^2 on [-20, 20]^2.  Each cycle takes
    the next of RANDOM_BODIES random polygons, so a run's op times do not
    hinge on the cost of a single random shape.
    """

    name = "polytope"

    def __init__(self, gl, seed):
        self.gl = gl
        rng = np.random.default_rng(seed)
        self.bodies = [gl.cube_body(2, 0.5), gl.regular_polygon_body(6)]
        self.bodies += [gl.random_symmetric_polytope(2, 6, seed=int(rng.integers(2 ** 31)))
                        for _ in range(RANDOM_BODIES)]
        self.measures = [gl.from_mesh(gl.triangulate_boundary(b, 4096), normalize=True)
                         for b in self.bodies]
        self.lattice = gl.lattice_points(2, -LATTICE_HALF, LATTICE_HALF)
        pts = np.asarray(self.lattice.points)
        self.pair_gauges = []
        for body in self.bodies:
            normals, offsets = np.asarray(body.normals), np.asarray(body.offsets)
            found = []
            while len(found) < CHECK_PAIRS:
                i, j = rng.integers(len(pts), size=2)
                if i == j:
                    continue
                g = float(hpolytope_gauge(normals, offsets, (pts[i] - pts[j])[None, :])[0])
                if g <= DIST_TMAX - 1.0:
                    found.append(g)
            self.pair_gauges.append(np.asarray(found))
        self.i = 0
        self.wiener_relerr = 0.0
        self.pair_abserr = 0.0
        self.zero_abserr = 0.0

    def next_input(self):
        cycle, k = divmod(self.i, 3)
        return k if k < 2 else 2 + cycle % RANDOM_BODIES

    def run(self, k):
        body = self.bodies[k]
        audit = self.gl.polytope_bound_audit(body, self.measures[k], AUDIT_T)
        report = self.gl.distance_set(self.lattice, body, DIST_TMAX)
        ledger = self.gl.radial_zero_scan(body, ZERO_WINDOW, ZERO_STEPS)
        return audit, report, ledger

    def check(self, k, out):
        audit, report, ledger = out
        ok = bool(audit.passed)
        dists = np.asarray(report.distances)
        want = self.pair_gauges[k]
        pos = np.clip(np.searchsorted(dists, want), 1, len(dists) - 1)
        err = np.minimum(np.abs(dists[pos] - want), np.abs(dists[pos - 1] - want))
        self.pair_abserr = max(self.pair_abserr, float(np.max(err)))
        ok = ok and bool(np.all(err <= report.merge_tol))
        zeros, brackets = np.asarray(ledger.zeros), np.asarray(ledger.brackets)
        if k == 0:
            rel = abs(audit.wiener_value - WIENER_SQUARE) / WIENER_SQUARE
            self.wiener_relerr = max(self.wiener_relerr, rel)
            exact = np.arange(1.0, 6.0)
            ok = ok and rel <= 0.05 and zeros.shape == exact.shape
            if zeros.shape == exact.shape:
                zerr = float(np.max(np.abs(zeros - exact)))
                self.zero_abserr = max(self.zero_abserr, zerr)
                ok = ok and zerr <= 1e-9
        else:
            ok = ok and bool(np.all((brackets[:, 0] <= zeros) & (zeros <= brackets[:, 1])))
        return ok

    def advance(self, k, out, ok):
        self.i += 1

    def health(self):
        return {"goodness.square_wiener_relerr": self.wiener_relerr,
                "distances.pair_gauge_abserr_max": self.pair_abserr,
                "spectra.square_zero_abserr_max": self.zero_abserr}


WORKLOADS = {w.name: w for w in (Positivity, Rings, Polytope)}
