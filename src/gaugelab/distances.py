"""Distance sets of point configurations under a body gauge.

Pairwise distances (each distinct difference once on exact grids), gap detection over an
interval, the well-distributedness radius of a point set, thickening a set by small copies
of a body, and the cube-lattice sparsification that keeps at most one point per side-R cube
centered on the even lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .correlation import SPECTRUM_BUDGET_BYTES
from .errors import BadInputError, BudgetExceededError

MERGE_TOL = 1e-9        # distances closer than this count as one value
DUP_TOL = 1e-12         # duplicate-point tolerance inside a PointSet
_LAG_PAIRS_PER_CELL = 8  # lag grids of more cells than pairs / 8 take every pair: faster there
_LAG_CELL_BYTES = 48    # peak bytes a lag-grid cell takes in _lag_vectors, all arrays live


class PointSet:
    """Finite point configuration with no duplicate points."""

    def __init__(self, points):
        points = np.array(points, dtype=float)
        if points.size == 0:
            points = points.reshape(0, points.shape[1] if points.ndim == 2 else 1)
        points = np.atleast_2d(points)
        if not np.all(np.isfinite(points)):
            raise BadInputError("points must be finite")
        if points.shape[0] > 1:
            order = np.lexsort(points.T[::-1])
            srt = points[order]
            if np.any(np.max(np.abs(np.diff(srt, axis=0)), axis=1) <= DUP_TOL):
                raise BadInputError("duplicate points in the set")
        self.points = points
        self.points.setflags(write=False)

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def translated(self, shift):
        return PointSet(self.points + np.asarray(shift, dtype=float)[None, :])

    def scaled(self, c):
        return PointSet(self.points * float(c))

    def save_csv(self, path):
        header = ",".join(f"x{i}" for i in range(self.dim))
        rows = [header]
        rows += [",".join(f"{v:.17g}" for v in p) for p in self.points]
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")

    @staticmethod
    def load_csv(path):
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise BadInputError(f"cannot read point set {path}: {exc}") from None
        return PointSet(data)


def lattice_points(dim: int, lo: float, hi: float, spacing: float = 1.0) -> PointSet:
    """Scaled integer lattice restricted to the box [lo, hi]^dim."""
    ax = np.arange(math.ceil(lo / spacing), math.floor(hi / spacing) + 1) * spacing
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return PointSet(pts)


@dataclass(frozen=True)
class GapReport:
    """Sorted distinct distances and the maximal empty intervals between them."""

    distances: np.ndarray
    gaps: list          # (start, length) pairs, disjoint and sorted
    t0: float
    t_max: float
    merge_tol: float

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float).ravel()
        d.setflags(write=False)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "gaps", list(self.gaps))

    @classmethod
    def from_values(cls, values, t_max: float, merge_tol: float = MERGE_TOL,
                    t0: float = 0.0) -> "GapReport":
        """Merge values up to t_max sequentially at merge_tol; the gaps are the empty
        intervals between consecutive merged values and from the last one to t_max."""
        values = np.asarray(values, dtype=float)
        # An exact repeat never opens a new value, so the sequential merge runs on
        # the distinct values only.
        merged = []
        for v in np.unique(values[values <= t_max + merge_tol]):
            if not merged or v - merged[-1] > merge_tol:
                merged.append(float(v))
        dists = np.asarray(merged)
        gaps = [(float(a), float(b - a)) for a, b in zip(dists[:-1], dists[1:])
                if b - a > merge_tol]
        if dists.size and t_max - dists[-1] > merge_tol:
            gaps.append((float(dists[-1]), float(t_max - dists[-1])))
        return cls(dists, gaps, float(t0), float(t_max), merge_tol)

    @property
    def separation_witness(self):
        """Smallest gap between consecutive distinct distances (inf if < 2 values)."""
        if self.distances.size < 2:
            return math.inf
        return float(np.min(np.diff(self.distances)))

    @property
    def separated(self):
        return self.separation_witness >= 10 * self.merge_tol


def _pairwise_gauge(points, body: ConvexBody, dual: bool, chunk: int = 512):
    n = points.shape[0]
    fn = body.dual_gauge_many if dual else body.gauge_many
    out = []
    for i in range(0, n, chunk):
        block = points[i:i + chunk]
        for j0 in range(i, n, chunk):
            other = points[j0:j0 + chunk]
            diffs = block[:, None, :] - other[None, :, :]
            vals = fn(diffs.reshape(-1, points.shape[1])).reshape(len(block), len(other))
            # only a diagonal block holds pairs with i >= j
            out.append(vals[np.triu_indices(len(block), 1)] if j0 == i else vals.ravel())
    if out:
        return np.concatenate(out)
    return np.empty(0)


def _lag_vectors(points):
    """The distinct p_i - p_j, i < j, of 2+ points in lexicographic order whose coordinates
    on axis k are x0_k + a h_k exactly (x0_k the least, a an integer, h_k the least gap, a
    power of two or an integer): the support of the occupancy grid's autocorrelation, times
    h.  None for other sets and for lag grids over either cell bound above."""
    x0 = points.min(axis=0)
    h = np.array([np.min(np.diff(u)) if u.size > 1 else 1.0 for u in map(np.unique, points.T)])
    d = points - x0
    a = np.rint(d / h)
    back = d - points  # TwoSum: the subtraction is exact iff its error term is 0
    exact = ((points - (d - back)) + (-x0 - back) == 0) & (a * h == d) & (np.abs(d) < 2.0 ** 53)
    g = a.max(axis=0) + 1
    cells = np.prod(2 * g - 1)  # in floating point: no overflow before the bounds
    if not (np.all(exact) and np.all((np.frexp(h)[0] == 0.5) | (h == np.rint(h)))
            and cells * _LAG_PAIRS_PER_CELL <= math.comb(len(points), 2)
            and cells * _LAG_CELL_BYTES <= SPECTRUM_BUDGET_BYTES
            and np.array_equal(np.lexsort(points.T[::-1]), np.arange(len(points)))):
        return None
    shape, axes = tuple((2 * g - 1).astype(np.int64)), range(len(g))
    occ = np.zeros(shape)
    occ[tuple(a.astype(np.int64).T)] = 1.0
    power = np.abs(np.fft.rfftn(occ, axes=axes)) ** 2
    del occ
    # counts are integers far within 1/2; centred, the lags run in lexicographic order, so
    # the cells before lag 0 are the negative ones
    hit = np.fft.fftshift(np.fft.irfftn(power, s=shape, axes=axes) > 0.5).ravel()[:int(cells) // 2]
    return (np.stack(np.unravel_index(np.flatnonzero(hit), shape), axis=1) - (g - 1)) * h


def distance_set(points: PointSet, body: ConvexBody, t_max: float,
                 merge_tol: float = MERGE_TOL, dual: bool = False) -> GapReport:
    """All pairwise gauge distances up to t_max, deduplicated at merge_tol.

    With dual=True, distances use the support function (the dual gauge);
    0 belongs to the set whenever the configuration is nonempty.
    """
    if t_max <= 0:
        raise BadInputError("t_max must be positive")
    lags = _lag_vectors(points.points) if len(points) > 1 else None
    fn, rows = (body.dual_gauge_many if dual else body.gauge_many), 1 << 18  # as pairwise blocks
    vals = (_pairwise_gauge(points.points, body, dual) if lags is None
            else np.concatenate([fn(lags[s:s + rows]) for s in range(0, len(lags), rows)]))
    if len(points) >= 1:
        vals = np.concatenate([[0.0], vals])
    return GapReport.from_values(vals, t_max, merge_tol)


def gap_scan(report: GapReport, eps: float, t0: float = 0.0):
    """Gaps of length >= eps that start at or beyond t0 (exact on the finite list)."""
    if eps <= 0:
        raise BadInputError("eps must be positive")
    found = [(s, l) for (s, l) in report.gaps if s >= t0 - 1e-12 and l >= eps - 1e-12]
    return len(found), found


def well_distributed_radius(points: PointSet, probe_lo, probe_hi):
    """Smallest side r (up to grid resolution r/4) so every r-cube in the probe
    box contains a point; math.inf when the box side itself fails.  The search
    halves r from 1/256 of the box side while it passes, then bisects 24 times."""
    lo = np.asarray(probe_lo, dtype=float)
    hi = np.asarray(probe_hi, dtype=float)
    if np.any(hi <= lo):
        raise BadInputError("probe box must have positive extent")
    pts = points.points
    if np.any(lo < pts.min(axis=0) - 1e-9) or np.any(hi > pts.max(axis=0) + 1e-9):
        raise BadInputError("probe box must lie inside the point set's bounding box")

    def every_cube_hit(r):
        step = r / 4.0
        axes = [np.arange(lo[k], hi[k] - r + step * 1e-9, step) for k in range(points.dim)]
        axes = [np.append(a, hi[k] - r) for k, a in enumerate(axes)]
        grids = np.meshgrid(*axes, indexing="ij")
        corners = np.stack([g.ravel() for g in grids], axis=1)
        for s in range(0, corners.shape[0], 1024):
            blk = corners[s:s + 1024]
            inside = np.all((pts[None, :, :] >= blk[:, None, :] - 1e-12)
                            & (pts[None, :, :] <= blk[:, None, :] + r + 1e-12), axis=2)
            if not np.all(np.any(inside, axis=1)):
                return False
        return True

    r_max = float(np.min(hi - lo))
    if not every_cube_hit(r_max):
        return math.inf
    r_lo = r_max / 256.0
    while r_lo < r_max and every_cube_hit(r_lo):
        r_max = r_lo
        r_lo /= 2.0
    hi_r, lo_r = r_max, r_lo
    for _ in range(24):
        mid = 0.5 * (hi_r + lo_r)
        if every_cube_hit(mid):
            hi_r = mid
        else:
            lo_r = mid
    return hi_r


def thicken(points: PointSet, body: ConvexBody, s: float, per_point: int,
            seed: int = 0) -> PointSet:
    """Replace each point by `per_point` samples of a size-s copy of the body.

    The first sample at each center is the center itself; the rest are drawn
    by seeded rejection sampling of the gauge ball of radius s.
    """
    if s <= 0:
        raise BadInputError("s must be positive")
    if per_point < 1:
        raise BadInputError("per_point must be >= 1")
    rng = np.random.default_rng(seed)
    r1 = body.outer_radius() * s
    extra = per_point - 1
    need = extra * len(points)
    budget = 200 * max(need, 1) + 1000
    drawn = []
    while sum(len(b) for b in drawn) < need:
        if budget <= 0:
            raise BudgetExceededError("rejection sampling budget exhausted in thicken")
        block = rng.uniform(-r1, r1, size=(4096, points.dim))
        budget -= 4096
        ok = body.gauge_many(block) <= s
        drawn.append(block[ok])
    offs = np.vstack(drawn)[:need] if need else np.zeros((0, points.dim))
    centers = points.points[:, None, :]
    out = np.concatenate([centers, centers + offs.reshape(len(points), extra, points.dim)], axis=1)
    return PointSet(out.reshape(-1, points.dim))


def sparsify(points: PointSet, R: float) -> PointSet:
    """Keep at most one point per open cube R*n + (-R/2, R/2)^d with n even.

    Points outside every such cube are dropped; the survivor in each cube is
    the lexicographically smallest.  Any two kept points then differ by more
    than R in some coordinate, so neither lies in the side-R cube centered
    at the other.
    """
    if R <= 0:
        raise BadInputError("R must be positive")
    if len(points) == 0:
        return PointSet(points.points)
    scaled = points.points / R
    n = np.rint(scaled)
    inside = np.all(np.abs(scaled - n) < 0.5 - 1e-12, axis=1)
    even = np.all(np.mod(n, 2) == 0, axis=1)
    keep = inside & even
    kept_pts = points.points[keep]
    order = np.lexsort(kept_pts.T[::-1])
    _, first = np.unique(n[keep].astype(np.int64)[order], axis=0, return_index=True)
    return PointSet(kept_pts[np.sort(order[first])])
