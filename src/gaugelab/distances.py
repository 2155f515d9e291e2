"""Distance sets of point configurations under a body gauge.

Pairwise distances (each distinct difference once on exact grids), gap detection over an
interval, thickening a set by small copies of a body, and the cube-lattice sparsification
that keeps at most one point per side-R cube centered on the even lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .correlation import _grid_rows
from .errors import BadInputError, BudgetExceededError, read_csv, write_csv
from .measures import SPECTRUM_BUDGET_BYTES

MERGE_TOL = 1e-9        # distances closer than this count as one value
DUP_TOL = 1e-12         # duplicate-point tolerance inside a PointSet
_LAG_PAIRS_PER_CELL = 8  # lag grids of more cells than pairs / 8 take every pair: faster there
_LAG_CELL_BYTES = 48    # peak bytes a lag-grid cell takes in _lag_vectors, all arrays live
_PAIR_BLOCK = 512       # points a side of one block of pairs in _differences
_LAG_BLOCK = 1 << 18    # lags in one block of _differences, as many as a block of pairs


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

    def save_csv(self, path):
        write_csv(path, [f"x{i}" for i in range(self.dim)], self.points)

    @staticmethod
    def load_csv(path):
        return PointSet(read_csv(path, "point set"))


def lattice_points(dim: int, lo: float, hi: float, spacing: float = 1.0) -> PointSet:
    """Scaled integer lattice restricted to the box [lo, hi]^dim; bad input unless the
    spacing is positive, over budget when its coordinates would pass SPECTRUM_BUDGET_BYTES."""
    if not spacing > 0:
        raise BadInputError(f"lattice spacing must be positive, not {spacing}")
    q_lo, q_hi = lo / spacing, hi / spacing   # floats: a quotient past the range is inf
    if not q_hi - q_lo + 1 <= (SPECTRUM_BUDGET_BYTES / (8 * dim)) ** (1 / dim):
        raise BudgetExceededError(f"a Z{dim} box {q_hi - q_lo + 1:.3g} points wide exceeds "
                                  f"{SPECTRUM_BUDGET_BYTES >> 20} MiB")
    ax = np.arange(math.ceil(q_lo), math.floor(q_hi) + 1) * spacing
    return PointSet(_grid_rows([ax] * dim))


@dataclass(frozen=True)
class GapReport:
    """Sorted distinct distances and the maximal empty intervals between them."""

    distances: np.ndarray
    gaps: list          # (start, length) pairs, disjoint and sorted
    t0: float           # unread and 0.0 from from_values; perfbench builds GapReport by position
    t_max: float
    merge_tol: float

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float).ravel()
        d.setflags(write=False)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "gaps", list(self.gaps))

    @classmethod
    def from_values(cls, values, t_max: float) -> "GapReport":
        """Merge values up to t_max sequentially at MERGE_TOL; the gaps are the empty
        intervals between consecutive merged values and from the last one to t_max."""
        values = np.asarray(values, dtype=float)
        # An exact repeat never opens a new value, so the merge runs on the distinct values.
        # A value over MERGE_TOL above its predecessor is so above the last merged one too
        # (rounding is monotone) and opens a new value; only the others take the loop.
        u = np.unique(values[values <= t_max + MERGE_TOL])
        keep, last = np.ones(u.size, dtype=bool), -math.inf
        for k in (np.flatnonzero(np.diff(u) <= MERGE_TOL) + 1).tolist():
            last = u[k - 1] if keep[k - 1] else last
            keep[k] = u[k] - last > MERGE_TOL
        dists = u[keep]   # consecutive ones more than MERGE_TOL apart: each opens a gap
        gaps = list(zip(dists[:-1].tolist(), np.diff(dists).tolist()))
        if dists.size and t_max - dists[-1] > MERGE_TOL:
            gaps.append((float(dists[-1]), float(t_max - dists[-1])))
        return cls(dists, gaps, 0.0, float(t_max), MERGE_TOL)

    @property
    def separation_witness(self):
        """Smallest gap between consecutive distinct distances (inf if < 2 values)."""
        if self.distances.size < 2:
            return math.inf
        return float(np.min(np.diff(self.distances)))

    @property
    def separated(self):
        return self.separation_witness >= 10 * self.merge_tol


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


def distance_set(points: PointSet, body: ConvexBody, t_max: float) -> GapReport:
    """All pairwise gauge distances up to t_max, deduplicated at MERGE_TOL; 0 belongs to
    the set whenever the configuration is nonempty."""
    if t_max <= 0:
        raise BadInputError("t_max must be positive")
    return GapReport.from_values(_distance_values(points, body, dual=False), t_max)


def _distance_values(points: PointSet, body: ConvexBody, dual: bool) -> np.ndarray:
    """0 (for a nonempty set) and the gauge of each difference that _differences yields;
    with dual=True the support function (the dual gauge) of each."""
    if points.dim != body.dim:
        raise BadInputError(f"points of dimension {points.dim} for a body of dimension {body.dim}")
    fn = body.dual_gauge_many if dual else body.gauge_many
    return np.concatenate([np.zeros(min(len(points), 1))]
                          + [fn(block) for block in _differences(points.points)])


def _differences(points):
    """The differences p_i - p_j, i < j, of the rows of points, in blocks: each distinct
    difference once, _LAG_BLOCK rows a block, where _lag_vectors applies, else every pair,
    in blocks of _PAIR_BLOCK x _PAIR_BLOCK points (the pairs i < j only on the diagonal)."""
    lags = _lag_vectors(points) if len(points) > 1 else None
    if lags is not None:
        for s in range(0, len(lags), _LAG_BLOCK):
            yield lags[s:s + _LAG_BLOCK]
        return
    for i in range(0, len(points) - 1, _PAIR_BLOCK):  # a last block of one point has no pair
        block = points[i:i + _PAIR_BLOCK]
        upper = np.triu_indices(len(block), 1)
        for j in range(i, len(points), _PAIR_BLOCK):
            diffs = block[:, None, :] - points[None, j:j + _PAIR_BLOCK, :]
            yield diffs[upper] if j == i else diffs.reshape(-1, points.shape[1])


def gap_scan(report: GapReport, eps: float, t0: float = 0.0):
    """Gaps of length >= eps that start at or beyond t0 (exact on the finite list)."""
    if eps <= 0:
        raise BadInputError("eps must be positive")
    found = [(s, l) for (s, l) in report.gaps if s >= t0 - 1e-12 and l >= eps - 1e-12]
    return len(found), found


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
