"""Indicator-function transforms, radial zero ledgers, and spectrum candidates.

chi_hat evaluates the transform of a body's indicator: closed product form for axis
boxes, cylinder-function form for balls and ellipsoids, the exact edge sum for polygons,
and a polar-slice quadrature (exact in the radial variable, midpoint in angle, the only
use of POLAR_RESOLUTION) for other bodies in the plane or star bodies in space.  Zero scans
bracket sign changes of the radial profile and refine them by false position; candidate spectra
are screened by the orthogonality residual max |chi_hat(diff)| and fed through
sparsification into a dual-gauge distance-set report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, Ellipsoid, HPolytope
from .distances import GapReport, PointSet, _differences, _distance_values, sparsify
from .errors import BadInputError, BudgetExceededError, HypothesisViolationError

_POLAR_BLOCK = 1 << 18  # cap on rows * nodes (edges) per block in _chi_hat_polar (_polygon)
POLAR_RESOLUTION = 4096  # midpoint angles or icosphere patches of the polar quadrature
_TAIL_ZEROS = 10        # zeros in the tail statistics of a ZeroLedger
_ZERO_TOL = 1e-10       # bracket width at which a zero scan stops; the zero is its midpoint
_ILLINOIS_STEPS = 3     # false-position steps a zero bracket takes before it must halve


def _is_axis_box(body):
    """Half-widths when every facet normal is +/- a coordinate axis, else None."""
    if not isinstance(body, HPolytope):
        return None
    d = body.dim
    if body.n_facets != 2 * d:
        return None
    widths = np.full(d, -1.0)
    for theta, h in zip(body.normals, body.offsets):
        ax = int(np.argmax(np.abs(theta)))
        if abs(abs(theta[ax]) - 1.0) > 1e-12:
            return None
        if widths[ax] >= 0 and abs(widths[ax] - h) > 1e-12:
            return None
        widths[ax] = h
    return widths if np.all(widths > 0) else None


def ball_indicator_profile(d: int, r) -> np.ndarray:
    """Radial transform of the unit d-ball: |xi|^{-d/2} J_{d/2}(2 pi |xi|)."""
    from scipy import special   # imported here: scipy.special would double `import gaugelab`

    r = np.asarray(r, dtype=float)
    out = np.empty(r.shape)
    omega = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    tiny = r < 1e-8
    out[tiny] = omega
    rr = r[~tiny]
    out[~tiny] = special.jv(d / 2, 2 * np.pi * rr) / rr ** (d / 2)
    return out


def chi_hat(body: ConvexBody, xi) -> float:
    """Transform of the body's indicator at xi (real, by 0-symmetry).

    Boxes and ellipsoids use closed forms and polygons the exact edge sum; other bodies
    integrate the polar slices: the radial integral in closed form against
    POLAR_RESOLUTION midpoint angles (planar) or icosphere patches (in 3d).
    """
    return float(chi_hat_many(body, np.asarray(xi, dtype=float).ravel())[0])


def _radial_slice_1(q, work=None):
    """int_0^1 t cos(2 pi q t) dt = S (cos(pi q) - S / 2), S = sinc(q) = sin(pi q) / (pi q).

    a^2 times this at q = s a is Re int_0^a rho exp(-2 pi i s rho) drho.  This half-angle
    form needs no series branch: it stays within ~1 ulp of 1/2 for every q.  S takes
    np.sinc's steps, in place in the three arrays of `work` (fresh ones by default)."""
    y, S, out = work or [np.empty_like(q) for _ in range(3)]
    np.multiply(np.pi, q, out=y)
    np.cos(y, out=out)
    y[y == 0] = np.finfo(float).eps
    np.divide(np.sin(y, out=S), y, out=S)
    out -= np.multiply(0.5, S, out=y)
    out *= S
    return out


# Taylor coefficients of int_0^1 t^2 cos(x t) dt in powers of x^2, highest first.
_SLICE_2_SERIES = [(-1) ** n / (math.factorial(2 * n) * (2 * n + 3)) for n in range(9, -1, -1)]


def _radial_slice_2(q, work=None):
    """int_0^1 t^2 cos(2 pi q t) dt = sinc x + 2 (cos x - sinc x) / x^2 at x = 2 pi q.

    The closed form cancels ~2/x^2 ulp, so |x| < 1.5 takes the ten-term series: against
    a long-double reference this cut gives the least worst error, ~3 ulp of 1/3.  Works
    in place in the four arrays of `work` (fresh ones by default)."""
    x, xb, sx, out = work or [np.empty_like(q) for _ in range(4)]
    np.multiply(2 * np.pi, q, out=x)
    small = np.abs(x, out=xb) < 1.5
    np.copyto(xb, x)
    xb[small] = 1.0
    np.divide(np.sin(xb, out=sx), xb, out=sx)
    np.subtract(np.cos(xb, out=out), sx, out=out)
    out *= 2
    out /= np.square(xb, out=xb)
    out += sx
    out[small] = np.polyval(_SLICE_2_SERIES, x[small] ** 2)
    return out


def _chi_hat_polar(body, Xi, resolution=POLAR_RESOLUTION):
    """Polar-slice quadrature sum_k w_k r_k^d slice(<xi, r_k u_k>) at the rows of Xi.

    Rows run in blocks of _POLAR_BLOCK row-nodes through one set of scratch arrays.  Phases
    are summed elementwise, not by BLAS, so a row gets the same phases in any block; the
    node sums by BLAS round by block shape, so the block size is fixed."""
    u, r, wts = body.polar_nodes(resolution)
    p = u * r[:, None]
    w = wts * r ** body.dim
    radial_slice, buffers = (_radial_slice_1, 3) if body.dim == 2 else (_radial_slice_2, 4)
    out = np.empty(Xi.shape[0])
    step = max(1, _POLAR_BLOCK // len(r))
    work = [np.empty((min(step, len(Xi)), len(r))) for _ in range(1 + buffers)]
    for s in range(0, len(Xi), step):
        xi = Xi[s:s + step]
        q, *rest = (a[:len(xi)] for a in work)
        np.multiply(xi[:, 0, None], p[None, :, 0], out=q)
        for k in range(1, body.dim):
            q += np.multiply(xi[:, k, None], p[None, :, k], out=rest[0])
        out[s:s + len(xi)] = radial_slice(q, rest) @ w
    return out


def _chi_hat_polygon(body, Xi):
    """Divergence-theorem edge sum (Lawrence 1991) of a polygon at the rows of Xi, sum_e <xi,
    nu_e> sinc(<b_e - a_e, xi>) sin(2 pi <m_e, xi>) / (2 pi |xi|^2), nu_e the outer normal
    times the length of edge a_e b_e, m_e its midpoint.  Terms stay O(1) as xi -> 0; |xi|^2 <
    1e-200 takes the area sum <m_e, nu_e> / 2.  Sums are per row, in blocks of rows."""
    a, b = np.moveaxis(body._polygon_edges(), 1, 0)
    m, d = (a + b) / 2, b - a
    vecs = np.stack([body.normals * np.sqrt(np.vecdot(d, d))[:, None], d, m], axis=1)
    out = np.full(len(Xi), np.sum(np.vecdot(m, vecs[:, 0])) / 2)
    step = max(1, _POLAR_BLOCK // len(m))
    for s in range(0, len(Xi), step):
        xi, o = Xi[s:s + step], out[s:s + step]
        q = xi[:, None, None, 0] * vecs[..., 0] + xi[:, None, None, 1] * vecs[..., 1]
        xi2 = xi[:, 0] ** 2 + xi[:, 1] ** 2
        np.divide(np.sum(q[..., 0] * np.sinc(q[..., 1]) * np.sin(2 * np.pi * q[..., 2]), axis=1),
                  2 * np.pi * xi2, out=o, where=xi2 >= 1e-200)
    return out


def chi_hat_many(body: ConvexBody, Xi) -> np.ndarray:
    """chi_hat over the rows of Xi; bodies on the polar quadrature share one node set."""
    Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
    if Xi.ndim != 2 or Xi.shape[1] != body.dim:
        raise BadInputError(f"frequency rows must have the body's dimension {body.dim}")
    box = _is_axis_box(body)
    if box is not None:
        return np.prod(2 * box[None, :] * np.sinc(2 * box[None, :] * Xi), axis=1)
    if isinstance(body, Ellipsoid):
        z = np.linalg.norm(Xi * body.axes[None, :], axis=1)
        return float(np.prod(body.axes)) * ball_indicator_profile(body.dim, z)
    if isinstance(body, HPolytope) and body.dim == 2:
        return _chi_hat_polygon(body, Xi)
    return _chi_hat_polar(body, Xi)


# -- radial zero scans --------------------------------------------------------------


@dataclass(frozen=True)
class ZeroLedger:
    """Bracketed sign-change zeros of a radial profile, with spacing statistics."""

    zeros: np.ndarray
    brackets: np.ndarray      # (n, 2) enclosing intervals with opposite signs
    window: tuple
    approximate: bool         # profile taken along e1 for a not-exactly-radial body

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float).ravel()
        b = np.asarray(self.brackets, dtype=float).reshape(-1, 2)
        z.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "brackets", b)

    @property
    def spacings(self):
        return np.diff(self.zeros)

    def tail_spacing(self):
        """Mean and max deviation of the last _TAIL_ZEROS spacings."""
        s = self.spacings
        if s.size == 0:
            return math.nan, math.nan
        tail = s[-_TAIL_ZEROS:]
        mean = float(np.mean(tail))
        return mean, float(np.max(np.abs(tail - mean)))


def radial_zero_scan(body: ConvexBody, window, steps: int) -> ZeroLedger:
    """Bracket and refine the sign-change zeros of the profile chi_hat(body, r e1).

    A grid of `steps` radii brackets each sign change, a grid radius where the profile is
    exactly 0 between values of opposite signs as [r, r] (a zero that touches 0 without a
    sign change, as the regular hexagon's at r = 2 and 4, is not listed).  Brackets take
    Illinois false-position steps (Dowell & Jarratt 1971), ~6 per scan, to a width of 1e-10,
    the zero the midpoint; one not halved in _ILLINOIS_STEPS = 3 steps takes a midpoint step,
    so a scan ends within 4 ceil(log2(w0 / 1e-10)) steps for a grid step w0 or raises
    BudgetExceededError.  Balls and the 1d box are radial, so their profile is exact; other
    bodies are flagged approximate.
    """
    a, b = float(window[0]), float(window[1])
    if not (0 < a < b) or steps < 2:
        raise BadInputError("need 0 < a < b and steps >= 2")
    approximate = not (body.dim == 1 or isinstance(body, Ellipsoid) and body.is_ball())
    e1 = np.eye(body.dim)[0]

    def profile(r):
        return chi_hat_many(body, np.outer(r, e1))

    rs = np.linspace(a, b, int(steps))
    vals = profile(rs)
    # Sign changes between grid neighbours, and a grid value of exactly 0 between neighbours
    # of opposite signs as the bracket [r, r], already ended; a touching zero is in none.
    z = np.flatnonzero((vals[1:-1] == 0) & (vals[:-2] * vals[2:] < 0)) + 1
    i = np.sort(np.concatenate([np.flatnonzero(vals[:-1] * vals[1:] < 0), z]))
    j = np.where(np.isin(i, z), i, i + 1)
    lo, hi, lo_v, hi_v = rs[i], rs[j], vals[i], vals[j]
    # All brackets step in lockstep, one profile call per step.  A row's phases do not
    # depend on the rows evaluated with it, so each bracket takes the steps it would alone.
    K, ref, since, kept = _ILLINOIS_STEPS, hi - lo, np.zeros(i.size, int), np.zeros(i.size, int)
    cap = (K + 1) * math.ceil(math.log2(np.max(ref, initial=_ZERO_TOL) / _ZERO_TOL)) + 1
    live = np.arange(i.size)
    for _ in range(cap):
        live = live[hi[live] - lo[live] > _ZERO_TOL]
        if live.size == 0:
            break
        l, h, lv, hv = lo[live], hi[live], lo_v[live], hi_v[live]
        # false position, clipped 1e-10/4 inside the bracket, or the midpoint after K steps
        x = np.where(since[live] >= K, 0.5 * (l + h), np.clip(
            l - lv * (h - l) / (hv - lv), l + _ZERO_TOL / 4, h - _ZERO_TOL / 4))
        xv = profile(x)
        hit = xv == 0.0   # an exact zero ends its bracket: both ends move to it
        left = hit | (np.signbit(xv) != np.signbit(lv))
        right = hit | ~left
        lo_v[live[left & (kept[live] < 0)]] *= 0.5   # Illinois: an end kept twice in a row
        hi_v[live[right & (kept[live] > 0)]] *= 0.5  # has its value halved
        hi[live[left]], hi_v[live[left]] = x[left], xv[left]
        lo[live[right]], lo_v[live[right]] = x[right], xv[right]
        kept[live] = np.where(left, -1, 1)      # the end the step kept: -1 lo, 1 hi
        w = hi[live] - lo[live]
        since[live] = np.where(w <= 0.5 * ref[live], 0, since[live] + 1)
        ref[live] = np.where(since[live] == 0, w, ref[live])
    else:
        raise BudgetExceededError(f"zero scan: brackets wider than 1e-10 after {cap} steps")
    return ZeroLedger(0.5 * (lo + hi), np.stack([rs[i], rs[j]], axis=1),
                      (a, b), approximate)


# -- spectra ------------------------------------------------------------------------


def orthogonality_residual(points: PointSet, body: ConvexBody) -> float:
    """max over distinct pairs of |chi_hat(body, difference)| (0 for < 2 points): over the
    differences p_j - p_i, i < j, block by block as _differences yields their negatives."""
    return max((float(np.max(np.abs(chi_hat_many(body, -block))))
                for block in _differences(points.points)), default=0.0)


@dataclass(frozen=True)
class SpectrumPipelineResult:
    residual: float | None
    sparsified: PointSet
    report: GapReport


def spectrum_gap_pipeline(points: PointSet, body: ConvexBody, R: float,
                          ortho_tol: float | None = None) -> SpectrumPipelineResult:
    """Sparsify a spectrum candidate and report its dual-gauge distance gaps.

    With ortho_tol set, the candidate must first pass the orthogonality
    residual at that tolerance.  The sparsified set keeps points more than R
    apart in sup norm, so its dual distance set exposes the gap structure a
    genuine spectrum would force; the report runs up to the largest dual
    distance plus 1.
    """
    residual = None
    if ortho_tol is not None:
        residual = orthogonality_residual(points, body)
        if residual > ortho_tol:
            raise HypothesisViolationError(
                f"orthogonality residual {residual:.3g} exceeds tolerance {ortho_tol:.3g}")
    thin = sparsify(points, R)
    vals = _distance_values(thin, body, dual=True)
    t_max = float(np.max(vals)) + 1.0 if len(thin) else 0.0
    return SpectrumPipelineResult(residual, thin, GapReport.from_values(vals, t_max))
