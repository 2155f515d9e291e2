"""Correlation positivity machine for sets against boundary measures.

For an indicator f = 1_A on a grid over [-1,1]^d and a boundary measure
sigma, the correlation int int f(x) f(x+ty) dx dsigma(y) detects whether t
is realized as a gauge distance inside A.  For symmetric sigma the same
quantity equals the frequency-side integral int |ft(f)|^2 ft(sigma)(t xi) dxi,
which splits into three radial bands at |xi| = delta/t and 1/(delta*t):
a low band bounded below by an explicit constant times |A|^2, a high band
bounded by the goodness of sigma, and a middle band small along a lacunary
t-sequence by pigeonholing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import BadInputError, BudgetExceededError, read_json, write_json
from .measures import (SPECTRUM_BUDGET_BYTES, AtomicMeasure, _jacobi_anger_order,
                       _phase_table, _scratch)

_PAD = 2  # zero-padding factor for the frequency grid (kills torus wrap-around)
_GEMM_BLOCK = 1 << 20  # cap on the table elements of one block of pairs in _sigma_hat_on_grid
_LACUNARY_RATIO = 0.49  # t_{j+1} / t_j of a geometric plan, under the 1/2 a plan needs
_PLAN_LENGTH = 48       # terms of a geometric plan, down to ~1e-15 from the default t1
_MAX_BALLS = 64         # balls random_indicator draws before it gives up on its target
# a measure on one circle takes the radial path when max_{0<n<=N} |w(n)| <= tau |w(0)|: the
# disk meshes read 1.8e-14 (512 atoms) and 3.2e-14 (2048 atoms)
_ISOTROPY_TOL = 1e-12
_J0_ERROR = 1e-15      # bound on |_j0(z) - J0(z)| at a double z >= 0
_J0_CUT = 20           # _j0 takes Hankel's expansion at z >= _J0_CUT, Taylor polynomials below
_HANKEL_TERMS = 28     # terms of P and Q together; the first one left out is < 5e-18 at the cut
_TAYLOR_TERMS = 16     # per unit interval below the cut, about its midpoint: rest < 0.5^16/16!


class GridIndicator:
    """Indicator of a subset of the unit ball sampled on a uniform cell grid.

    Cells of size h = 2/m tile [-1,1]^d; marked cells must have centers in
    the closed unit ball.  The measure of the set is count * h^d.  The padded
    spectrum and the cell autocorrelation are computed on first use.
    """

    def __init__(self, dim: int, m: int, cells):
        _check_grid(dim, m)
        cells = np.array(cells, dtype=bool)
        if cells.shape != (m,) * dim:
            raise BadInputError("cell array shape must be (m,)*dim")
        self.dim = dim
        self.m = int(m)
        self.h = 2.0 / m
        self.cells = cells
        self.cells.setflags(write=False)
        centers = self.marked_centers()
        if centers.shape[0] and np.max(np.linalg.norm(centers, axis=1)) > 1.0 + 1e-12:
            raise BadInputError("marked cells must have centers inside the unit ball")
        self._cache = {}

    @property
    def count(self):
        return int(np.count_nonzero(self.cells))

    @property
    def measure(self):
        return self.count * self.h ** self.dim

    def marked_centers(self):
        idx = np.argwhere(self.cells)
        return -1.0 + (idx + 0.5) * self.h

    def _transforms(self):
        """The weighted power spectrum and the cell autocorrelation, made together on first use
        of either (the positivity machine reads both at every scale) from one |F|^2 of the
        cell array zero-padded to (_PAD m)^d, last axis k = 0..m.  The transforms run axis by
        axis as np.fft.rfftn and irfftn do, with the same bits, on the thread's scratch
        buffers (measures._scratch), padding zeroed in place: only the cached power and
        integers are new pages for each indicator.

        power: |ft(f)|^2 * dxi * weight at the points of _radius_order, with the total spectral
        mass and its part beyond 0.9 of the Nyquist radius 1/(2h).  autocorr: A(k) = sum_i c_i
        c_{i+k} at lag k mod _PAD m, |k| <= m - 1, exact integers of the smallest unsigned type
        that holds A(0) = count."""
        if "power" not in self._cache:
            m, lead, mp = self.m, self.dim - 1, _PAD * self.m
            spec = _scratch("spec", (mp,) * lead + (m + 1,))
            for axis in range(lead):
                spec[(slice(m),) * axis + (slice(m, None),)] = 0
            np.fft.rfft(self.cells, mp, axis=-1, out=spec[(slice(m),) * lead])
            for axis in range(lead - 1, -1, -1):
                view = spec[(slice(m),) * axis]
                np.fft.fft(view, axis=axis, out=view)
            abs2 = np.abs(spec, out=_scratch("abs2", spec.shape, float))
            np.square(abs2, out=abs2)

            radii, weight = _radius_order(self.dim, m)[1:]
            power = abs2.ravel()[_spectrum_index(self.dim, m)[0]]
            power *= self.h ** (2 * self.dim)
            power *= (1.0 / (mp * self.h)) ** self.dim
            power *= weight
            tail = float(np.sum(power[np.searchsorted(radii, 0.9 * (0.5 / self.h), "right"):]))
            self._cache["power"] = (power, radii, float(np.sum(power)), tail)

            spec[...] = abs2
            for axis in range(lead):
                np.fft.ifft(spec, axis=axis, out=spec)
            acf = np.fft.irfft(spec, mp, axis=-1, out=_scratch("acf", (mp,) * self.dim, float))
            np.rint(acf, out=acf)
            self._cache["autocorr"] = acf.astype(np.min_scalar_type(self.count))
        return self._cache

    def _power_spectrum(self):
        """(weighted |ft(f)|^2 * dxi, |xi| radii, total, tail) of _transforms."""
        return self._transforms()["power"]

    def _radial_power(self):
        """(distinct radii, summed power): the power of _power_spectrum added up over the grid
        points of each radius, one np.add.reduceat over the radius order."""
        if "radial" not in self._cache:
            distinct, starts = _spectrum_index(self.dim, self.m)[1:]
            self._cache["radial"] = (distinct, np.add.reduceat(self._power_spectrum()[0], starts))
        return self._cache["radial"]

    def _autocorrelation(self):
        """A(k) of _transforms."""
        return self._transforms()["autocorr"]

    def to_dict(self):
        return {"type": "indicator", "dim": self.dim, "grid": self.m,
                "kind": "cells", "cells": np.argwhere(self.cells).tolist()}


def _check_grid(dim, m):
    """Refuse, before allocating, a bad grid or one whose full padded spectrum (twice the
    half grid kept) is over budget."""
    if dim not in (1, 2, 3):
        raise BadInputError("grids support dimensions 1..3")
    if m < 2:
        raise BadInputError("grid needs at least 2 cells per axis")
    if 16 * (_PAD * int(m)) ** int(dim) > SPECTRUM_BUDGET_BYTES:
        raise BudgetExceededError(f"the padded spectrum of a {dim}-d grid with m={m} "
                                  f"exceeds {SPECTRUM_BUDGET_BYTES >> 20} MiB")


def indicator_from_cells(dim, m, cell_list) -> GridIndicator:
    _check_grid(dim, m)
    cells = np.zeros((m,) * dim, dtype=bool)
    idx = np.asarray(cell_list, dtype=np.int64)
    if idx.size:
        cells[tuple(idx[:, k] for k in range(dim))] = True
    return GridIndicator(dim, m, cells)


def _half_grid_axes(dim, m):
    """The integers k of each axis of the half grid xi = k / (_PAD m h): the last axis holds
    0..m; with more axes the first holds 0..m then -1..-m, and a middle one the fftfreq
    integers then +m.  Each point k with 0 < k_d < m also stands for -k, the rest of the
    full grid (both transforms are even, and |F|^2 has period _PAD m)."""
    middle = np.r_[(np.arange(_PAD * m) + m) % (_PAD * m) - m, m]
    return ([np.r_[:m + 1, -1:-m - 1:-1]] + [middle] * (dim - 2))[:dim - 1] + [np.arange(m + 1)]


@lru_cache(maxsize=4)
def _radius_order(dim, m):
    """(flat indices, radii, weights) of the half grid's points in radius order, read-only and
    shared by every set of this grid.  A weight counts the full grid's points k (lead axes
    -m..m - 1) that a point stands for: itself, unless a lead k_a = +m or k_d = m, and -k,
    if 0 < k_d and no lead k_a = -m; points of weight 0 are left out.  Radii are formed as
    on the full grid, so each point falls in its band bit for bit."""
    freqs = np.fft.fftfreq(_PAD * m, d=2.0 / m)
    *lead, last = np.meshgrid(*_half_grid_axes(dim, m), indexing="ij", sparse=True)
    radii = np.sqrt(sum(freqs[k] ** 2 for k in lead) + freqs[last] ** 2).ravel()
    weight = (1 * (sum(k == m for k in lead) == 0) * (last < m)
              + (sum(k == -m for k in lead) == 0) * (last > 0)).ravel()
    keep = np.flatnonzero(weight)
    order = keep[np.argsort(radii[keep], kind="stable")]
    out = order, radii[order], weight[order].astype(np.uint8)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=4)
def _spectrum_index(dim, m):
    """(flat indices into the rfftn-shaped |F|^2 of GridIndicator._transforms of the points of
    _radius_order, in its order; the distinct radii; the first position of each), read-only
    and shared by every set of this grid."""
    radii = _radius_order(dim, m)[1]
    shape = (_PAD * m,) * (dim - 1) + (m + 1,)
    axes = [k % n for k, n in zip(_half_grid_axes(dim, m), shape)]
    flat = np.ravel_multi_index(np.ix_(*axes), shape).ravel()[_radius_order(dim, m)[0]]
    starts = np.flatnonzero(np.r_[True, radii[1:] != radii[:-1]])
    out = flat, radii[starts], starts
    for a in out:
        a.setflags(write=False)
    return out


def _grid_rows(axes):
    """Points of the grid axes[0] x axes[1] x ... in any dimension, one row each, C order."""
    sizes = [len(a) for a in axes]
    rows = np.empty((math.prod(sizes), len(axes)))
    for k, a in enumerate(axes):
        rows[:, k] = np.tile(np.repeat(a, math.prod(sizes[k + 1:])), math.prod(sizes[:k]))
    return rows


def _cell_centers(dim, m):
    """Centers of the m^d grid cells, one row per cell in C order."""
    _check_grid(dim, m)
    return _grid_rows([-1.0 + (np.arange(m) + 0.5) * (2.0 / m)] * dim)


def random_indicator(dim, m, target_measure, seed) -> GridIndicator:
    """Seeded union of random balls grown until the set reaches target_measure.

    One running mask grows by a ball per step, so each step costs one ball.
    """
    rng = np.random.default_rng(seed)
    pts = _cell_centers(dim, m)
    inside = np.sum(pts ** 2, axis=1) <= 1.0
    mask = np.zeros(pts.shape[0], dtype=bool)
    for _ in range(_MAX_BALLS):
        c = rng.uniform(-0.62, 0.62, size=dim)
        r = rng.uniform(0.14, 0.30)
        mask |= inside & (np.sum((pts - c[None, :]) ** 2, axis=1) <= r * r)
        if np.count_nonzero(mask) * (2.0 / m) ** dim >= target_measure:
            return GridIndicator(dim, m, mask.reshape((m,) * dim))
    raise BudgetExceededError(
        f"could not reach measure {target_measure} with {_MAX_BALLS} balls")


def load_indicator(path) -> GridIndicator:
    spec = read_json(path, "indicator file")
    if spec.get("type") != "indicator":
        raise BadInputError("not an indicator file")
    kind = spec.get("kind", "cells")
    if kind != "cells":
        raise BadInputError(f"unknown indicator kind {kind!r}")
    return indicator_from_cells(int(spec["dim"]), int(spec["grid"]), spec["cells"])


def save_indicator(f: GridIndicator, path) -> None:
    write_json(path, f.to_dict())


# -- explicit constants ----------------------------------------------------------


@dataclass(frozen=True)
class BourgainConstants:
    """The explicit dimension constants of the positivity argument."""

    d: int
    omega_d: float = field(init=False)
    theta: float = field(init=False)
    i1_constant: float = field(init=False)
    positivity_constant: float = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise BadInputError("dimension must be >= 1")
        omega = math.pi ** (self.d / 2) / math.gamma(self.d / 2 + 1)
        base = omega / (4 ** self.d * math.pi ** self.d)
        object.__setattr__(self, "omega_d", omega)
        object.__setattr__(self, "theta", base / 80.0)
        object.__setattr__(self, "i1_constant", base / 8.0)
        object.__setattr__(self, "positivity_constant", base / 40.0)

    def eta(self, eps: float) -> float:
        """Goodness threshold eta(eps) = theta * eps."""
        return self.theta * eps


# -- lacunary plans ----------------------------------------------------------------


@dataclass(frozen=True)
class LacunaryPlan:
    """Decreasing sequence in (0,1) with t_{j+1} <= t_j / 2, plus band parameters.

    j0_index is the first (0-based) index with t <= 4 pi / R, where the low
    band's lower bound starts to apply; j_bound is the pigeonhole budget
    j0 + ceil(10 / (theta * eps) * log(1/delta)) when d and eps are given.
    """

    t: np.ndarray
    delta: float
    R: float
    d: int | None = None
    eps: float | None = None
    j0_index: int = field(init=False)
    j_bound: int | None = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).ravel()
        if t.size == 0:
            raise BadInputError("empty lacunary sequence")
        if np.any(t <= 0) or np.any(t >= 1):
            raise BadInputError("sequence values must lie in (0,1)")
        if np.any(t[1:] > t[:-1] / 2 * (1 + 1e-12)):
            raise BadInputError("sequence must halve at every step (t_{j+1} <= t_j/2)")
        if not (0 < self.delta < 1):
            raise BadInputError("delta must lie in (0,1)")
        if self.R <= 0:
            raise BadInputError("R must be positive")
        if self.delta > 1.0 / self.R * (1 + 1e-12):
            raise BadInputError("need delta <= 1/R for the high-band bound")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)
        hits = np.where(t <= 4 * math.pi / self.R)[0]
        object.__setattr__(self, "j0_index", int(hits[0]) if hits.size else int(t.size))
        jb = None
        if self.d is not None and self.eps is not None:
            if self.eps <= 0:
                raise BadInputError("eps must be positive")
            theta = BourgainConstants(self.d).theta
            jb = self.j0_index + 1 + math.ceil(10.0 / theta / self.eps
                                               * math.log(1.0 / self.delta))
        object.__setattr__(self, "j_bound", jb)

    def __len__(self):
        return self.t.size

    @staticmethod
    def geometric(delta, R, t1=None, d=None, eps=None):
        """t_j = t1 r^j, j < _PLAN_LENGTH, with r = _LACUNARY_RATIO, from t1 = r by default."""
        t1 = _LACUNARY_RATIO if t1 is None else t1
        t = t1 * _LACUNARY_RATIO ** np.arange(_PLAN_LENGTH)
        return LacunaryPlan(t, float(delta), float(R), d, eps)


def pigeonhole_count(x: float, plan: LacunaryPlan) -> int:
    """Number of open bands (delta/t_j, 1/(delta t_j)) containing x.

    Never exceeds ceil((2/log 2) * log(1/delta)); the strict inequalities
    exclude band endpoints.
    """
    if x <= 0:
        raise BadInputError("x must be positive")
    lo = plan.delta / plan.t
    hi = 1.0 / (plan.delta * plan.t)
    return int(np.count_nonzero((lo < x) & (x < hi)))


# -- correlations -------------------------------------------------------------------


def direct_correlation(f: GridIndicator, sigma: AtomicMeasure, t: float) -> float:
    """Real-space correlation sum over atoms y and marked cells x of
    f(x) f(x + t y) w(y) h^d, with multilinear interpolation off-grid.

    Strictly positive only when the gauge distance t is realized between
    points of the set (up to grid tolerance).  The offset s = t y / h of
    x_i + t y from cell i is the same for every i, so the cell sum is the
    cell autocorrelation A(k) = sum_i c_i c_{i+k} (0 for |k| > m - 1) read
    at the corners of floor(s): direct = h^d sum_y w_y sum_corners W A, with
    W the multilinear weights of s - floor(s).  An s within a few ulps of
    m + |s| of a grid line is put on it, so rounding noise never gives a
    corner weight (and a spurious positive).
    """
    if t <= 0:
        raise BadInputError("t must be positive")
    if sigma.dim != f.dim:
        raise BadInputError("dimension mismatch between set and measure")
    acf = f._autocorrelation()
    mp = _PAD * f.m
    s = np.clip(t * sigma.positions / f.h, -mp, mp)
    near = np.rint(s)
    s = np.where(np.abs(s - near) <= 8 * np.finfo(float).eps * (f.m + np.abs(s)), near, s)
    k = np.floor(s).astype(np.int64)
    frac = s - k
    vals = np.zeros(len(sigma))
    for corner in product((0, 1), repeat=f.dim):
        # lag +-m sits at index m of the padded array, where A is 0
        lag = np.clip(k + np.asarray(corner), -f.m, f.m) % mp
        w = np.prod(np.where(np.asarray(corner, dtype=bool), frac, 1.0 - frac), axis=1)
        vals += w * acf[tuple(lag.T)]
    return float(sigma.weights @ vals) * f.h ** f.dim


def _power_table(s, out):
    """out[k, p] = z_p^k with z_p = exp(-2 pi i s_p) at the fftfreq integers k of the first
    2 (len(out) // 2) rows of out: z^0..z^h by _phase_table, z^-k as conj(z^k), so row h is
    z^-h.  An odd last row takes z^+h."""
    h = out.shape[0] // 2
    _phase_table(0.0, 1.0, h + 1, s, out=out)
    if out.shape[0] % 2:
        out[2 * h] = out[h]
    np.conjugate(out[h - 1:0:-1], out=out[h + 1:2 * h])
    np.conjugate(out[h], out=out[h])
    return out


def _sigma_hat_on_grid(sigma: AtomicMeasure, t: float, mp: int, h: float, dim: int):
    """Re ft(sigma)(t xi) of a symmetric sigma on the half grid xi = k / (mp h) of
    _half_grid_axes, and a bound on its distance from the exact real part.

    Each pair (i, j) of sigma._pairs_up() adds (w_i + w_j) cos(2 pi t <x_i, xi>) (w_i alone
    if i == j), within |w_j| 2 pi t |x_i + x_j| |xi| of its share of Re ft(sigma).  With the
    power tables E_a[k, p] = z^k of z = exp(-2 pi i t x_{p,a} / (mp h)), phase in long double,
    the cosine is Re prod_a E_a: z^0..z^(mp/2) of _phase_table on the first and last axes,
    _power_table on a middle one.  In 1-d that is one matrix-vector product per block of
    pairs.  Otherwise, with R the Khatri-Rao rows of the tables after the first, it is
    P -+ Q at +-k_0 for P = (w Re E_0) Re R^T and Q = (w Im E_0) Im R^T: two real matrix
    products over k_0 = 0..mp/2, half the rows of the full grid's first axis."""
    i, j = sigma._pairs_up()
    x = sigma.positions[i]
    w = sigma.weights[i] + np.where(i == j, 0.0, sigma.weights[j])
    residue = np.sum(np.abs(sigma.weights[j]) * np.linalg.norm(x + sigma.positions[j], axis=1))
    s = x.astype(np.longdouble) * (np.longdouble(t) / (np.longdouble(mp) * np.longdouble(h)))
    step, half = max(1, _GEMM_BLOCK // mp ** max(1, dim - 1)), mp // 2
    for b in range(0, max(len(w), 1), step):
        n, wb = min(step, len(w) - b), w[b:b + step]
        tab = [_power_table(s[b:b + n, ax], _scratch(ax, (mp + 1, n))) if 0 < ax < dim - 1
               else _phase_table(0.0, 1.0, half + 1, s[b:b + n, ax], _scratch(ax, (mp + 1, n)))
               for ax in range(dim)]
        if dim == 1:
            part = tab[0].real @ wb
        else:
            R = tab[1] if dim == 2 else np.multiply(
                tab[1][:, None], tab[2][None], out=_scratch(3, (mp + 1, half + 1, n)))
            R = R.reshape(-1, n)
            p = (tab[0].real * wb) @ np.ascontiguousarray(R.real).T
            q = (tab[0].imag * wb) @ np.ascontiguousarray(R.imag).T
            part = np.concatenate([p - q, (p + q)[1:]])
        out = part if b == 0 else out + part
    shape = (mp + 1,) * (dim - 1) + (half + 1,)
    return out.reshape(shape), float(math.pi * t * math.sqrt(dim) / h * residue)


@lru_cache(maxsize=1)
def _j0_coefficients():
    """Horner rows of _j0, highest order first: P and Q of Hankel's expansion in 1/z^2 (DLMF
    10.17.3), from a_k = a_{k-1} (-(2k-1)^2) / (8k), and one column of Taylor coefficients
    of J0 per midpoint z_c = j + 1/2, j < _J0_CUT.  Those start from J0(z_c) and -J1(z_c),
    long-double means of cos(z sin a) and sin(z sin a) sin a over 112 equal steps of a in
    [0, 2 pi) (exact up to 2 |J_111(20)|), and follow the recurrence of z y'' + y' + z y = 0
    about z_c: a_{k+2} = -((k+1)^2 a_{k+1} + z_c a_k + a_{k-1}) / (z_c (k+1)(k+2))."""
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(a[-1] * -(2 * k - 1) ** 2 / (8 * k))
    hankel = np.array(a) * (-1.0) ** (np.arange(_HANKEL_TERMS) // 2)
    angle = np.arange(112, dtype=np.longdouble) * (8 * np.arctan(np.longdouble(1)) / 112)
    zc = np.arange(_J0_CUT, dtype=np.longdouble) + np.longdouble(0.5)
    phase = np.multiply.outer(zc, np.sin(angle))
    taylor = [np.mean(np.cos(phase), axis=1), -np.mean(np.sin(phase) * np.sin(angle), axis=1)]
    for k in range(_TAYLOR_TERMS - 2):
        below = taylor[k - 1] if k else 0
        taylor.append(-((k + 1) ** 2 * taylor[k + 1] + zc * taylor[k] + below)
                      / (zc * ((k + 1) * (k + 2))))
    return hankel[-2::-2], hankel[::-2], np.array(taylor[::-1], dtype=float)


def _j0(z):
    """J0 at each z >= 0 of a float array, within _J0_ERROR.  From _J0_CUT on, Hankel's
    expansion P cos(z - pi/4) - Q sin(z - pi/4) times sqrt(2 / (pi z)), taken as ((P + Q)
    cos z + (P - Q) sin z) / sqrt(pi z) so that z - pi/4 is never rounded; below it, the
    Taylor polynomial of the unit interval about its midpoint."""
    p_rows, q_rows, taylor = _j0_coefficients()
    out = np.empty_like(z)
    big = z >= _J0_CUT
    x = z[big]
    u = 1.0 / (x * x)
    p, q = np.full_like(x, p_rows[0]), np.full_like(x, q_rows[0])
    for a, b in zip(p_rows[1:], q_rows[1:]):
        p *= u
        p += a
        q *= u
        q += b
    q /= x
    out[big] = ((p + q) * np.cos(x) + (p - q) * np.sin(x)) / np.sqrt(np.pi * x)
    x = z[~big]
    j = x.astype(np.intp)
    h = x - (j + 0.5)
    acc = taylor[0][j]
    for row in taylor[1:]:
        acc *= h
        acc += row[j]
    out[~big] = acc
    return out


def _isotropic_moments(sigma: AtomicMeasure, t: float, rho_max: float):
    """(r0, w(0..N)) when sigma lies on one circle of radius r0 (its _circle_radius) and
    max_{0<n<=N} |w(n)| <= _ISOTROPY_TOL |w(0)| at N = _jacobi_anger_order(z_max), z_max = 2 pi
    t r0 rho_max; None otherwise.  Then by Jacobi-Anger, as in measures._circle_ring,
    ft(sigma)(t xi) = w(0) J0(2 pi t r0 |xi|) within 2 sum_{0<n<=N} |w(n)| + 1e-16 |sigma| at
    every |xi| <= rho_max."""
    r0 = sigma._circle_radius()
    if r0 is None:
        return None
    w = sigma._angular_moments(_jacobi_anger_order(2 * math.pi * t * r0 * rho_max) + 1)
    if np.max(np.abs(w[1:])) > _ISOTROPY_TOL * abs(w[0]):
        return None
    return r0, w


@dataclass(frozen=True)
class SplitResult:
    """The three-band split of the frequency-side correlation at one t.

    i1 + i2 + i3 equals the full quadrature sum exactly (same grid, disjoint
    bands: three runs of the grid points in radius order).  quad_error is a
    bound on the distance of the summed sigma-hat values from Re ft(sigma)
    times the total spectral power (the pairing residue of _sigma_hat_on_grid,
    or the radial path's terms), plus the tail proxy near the grid Nyquist
    radius.
    """

    t: float
    delta: float
    i1: float
    i2: float
    i3: float
    total: float
    quad_error: float

    @property
    def lower_bound(self):
        """I1 - |I2| - |I3|, the positivity certificate."""
        return self.i1 - abs(self.i2) - abs(self.i3)


def split_integrals(f: GridIndicator, sigma: AtomicMeasure, t: float,
                    delta: float) -> SplitResult:
    """Frequency-side correlation split at |xi| = delta/t and 1/(delta t).

    The quadrature lives on the zero-padded grid of f's transform, truncated
    at the grid Nyquist radius; the discarded tail is estimated by the
    spectral mass in the outermost decade of radii and reported as part of
    the high band's error bar.  Both transforms are even, so the sum runs
    over the weighted half grid of _radius_order.

    A sigma that is isotropic to the order the grid needs (_isotropic_moments) takes the
    radial path: its transform is w(0) J0(2 pi t r0 |xi|), so each band is a sum over the
    grid's distinct radii of w(0) J0 times the power summed per radius (_radial_power).  Its
    bound per unit power is 2 sum_{0<n<=N} |w(n)| + _J0_ERROR |w(0)| + (8 eps z_max + 1e-16)
    |sigma|, where 8 eps z_max covers the roundings of the Bessel argument and the atoms'
    4-ulp spread about r0.  Every other sigma takes _sigma_hat_on_grid.
    """
    if t <= 0:
        raise BadInputError("t must be positive")
    if not (0 < delta < 1):
        raise BadInputError("delta must lie in (0,1)")
    if sigma.dim != f.dim:
        raise BadInputError("dimension mismatch between set and measure")
    if not sigma.is_symmetric():
        raise BadInputError("measure must be symmetric (real transform) "
                            "for the frequency-side correlation")
    power, radii, total_power, tail_power = f._power_spectrum()
    isotropic = _isotropic_moments(sigma, t, radii[-1])
    if isotropic is None:
        shat, residue = _sigma_hat_on_grid(sigma, t, _PAD * f.m, f.h, f.dim)
        vals = shat.ravel()[_radius_order(f.dim, f.m)[0]]
        vals *= power
    else:
        r0, w = isotropic
        radii, radial_power = f._radial_power()
        z = (2 * math.pi * t * r0) * radii
        vals = _j0(z)
        vals *= w[0].real
        vals *= radial_power
        residue = float(2 * np.sum(np.abs(w[1:])) + _J0_ERROR * abs(w[0].real)
                        + (8 * np.finfo(float).eps * z[-1] + 1e-16) * sigma.abs_mass)
    i1, i2, i3 = (float(np.sum(v)) for v in np.split(vals, _band_cuts(radii, t, delta)))
    return SplitResult(float(t), float(delta), i1, i2, i3, i1 + i2 + i3,
                       residue * total_power + tail_power * sigma.abs_mass)


def _band_cuts(radii, t, delta):
    """The end of the low band |xi| <= delta/t and the start of the high band
    |xi| >= 1/(delta t) in the sorted radii."""
    return (int(np.searchsorted(radii, delta / t, side="right")),
            int(np.searchsorted(radii, 1.0 / (delta * t), side="left")))


# -- the lacunary search --------------------------------------------------------------


@dataclass(frozen=True)
class LacunarySearchResult:
    found: bool
    split: SplitResult | None
    direct: float | None
    rows: list                    # (j, t, i1, i2, i3, direct, verdict) per scanned j
    diagnostics: list
    verdict: str


def lacunary_search(f: GridIndicator, sigma: AtomicMeasure, plan: LacunaryPlan,
                    goodness=None) -> LacunarySearchResult:
    """Scan the lacunary sequence from j0 for a t with a positive correlation.

    Accepts the first j where the band split certifies I1 - |I2| - |I3| > 0
    and the real-space correlation at t_j is itself positive.  A goodness
    report for sigma, when supplied, is checked against the eta threshold;
    a shortfall is recorded as a diagnostic rather than aborting, since the
    search result is certified by the direct cross-check.  Exhausting the
    scan is reported as a hypothesis violation, never silently.
    """
    eps = f.measure
    if eps <= 0:
        raise BadInputError("the set must have positive measure")
    consts = BourgainConstants(f.dim)
    diagnostics = []
    if goodness is not None:
        eta = consts.eta(eps)
        if goodness.eps_hat > eta:
            diagnostics.append(
                f"goodness hypothesis not met at desk scale: eps_hat "
                f"{goodness.eps_hat:.6g} > eta(|A|) {eta:.6g}")
        if plan.delta > 1.0 / goodness.R * (1 + 1e-12):
            diagnostics.append(
                f"delta {plan.delta:.6g} exceeds 1/R {1.0 / goodness.R:.6g} "
                "for the measured goodness cutoff")
    if not sigma.is_probability():
        diagnostics.append("sigma is not a probability measure")
    target = consts.positivity_constant * eps * eps
    start = plan.j0_index
    if start >= len(plan):
        return LacunarySearchResult(False, None, None, [],
                                    diagnostics + ["no sequence term below 4*pi/R"],
                                    "HYPOTHESIS-VIOLATION: no admissible t in plan")
    stop = len(plan)
    if plan.j_bound is not None:
        stop = min(stop, plan.j_bound)
    rows = []
    for j in range(start, stop):
        t = float(plan.t[j])
        split = split_integrals(f, sigma, t, plan.delta)
        lower = split.lower_bound
        direct = direct_correlation(f, sigma, t)
        ok = lower > 0 and direct > 0
        verdict = "positive" if ok else "indecisive"
        rows.append((j + 1, t, split.i1, split.i2, split.i3, direct, verdict))
        if ok:
            achieved = (f"lower bound {lower:.6g} vs explicit target {target:.6g}"
                        f" ({'meets' if lower - split.quad_error >= target else 'below'}"
                        " the target)")
            return LacunarySearchResult(True, split, direct, rows, diagnostics,
                                        f"POSITIVE at j={j + 1}: {achieved}")
    reason = ("scan budget exhausted" if stop < len(plan) else "sequence exhausted")
    return LacunarySearchResult(False, None, None, rows, diagnostics + [reason],
                                "HYPOTHESIS-VIOLATION: no positive j found "
                                "(measure not good enough or grid too coarse)")
