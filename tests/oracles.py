"""Independent oracles used by the tests.

These deliberately avoid the library's own evaluation paths: membership is
re-derived from the raw body data, transforms come from dense quadrature of
the defining integrals, and correlations come from exhaustive pair searches.
"""

from itertools import product

import numpy as np

from gaugelab.bodies import Ellipsoid, HPolytope, RadialBody


def membership(body, x, t):
    """x in t*K, straight from the variant's defining inequalities."""
    x = np.asarray(x, dtype=float)
    if t <= 0:
        return bool(np.all(x == 0))
    if isinstance(body, HPolytope):
        return bool(np.all(body.normals @ x <= t * body.offsets))
    if isinstance(body, Ellipsoid):
        return float(np.sum((x / body.axes) ** 2)) <= t * t
    if isinstance(body, RadialBody):
        if body.kind == "superellipsoid":
            return float(np.sum(np.abs(x / body.axes) ** body.p)) <= t ** body.p
        r = np.linalg.norm(x)
        if r == 0:
            return True
        phi = np.arctan2(x[1], x[0])
        m = body.samples.shape[0]
        u = np.mod(phi, 2 * np.pi) * m / (2 * np.pi)
        i0 = int(np.floor(u)) % m
        frac = u - np.floor(u)
        rad = (1 - frac) * body.samples[i0] + frac * body.samples[(i0 + 1) % m]
        return r <= t * rad
    raise TypeError(body)


def bisection_gauge(body, x, iters=80):
    """Gauge by bisection on t -> [x in t*K] over the bracket [0, 4|x|/r0]."""
    x = np.asarray(x, dtype=float)
    if np.all(x == 0):
        return 0.0
    hi = 4.0 * float(np.linalg.norm(x)) / body.inner_radius()
    lo = 0.0
    assert membership(body, x, hi), "bracket must contain the gauge value"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if membership(body, x, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def circle_transform(r, nodes=1 << 16):
    """Dense periodic quadrature of the normalized unit-circle transform.

    (1/2pi) int_0^{2pi} exp(-2 pi i r cos(phi)) dphi at radial frequency r.
    """
    phi = np.arange(nodes) * 2 * np.pi / nodes
    vals = np.exp(-2j * np.pi * r * np.cos(phi))
    return complex(np.mean(vals))


def pair_search_hits(f, body, t, slack):
    """Does any pair of marked cell centers realize gauge distance t +- slack?"""
    centers = f.marked_centers()
    for i in range(centers.shape[0]):
        d = body.gauge_many(centers[i + 1:] - centers[i][None, :])
        if np.any(np.abs(d - t) <= slack):
            return True
    return False


def interval_gap_sweep(values, eps, t0, t_max, step):
    """Brute-force count of empty windows of width >= eps via a dense sweep."""
    values = np.sort(np.asarray(values, dtype=float))
    grid = np.arange(t0, t_max, step)
    empty = np.array([not np.any((values >= g) & (values <= g + eps)) for g in grid])
    count = 0
    run = False
    for e in empty:
        if e and not run:
            count += 1
            run = True
        elif not e:
            run = False
    return count


def disk_profile_quadrature(r, nodes=1 << 14):
    """Indicator transform of the unit disk by polar quadrature, radial part exact."""
    phi = (np.arange(nodes) + 0.5) * 2 * np.pi / nodes
    c = 2 * np.pi * r * np.cos(phi)
    small = np.abs(c) < 1e-8
    vals = np.empty(nodes, dtype=complex)
    vals[small] = 0.5
    cb = c[~small]
    e = np.exp(-1j * cb)
    vals[~small] = 1j / cb * e + (e - 1.0) / cb ** 2
    return float(np.real(np.sum(vals)) * (2 * np.pi / nodes))


def interpolate_cells(f, Q):
    """Multilinear interpolation of f's 0/1 cell values at query points (0 outside)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    u = (Q + 1.0) / f.h - 0.5
    i0 = np.floor(u).astype(np.int64)
    frac = u - i0
    dense = f.cells.astype(float)
    vals = np.zeros(Q.shape[0])
    for corner in product((0, 1), repeat=f.dim):
        idx = i0 + np.asarray(corner, dtype=np.int64)[None, :]
        ok = np.all((idx >= 0) & (idx < f.m), axis=1)
        w = np.ones(Q.shape[0])
        for ax, c in enumerate(corner):
            w = w * (frac[:, ax] if c else 1.0 - frac[:, ax])
        cell_vals = np.zeros(Q.shape[0])
        cell_vals[ok] = dense[tuple(idx[ok, ax] for ax in range(f.dim))]
        vals += w * cell_vals
    return vals


def dense_direct_correlation(f, sigma, t):
    """sum_y w_y sum_x f(x) f(x + t y) h^d over marked cell centers x, one query per pair."""
    centers = f.marked_centers()
    total = 0.0
    for y, w in zip(sigma.positions, sigma.weights):
        total += w * float(np.sum(interpolate_cells(f, centers + t * y[None, :])))
    return total * f.h ** f.dim


def separable_sigma_hat(sigma, t, mp, h, dim):
    """ft(sigma)(t xi) on the fftfreq grid by one einsum over per-axis phases."""
    freqs = np.fft.fftfreq(mp, d=h)
    E = [np.exp(-2j * np.pi * t * sigma.positions[:, ax, None] * freqs[None, :])
         for ax in range(dim)]
    spec = {1: "j,jk->k", 2: "j,jk,jl->kl", 3: "j,jk,jl,jm->klm"}[dim]
    return np.einsum(spec, sigma.weights, *E)
