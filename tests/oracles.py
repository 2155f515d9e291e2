"""Independent oracles used by the tests.

These deliberately avoid the library's own evaluation paths: membership is
re-derived from the raw body data, transforms come from dense quadrature of
the defining integrals, and correlations come from exhaustive pair searches.
"""

import math
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection

from gaugelab.bodies import Ellipsoid, HPolytope, RadialBody
from gaugelab.correlation import _half_grid_axes
from gaugelab.measures import _GRID_OVERSAMPLE, _GRID_SPREAD, _block_times, _expi, _smooth_size


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


def separable_sigma_hat(sigma, t, mp, h, dim, half=False):
    """ft(sigma)(t xi) on the grid xi = k / (mp h), k the fftfreq integers, by one einsum
    over per-axis phases.  Each phase t x k / (mp h) is formed in long double and reduced
    mod 1 before its exponential, one entry at a time, so it is exact to ~1e-16 even where
    a double phase of a few hundred radians is ~1e-13 off.  half=True takes the integers k
    of the positivity machine's half grid, correlation._half_grid_axes, instead."""
    k = (np.arange(mp) + mp // 2) % mp - mp // 2
    ks = _half_grid_axes(dim, mp // 2) if half else [k] * dim
    scale = np.longdouble(t) / (np.longdouble(mp) * np.longdouble(h))
    E = []
    for ax, ka in enumerate(ks):
        cycles = (sigma.positions[:, ax, None].astype(np.longdouble) * scale
                  * ka.astype(np.longdouble)[None, :])
        E.append(np.exp(-2j * np.pi * (cycles - np.rint(cycles)).astype(float)))
    spec = {1: "j,jk->k", 2: "j,jk,jl->kl", 3: "j,jk,jl,jm->klm"}[dim]
    return np.einsum(spec, sigma.weights, *E)


def full_grid_split(f, sigma, t, delta):
    """split_integrals on the full padded (2m)^d grid, as the machine ran before it kept the
    half grid: the fftn power spectrum, Re ft(sigma) of separable_sigma_hat over every atom,
    three boolean band masks, the pairing residue from scan_pairs_up, and the integer
    autocorrelation from ifftn of the full |F|^2."""
    mp = 2 * f.m
    arr = np.zeros((mp,) * f.dim)
    arr[(slice(0, f.m),) * f.dim] = f.cells
    abs2 = np.abs(np.fft.fftn(arr)) ** 2
    power = abs2 * f.h ** (2 * f.dim) * (1.0 / (mp * f.h)) ** f.dim
    axes = np.meshgrid(*[np.fft.fftfreq(mp, d=f.h)] * f.dim, indexing="ij", sparse=True)
    radii = np.sqrt(sum(g ** 2 for g in axes))
    vals = power * separable_sigma_hat(sigma, t, mp, f.h, f.dim).real
    low, high = radii <= delta / t, radii >= 1.0 / (delta * t)
    bands = (low, ~low & ~high, high)
    i1, i2, i3 = (float(np.sum(vals[b])) for b in bands)
    i, j = scan_pairs_up(sigma)
    residue = math.pi * t * math.sqrt(f.dim) / f.h * float(np.sum(
        np.abs(sigma.weights[j]) * np.linalg.norm(sigma.positions[i] + sigma.positions[j], axis=1)))
    tail = float(np.sum(power[radii > 0.9 * (0.5 / f.h)]))
    return SimpleNamespace(i1=i1, i2=i2, i3=i3, total=i1 + i2 + i3, bands=bands,
                           quad_error=residue * float(np.sum(power)) + tail * sigma.abs_mass,
                           autocorr=np.rint(np.fft.ifftn(abs2).real).astype(np.int64))


def _cycles(ts, s):
    """t s over the outer product of ts and s, reduced mod 1 in the precision of s."""
    p = np.outer(ts, s)
    p -= np.rint(p)
    return p.astype(float, copy=False)


def exp_phase_table(t0, dt, n, s):
    """measures._phase_table through the complex exponential: np.exp of each block factor's
    imaginary phase, then the coarse x fine product, first n rows."""
    coarse, fine = (np.exp(-2j * np.pi * _cycles(ts, s)) for ts in _block_times(t0, dt, n))
    return (coarse[:, None, :] * fine[None, :, :]).reshape(-1, len(s))[:n]


def hand_built_power_table(s, out):
    """correlation._power_table built by hand: the coarse x fine broadcast product of the
    block factors of _block_times in the first rows of out, then z^-k as conj(z^k)."""
    half = out.shape[0] // 2
    coarse, fine = (np.exp(-2j * np.pi * _cycles(ts, s)) for ts in _block_times(0.0, 1.0, half + 1))
    np.multiply(coarse[:, None, :], fine[None, :, :],
                out=out[:coarse.shape[0] * fine.shape[0]].reshape(coarse.shape[0], *fine.shape))
    np.conjugate(out[half - 1:0:-1], out=out[half + 1:])
    np.conjugate(out[half], out=out[half])
    return out


def cell_transform(f, Xi):
    """ft(f) at arbitrary frequencies by the direct sum over marked cell centers."""
    return dense_expsum(f.marked_centers(), np.full(f.count, f.h ** f.dim), Xi)


def dense_expsum(positions, weights, freqs):
    """sum_j w_j exp(-2 pi i <x_j, xi_k>) per row xi_k, one complex exponential per term."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
    return np.exp(-2j * np.pi * (freqs @ positions.T)) @ np.asarray(weights, dtype=float)


def longdouble_expsum(positions, weights, freqs):
    """dense_expsum with each phase <x_j, xi_k> formed in long double and reduced mod 1 before
    its exponential: exact to ~1e-16 per term where long double is wider than double."""
    cycles = (np.asarray(freqs, dtype=np.longdouble)
              @ np.asarray(positions, dtype=np.longdouble).T)
    cycles -= np.rint(cycles)
    return np.exp(-2j * np.pi * cycles.astype(float)) @ np.asarray(weights, dtype=float)


def bincount_gridded_sum(s, weights, t0, dt, n):
    """measures._gridded_sum as first written, on fresh arrays: the same phases, stencil and
    deconvolution, the spread terms accumulated by one np.bincount of their real parts and
    one of their imaginary parts, each folded mod M into its part of the grid."""
    c = n // 2
    N = 2 * max(n - c, c)
    M = _smooth_size(_GRID_OVERSAMPLE * N)
    tau = np.pi * _GRID_SPREAD / (M * (M - N / 2))
    s = np.asarray(s, dtype=np.longdouble)
    pos = s * (np.longdouble(dt) * M)
    centre = s * (t0 + c * np.longdouble(dt))
    centre -= np.rint(centre.astype(float))
    v = weights * _expi(np.multiply(-2 * np.pi, centre.astype(float)))
    near = np.floor(pos.astype(float))
    gauss = np.square(np.arange(1 - _GRID_SPREAD, _GRID_SPREAD + 1)
                      - (pos - near).astype(float)[:, None])
    gauss *= -np.pi ** 2 / (M * M * tau)
    np.exp(gauss, out=gauss)
    first = (near.astype(np.intp) + (1 - _GRID_SPREAD)) % M
    cells = first[:, None] + np.arange(2 * _GRID_SPREAD)
    size = -(-(M + 2 * _GRID_SPREAD) // M) * M
    grid = np.empty(M, dtype=complex)
    for part, vp in ((grid.real, v.real), (grid.imag, v.imag)):
        bins = np.bincount(cells.ravel(), (vp[:, None] * gauss).ravel(), size)
        np.sum(bins.reshape(-1, M), axis=0, out=part)
    k = np.arange(-c, n - c)
    return np.fft.fft(grid)[k % M] * (math.sqrt(np.pi / tau) / M * np.exp(k * k * tau))


def dense_ring_sup(positions, weights, freqs, block=512):
    """max_k |dense_expsum| over the rows of freqs, in blocks of rows."""
    return max(float(np.max(np.abs(dense_expsum(positions, weights, freqs[s:s + block]))))
               for s in range(0, len(freqs), block))


def pairwise_orthogonality_residual(points, body):
    """orthogonality_residual as first written: chi_hat at p_j - p_i for every pair i < j."""
    from gaugelab.spectra import chi_hat_many
    n = len(points)
    if n < 2:
        return 0.0
    i, j = np.triu_indices(n, 1)
    return float(np.max(np.abs(chi_hat_many(body, points.points[j] - points.points[i]))))


def all_pairs_spectrum_report(points, body, R):
    """spectrum_gap_pipeline's report as first written: t_max from the dual gauge of all n^2
    differences of the sparsified set, then distance_set up to it."""
    from gaugelab.distances import GapReport, _distance_values, sparsify
    thin = sparsify(points, R)
    if len(thin) == 0:
        return GapReport.from_values([], 0.0)
    diffs = thin.points[:, None, :] - thin.points[None, :, :]
    t_max = float(np.max(body.dual_gauge_many(diffs.reshape(-1, thin.dim)))) + 1.0
    return GapReport.from_values(_distance_values(thin, body, dual=True), t_max)


def sequential_merge_distance_set(points, body, t_max, dual=False):
    """Distance set as first written: every pair gauged, and the sequential merge walks
    every sorted value at 1e-9.  dual=True is its twin under the dual gauge."""
    from gaugelab.distances import GapReport
    merge_tol = 1e-9
    fn = body.dual_gauge_many if dual else body.gauge_many
    i, j = np.triu_indices(len(points), 1)
    vals = [np.zeros(min(len(points), 1))]
    for s in range(0, len(i), 1 << 18):  # the pairs in slices, so big sets stay small
        vals.append(fn(points.points[i[s:s + (1 << 18)]] - points.points[j[s:s + (1 << 18)]]))
    vals = np.concatenate(vals)
    vals = np.sort(vals[vals <= t_max + merge_tol])
    merged = []
    for v in vals:
        if not merged or v - merged[-1] > merge_tol:
            merged.append(float(v))
    dists = np.asarray(merged)
    gaps = []
    for a, b in zip(dists[:-1], dists[1:]):
        if b - a > merge_tol:
            gaps.append((float(a), float(b - a)))
    if dists.size and t_max - dists[-1] > merge_tol:
        gaps.append((float(dists[-1]), float(t_max - dists[-1])))
    return GapReport(dists, gaps, 0.0, float(t_max), merge_tol)


def symmetrized(mu):
    """The even part (mu + mu(-.))/2 of an atomic measure; normals flip with the reflection."""
    from gaugelab.measures import AtomicMeasure
    nrm = None if mu.normals is None else np.vstack([mu.normals, -mu.normals])
    return AtomicMeasure(np.vstack([mu.positions, -mu.positions]),
                         np.concatenate([mu.weights, mu.weights]) / 2.0, nrm)


def indicator_from_balls(dim, m, centers, radii):
    """Union of Euclidean balls clipped to the unit ball, sampled at cell centers."""
    from gaugelab.correlation import GridIndicator, _cell_centers
    pts = _cell_centers(dim, m)
    mask = np.zeros(pts.shape[0], dtype=bool)
    for c, r in zip(np.atleast_2d(np.asarray(centers, dtype=float)), np.ravel(radii)):
        mask |= np.sum((pts - c[None, :]) ** 2, axis=1) <= r * r
    mask &= np.sum(pts ** 2, axis=1) <= 1.0
    return GridIndicator(dim, m, mask.reshape((m,) * dim))


def rebuilt_random_indicator(dim, m, target_measure, seed, max_balls=64):
    """random_indicator as first written: the whole union is rebuilt after every ball."""
    rng = np.random.default_rng(seed)
    centers, radii = [], []
    for _ in range(max_balls):
        centers.append(rng.uniform(-0.62, 0.62, size=dim))
        radii.append(rng.uniform(0.14, 0.30))
        ind = indicator_from_balls(dim, m, np.array(centers), np.array(radii))
        if ind.measure >= target_measure:
            return ind
    return None


def longdouble_radial_slice(dim, a, c):
    """Re int_0^a rho^(dim-1) exp(-i c rho) drho in long double, elementwise.

    Taylor series in x = c a below |x| = 1/2 (16 terms), the plain closed form above.
    """
    a, c = np.broadcast_arrays(np.asarray(a, dtype=np.longdouble),
                               np.asarray(c, dtype=np.longdouble))
    x = c * a
    out = np.empty(x.shape, dtype=np.longdouble)
    small = np.abs(x) < 0.5
    xs = x[small]
    acc, term = np.zeros_like(xs), np.ones_like(xs)
    for n in range(16):  # term = (-1)^n x^(2n) / (2n)!
        acc += term / (2 * n + dim)
        term *= -xs * xs / ((2 * n + 1) * (2 * n + 2))
    out[small] = acc * a[small] ** dim
    ab, cb = a[~small], c[~small]
    sn, cs = np.sin(cb * ab), np.cos(cb * ab)
    if dim == 2:
        out[~small] = ab * sn / cb + (cs - 1) / cb ** 2
    else:
        out[~small] = ab ** 2 * sn / cb + 2 * ab * cs / cb ** 2 - 2 * sn / cb ** 3
    return out


def qhull_vertices(body):
    """HPolytope vertices as first enumerated: qhull's halfspace intersection about the
    origin, lexsorted, each kept unless within VERTEX_TOL of the last one kept."""
    from gaugelab.bodies import VERTEX_TOL
    halfspaces = np.hstack([body.normals, -body.offsets[:, None]])
    verts = HalfspaceIntersection(halfspaces, np.zeros(body.dim)).intersections
    verts = verts[np.lexsort(verts.T[::-1])]
    keep = [0]
    for i in range(1, len(verts)):
        if np.max(np.abs(verts[i] - verts[keep[-1]])) > VERTEX_TOL:
            keep.append(i)
    return verts[keep]


@lru_cache(maxsize=8)
def dict_icosphere(level):
    """The subdivided icosahedron as first written: unit vertices and triangle index
    triples, each level through a vertex dict, a midpoint cache and per-face loops."""
    t = (1 + 5 ** 0.5) / 2
    verts = []
    for a, b in [(1, t), (-1, t), (1, -t), (-1, -t)]:
        verts += [(0, a, b), (a, b, 0), (b, 0, a)]
    verts = np.array(verts, dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = ConvexHull(verts).simplices
    # orient all faces outward
    fixed = []
    for f in faces:
        a, b, c = verts[f]
        if np.dot(np.cross(b - a, c - a), a + b + c) < 0:
            f = f[[0, 2, 1]]
        fixed.append(f)
    faces = np.array(fixed)
    for _ in range(level):
        vlist = [tuple(v) for v in verts]
        index = {v: i for i, v in enumerate(vlist)}
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                m = m / np.linalg.norm(m)
                tm = tuple(m)
                if tm not in index:
                    index[tm] = len(vlist)
                    vlist.append(tm)
                cache[key] = index[tm]
            return cache[key]

        new_faces = []
        for (i, j, k) in faces:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [(i, ij, ki), (ij, j, jk), (ki, jk, k), (ij, jk, ki)]
        verts = np.array(vlist)
        verts /= np.linalg.norm(verts, axis=1)[:, None]
        faces = np.array(new_faces)
    return verts, faces


def dict_icosphere_patches(resolution):
    """_icosphere_patches as first written, on dict_icosphere: unit patch centers and
    solid angles of the finest level with at most `resolution` faces."""
    from gaugelab.bodies import _spherical_triangle_areas
    level = 0
    while 20 * 4 ** (level + 1) <= resolution:
        level += 1
    verts, faces = dict_icosphere(level)
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    u = a + b + c
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u, _spherical_triangle_areas(a, b, c)


def loop_polytope_mesh(body, resolution):
    """triangulate_boundary of a 2-d or 3-d HPolytope as first written: the resolution
    check, then per-edge node loops in 2-d, and in 3-d per-triangle midpoint splits of
    each facet's centroid fan, as many levels as fit four times into the resolution."""
    from gaugelab.measures import AtomicMeasure
    from gaugelab.errors import BadInputError
    if resolution < body.n_facets:
        raise BadInputError(
            f"resolution {resolution} too small to cover all {body.n_facets} facets")
    if body.dim == 2:
        edges = [body._facet_vertices(i) for i in range(body.n_facets)]
        lengths = np.array([np.linalg.norm(e[1] - e[0]) for e in edges])
        per = np.maximum(1, np.round(resolution * lengths / lengths.sum()).astype(int))
        pos, nrm, wts = [], [], []
        for i, e in enumerate(edges):
            a, b = e[0], e[1]
            m = per[i]
            ts = (np.arange(m) + 0.5) / m
            pos.append(a[None, :] + ts[:, None] * (b - a)[None, :])
            nrm.append(np.repeat(body.normals[i][None, :], m, axis=0))
            wts.append(np.full(m, lengths[i] / m))
        return AtomicMeasure(np.vstack(pos), np.concatenate(wts), np.vstack(nrm))
    base = []
    for i in range(body.n_facets):
        fv = body._facet_vertices(i)
        c = fv.mean(axis=0)
        b1 = fv[0] - c
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(body.normals[i], b1)
        ang = np.arctan2((fv - c) @ b2, (fv - c) @ b1)
        fv = fv[np.argsort(ang)]
        for k in range(len(fv)):
            base.append((c, fv[k], fv[(k + 1) % len(fv)], i))
    level = 0
    while len(base) * 4 ** (level + 1) <= resolution:
        level += 1
    pos, nrm, wts = [], [], []
    for (a, b, c, i) in base:
        tris = [(a, b, c)]
        for _ in range(level):
            nxt = []
            for (p, q, r) in tris:
                pq, qr, rp = (p + q) / 2, (q + r) / 2, (r + p) / 2
                nxt += [(p, pq, rp), (pq, q, qr), (rp, qr, r), (pq, qr, rp)]
            tris = nxt
        for (p, q, r) in tris:
            pos.append((p + q + r) / 3)
            wts.append(0.5 * np.linalg.norm(np.cross(q - p, r - p)))
            nrm.append(body.normals[i])
    return AtomicMeasure(np.array(pos), np.array(wts), np.array(nrm))


def scan_sparsify(points, R):
    """sparsify as first written, for R > 0: the cube keys of the kept points walked in
    lexicographic point order, the first point seen in each cube kept."""
    from gaugelab.distances import PointSet
    if len(points) == 0:
        return PointSet(points.points)
    scaled = points.points / R
    n = np.rint(scaled)
    keep = np.all(np.abs(scaled - n) < 0.5 - 1e-12, axis=1) & np.all(np.mod(n, 2) == 0, axis=1)
    kept_pts = points.points[keep]
    kept_n = n[keep].astype(np.int64)
    chosen = {}
    for idx in np.lexsort(kept_pts.T[::-1]):
        key = tuple(kept_n[idx])
        if key not in chosen:
            chosen[key] = idx
    return PointSet(kept_pts[sorted(chosen.values())])


def pairwise_cap_delta0(dirs):
    """CapFamily.delta0 as first written: the running minimum of geodesic_distance over
    every pair i < j of unit directions, inf for a single cap."""
    from gaugelab.bodies import geodesic_distance
    d0 = math.inf
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            d0 = min(d0, float(geodesic_distance(dirs[i], dirs[j])))
    return d0


def cap_pieces(mu, caps):
    """A cap-built measure split back into its per-cap pieces, by the normals of its atoms."""
    member = caps.membership(mu.normals)
    return [mu.restrict(member[i]) for i in range(len(caps))]


def loop_thicken(points, body, s, per_point, seed=0):
    """thicken as first written, less its argument checks and sampling budget: the output
    stacked center by center in a loop, each center, then its per_point - 1 offsets.  An
    empty set raises numpy's ValueError."""
    from gaugelab.distances import PointSet
    rng = np.random.default_rng(seed)
    r1 = body.outer_radius() * s
    extra = per_point - 1
    need = extra * len(points)
    drawn = []
    while sum(len(b) for b in drawn) < need:
        block = rng.uniform(-r1, r1, size=(4096, points.dim))
        drawn.append(block[body.gauge_many(block) <= s])
    offs = np.vstack(drawn)[:need] if need else np.zeros((0, points.dim))
    out = []
    for i, c in enumerate(points.points):
        out.append(c[None, :])
        if extra:
            out.append(c[None, :] + offs[i * extra:(i + 1) * extra])
    return PointSet(np.vstack(out))


def interval_profile(a, r):
    """chi_hat of [-a, a] at r, the closed radial profile 2a sinc(2a r) once kept by the
    zero scan."""
    return 2 * a * np.sinc(2 * a * np.asarray(r, dtype=float))


def ball_profile(a, d, r):
    """chi_hat of the radius-a d-ball at r e1, the closed radial profile a^d B_d(a r) once
    kept by the zero scan, B_d the unit-ball profile."""
    from gaugelab.spectra import ball_indicator_profile
    return a ** d * ball_indicator_profile(d, a * np.asarray(r, dtype=float))


def fresh_polar_chi_hat(body, xi, resolution=4096):
    """chi_hat by polar slices as first written, nodes and radii rebuilt for this xi,
    with the phases, the radial slices and the sum in long double."""
    xi = np.asarray(xi, dtype=float)
    if body.dim == 2:
        phi = (np.arange(resolution) + 0.5) * 2 * np.pi / resolution
        u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        wts = np.full(resolution, 2 * np.pi / resolution)
    else:
        u, wts = dict_icosphere_patches(resolution)
    r = 1.0 / body.gauge_many(u)
    phase = 2 * np.pi * np.sum(u.astype(np.longdouble) * xi.astype(np.longdouble), axis=1)
    return float(np.sum(longdouble_radial_slice(body.dim, r, phase) * wts))


def bisection_zero_scan(body, window, steps):
    """Zeros and grid brackets of the radial profile chi_hat(body, r e1), as the zero scan
    first refined them: every sign-change bracket of the grid bisected in lockstep down to
    a width of 1e-10, the zero its midpoint; a midpoint value of exactly 0 ends its bracket.
    A grid value of exactly 0 between values of opposite signs is the zero [r, r]."""
    from gaugelab import spectra
    e1 = np.eye(body.dim)[0]
    rs = np.linspace(window[0], window[1], int(steps))
    vals = spectra.chi_hat_many(body, np.outer(rs, e1))
    pairs = [(k, k + 1) for k in range(len(rs) - 1) if vals[k] * vals[k + 1] < 0]
    pairs += [(k, k) for k in range(1, len(rs) - 1)
              if vals[k] == 0 and vals[k - 1] * vals[k + 1] < 0]
    i, j = np.array(sorted(pairs), dtype=int).reshape(-1, 2).T
    lo, hi, lo_v = rs[i], rs[j], vals[i]
    live = np.arange(i.size)
    for _ in range(200):
        live = live[hi[live] - lo[live] > 1e-10]
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        mv = spectra.chi_hat_many(body, np.outer(mid, e1))
        hit, left = mv == 0.0, lo_v[live] * mv < 0
        right = ~hit & ~left
        hi[live[left]] = mid[left]
        lo[live[right]], lo_v[live[right]] = mid[right], mv[right]
        live = live[~hit]
    return 0.5 * (lo + hi), np.stack([rs[i], rs[j]], axis=1)


def _polygon_ring(body):
    """A polygon's vertices in counterclockwise order, in long double."""
    v = body.vertices
    return v[np.argsort(np.arctan2(v[:, 1], v[:, 0]))].astype(np.longdouble)


def longdouble_polygon_chi_hat(body, Xi):
    """The divergence-theorem edge sum in long double, with the edges taken between
    consecutive vertices in angle order and the normals turned from the edges."""
    a = _polygon_ring(body)
    b = np.roll(a, -1, axis=0)
    d = b - a
    nu = np.stack([d[:, 1], -d[:, 0]], axis=1)
    pi = 4 * np.arctan(np.longdouble(1))
    X = np.asarray(Xi, dtype=np.longdouble)
    z = pi * (X @ d.T)
    sinc = np.sin(z) / np.where(z == 0, 1, z)
    sinc[z == 0] = 1
    terms = (X @ nu.T) * sinc * np.sin(pi * (X @ (a + b).T))
    return np.sum(terms, axis=1) / (2 * pi * np.sum(X * X, axis=1))


def shoelace_area(body):
    """Polygon area by the shoelace sum over the counterclockwise vertices."""
    v = _polygon_ring(body)
    w = np.roll(v, -1, axis=0)
    return float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]) / 2)


def old_hpolytope_gauge(body, X):
    """HPolytope.gauge_many as first written: point-major, reduced over the facet axis."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.maximum(np.max((X @ body.normals.T) / body.offsets[None, :], axis=1), 0.0)


def old_hpolytope_dual_gauge(body, Xi):
    """HPolytope.dual_gauge_many as first written: point-major over the vertices."""
    Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
    return np.max(Xi @ body.vertices.T, axis=1)


def unscaled_random_polygon(pairs, seed):
    """random_symmetric_polytope(2, pairs, seed) as first written: offsets jitter by +/-8%
    at every spacing, the first non-degenerate draw of up to 64 is returned, or None."""
    from gaugelab.errors import BadInputError
    rng = np.random.default_rng(seed)
    for _ in range(64):
        ang = (np.arange(pairs) + rng.uniform(0.15, 0.85, size=pairs)) * np.pi / pairs
        v = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        h = rng.uniform(0.92, 1.08, size=pairs)
        try:
            body = HPolytope(np.vstack([v, -v]), np.concatenate([h, h]))
            for i in range(body.n_facets):
                body._facet_vertices(i)
        except BadInputError:
            continue
        return body
    return None


def spiral_random_polytope(pairs, seed):
    """random_symmetric_polytope(3, pairs, seed) with its spiral written out: golden-angle
    points at heights 1 - (k + 1/2) / pairs, k < pairs, on the upper half sphere."""
    from gaugelab.errors import BadInputError
    rng = np.random.default_rng(seed)
    for _ in range(64):
        k = np.arange(pairs) + 0.5
        golden = np.pi * (3 - 5 ** 0.5)
        z = 1 - k / pairs
        rho = np.sqrt(np.maximum(0.0, 1 - z * z))
        v = np.stack([rho * np.cos(golden * k), rho * np.sin(golden * k), z], axis=1)
        v = v + rng.normal(scale=0.08, size=v.shape)
        v /= np.linalg.norm(v, axis=1)[:, None]
        h = 1 + (rng.uniform(0.92, 1.08, size=pairs) - 1)
        body = HPolytope(np.vstack([v, -v]), np.concatenate([h, h]))
        try:
            for i in range(body.n_facets):
                body._facet_vertices(i)
        except BadInputError:
            continue
        return body
    return None


def scan_pairs_up(mu, tol=1e-9):
    """AtomicMeasure._pairs_up as first written: atoms bucketed by rounded position, each
    free atom in index order taking the first free mirror of matching weight.  Index
    arrays (i, j), or None when some atom finds no mirror."""
    key = np.round(mu.positions / (tol * max(mu.support_radius, 1.0))).astype(np.int64)
    table = {}
    for i, k in enumerate(map(tuple, key)):
        table.setdefault(k, []).append(i)
    wtol = tol * max(mu.abs_mass, 1.0)
    free, pairs = np.ones(len(mu), dtype=bool), []
    for i in range(len(mu)):
        if free[i]:
            j = next((j for j in table.get(tuple(-key[i]), ()) if free[j]
                      and abs(mu.weights[j] - mu.weights[i]) <= wtol), None)
            if j is None:
                return None
            free[i] = free[j] = False
            pairs.append((i, j))
    return tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T)


def scan_facet_pairs(normals, offsets, tol=1e-9):
    """HPolytope's facet pairing as first written, on unit normals and their offsets: the
    per-facet check loop (BadInputError on a repeated normal or an unmatched facet), then
    one representative (normal, offset) per +/- pair by a seen-flag scan."""
    from gaugelab.errors import BadInputError
    dots = normals @ normals.T
    for i in range(normals.shape[0]):
        if len(np.where(dots[i] > 1.0 - tol)[0]) > 1:
            raise BadInputError(f"duplicate facet normal at index {i}")
        anti = np.where(dots[i] < -1.0 + tol)[0]
        if not [j for j in anti if abs(offsets[j] - offsets[i]) <= tol * max(1.0, offsets[i])]:
            raise BadInputError(
                f"facet {i} has no matching opposite facet; body must be 0-symmetric")
    reps, seen = [], np.zeros(normals.shape[0], dtype=bool)
    for i in range(normals.shape[0]):
        if not seen[i]:
            j = int(np.argmin(normals @ normals[i]))
            seen[i] = seen[j] = True
            reps.append((normals[i], offsets[i]))
    return reps


def dense_decay_scan(mu, thetas, delta, t_grid):
    """decay_scan with every t through ft_many over the admissible rows, each row kept by its
    own arccos test against thetas U -thetas: the reference for decay_scan's ring path, and
    its bits on every measure that the ring does not take."""
    from gaugelab.measures import DecayScanResult, _sphere_directions, ft_many
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    thetas = thetas / np.linalg.norm(thetas, axis=1)[:, None]
    sym = np.vstack([thetas, -thetas])
    spacing = delta / 4.0
    n = math.ceil(2 * np.pi / spacing) if mu.dim == 2 else math.ceil(16 * np.pi / spacing ** 2)
    grid, _ = _sphere_directions(mu.dim, max(8 if mu.dim == 2 else 64, int(n)))
    etas = grid[np.min(np.arccos(np.clip(grid @ sym.T, -1.0, 1.0)), axis=1) >= delta]
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    table = np.array([ft_many(mu, t * etas) for t in t_grid])
    return DecayScanResult(t_grid, np.max(np.abs(table), axis=1),
                           mu.lipschitz_bound * np.abs(t_grid) * spacing, etas, table)


def geodesic_pair_masses(body, mu):
    """polytope_bound_audit's facet-pair masses as first written, one pair at a time: with
    normals, the weight of the atoms whose geodesic_distance to theta or -theta is below
    1e-6; without, of the atoms with |<x, theta>| = h within AUDIT_BOUNDARY_TOL max(1, h)."""
    from gaugelab.bodies import geodesic_distance
    from gaugelab.goodness import AUDIT_BOUNDARY_TOL
    pairs = body.facet_pairs()
    masses = np.empty(len(pairs))
    for k, (theta, h) in enumerate(pairs):
        if mu.normals is not None:
            d = geodesic_distance(mu.normals, theta[None, :])
            sel = np.minimum(d, np.pi - d) < 1e-6
        else:
            sel = np.abs(np.abs(mu.positions @ theta) - h) <= AUDIT_BOUNDARY_TOL * max(1.0, h)
        masses[k] = float(np.sum(mu.weights[sel]))
    return masses
