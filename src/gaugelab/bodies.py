"""0-symmetric convex bodies: gauge and support functionals, boundary quadrature.

A body is one of three variants: an H-polytope (unit facet normals with
offsets, stored in +/- pairs), an ellipsoid (semi-axes), or a radial body
(p-exponent superellipsoid, or a tabulated radial function in the plane).
Every variant can evaluate its gauge (Minkowski functional), its support
function (the gauge of the dual body), and produce a boundary quadrature
mesh that carries outward unit normals, i.e. the Gauss map.

All objects are immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, islice

import numpy as np

from .errors import BadInputError, BudgetExceededError, read_json, write_json
from .measures import AtomicMeasure, _Frozen, _sphere_directions, _unit_rows

PAIR_TOL = 1e-9        # +/- facet pairing match tolerance
CLAMP_TOL = 1e-12      # inner products may overshoot [-1, 1] by at most this
VERTEX_TOL = 1e-9      # vertex-on-facet incidence tolerance
BALL_TOL = 1e-9        # an ellipsoid whose axes agree to this relative spread is a ball
VERTEX_WORK = 1 << 28  # cap on the C(n, d) * n facet checks of vertex enumeration
_VERTEX_BLOCK = 1 << 16  # cap on the facet checks of one block of vertex enumeration
_PAIR_BLOCK = 1 << 16  # cap on the normal dots of one block of facet pairing


def geodesic_distance(u, v):
    """Geodesic (angular) distance on the unit sphere, arccos of the clamped dot.

    Accepts single vectors or stacked rows; broadcasting follows numpy rules.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    dot = np.sum(u * v, axis=-1)
    if not np.all(np.abs(dot) <= 1.0 + CLAMP_TOL):
        raise BadInputError("geodesic_distance expects unit vectors")
    return np.arccos(np.clip(dot, -1.0, 1.0))


class ConvexBody(_Frozen):
    """Base class for 0-symmetric convex bodies.

    Subclasses provide gauge_many / dual_gauge_many, the inner/outer radius
    certificates, and _mesh, the 2d and 3d boundary mesh.  Membership x in t*K is
    gauge_many(X) <= t.  A body is read-only; its constructor sets `scale`, the factor
    load_body shrank it by (1 otherwise).
    """

    dim: int
    scale: float

    # -- functionals ---------------------------------------------------------

    def gauge(self, x) -> float:
        return float(self.gauge_many(np.asarray(x, dtype=float)[None, :])[0])

    def gauge_many(self, X) -> np.ndarray:
        raise NotImplementedError

    def dual_gauge_many(self, Xi) -> np.ndarray:
        raise NotImplementedError

    def polar_nodes(self, resolution: int):
        """Unit directions u (midpoint angles, or icosphere patch centers in 3d), radii
        1/gauge(u) and angle steps or patch areas; cached per resolution (_polar_cache)."""
        cache = self._polar_cache
        if resolution not in cache:
            if self.dim == 2:
                phi = (np.arange(resolution) + 0.5) * 2 * np.pi / resolution
                u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
                wts = np.full(resolution, 2 * np.pi / resolution)
            elif self.dim == 3:
                u, wts = _icosphere_patches(resolution)
            else:
                raise BadInputError("polar quadrature supports dimensions 2 and 3")
            nodes = (u, 1.0 / self.gauge_many(u), wts)
            for a in nodes:
                a.setflags(write=False)
            cache[resolution] = nodes
        return cache[resolution]

    @cached_property
    def _polar_cache(self):
        """One slot, {resolution: nodes}, that polar_nodes fills."""
        return {}

    # -- certificates --------------------------------------------------------

    def inner_radius(self) -> float:
        """Certified r0 with the ball of radius r0 inside the body."""
        raise NotImplementedError

    def outer_radius(self) -> float:
        """Certified r1 with the body inside the ball of radius r1."""
        raise NotImplementedError

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        raise NotImplementedError

    def rescaled(self, factor: float) -> "ConvexBody":
        """factor*K, with `scale` = factor."""
        raise NotImplementedError


class HPolytope(ConvexBody):
    """Intersection of halfspaces <x, theta_i> <= h_i with unit normals in +/- pairs."""

    def __init__(self, normals, offsets, *, scale=1.0):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        offsets = np.asarray(offsets, dtype=float).ravel()
        if normals.shape[0] != offsets.shape[0]:
            raise BadInputError("normals and offsets must have equal length")
        if normals.shape[0] < 2:
            raise BadInputError("a polytope needs at least one facet pair")
        if not np.all(np.isfinite(offsets) & (offsets > 0)):   # JSON admits NaN and Infinity
            raise BadInputError("facet offsets must be positive (0 interior) and finite")
        normals, norms = _unit_rows(normals, "facet normals")
        offsets = offsets / norms
        antipode = self._antipodes(normals, offsets)
        normals.setflags(write=False)
        offsets.setflags(write=False)
        vars(self).update(_antipode=antipode, dim=normals.shape[1], normals=normals,
                          offsets=offsets, scale=scale)

    @staticmethod
    def _antipodes(normals, offsets):
        """Index of the most nearly opposite normal of each facet; bad input, naming the
        first facet at fault, when a normal repeats or a facet has no opposite normal
        with an equal offset.  Facets are checked in row blocks of at most _PAIR_BLOCK
        normal dots, so n facets never take n x n matrices."""
        n, rows = len(normals), max(1, _PAIR_BLOCK // len(normals))
        antipode = np.empty(n, dtype=np.intp)
        for b in range(0, n, rows):
            dots, own = normals[b:b + rows] @ normals.T, offsets[b:b + rows, None]
            repeated = np.count_nonzero(dots > 1.0 - PAIR_TOL, axis=1) > 1
            opposite = (dots < -1.0 + PAIR_TOL) & (np.abs(offsets[None, :] - own)
                                                   <= PAIR_TOL * np.maximum(1.0, own))
            bad = repeated | ~np.any(opposite, axis=1)
            if np.any(bad):
                i = int(np.argmax(bad))
                if repeated[i]:
                    raise BadInputError(f"duplicate facet normal at index {b + i}")
                raise BadInputError(
                    f"facet {b + i} has no matching opposite facet; body must be 0-symmetric")
            antipode[b:b + rows] = np.argmin(dots, axis=1)
        return antipode

    @property
    def n_facets(self):
        return self.normals.shape[0]

    def facet_pairs(self):
        """One representative normal per +/- pair, the one of lower index, with its offset."""
        reps = np.flatnonzero(np.arange(self.n_facets) < self._antipode)
        return [(self.normals[i], self.offsets[i]) for i in reps]

    @staticmethod
    def _by_facet(X, rows, scale=1.0):
        """<x, row_k> / scale_k, one row per facet (or vertex) and one column per point.

        The product is the point-major X @ rows.T, bit for bit; the division writes it
        facet-major, so reductions over the few facets run as passes over point rows."""
        vals = np.atleast_2d(np.asarray(X, dtype=float)) @ rows.T
        out = np.empty(vals.shape[::-1])
        return np.divide(vals.T, np.reshape(scale, (-1, 1)), out=out)

    def gauge_many(self, X):
        return np.maximum(np.max(self._by_facet(X, self.normals, self.offsets), axis=0), 0.0)

    def dual_gauge_many(self, Xi):
        return np.max(self._by_facet(Xi, self.vertices), axis=0)

    # vertices and the structures below are cached: the facets are read-only
    @cached_property
    def vertices(self):
        verts = self._enumerate_vertices()
        verts.setflags(write=False)
        return verts

    def _enumerate_vertices(self):
        """Every vertex once, in lexicographic order.

        Each d-subset of the n facet equations with |det| > 1e-12 is solved, in blocks of
        at most _VERTEX_BLOCK facet checks.  A solution inside every half-space up to
        1e-12 max(1, |x|_inf) is a vertex (VERTEX_TOL would keep a corner clipped by
        1e-9), kept unless within VERTEX_TOL of a vertex already kept.  Over budget,
        before any block, when the C(n, d) * n facet checks pass VERTEX_WORK: up to 813
        planar or 201 spatial facets run, in ~0.8 s or ~1.5 s at the cap on 2 vCPUs."""
        n, d = self.normals.shape
        if d == 1:
            h = float(np.min(self.offsets))
            return np.array([[-h], [h]])
        if math.comb(n, d) * n > VERTEX_WORK:
            raise BudgetExceededError(f"vertex enumeration over C({n}, {d}) facet subsets "
                                      f"exceeds {VERTEX_WORK} facet checks")
        subsets, rows = combinations(range(n), d), max(1, _VERTEX_BLOCK // n)
        found = [np.empty((0, d))]
        while len(idx := np.fromiter(chain.from_iterable(islice(subsets, rows)),
                                     dtype=np.intp).reshape(-1, d)):
            a, b = self.normals[idx], self.offsets[idx]
            solvable = np.abs(np.linalg.det(a)) > 1e-12
            x = np.linalg.solve(a[solvable], b[solvable][:, :, None])[:, :, 0]
            excess = np.max(x @ self.normals.T - self.offsets, axis=1)
            found.append(x[excess <= 1e-12 * np.maximum(1.0, np.max(np.abs(x), axis=1))])
        found = np.concatenate(found)
        verts = np.empty((0, d))
        for v in found[np.lexsort(found.T[::-1])]:
            if np.all(np.max(np.abs(verts - v), axis=1) > VERTEX_TOL):
                verts = np.vstack([verts, v])
        if not len(verts):
            raise BadInputError(f"facet normals do not span R^{d}: the polytope is unbounded")
        return verts

    def inner_radius(self):
        return float(np.min(self.offsets))

    def outer_radius(self):
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def _facet_vertices(self, i, redundant_ok=False):
        verts = self.vertices
        on = np.abs(verts @ self.normals[i] - self.offsets[i]) <= VERTEX_TOL * max(1.0, self.offsets[i])
        fv = verts[on]
        if fv.shape[0] < self.dim and not redundant_ok:
            raise BadInputError(
                f"facet {i} is redundant (carries no boundary); cannot mesh it")
        return fv

    def _mesh(self, resolution):
        if resolution < self.n_facets:
            raise BadInputError(
                f"resolution {resolution} too small to cover all {self.n_facets} facets")
        if self.dim == 2:
            return self._mesh_polygon(resolution)
        return self._mesh_polytope_3d(resolution)

    @cached_property
    def _polygon_edges(self):
        """Each facet's extreme vertices along it, in lexicographic order, (n_facets, 2, 2).
        A redundant facet, on one vertex or none, gets an edge of length 0."""
        edges = np.zeros((self.n_facets, 2, 2))
        for i, (nx, ny) in enumerate(self.normals):
            fv = self._facet_vertices(i, redundant_ok=True)
            t = fv @ [-ny, nx]
            edges[i] = fv[np.sort([np.argmin(t), np.argmax(t)])] if len(fv) else 0.0
        edges.setflags(write=False)
        return edges

    @cached_property
    def _edge_terms(self):
        """A polygon's edge terms of its indicator transform: (n_facets, 3, 2) rows nu_e,
        b_e - a_e and m_e for each edge a_e b_e, nu_e the outer normal times the edge length
        and m_e the midpoint, and the area sum <m_e, nu_e> / 2."""
        a, b = np.moveaxis(self._polygon_edges, 1, 0)
        m, d = (a + b) / 2, b - a
        vecs = np.stack([self.normals * np.sqrt(np.vecdot(d, d))[:, None], d, m], axis=1)
        vecs.setflags(write=False)
        return vecs, np.sum(np.vecdot(m, vecs[:, 0])) / 2

    @cached_property
    def _box_widths(self):
        """Half-widths when every facet normal is +/- a coordinate axis, else None."""
        d = self.dim
        if self.n_facets != 2 * d:
            return None
        widths = np.full(d, -1.0)
        for theta, h in zip(self.normals, self.offsets):
            ax = int(np.argmax(np.abs(theta)))
            if abs(abs(theta[ax]) - 1.0) > 1e-12:
                return None
            if widths[ax] >= 0 and abs(widths[ax] - h) > 1e-12:
                return None
            widths[ax] = h
        if not np.all(widths > 0):
            return None
        widths.setflags(write=False)
        return widths

    def _mesh_polygon(self, resolution):
        ends = self._polygon_edges
        a, d = ends[:, 0], ends[:, 1] - ends[:, 0]
        lengths = np.sqrt(np.vecdot(d, d))
        if not np.all(lengths > 0):  # a redundant facet: distinct vertices are > VERTEX_TOL apart
            self._facet_vertices(int(np.argmin(lengths > 0)))  # raises bad input
        per = np.maximum(1, np.round(resolution * lengths / lengths.sum()).astype(int))
        edge = np.repeat(np.arange(self.n_facets), per)
        k = np.arange(edge.size) - np.repeat(np.cumsum(per) - per, per)
        m = per[edge]
        pos = a[edge] + ((k + 0.5) / m)[:, None] * d[edge]
        return AtomicMeasure(pos, lengths[edge] / m, self.normals[edge])

    def _mesh_polytope_3d(self, resolution):
        base, facet = [], []
        for i in range(self.n_facets):
            fv = self._facet_vertices(i)
            c = fv.mean(axis=0)
            # order around the centroid inside the facet plane
            b1 = fv[0] - c
            b1 /= np.linalg.norm(b1)
            b2 = np.cross(self.normals[i], b1)
            ang = np.arctan2((fv - c) @ b2, (fv - c) @ b1)
            fv = fv[np.argsort(ang)]
            base.append(np.stack([np.broadcast_to(c, fv.shape), fv, np.roll(fv, -1, axis=0)], axis=1))
            facet += [i] * len(fv)
        tris = _refine(np.concatenate(base), resolution)
        p, q, r = tris[:, 0], tris[:, 1], tris[:, 2]
        area = np.cross(q - p, r - p)
        wts = 0.5 * np.sqrt(np.vecdot(area, area))
        nrm = np.repeat(self.normals[facet], len(tris) // len(facet), axis=0)
        return AtomicMeasure((p + q + r) / 3, wts, nrm)

    def to_dict(self):
        return {"dim": self.dim, "type": "hpolytope",
                "normals": self.normals.tolist(), "offsets": self.offsets.tolist()}

    def rescaled(self, factor):
        return HPolytope(self.normals, self.offsets * factor, scale=factor)


class Ellipsoid(ConvexBody):
    """Axis-aligned ellipsoid sum (x_k / a_k)^2 <= 1."""

    def __init__(self, axes, *, scale=1.0):
        axes = np.array(axes, dtype=float).ravel()
        if not np.all(np.isfinite(axes) & (axes > 0)):
            raise BadInputError("ellipsoid semi-axes must be positive and finite")
        axes.setflags(write=False)
        vars(self).update(dim=axes.shape[0], axes=axes, scale=scale)

    def gauge_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.sqrt(np.sum((X / self.axes[None, :]) ** 2, axis=1))

    def dual_gauge_many(self, Xi):
        Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
        return np.sqrt(np.sum((Xi * self.axes[None, :]) ** 2, axis=1))

    def inner_radius(self):
        return float(np.min(self.axes))

    def outer_radius(self):
        return float(np.max(self.axes))

    def is_ball(self):
        return float(np.ptp(self.axes)) <= BALL_TOL * float(np.max(self.axes))

    def _normal_at(self, X):
        n = X / self.axes[None, :] ** 2
        return n / np.linalg.norm(n, axis=1)[:, None]

    def _mesh(self, resolution):
        return (_mesh_smooth_2d if self.dim == 2 else _mesh_smooth_3d)(self, resolution)

    def to_dict(self):
        return {"dim": self.dim, "type": "ellipsoid", "axes": self.axes.tolist()}

    def rescaled(self, factor):
        return Ellipsoid(self.axes * factor, scale=factor)


class RadialBody(ConvexBody):
    """Star body given by a p-exponent superellipsoid or a tabulated radial function.

    The superellipsoid form sum |x_k / a_k|^p <= 1 needs p >= 1 for convexity
    and works in any dimension (meshing in 1..3).  The tabulated form stores
    radial samples on a uniform angle grid and is restricted to the plane;
    samples must satisfy r(u) = r(-u).
    """

    def __init__(self, p=None, axes=None, radial_samples=None, *, scale=1.0):
        if radial_samples is not None:
            samples = np.array(radial_samples, dtype=float).ravel()
            m = samples.shape[0]
            if m < 8 or m % 2:
                raise BadInputError("tabulated radial function needs an even count >= 8")
            if not np.all(np.isfinite(samples) & (samples > 0)):
                raise BadInputError("radial samples must be positive and finite")
            half = m // 2
            if np.max(np.abs(samples - np.roll(samples, half))) > 1e-12 * np.max(samples):
                raise BadInputError("radial samples must satisfy r(u) = r(-u)")
            samples.setflags(write=False)
            fields = dict(dim=2, kind="tabulated", samples=samples, p=None, axes=None)
        else:
            if p is None or axes is None:
                raise BadInputError("superellipsoid needs p and axes")
            p = float(p)
            if not 1.0 <= p < math.inf:
                raise BadInputError("superellipsoid p must be finite and >= 1 (convexity)")
            axes = np.array(axes, dtype=float).ravel()
            if not np.all(np.isfinite(axes) & (axes > 0)):
                raise BadInputError("semi-axes must be positive and finite")
            axes.setflags(write=False)
            fields = dict(dim=axes.shape[0], kind="superellipsoid", samples=None, p=p, axes=axes)
        vars(self).update(fields, scale=scale)

    # tabulated interpolation -------------------------------------------------

    def _radial_interp(self, phi):
        m = self.samples.shape[0]
        u = np.mod(phi, 2 * np.pi) * m / (2 * np.pi)
        i0 = np.floor(u).astype(int) % m
        frac = u - np.floor(u)
        return (1 - frac) * self.samples[i0] + frac * self.samples[(i0 + 1) % m]

    def gauge_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "superellipsoid":
            return np.sum(np.abs(X / self.axes[None, :]) ** self.p, axis=1) ** (1.0 / self.p)
        r = np.linalg.norm(X, axis=1)
        out = np.zeros_like(r)
        nz = r > 0
        phi = np.arctan2(X[nz, 1], X[nz, 0])
        out[nz] = r[nz] / self._radial_interp(phi)
        return out

    def dual_gauge_many(self, Xi):
        Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
        if self.kind == "superellipsoid":
            if self.p == 1.0:
                return np.max(np.abs(Xi * self.axes[None, :]), axis=1)
            q = self.p / (self.p - 1.0) if self.p > 1.0 else np.inf
            return np.sum(np.abs(Xi * self.axes[None, :]) ** q, axis=1) ** (1.0 / q)
        # support over a refined boundary polyline
        m = self.samples.shape[0] * 8
        phi = np.arange(m) * 2 * np.pi / m
        bdry = (self._radial_interp(phi)[:, None]
                * np.stack([np.cos(phi), np.sin(phi)], axis=1))
        return np.max(Xi @ bdry.T, axis=1)

    def inner_radius(self):
        if self.kind == "superellipsoid":
            d = self.dim
            shrink = min(1.0, d ** (0.5 - 1.0 / self.p))
            return float(np.min(self.axes)) * shrink
        m = self.samples.shape[0]
        return float(np.min(self.samples)) * math.cos(math.pi / m)

    def outer_radius(self):
        if self.kind == "superellipsoid":
            d = self.dim
            grow = max(1.0, d ** (0.5 - 1.0 / self.p))
            return float(np.max(self.axes)) * grow
        return float(np.max(self.samples))

    def _normal_at(self, X):
        if self.kind == "superellipsoid":
            g = np.abs(X / self.axes[None, :]) ** (self.p - 1.0) * np.sign(X) / self.axes[None, :]
            return g / np.linalg.norm(g, axis=1)[:, None]
        # tangent from the radial derivative, rotated outward
        phi = np.arctan2(X[:, 1], X[:, 0])
        eps = 1e-6
        r = self._radial_interp(phi)
        dr = (self._radial_interp(phi + eps) - self._radial_interp(phi - eps)) / (2 * eps)
        u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        uperp = np.stack([-np.sin(phi), np.cos(phi)], axis=1)
        n = r[:, None] * u - dr[:, None] * uperp
        return n / np.linalg.norm(n, axis=1)[:, None]

    _mesh = Ellipsoid._mesh  # the smooth mesh: radii 1 / gauge, normals from _normal_at

    def to_dict(self):
        if self.kind == "superellipsoid":
            return {"dim": self.dim, "type": "radial", "p": self.p,
                    "axes": self.axes.tolist()}
        return {"dim": 2, "type": "radial", "radial_samples": self.samples.tolist()}

    def rescaled(self, factor):
        if self.kind == "superellipsoid":
            return RadialBody(p=self.p, axes=self.axes * factor, scale=factor)
        return RadialBody(radial_samples=self.samples * factor, scale=factor)


# -- smooth meshing helpers ----------------------------------------------------


def _mesh_smooth_2d(body, resolution):
    """The polar nodes at radii 1 / gauge; weights are chord lengths across each cell."""
    u, r, _ = body.polar_nodes(int(resolution))
    n = len(u)
    phi = (np.arange(n) + 0.5) * 2 * np.pi / n

    def bdry(angles):
        v = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return (1.0 / body.gauge_many(v))[:, None] * v

    pos = r[:, None] * u
    wts = np.linalg.norm(bdry(phi + np.pi / n) - bdry(phi - np.pi / n), axis=1)
    return AtomicMeasure(pos, wts, body._normal_at(pos))


def _refine(tris, resolution, sphere=False):
    """Split each triangle (p, q, r) of the (n, 3, 3) array tris into (p, pq, rp),
    (pq, q, qr), (rp, qr, r), (pq, qr, rp), in that order, while 4n <= resolution.

    pq is the edge midpoint; on the sphere it is (p + q) / |p + q|, |.| rounded as a 1-d
    norm by vecdot, and then every corner is divided by its row norm (np.linalg.norm)."""
    while 4 * len(tris) <= resolution:
        p, q, r = tris[:, 0], tris[:, 1], tris[:, 2]
        pq, qr, rp = p + q, q + r, r + p
        if sphere:
            pq, qr, rp = (m / np.sqrt(np.vecdot(m, m))[:, None] for m in (pq, qr, rp))
        else:
            pq, qr, rp = pq / 2, qr / 2, rp / 2
        tris = np.stack([p, pq, rp, pq, q, qr, rp, qr, r, pq, qr, rp], axis=1).reshape(-1, 3, 3)
        if sphere:
            tris = tris / np.linalg.norm(tris, axis=2)[..., None]
    return tris


def _spherical_triangle_areas(a, b, c):
    """Solid angles of spherical triangles with unit-vector rows a, b, c."""
    num = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    return 2.0 * np.arctan2(num, den)


# The icosahedron's faces as qhull lists them for the vertices of _icosphere_patches,
# row for row, so its subdivisions keep every bit of the hull-built meshes.
_ICOSAHEDRON_FACES = np.array([
    [4, 0, 8], [3, 7, 2], [3, 0, 2], [3, 0, 8], [5, 7, 2], [5, 9, 6], [5, 9, 7], [11, 9, 6],
    [11, 4, 6], [11, 4, 8], [1, 0, 2], [1, 4, 0], [1, 4, 6], [1, 5, 6], [1, 5, 2], [10, 3, 8],
    [10, 9, 7], [10, 3, 7], [10, 11, 9], [10, 11, 8]])


def _icosphere_patches(resolution):
    """Unit patch centers and solid angles of the finest subdivided icosahedron with at
    most `resolution` faces (the icosahedron itself when resolution < 80).

    The vertex set is antipodally symmetric at every level, so meshes and measures
    built from it inherit the 0-symmetry of the body.
    """
    t = (1 + 5 ** 0.5) / 2
    verts = np.array([v for a, b in [(1, t), (-1, t), (1, -t), (-1, -t)]
                      for v in [(0, a, b), (a, b, 0), (b, 0, a)]], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = _ICOSAHEDRON_FACES.copy()
    a, b, c = (verts[faces[:, k]] for k in range(3))
    inward = np.vecdot(np.cross(b - a, c - a), a + b + c) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]  # orient all faces outward
    tris = _refine(verts[faces], resolution, sphere=True)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    u = a + b + c
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u, _spherical_triangle_areas(a, b, c)


def _mesh_smooth_3d(body, resolution):
    """The polar nodes, icosphere directions at radii 1 / gauge, on the boundary.

    Node weights combine the exact spherical patch area with the radial
    area element r^2 / <n, u>, a midpoint rule for the surface integral;
    exact for the unit sphere.
    """
    u, r, patch = body.polar_nodes(resolution)
    pos = r[:, None] * u
    nrm = body._normal_at(pos)
    cosang = np.einsum("ij,ij->i", nrm, u)
    return AtomicMeasure(pos, r ** 2 / cosang * patch, nrm)


# -- cap families ---------------------------------------------------------------


@dataclass(frozen=True)
class CapFamily:
    """Disjoint open geodesic caps on the direction sphere.

    delta0 is the minimum pairwise geodesic distance between the cap center
    directions; disjointness requires delta0 > 2 * r_cap.
    """

    directions: np.ndarray
    r_cap: float
    delta0: float = field(init=False)

    def __post_init__(self):
        dirs, _ = _unit_rows(self.directions, "cap directions")
        if not 0 < self.r_cap < math.inf:
            raise BadInputError(f"cap radius must be positive and finite, not {self.r_cap}")
        n = dirs.shape[0]
        if n < 1:
            raise BadInputError("need at least one cap")
        i, j = np.triu_indices(n, 1)
        d0 = float(np.min(geodesic_distance(dirs[i], dirs[j]))) if n > 1 else math.inf
        if n > 1 and d0 <= 2 * self.r_cap:
            raise BadInputError(
                f"caps overlap: min center distance {d0:.6g} <= 2*r_cap {2 * self.r_cap:.6g}")
        dirs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "delta0", d0)

    def __len__(self):
        return self.directions.shape[0]

    def membership(self, normals):
        """Boolean (n_caps, n_nodes): strict geodesic containment in each open cap."""
        dots = np.clip(normals @ self.directions.T, -1.0, 1.0)
        return np.arccos(dots).T < self.r_cap


# -- module-level operations ----------------------------------------------------


def triangulate_boundary(body: ConvexBody, resolution: int) -> AtomicMeasure:
    """Boundary quadrature mesh of about `resolution` nodes, a measure whose atoms carry
    outward unit normals: in 1d the endpoints +/- inner_radius() with unit weights, in 2d
    and 3d the body's _mesh.  Bad input on negative weights or normals off unit length."""
    if resolution < 1:
        raise BadInputError("resolution must be >= 1")
    if body.dim == 1:
        r = body.inner_radius()
        return AtomicMeasure([[-r], [r]], [1.0, 1.0], [[-1.0], [1.0]])
    if body.dim not in (2, 3):
        raise BadInputError("boundary meshing supports dimensions 1..3")
    mesh = body._mesh(resolution)
    if np.any(mesh.weights < 0):
        raise BadInputError("mesh weights must be nonnegative")
    if not np.all(np.abs(np.linalg.norm(mesh.normals, axis=1) - 1.0) <= 1e-9):
        raise BadInputError("mesh normals must be unit vectors")
    return mesh


# -- convenience constructors -----------------------------------------------------


def cube_body(dim: int, half_width: float = 1.0) -> HPolytope:
    eye = np.eye(dim)
    normals = np.vstack([eye, -eye])
    return HPolytope(normals, np.full(2 * dim, float(half_width)))


def ball_body(dim: int) -> Ellipsoid:
    return Ellipsoid(np.ones(dim))


def regular_polygon_body(n_sides: int) -> HPolytope:
    """Regular polygon with vertices on the unit circle (even side count for symmetry)."""
    if n_sides % 2 or n_sides < 4:
        raise BadInputError("need an even number of sides >= 4 for 0-symmetry")
    ang = (2 * np.arange(n_sides) + 1) * np.pi / n_sides
    normals = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    h = math.cos(math.pi / n_sides)
    return HPolytope(normals, np.full(n_sides, h))


def random_symmetric_polytope(dim: int, pairs: int, seed: int) -> HPolytope:
    """Seeded random H-polytope with `pairs` facet pairs, all facets active.

    Normals are jittered around an even angular spread and offsets stay near
    1, which keeps every facet supporting; degenerate draws are retried.  A planar
    facet between neighbours at angles a and b away has ~ab/2 of offset room, so from 9
    pairs on the +/-8% offset jitter shrinks as (7 / pairs)^3, retrying ~1/4 of draws.
    """
    if dim not in (2, 3):
        raise BadInputError(f"random polytopes are drawn in dimensions 2 and 3, not {dim}")
    rng = np.random.default_rng(seed)
    jitter = (7 / pairs) ** 3 if dim == 2 and pairs > 8 else 1.0
    for _ in range(64):
        if dim == 2:
            ang = (np.arange(pairs) + rng.uniform(0.15, 0.85, size=pairs)) * np.pi / pairs
            v = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        else:  # the upper half of a spiral, +/- pairing adds the rest
            v = _sphere_directions(3, 2 * pairs)[0][:pairs]
            v = v + rng.normal(scale=0.08, size=v.shape)
            v /= np.linalg.norm(v, axis=1)[:, None]
        h = 1 + (rng.uniform(0.92, 1.08, size=pairs) - 1) * jitter  # u exactly at jitter 1
        body = HPolytope(np.vstack([v, -v]), np.concatenate([h, h]))
        try:
            for i in range(body.n_facets):
                body._facet_vertices(i)
        except BadInputError:
            continue
        return body
    raise BadInputError("failed to draw a non-degenerate random polytope")


# -- file I/O ---------------------------------------------------------------------


def body_from_dict(spec: dict) -> ConvexBody:
    try:
        kind = spec["type"]
        if kind == "hpolytope":
            return HPolytope(spec["normals"], spec["offsets"])
        if kind == "ellipsoid":
            return Ellipsoid(spec["axes"])
        if kind == "radial":
            if "radial_samples" in spec:
                return RadialBody(radial_samples=spec["radial_samples"])
            return RadialBody(p=spec["p"], axes=spec["axes"])
    except KeyError as exc:
        raise BadInputError(f"body spec missing field {exc}") from None
    raise BadInputError(f"unknown body type {spec.get('type')!r}")


def load_body(path) -> ConvexBody:
    """Load a body from its JSON spec file, shrunk into the unit ball if it pokes out by
    more than 1e-12; the applied factor is kept on `body.scale`."""
    spec = read_json(path, "body file")
    body = body_from_dict(spec)
    if "dim" in spec and int(spec["dim"]) != body.dim:
        raise BadInputError("declared dim does not match body data")
    r1 = body.outer_radius()
    return body if r1 <= 1.0 + 1e-12 else body.rescaled(1.0 / r1)


def save_body(body: ConvexBody, path) -> None:
    write_json(path, body.to_dict(), indent=2)
