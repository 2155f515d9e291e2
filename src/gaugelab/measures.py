"""Discretized measures and their Fourier transforms.

The transform convention is ft(mu)(xi) = sum_j w_j exp(-2 pi i <x_j, xi>),
the discrete form of the integral against exp(-2 pi i <x, xi>).  Measures
are finite atomic clouds; a boundary mesh is such a measure whose atoms also
carry the outward normal of the node they sit at, which is what lets
the projection operation tell genuine point masses (flat boundary pieces
orthogonal to the projection direction) from curved mass that projects to
an absolutely continuous part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadInputError, read_json, write_json

ATOM_NORMAL_TOL = 1e-9   # node normal within this of +/- eta counts as flat
CLUSTER_TOL = 1e-9       # projected positions merged within this
SYMMETRY_TOL = 1e-9      # mirror atoms match in position and weight within this
PROBABILITY_TOL = 1e-9   # a probability measure's total mass is 1 within this
DEFAULT_BINS = 512

_FT_CHUNK = 1 << 18      # cap on atoms*points per vectorized block
# _circle_ring takes a ring of M rows around A atoms when (2N + 1)(A + 200) <= 50 M A: the
# measured crossover with the dense kernel, A = 8 ... 4096 atoms, M = 1024 and 16384
_RING_ORDER_ATOMS, _RING_ROW_COST = 200, 50
_MOMENT_BLOCK = 8192     # orders per block of AtomicMeasure._angular_moments
# atoms per table product in _progression_sum: OpenBLAS splits some longer inner sums (129,
# 156, 193, 257) one way on one thread and another on two, moving bits with the thread count
_PRODUCT_ATOMS = 128


def _unit_rows(arr, what):
    """The rows of arr over their norms, and the norms; each must be finite and positive."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    norms = np.linalg.norm(arr, axis=1)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise BadInputError(f"{what}: zero or non-finite vector")
    return arr / norms[:, None], norms


def _direction(eta, dim, what):
    """eta as one float vector of length dim; zero and non-finite vectors are refused."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (dim,):
        raise BadInputError(f"{what} must be one vector of the measure's dimension {dim}")
    _unit_rows(eta, what)
    return eta


class AtomicMeasure:
    """Finite weighted point cloud, optionally carrying per-atom unit normals."""

    def __init__(self, positions, weights, normals=None):
        if np.iscomplexobj(np.asarray(weights)):
            raise BadInputError("measure weights must be real")
        positions = np.atleast_2d(np.array(positions, dtype=float))
        weights = np.array(weights, dtype=float).ravel()
        if positions.shape[0] != weights.shape[0]:
            raise BadInputError("positions and weights must have equal length")
        if not np.all(np.isfinite(positions)) or not np.all(np.isfinite(weights)):
            raise BadInputError("measure data must be finite")
        self.positions = positions
        self.weights = weights
        self.normals = None
        if normals is not None:
            normals = np.atleast_2d(np.array(normals, dtype=float))
            if normals.shape != positions.shape:
                raise BadInputError("normals must match positions in shape")
            if not np.all(np.isfinite(normals)):
                raise BadInputError("measure normals must be finite")
            self.normals = normals
            self.normals.setflags(write=False)
        self.positions.setflags(write=False)
        self.weights.setflags(write=False)

    # -- basic quantities ----------------------------------------------------

    @property
    def dim(self):
        return self.positions.shape[1]

    def __len__(self):
        return self.positions.shape[0]

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    @property
    def abs_mass(self):
        return float(np.sum(np.abs(self.weights)))

    @property
    def support_radius(self):
        if len(self) == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.positions, axis=1)))

    @property
    def lipschitz_bound(self):
        """Certified |grad ft| <= 2 pi * |mass| * support radius."""
        return 2 * math.pi * self.abs_mass * self.support_radius

    def is_probability(self):
        return abs(self.total_mass - 1.0) <= PROBABILITY_TOL and bool(np.all(self.weights >= 0))

    def is_symmetric(self):
        """True when atoms pair up as (x, w) <-> (-x, w) within SYMMETRY_TOL."""
        return self._pairs_up() is not None

    def _pairs_up(self):
        """Index arrays (i, j), i <= j, matching each atom x_i, w_i with a mirror x_j ~ -x_i
        of weight w_j ~ w_i within SYMMETRY_TOL (i == j at the origin), or None when the
        atoms do not pair up.  Sorted by rounded position, then weight, and by negated
        rounded position, then weight, atom k of one order pairs with atom k of the other:
        coincident atoms pair by weight.  Cached: the atoms are read-only."""
        if "_pairs" not in self.__dict__:
            key = np.round(self.positions / (SYMMETRY_TOL * max(self.support_radius, 1.0)))
            a, b = (np.lexsort((self.weights, *k.T[::-1])) for k in (key, -key))
            wtol = SYMMETRY_TOL * max(self.abs_mass, 1.0)
            self._pairs = None
            if (np.array_equal(key[a], -key[b])
                    and np.all(np.abs(self.weights[a] - self.weights[b]) <= wtol)):
                mirror = b[np.argsort(a)]    # atom a[k] pairs with atom b[k]
                i = np.flatnonzero(np.arange(len(self)) <= mirror)
                self._pairs = (i, mirror[i])
        return self._pairs

    def _angular_moments(self, n):
        """w(k) = sum_j w_j e^{-i k phi_j}, k < n, phi_j the angles of the 2-d atoms.  Cached
        and extended in blocks of _MOMENT_BLOCK orders: block b is the progression sum over
        m < _MOMENT_BLOCK of the weights w_j e^{-i k0 phi_j}, k0 = b _MOMENT_BLOCK, one row
        of one _progression_sum for all new blocks, so the bits of w(k) depend on k alone."""
        have = self.__dict__.get("_moments", np.empty(0, dtype=complex))
        if len(have) < n:
            s = np.arctan2(self.positions[:, 1], self.positions[:, 0]) / (2 * np.pi)
            cycles = np.outer(np.arange(len(have), n, _MOMENT_BLOCK, dtype=float), s)
            cycles -= np.rint(cycles)
            rows = self.weights * _expi(np.multiply(-2 * np.pi, cycles))
            blocks = _progression_sum(s, rows, 0.0, 1.0, _MOMENT_BLOCK)
            self._moments = have = np.concatenate([have, blocks.ravel()])
        return have[:n]

    # -- derived measures ------------------------------------------------------

    def normalized(self):
        """Same atoms rescaled to total mass 1."""
        m = self.total_mass
        if m <= 0:
            raise BadInputError("cannot normalize a measure of nonpositive mass")
        return AtomicMeasure(self.positions, self.weights / m, self.normals)

    def restrict(self, mask):
        """The atoms that mask selects, with their weights and normals."""
        mask = np.asarray(mask, dtype=bool)
        nrm = self.normals[mask] if self.normals is not None else None
        return AtomicMeasure(self.positions[mask], self.weights[mask], nrm)

    def to_dict(self):
        out = {"type": "measure", "dim": self.dim,
               "positions": self.positions.tolist(),
               "weights": self.weights.tolist()}
        if self.normals is not None:
            out["normals"] = self.normals.tolist()
        return out


def from_mesh(mesh, normalize=False) -> AtomicMeasure:
    """Surface measure of a boundary mesh, the mesh itself or a copy rescaled to mass 1."""
    return mesh.normalized() if normalize else mesh


def segment_measure(center, direction, length, nodes, normal) -> AtomicMeasure:
    """Uniform measure of mass `length` on a straight segment, discretized at midpoint nodes.

    `normal` tags the atoms with the hyperplane normal of the flat piece so
    projections recognize them as a point mass.
    """
    center = np.asarray(center, dtype=float)
    direction = np.asarray(direction, dtype=float)
    _unit_rows(direction, "segment direction")
    direction = direction / np.linalg.norm(direction)
    if nodes < 1 or length <= 0:
        raise BadInputError("segment needs nodes >= 1 and positive length")
    ts = (np.arange(nodes) + 0.5) / nodes - 0.5
    pos = center[None, :] + (ts * length)[:, None] * direction[None, :]
    w = np.full(nodes, float(length) / nodes)
    normal = np.asarray(normal, dtype=float)
    _unit_rows(normal, "segment normal")
    normal = normal / np.linalg.norm(normal)
    return AtomicMeasure(pos, w, np.repeat(normal[None, :], nodes, axis=0))


def load_measure(path) -> AtomicMeasure:
    spec = read_json(path, "measure file")
    if spec.get("type") != "measure":
        raise BadInputError("not a measure file")
    return AtomicMeasure(spec["positions"], spec["weights"], spec.get("normals"))


def save_measure(mu: AtomicMeasure, path) -> None:
    write_json(path, mu.to_dict())


# -- Fourier transforms -------------------------------------------------------


def _expsum(positions, weights, freqs) -> np.ndarray:
    """sum_j w_j exp(-2 pi i <x_j, xi_k>) per row xi_k.  The row of -xi is exactly the
    conjugate of the row of xi (see _dense_rows), so an even set of rows whose second half
    negates its first, such as a full ring of directions, is evaluated on its first half
    only."""
    half = freqs.shape[0] // 2
    if freqs.shape[0] % 2 == 0 and np.array_equal(freqs[half:], -freqs[:half]):
        out = _dense_rows(positions, weights, freqs[:half])
        return np.concatenate([out, out.conj()])
    return _dense_rows(positions, weights, freqs)


def _dense_rows(positions, weights, freqs) -> np.ndarray:
    """_expsum at every row: cos and sin of the real phase times the weights, summed per
    row, in row blocks of at most _FT_CHUNK atom-frequency pairs through two scratch arrays.
    Phases are summed elementwise and rows by numpy, not by BLAS, whose rounding depends on
    the block's shape, so a row's value does not depend on the block size."""
    out = np.empty(freqs.shape[0], dtype=complex)
    scaled = (2 * np.pi) * positions
    step = max(1, _FT_CHUNK // max(1, len(weights)))
    work = [np.empty((min(step, len(freqs)), len(weights))) for _ in range(2)]
    for s in range(0, len(freqs), step):
        f = freqs[s:s + step]
        phase, part = (w[:len(f)] for w in work)
        np.multiply.outer(f[:, 0], scaled[:, 0], out=phase)
        for k in range(1, f.shape[1]):
            phase += np.multiply.outer(f[:, k], scaled[:, k], out=part)
        np.cos(phase, out=part)
        part *= weights
        out.real[s:s + len(f)] = part.sum(axis=1)
        np.sin(phase, out=part)
        part *= weights
        out.imag[s:s + len(f)] = -part.sum(axis=1)
    return out


def _block_times(t0: float, dt: float, n: int):
    """Times of the block factors of t_k = t0 + k dt, k < n: with B = ceil(sqrt(n)) and
    k = a B + b, exp(-2 pi i t_k s) is the product of the coarse factor at t0 + a B dt and
    the fine one at b dt, ~2 sqrt(n) exponentials per s instead of n."""
    B = math.isqrt(n - 1) + 1
    return t0 + np.arange(-(-n // B)) * (B * dt), np.arange(B) * dt


def _expi(phase) -> np.ndarray:
    """e^{i phase} of a real phase: its cos and sin written into the parts of a complex
    array, the bits of np.exp of the imaginary phase at ~30% less time."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _phase_table(t0: float, dt: float, n: int, s, out=None) -> np.ndarray:
    """exp(-2 pi i (t0 + k dt) s_p) at [k, p], k < n: the coarse factors of _block_times
    times the fine ones, ~2 sqrt(n) exponentials and n multiplies per s_p instead of n
    exponentials.  Each phase t s is reduced mod 1 in the precision of s, so a long-double s
    gives phases exact to ~1e-16.  out, when given, takes the product in its first
    ceil(n / B) B rows."""
    cycles = [np.outer(ts, s) for ts in _block_times(t0, dt, n)]
    for p in cycles:
        p -= np.rint(p)
    coarse, fine = (_expi(np.multiply(-2 * np.pi, p.astype(float, copy=False))) for p in cycles)
    rows = coarse.shape[0] * fine.shape[0]
    out = np.empty((rows, len(s)), dtype=complex) if out is None else out
    np.multiply(coarse[:, None], fine[None], out=out[:rows].reshape(len(coarse), *fine.shape))
    return out[:n]


def _progression_sum(s, weights, t0: float, dt: float, n: int) -> np.ndarray:
    """sum_j w_j exp(-2 pi i t_k s_j), k < n, for weights w or each row w of 2-d weights: per
    block of atoms, the weighted phase table at the coarse times of _block_times times the
    one at the fine times, both by _phase_table, shared by the rows; each row takes the steps
    it takes alone.  Blocks of _PRODUCT_ATOMS atoms, fewer where the tables would pass
    ~_FT_CHUNK / 8 entries (512 KiB), which ran ~30% faster than blocks of _FT_CHUNK at 4096
    atoms: the allocator reuses them, where larger tables took ~1250 page faults per call."""
    nc, B = (len(ts) for ts in _block_times(t0, dt, n))
    rows = np.atleast_2d(weights)
    out = np.zeros((len(rows), nc, B), dtype=complex)
    step = max(1, min(_PRODUCT_ATOMS, _FT_CHUNK // (8 * B)))
    for j in range(0, len(s), step):
        coarse = _phase_table(t0, B * dt, nc, s[j:j + step])
        fine = _phase_table(0.0, dt, B, s[j:j + step]).T
        for sums, w in zip(out, rows[:, j:j + step]):
            sums += (coarse * w) @ fine
    out = out.reshape(len(rows), -1)[:, :n]
    return out if np.ndim(weights) == 2 else out[0]


def _ray_transform(mu: AtomicMeasure, eta, t0: float, dt: float, n: int) -> np.ndarray:
    """ft(mu)(t_k eta) on the progression t_k = t0 + k dt, k < n.  When the atoms pair up as
    x, -x (mu._pairs_up), half of them: the real part of the sum over the pairs, each at x_i
    with weight w_i + w_j (w_i alone if i == j), which is ft(mu) to within |w_j| 2 pi |t_k|
    |<x_i + x_j, eta>| per pair.  The cosine sum is even in s: pairs of one |s| go in as one."""
    s, w, pairs = mu.positions @ np.asarray(eta, dtype=float), mu.weights, mu._pairs_up()
    if pairs is None:
        return _progression_sum(s, w, t0, dt, n)
    i, j = pairs
    s, merged = np.unique(np.abs(s[i]), return_inverse=True)
    w = np.bincount(merged, w[i] + np.where(i == j, 0.0, w[j]), len(s))
    return _progression_sum(s, w, t0, dt, n).real


def _circle_ring(mu: AtomicMeasure, freqs):
    """_expsum on the ring rho * _sphere_directions(2, M)[0] of a 2-d measure whose radii are
    within 4 ulp of r0, or None for other input or where the dense kernel is cheaper.  By
    Jacobi-Anger (Watson, Bessel Functions, 2.22) the ring is sum_n c_n e^{i n theta}, c_n =
    (-i)^n J_n(z) w(n), z = 2 pi rho r0, w(n) = sum_j w_j e^{-i n phi_j}; orders past N = |z|
    + 12 |z|^(1/3) + 30 carry under 1e-16 |mass|.  (-i)^n J_n(z) is one FFT of e^{-i z cos a}
    on L > 2N points, w(n) cached (_angular_moments), and the c_n folded mod M give the M
    samples by one inverse FFT, up to rounding of ~2 pi |z| eps |mass|.  e^{-i z cos a} is
    evaluated on a <= pi/2 (L a multiple of 16), conjugated at pi - a, mirrored at 2 pi - a."""
    positions, rows, A = mu.positions, freqs.shape[0], len(mu)
    if positions.shape[1] != 2 or not (rows and A) or freqs[0, 1] != 0:
        return None
    r = np.hypot(positions[:, 0], positions[:, 1])
    rho, r0 = freqs[0, 0], r.max()
    z = 2 * np.pi * rho * r0
    N = int(abs(z) + 12 * abs(z) ** (1 / 3) + 30)
    if ((2 * N + 1) * (A + _RING_ORDER_ATOMS) > _RING_ROW_COST * rows * A
            or np.any(r < r0 - 4 * np.spacing(r0))
            or not np.array_equal(freqs, rho * _sphere_directions(2, rows)[0])):
        return None
    L = min(m << (2 * N // m).bit_length() for m in (1, 3, 5))   # 2^a, 3 2^a or 5 2^a > 2N
    quarter = _expi(np.multiply(-z, np.cos(np.arange(L // 4 + 1) * (2 * np.pi / L))))
    half = np.concatenate([quarter, quarter[-2::-1].conj()])   # a = 0 ... pi
    bessel = np.fft.fft(np.concatenate([half, half[-2:0:-1]]), norm="forward")
    w = mu._angular_moments(N + 1)
    c = np.concatenate([bessel[-N:], bessel[:N + 1]]) * np.concatenate([w[:0:-1].conj(), w])
    c = np.pad(c, (-N % rows, -(N + 1) % rows))   # c_n lands in column n mod rows
    return rows * np.fft.ifft(c.reshape(-1, rows).sum(axis=0))


def ft_measure(mu: AtomicMeasure, xi) -> complex:
    """Transform value sum_j w_j exp(-2 pi i <x_j, xi>) at a single frequency."""
    return complex(ft_many(mu, np.reshape(xi, (1, -1)))[0])


def ft_many(mu: AtomicMeasure, Xi) -> np.ndarray:
    """Vectorized transform over rows of Xi, chunked to bound memory."""
    Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
    if Xi.ndim != 2 or Xi.shape[1] != mu.dim:
        raise BadInputError(f"frequency rows must have the measure's dimension {mu.dim}")
    ring = _circle_ring(mu, Xi)
    return _expsum(mu.positions, mu.weights, Xi) if ring is None else ring


def ft_profile(mu: AtomicMeasure, eta, t_grid) -> np.ndarray:
    """Transform along the ray t -> ft(mu)(t * eta) at arbitrary t."""
    proj = mu.positions @ _direction(eta, mu.dim, "ray direction")
    t_grid = np.asarray(t_grid, dtype=float).reshape(-1, 1)
    return _expsum(proj[:, None], mu.weights, t_grid)


# -- projection to a line -------------------------------------------------------


@dataclass(frozen=True)
class LineMeasure:
    """Projection of a measure onto a line: point masses plus a binned density."""

    atom_positions: np.ndarray
    atom_masses: np.ndarray
    bin_edges: np.ndarray
    bin_masses: np.ndarray

    def __post_init__(self):
        ap = np.asarray(self.atom_positions, dtype=float).ravel()
        am = np.asarray(self.atom_masses, dtype=float).ravel()
        be = np.asarray(self.bin_edges, dtype=float).ravel()
        bm = np.asarray(self.bin_masses, dtype=float).ravel()
        if ap.shape != am.shape:
            raise BadInputError("atom arrays must match")
        if be.size and be.size != bm.size + 1:
            raise BadInputError("need one more bin edge than bin mass")
        if be.size and np.any(np.diff(be) <= 0):
            raise BadInputError("bin edges must be strictly increasing")
        for a in (ap, am, be, bm):
            a.setflags(write=False)
        object.__setattr__(self, "atom_positions", ap)
        object.__setattr__(self, "atom_masses", am)
        object.__setattr__(self, "bin_edges", be)
        object.__setattr__(self, "bin_masses", bm)

    def ft(self, t):
        """Transform of the line measure; bins contribute at their midpoints."""
        t = np.asarray(t, dtype=float)
        mids = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        pos = np.concatenate([self.atom_positions, mids])
        w = np.concatenate([self.atom_masses, self.bin_masses])
        return _expsum(pos[:, None], w, t.reshape(-1, 1)).reshape(t.shape)


def project_measure(mu: AtomicMeasure, eta, bins: int = DEFAULT_BINS) -> LineMeasure:
    """Pushforward of mu onto the line spanned by eta.

    Atoms of the projection come from nodes whose recorded normal is within
    ATOM_NORMAL_TOL of +/- eta (flat pieces orthogonal to eta project to points);
    for measures without normals every node is a genuine point mass.  The
    remaining mass is binned.  Total mass is preserved exactly.
    """
    if bins < 1:
        raise BadInputError("projection needs bins >= 1")
    eta = np.asarray(eta, dtype=float)
    nrm = np.linalg.norm(eta)
    if not abs(nrm - 1.0) <= 1e-9:   # also refuses NaN and infinite directions
        raise BadInputError("projection direction must be a unit vector")
    eta = _direction(eta / nrm, mu.dim, "projection direction")
    proj = mu.positions @ eta
    if mu.normals is None:
        flat = np.ones(len(mu), dtype=bool)
    else:
        d_plus = np.linalg.norm(mu.normals - eta[None, :], axis=1)
        d_minus = np.linalg.norm(mu.normals + eta[None, :], axis=1)
        flat = np.minimum(d_plus, d_minus) <= ATOM_NORMAL_TOL

    atom_pos, atom_mass = _cluster(proj[flat], mu.weights[flat], CLUSTER_TOL)

    rest = proj[~flat]
    rest_w = mu.weights[~flat]
    if rest.size:
        lo, hi = float(np.min(rest)), float(np.max(rest))
        if hi - lo < 1e-15:
            hi = lo + 1e-15
        edges = np.linspace(lo, hi, int(bins) + 1)
        masses, _ = np.histogram(rest, bins=edges, weights=rest_w)
    else:
        edges = np.empty(0)
        masses = np.empty(0)
    return LineMeasure(atom_pos, atom_mass, edges, masses)


def _cluster(values, weights, tol):
    if values.size == 0:
        return np.empty(0), np.empty(0)
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    breaks = np.where(np.diff(v) > tol)[0] + 1
    groups = np.split(np.arange(v.size), breaks)
    pos = np.empty(len(groups))
    mass = np.empty(len(groups))
    for g, idx in enumerate(groups):
        wm = w[idx]
        mass[g] = np.sum(wm)
        if idx.size == 1:
            pos[g] = v[idx[0]]
        else:
            tot = mass[g]
            pos[g] = np.sum(v[idx] * wm) / tot if tot != 0 else float(np.mean(v[idx]))
    return pos, mass


# -- time averages along a line -------------------------------------------------


def wiener_atom_mass(mu: AtomicMeasure, eta, T: float, samples: int | None = None) -> float:
    """Time average (1/2T) int_{-T}^{T} |ft(mu)(t eta)|^2 dt by trapezoid rule.

    As T grows this converges to the sum of squared point masses of the
    projection of mu onto eta, since the transform of the projection at t
    equals the transform of mu at t*eta.  The default sample count resolves
    the fastest oscillation exp(2 pi i t r) at 40 samples per unit of T*r.
    The samples are an arithmetic progression, evaluated by _ray_transform at
    t >= 0 only and mirrored: the weights are real, so |ft(mu)(-t eta)| =
    |ft(mu)(t eta)|.
    """
    if not 0 < T < math.inf:
        raise BadInputError(f"T must be positive and finite, not {T}")
    eta = _direction(eta, mu.dim, "ray direction")
    if samples is None:
        samples = int(math.ceil(40 * T * max(mu.support_radius, 0.025))) + 1
    if not (samples >= 1 and float(samples).is_integer()):
        raise BadInputError(f"samples must be a positive integer, not {samples}")
    n = int(samples)
    half, dt = n // 2, 2 * T / max(n - 1, 1)
    vals = np.abs(_ray_transform(mu, eta, -T + half * dt, dt, n - half)) ** 2
    vals = np.concatenate([vals[::-1][:half], vals])
    return float(np.trapezoid(vals, np.linspace(-T, T, n)) / (2 * T))


# -- directional decay scans ------------------------------------------------------


@dataclass(frozen=True)
class DecayScanResult:
    """Per-t envelope sup_eta |ft(sigma)(t eta)| over the admissible directions;
    table, when requested, holds the complex values ft(sigma)(t_i eta_k)."""

    t_grid: np.ndarray
    envelope: np.ndarray
    cert_errors: np.ndarray
    etas: np.ndarray
    table: np.ndarray | None = None


def _sphere_directions(dim, n):
    """Direction grid on the unit sphere with its spacing: +/-1 in dim 1, n equally spaced
    angles on the circle (dim 2), or the n-point Fibonacci spiral on S^2 with a
    covering-radius heuristic.  On the circle with n even the second half of the grid is
    the exact negation of the first.  The grid is read-only and cached (_direction_grid):
    goodness shells and the ring path's grid check share it."""
    if dim == 1:
        return np.array([[1.0], [-1.0]]), 0.0
    if n < 1:
        raise BadInputError("direction grids need an angular resolution >= 1")
    if not float(n).is_integer():
        raise BadInputError(f"direction grids need an integral angular resolution, not {n}")
    etas, spacing = _direction_grid(dim, int(n))
    etas.setflags(write=False)
    return etas, spacing


@lru_cache(maxsize=4)
def _direction_grid(dim, n):
    if dim == 2:
        ang = np.arange(n) * 2 * np.pi / n
        etas = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        if n % 2 == 0:
            etas[n // 2:] = -etas[:n // 2]
        return etas, 2 * np.pi / n
    if dim != 3:
        raise BadInputError("direction grids support dimensions 1..3")
    k = np.arange(n) + 0.5
    golden = np.pi * (3 - 5 ** 0.5)
    z = 1 - 2 * k / n
    rho = np.sqrt(np.maximum(0.0, 1 - z * z))
    etas = np.stack([rho * np.cos(golden * k), rho * np.sin(golden * k), z], axis=1)
    return etas, 3.5 / math.sqrt(n)


def _admissible_directions(thetas, delta, spacing, dim):
    """Uniform direction grid at the given geodesic spacing, at distance >= delta
    from the symmetrized excluded set thetas U -thetas."""
    sym = np.vstack([thetas, -thetas])
    if dim not in (2, 3):
        raise BadInputError("direction scans support dimensions 2 and 3")
    n = math.ceil(2 * np.pi / spacing) if dim == 2 else math.ceil(16 * np.pi / spacing ** 2)
    etas, _ = _sphere_directions(dim, max(8 if dim == 2 else 64, int(n)))
    dots = np.clip(etas @ sym.T, -1.0, 1.0)
    dist = np.min(np.arccos(dots), axis=1)
    return etas[dist >= delta]


def _sampled_sup(mu: AtomicMeasure, rho, vals, spacing):
    """max |vals|, the transform sampled on a direction grid of the given spacing at radius
    rho, with its certified error: the gradient bound times the grid spacing at rho."""
    return float(np.max(np.abs(vals))), mu.lipschitz_bound * abs(rho) * spacing


def decay_scan(mu: AtomicMeasure, thetas, delta: float, t_grid,
               return_table: bool = False) -> DecayScanResult:
    """Envelope of |ft(mu)| along rays staying delta away from thetas U -thetas.

    mu is meant to be a surface measure restricted to a boundary piece whose
    normals lie in the theta set; the envelope then decays toward zero.  The
    directions are spaced delta / 4 apart; the certified error per t is that
    of _sampled_sup.
    """
    thetas, _ = _unit_rows(thetas, "decay directions")
    if thetas.shape[1] != mu.dim:
        raise BadInputError("decay directions must have the measure's dimension")
    if delta <= 0:
        raise BadInputError("delta must be positive")
    spacing = delta / 4.0
    etas = _admissible_directions(thetas, delta, spacing, mu.dim)
    if etas.shape[0] == 0:
        raise BadInputError("no admissible directions: delta too large for the sphere grid")
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    env = np.empty(t_grid.shape[0])
    certs = np.empty(t_grid.shape[0])
    table = np.empty((t_grid.shape[0], etas.shape[0]), dtype=complex) if return_table else None
    for i, t in enumerate(t_grid):
        vals = ft_many(mu, t * etas)
        env[i], certs[i] = _sampled_sup(mu, t, vals, spacing)
        if return_table:
            table[i] = vals
    return DecayScanResult(t_grid, env, certs, etas, table)
