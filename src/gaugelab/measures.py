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
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadInputError, read_json, write_json

ATOM_NORMAL_TOL = 1e-9   # node normal within this of +/- eta counts as flat
CLUSTER_TOL = 1e-9       # projected positions merged within this
SYMMETRY_TOL = 1e-9      # mirror atoms match in position and weight within this
PROBABILITY_TOL = 1e-9   # a probability measure's total mass is 1 within this
DEFAULT_BINS = 512

_FT_CHUNK = 1 << 18      # cap on atoms*points per vectorized block
# _ring_pays takes a ring for M rows around A atoms when (2N + 1)(A + 200) <= 50 M A: the
# measured crossover with the dense kernel, A = 8 ... 4096 atoms, M = 1024 and 16384
_RING_ORDER_ATOMS, _RING_ROW_COST = 200, 50
_MOMENT_BLOCK = 8192     # orders per block of AtomicMeasure._angular_moments
# atoms per table product in _progression_sum: OpenBLAS splits some longer inner sums (129,
# 156, 193, 257) one way on one thread and another on two, moving bits with the thread count
_PRODUCT_ATOMS = 128
# R and M_sp of _gridded_sum: a grid R times the samples, a stencil of 2 M_sp points
_GRID_OVERSAMPLE, _GRID_SPREAD = 4, 14


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

    # abs_mass and support_radius are cached: the atoms are read-only
    @cached_property
    def abs_mass(self):
        return float(np.sum(np.abs(self.weights)))

    @cached_property
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

    def _circle_radius(self):
        """r0 when the atoms are 2-d and every radius is within 4 ulp of the largest, r0; None
        otherwise.  The one circle test of the ring path and the positivity machine's radial
        path.  Cached: the atoms are read-only."""
        if "_circle" not in self.__dict__:
            self._circle = None
            if self.dim == 2 and len(self):
                r = np.hypot(self.positions[:, 0], self.positions[:, 1])
                r0 = r.max()
                if not np.any(r < r0 - 4 * np.spacing(r0)):
                    self._circle = r0
        return self._circle

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
    atoms: the allocator reuses them, where larger tables took ~1250 page faults per call.
    AtomicMeasure._angular_moments sums its w(n) blocks here, whose bits depend on n alone."""
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


def _smooth_size(m: int) -> int:
    """The least 2^a 3^b 5^c >= m, a length numpy's FFT takes at full speed: on the audit's
    rays ~5% faster than the least 2^a, 3 2^a or 5 2^a (17496 points against 20480)."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-m // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _gridded_sum(s, weights, t0: float, dt: float, n: int) -> np.ndarray:
    """sum_j w_j exp(-2 pi i t_k s_j) on t_k = t0 + k dt, k < n, by Gaussian gridding, the
    type-1 NUFFT of Dutt & Rokhlin (SIAM J. Sci. Comput. 14, 1993) in the form of Greengard
    & Lee (SIAM Review 46, 2004).  With c = n // 2 and k' = k - c the sum is sum_j v_j
    e^{-i k' x_j}, v_j = w_j e^{-2 pi i t_c s_j} and x_j = 2 pi dt s_j mod 2 pi.  Both
    phases are formed in long double: t_c s_j is reduced mod 1 before its exponential, and
    x_j in grid steps, M dt s_j, is split into a grid point and a fraction before either is
    rounded to double.  Formed in double, their rounding (eps |t_c s_j| cycles, and |k'|
    times eps |dt s_j|) put ~25x more error on the ray.  Each term is spread onto a
    periodic grid of M = _smooth_size(R N) = r N points (N = 2 max(n - c, c), r >= R) as
    the Gaussian e^{-x^2 / 4 tau} on its 2 M_sp nearest points, tau = pi M_sp / (N^2 r (r -
    1/2)); one FFT and the factor sqrt(pi / tau) / M e^{k'^2 tau} give the sum.
    Truncating the stencil leaves e^{-pi M_sp (r - 1/2) / r} <= 2e-17 of each |w_j|, the
    grid aliases e^{-pi M_sp (r - 1) / (r - 1/2)} <= 4e-17, and the factor is at most
    e^{pi M_sp / (4 r (r - 1/2))} <= 2.2 (R = 4, M_sp = 14), so both stay under eps sum |w|.
    No BLAS call, so the bits do not depend on its thread count; the grid takes 16 M bytes."""
    c = n // 2
    N = 2 * max(n - c, c)
    M = _smooth_size(_GRID_OVERSAMPLE * N)
    tau = np.pi * _GRID_SPREAD / (M * (M - N / 2))   # N^2 r (r - 1/2) = M (M - N / 2)
    s = np.asarray(s, dtype=np.longdouble)
    pos = s * (np.longdouble(dt) * M)
    centre = s * (t0 + c * np.longdouble(dt))
    # numpy rounds long doubles ~10x and floors them ~50x slower than doubles
    centre -= np.rint(centre.astype(float))
    v = weights * _expi(np.multiply(-2 * np.pi, centre.astype(float)))
    near = np.floor(pos.astype(float))
    gauss = np.square(np.arange(1 - _GRID_SPREAD, _GRID_SPREAD + 1)
                      - (pos - near).astype(float)[:, None])
    gauss *= -np.pi ** 2 / (M * M * tau)   # -(grid step)^2 / (4 tau)
    np.exp(gauss, out=gauss)
    # the stencil of x_j starts at grid point near - M_sp + 1, taken mod M; the bin count runs
    # over M + 2 M_sp cells, padded to whole periods, then folds mod M
    first = (near.astype(np.intp) + (1 - _GRID_SPREAD)) % M
    cells = first[:, None] + np.arange(2 * _GRID_SPREAD)
    size = -(-(M + 2 * _GRID_SPREAD) // M) * M
    grid = np.empty(M, dtype=complex)
    for part, vp in ((grid.real, v.real), (grid.imag, v.imag)):
        bins = np.bincount(cells.ravel(), (vp[:, None] * gauss).ravel(), size)
        np.sum(bins.reshape(-1, M), axis=0, out=part)
    k = np.arange(-c, n - c)
    return np.fft.fft(grid)[k % M] * (math.sqrt(np.pi / tau) / M * np.exp(k * k * tau))


def _ray_transform(mu: AtomicMeasure, eta, t0: float, dt: float, n: int) -> np.ndarray:
    """ft(mu)(t_k eta) on the progression t_k = t0 + k dt, k < n, by _gridded_sum.  When the
    atoms pair up as x, -x (mu._pairs_up), half of them: the real part of the sum over the
    pairs, each at x_i with weight w_i + w_j (w_i alone if i == j), which is ft(mu) to within
    |w_j| 2 pi |t_k| |<x_i + x_j, eta>| per pair.  The cosine sum is even in s: pairs of one
    |s| go in as one."""
    s, w, pairs = mu.positions @ np.asarray(eta, dtype=float), mu.weights, mu._pairs_up()
    if pairs is None:
        return _gridded_sum(s, w, t0, dt, n)
    i, j = pairs
    s, merged = np.unique(np.abs(s[i]), return_inverse=True)
    w = np.bincount(merged, w[i] + np.where(i == j, 0.0, w[j]), len(s))
    return _gridded_sum(s, w, t0, dt, n).real


def _jacobi_anger_order(z):
    """N = |z| + 12 |z|^(1/3) + 30: the orders n > N of sum_n (-i)^n J_n(z) w(n) e^{i n theta}
    carry under 1e-16 |mass|."""
    return int(abs(z) + 12 * abs(z) ** (1 / 3) + 30)


def _ring_pays(mu: AtomicMeasure, rho, rows):
    """True when mu lies on one circle (mu._circle_radius) and its Jacobi-Anger ring at radius
    rho costs no more than `rows` dense rows: (2N + 1)(A + 200) <= 50 rows A."""
    r0, A = mu._circle_radius(), len(mu)
    return r0 is not None and ((2 * _jacobi_anger_order(2 * np.pi * rho * r0) + 1)
                               * (A + _RING_ORDER_ATOMS) <= _RING_ROW_COST * rows * A)


def _ring_coefficients(mu: AtomicMeasure, rho):
    """(c, N): the c_n, n = -N ... N, of the ring sum_n c_n e^{i n theta} = ft(mu)(rho (cos
    theta, sin theta)) of a measure on one circle of radius r0 (mu._circle_radius).  By
    Jacobi-Anger (Watson, Bessel Functions, 2.22) c_n = (-i)^n J_n(z) w(n), z = 2 pi rho r0,
    w(n) = sum_j w_j e^{-i n phi_j}; orders past N = _jacobi_anger_order(z) carry under 1e-16
    |mass|.  (-i)^n J_n(z) is one FFT of e^{-i z cos a} on L > 2N points, evaluated on a <=
    pi/2 (L a multiple of 16), conjugated at pi - a, mirrored at 2 pi - a; w(n) is cached
    (_angular_moments)."""
    z = 2 * np.pi * rho * mu._circle_radius()
    N = _jacobi_anger_order(z)
    L = min(m << (2 * N // m).bit_length() for m in (1, 3, 5))   # 2^a, 3 2^a or 5 2^a > 2N
    quarter = _expi(np.multiply(-z, np.cos(np.arange(L // 4 + 1) * (2 * np.pi / L))))
    half = np.concatenate([quarter, quarter[-2::-1].conj()])   # a = 0 ... pi
    bessel = np.fft.fft(np.concatenate([half, half[-2:0:-1]]), norm="forward")
    w = mu._angular_moments(N + 1)
    c = np.concatenate([bessel[-N:], bessel[:N + 1]]) * np.concatenate([w[:0:-1].conj(), w])
    return c, N


def _ring_samples(c, N, M):
    """The ring of _ring_coefficients at the M angles 2 pi k / M: the c_n folded mod M, then
    one inverse FFT, up to rounding of ~2 pi |z| eps |mass| (z of _ring_coefficients)."""
    c = np.pad(c, (-N % M, -(N + 1) % M))   # c_n lands in column n mod M
    return M * np.fft.ifft(c.reshape(-1, M).sum(axis=0))


def _circle_ring(mu: AtomicMeasure, freqs):
    """_expsum on the ring rho * _sphere_directions(2, M)[0] by _ring_samples, or None for
    other rows or where _ring_pays says the dense kernel is cheaper."""
    rows = freqs.shape[0]
    if (not rows or not _ring_pays(mu, freqs[0, 0], rows) or freqs[0, 1] != 0
            or not np.array_equal(freqs, freqs[0, 0] * _sphere_directions(2, rows)[0])):
        return None
    return _ring_samples(*_ring_coefficients(mu, freqs[0, 0]), rows)


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
    """Uniform direction grid at the given geodesic spacing (_sphere_directions) and the mask
    of its directions at distance >= delta from the symmetrized excluded set thetas U
    -thetas."""
    sym = np.vstack([thetas, -thetas])
    if dim not in (2, 3):
        raise BadInputError("direction scans support dimensions 2 and 3")
    n = math.ceil(2 * np.pi / spacing) if dim == 2 else math.ceil(16 * np.pi / spacing ** 2)
    etas, _ = _sphere_directions(dim, max(8 if dim == 2 else 64, int(n)))
    dots = np.clip(etas @ sym.T, -1.0, 1.0)
    return etas, np.min(np.arccos(dots), axis=1) >= delta


def _refuse_overflowing_radii(mu: AtomicMeasure, radii, what):
    """BadInputError unless 2 pi |rho| r stays finite for every radius rho, r the support
    radius: the largest phase of the dense kernel and z of _ring_coefficients, whose order
    int(z) would overflow."""
    if not math.isfinite(2 * math.pi * float(np.max(np.abs(radii))) * mu.support_radius):
        raise BadInputError(f"{what} too large: 2 pi |rho| r overflows at the support radius "
                            f"r = {mu.support_radius:.6g}")


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
    of _sampled_sup.  On a measure on one circle, a t where _ring_pays for the
    admissible rows reads them off the ring over the whole 2-d grid.
    """
    thetas, _ = _unit_rows(thetas, "decay directions")
    if thetas.shape[1] != mu.dim:
        raise BadInputError("decay directions must have the measure's dimension")
    if not 0 < delta < math.inf:
        raise BadInputError(f"delta must be positive and finite, not {delta}")
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    if not np.all(np.isfinite(t_grid)):
        raise BadInputError("decay radii must be finite")
    _refuse_overflowing_radii(mu, t_grid, "decay radii")
    spacing = delta / 4.0
    grid, keep = _admissible_directions(thetas, delta, spacing, mu.dim)
    etas = grid[keep]
    if etas.shape[0] == 0:
        raise BadInputError("no admissible directions: delta too large for the sphere grid")
    env = np.empty(t_grid.shape[0])
    certs = np.empty(t_grid.shape[0])
    table = np.empty((t_grid.shape[0], etas.shape[0]), dtype=complex) if return_table else None
    for i, t in enumerate(t_grid):
        if _ring_pays(mu, t, etas.shape[0]):
            vals = _ring_samples(*_ring_coefficients(mu, t), grid.shape[0])[keep]
        else:
            vals = ft_many(mu, t * etas)
        env[i], certs[i] = _sampled_sup(mu, t, vals, spacing)
        if return_table:
            table[i] = vals
    return DecayScanResult(t_grid, env, certs, etas, table)
