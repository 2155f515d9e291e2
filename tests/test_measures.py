import inspect
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import gaugelab as gl
from gaugelab import bodies, correlation, distances, goodness, measures, spectra
from gaugelab.errors import BadInputError, BudgetExceededError
from gaugelab.measures import _ray_transform, _sphere_directions

import oracles


def random_measure(seed, n=12, dim=2):
    rng = np.random.default_rng(seed)
    return gl.AtomicMeasure(rng.uniform(-2, 2, size=(n, dim)),
                            rng.uniform(0.05, 1.0, size=n))


class TestTransform:
    def test_point_mass_at_origin(self):
        mu = gl.AtomicMeasure([[0.0, 0.0]], [1.0])
        for xi in ([0.3, 0.7], [10.0, -4.0], [0.0, 0.0]):
            assert gl.ft_measure(mu, xi) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_pair_is_cosine(self):
        a = np.array([0.4, -1.1])
        mu = gl.AtomicMeasure([a, -a], [0.5, 0.5])
        rng = np.random.default_rng(2)
        for xi in rng.normal(size=(12, 2)):
            expect = math.cos(2 * math.pi * float(a @ xi))
            got = gl.ft_measure(mu, xi)
            assert got.real == pytest.approx(expect, abs=1e-12)
            assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_circle_profile_matches_quadrature_oracle(self, unit_disk):
        mesh = gl.triangulate_boundary(unit_disk, 8192)
        mu = gl.from_mesh(mesh, normalize=True)
        for r in (0.5, 3.0, 17.5, 50.0):
            oracle = oracles.circle_transform(r)
            got = gl.ft_measure(mu, [r, 0.0])
            assert abs(got - oracle) < 1e-6

    def test_conjugate_symmetry(self):
        mu = random_measure(8)
        rng = np.random.default_rng(3)
        for xi in rng.normal(size=(8, 2)):
            assert gl.ft_measure(mu, -xi) == pytest.approx(
                np.conj(gl.ft_measure(mu, xi)), abs=1e-13)

    def test_modulus_bounded_by_mass(self):
        mu = random_measure(11)
        rng = np.random.default_rng(4)
        vals = gl.ft_many(mu, rng.normal(scale=20, size=(200, 2)))
        assert np.all(np.abs(vals) <= mu.abs_mass + 1e-12)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_lipschitz_certificate(self, seed):
        rng = np.random.default_rng(seed)
        mu = random_measure(seed)
        xi1, xi2 = rng.normal(scale=10, size=(2, 2))
        lhs = abs(gl.ft_measure(mu, xi1) - gl.ft_measure(mu, xi2))
        assert lhs <= mu.lipschitz_bound * np.linalg.norm(xi1 - xi2) * (1 + 1e-9) + 1e-12

    def test_many_rejects_rows_of_another_dimension(self):
        mu = random_measure(6)
        for Xi in (np.ones((4, 3)), np.ones(3), np.ones((4, 1)), np.ones((2, 2, 2))):
            with pytest.raises(BadInputError, match="measure's dimension"):
                gl.ft_many(mu, Xi)

    @pytest.mark.parametrize("xi", [[1.0, 0.0, 0.0], [1.0]])
    def test_single_frequency_of_another_dimension_is_refused(self, xi):
        with pytest.raises(BadInputError, match="measure's dimension"):
            gl.ft_measure(random_measure(6), xi)

    def test_scan_records_certificate(self):
        mu = random_measure(5)
        vals = gl.ft_many(mu, np.eye(2))
        assert mu.lipschitz_bound == pytest.approx(2 * math.pi * mu.abs_mass * mu.support_radius)
        assert np.all(np.abs(vals) <= mu.abs_mass + 1e-12)


EPS = np.finfo(float).eps
SAMPLE_COUNTS = (1, 2, 997, 1024)   # one, two, a prime and a square


def signed_cloud(seed, dim, atoms, radius):
    rng = np.random.default_rng(seed)
    eta = rng.normal(size=dim)
    return (gl.AtomicMeasure(rng.uniform(-radius, radius, size=(atoms, dim)),
                             rng.uniform(-1.0, 1.0, size=atoms)),
            eta / np.linalg.norm(eta), rng)


def ray_reference(mu, eta, t0, dt, n, rows=512):
    """ft(mu)(t_k eta), t_k = t0 + k dt in long double, k < n, by oracles.longdouble_expsum
    in blocks of rows."""
    ts = np.longdouble(t0) + np.arange(n, dtype=np.longdouble) * np.longdouble(dt)
    freqs = ts[:, None] * np.asarray(eta, dtype=np.longdouble)[None, :]
    return np.concatenate([oracles.longdouble_expsum(mu.positions, mu.weights, freqs[k:k + rows])
                           for k in range(0, n, rows)])


def kernel_bound(mu, T):
    """Rounding budget of an exponential sum over |xi| <= T: phases carry 2 pi T r_max."""
    return 16 * EPS * (1 + 2 * math.pi * T * mu.support_radius) * mu.abs_mass


def oracle_moduli(mu, eta, T, samples):
    ts = np.linspace(-T, T, samples)
    return ts, np.abs(oracles.dense_expsum((mu.positions @ eta)[:, None], mu.weights,
                                           ts[:, None]))


def oracle_wiener(mu, eta, T, samples):
    ts, moduli = oracle_moduli(mu, eta, T, samples)
    return float(np.trapezoid(moduli ** 2, ts) / (2 * T))


def wiener_bound(mu, eta, T, samples):
    """Rounding budget of a Wiener average against oracle_wiener.  At each sample the two
    moduli differ by at most kb = kernel_bound(mu, T) (the library's value at -t is its
    value at t, and |F(-t)| = |F(t)|), so their squares differ by at most (2 |F| + kb) kb,
    |F| the oracle's modulus.  The trapezoid weights over 2T are convex, so the averages
    differ by at most that at the largest |F|, plus the rounding of the two averages: ~6 eps
    per term and numpy's pairwise sum (8 running sums over blocks of up to 128 terms, then
    halving), within (log2 n + 32) eps of the largest |F|^2."""
    kb, peak = kernel_bound(mu, T), float(np.max(oracle_moduli(mu, eta, T, samples)[1]))
    return (2 * peak + kb) * kb + 2 * (math.log2(samples) + 32) * EPS * peak ** 2


cloud_args = dict(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3),
                  atoms=st.integers(1, 300), radius=st.floats(0.01, 3.0),
                  T=st.floats(0.0, 500.0), n=st.sampled_from(SAMPLE_COUNTS))


class TestKernelsAgainstOracle:
    @given(**cloud_args)
    @settings(max_examples=80, deadline=None)
    def test_ray_transform_matches_dense_sum(self, seed, dim, atoms, radius, T, n):
        mu, eta, rng = signed_cloud(seed, dim, atoms, radius)
        t0 = float(rng.uniform(-T, T))
        dt = (T - t0) / max(n - 1, 1)
        ts = t0 + np.arange(n) * dt
        fast = _ray_transform(mu, eta, t0, dt, n)
        assert fast.shape == (n,)
        ref = oracles.dense_expsum(mu.positions, mu.weights, ts[:, None] * eta[None, :])
        assert np.max(np.abs(fast - ref)) <= kernel_bound(mu, T)

    @given(**cloud_args)
    @settings(max_examples=80, deadline=None)
    def test_dense_kernel_matches_dense_sum(self, seed, dim, atoms, radius, T, n):
        mu, eta, rng = signed_cloud(seed, dim, atoms, radius)
        Xi = rng.normal(size=(n, dim))
        Xi *= (rng.uniform(0.0, T, size=n) / np.linalg.norm(Xi, axis=1))[:, None]
        bound = kernel_bound(mu, T)
        ref = oracles.dense_expsum(mu.positions, mu.weights, Xi)
        assert np.max(np.abs(gl.ft_many(mu, Xi) - ref)) <= bound
        assert abs(gl.ft_measure(mu, Xi[-1]) - ref[-1]) <= bound
        ts = rng.uniform(-T, T, size=n)
        ref = oracles.dense_expsum(mu.positions, mu.weights, ts[:, None] * eta[None, :])
        assert np.max(np.abs(gl.ft_profile(mu, eta, ts) - ref)) <= bound

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3),
           atoms=st.integers(1, 300), T=st.floats(0.1, 500.0),
           samples=st.sampled_from(SAMPLE_COUNTS[1:] + (None,)))
    @example(seed=67108865, dim=2, atoms=266, T=353.25, samples=2)  # off by 1.08e-12 relative
    @settings(max_examples=30, deadline=None)
    def test_wiener_matches_oracle_trapezoid(self, seed, dim, atoms, T, samples):
        mu, eta, _ = signed_cloud(seed, dim, atoms, 1.0)
        got = gl.wiener_atom_mass(mu, eta, T, samples)
        if samples is None:
            samples = int(math.ceil(40 * T * max(mu.support_radius, 0.025))) + 1
        assert abs(got - oracle_wiener(mu, eta, T, samples)) <= wiener_bound(mu, eta, T, samples)

    def test_wiener_square_matches_oracle_trapezoid(self, square_measure):
        eta = np.array([1.0, 0.0])
        samples = int(math.ceil(40 * 200.0 * square_measure.support_radius)) + 1
        assert gl.wiener_atom_mass(square_measure, eta, 200.0) == pytest.approx(
            oracle_wiener(square_measure, eta, 200.0, samples), rel=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3), atoms=st.integers(1, 300),
           radius=st.floats(0.01, 3.0), T=st.floats(0.0, 500.0),
           n=st.sampled_from(SAMPLE_COUNTS + (8001,)), paired=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_gridded_ray_matches_long_double(self, seed, dim, atoms, radius, T, n, paired):
        # the Gaussian-gridded ray, on the merged pairs of a symmetric cloud or over every
        # atom of a plain one, against phases reduced in long double
        mu, eta, rng = signed_cloud(seed, dim, atoms, radius)
        if paired:
            mu = oracles.symmetrized(mu)
        t0 = float(rng.uniform(-T, T))
        dt = (T - t0) / max(n - 1, 1)
        got = _ray_transform(mu, eta, t0, dt, n)
        assert got.shape == (n,) and (mu._pairs_up() is not None) == paired
        ref = ray_reference(mu, eta, t0, dt, n)
        assert np.max(np.abs(got - ref)) <= kernel_bound(mu, T)

    def test_gridded_ray_at_the_benchmark_scale(self):
        # the audit's ray on a 4096-node random hexagon at T = 200: 4001 samples over 1504
        # merged terms, off by 6.0e-15 against long double (the block-product kernel before
        # it: 1.5e-14), within kernel_bound (4.9e-12)
        body = gl.random_symmetric_polytope(2, 6, seed=1)
        mu = gl.from_mesh(gl.triangulate_boundary(body, 4096), normalize=True)
        eta, T, n = body.facet_pairs()[0][0], 200.0, 8001
        half, dt = n // 2, 2 * T / (n - 1)
        got = _ray_transform(mu, eta, -T + half * dt, dt, n - half)
        ref = ray_reference(mu, eta, -T + half * dt, dt, n - half)
        assert np.max(np.abs(got - ref)) <= kernel_bound(mu, T)

    @pytest.mark.parametrize("t0, dt, n", [(0.0, 1.0, 8001), (0.0, 1.0, 35609),
                                           (-200.0, 0.05, 8001), (3.0, -0.7, 40000)])
    def test_progression_sum_matches_long_double(self, t0, dt, n):
        # up to the ~35600 Bessel orders of the rho = 5600 ring, whose s = phi / 2 pi
        rng = np.random.default_rng(n)
        s, w = rng.uniform(-0.5, 0.5, size=240), rng.uniform(-1.0, 1.0, size=240)
        got = measures._progression_sum(s, w, t0, dt, n)
        ts = np.longdouble(t0) + np.arange(n, dtype=np.longdouble) * np.longdouble(dt)
        ref = np.concatenate([oracles.longdouble_expsum(s[:, None], w, ts[k:k + 4096, None])
                              for k in range(0, n, 4096)])
        T = max(abs(t0), abs(t0 + (n - 1) * dt))
        assert np.max(np.abs(got - ref)) <= kernel_bound(gl.AtomicMeasure(s[:, None], w), T)

    @given(t0=st.floats(-500.0, 500.0), dt=st.floats(-3.0, 3.0),
           n=st.sampled_from(SAMPLE_COUNTS + (8001,)), atoms=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1), wide=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_phase_table_keeps_the_exp_bits(self, t0, dt, n, atoms, seed, wide):
        # cos and sin of the real phase against np.exp of the imaginary one, double and
        # long-double s
        s = np.random.default_rng(seed).uniform(-2.0, 2.0, size=atoms)
        if wide:
            s = s.astype(np.longdouble) / 3
        got = measures._phase_table(t0, dt, n, s)
        np.testing.assert_array_equal(got, oracles.exp_phase_table(t0, dt, n, s))
        assert got.shape == (n, atoms)

    def test_progression_sums_keep_their_bits_on_one_blas_thread(self):
        # OpenBLAS splits some inner sums longer than 128 terms one way on one thread and
        # another on two, and the manifests' second pass runs BLAS on one thread: the table
        # products of _progression_sum stay at _PRODUCT_ATOMS atoms, and the Wiener ray's
        # gridded sum calls no BLAS (a paired and an unpaired cloud at T = 200)
        code = ("import hashlib, numpy as np\n"
                "from gaugelab import measures\n"
                "rng = np.random.default_rng(7)\n"
                "for atoms in (156, 193, 260, 1304):\n"
                "    s, w = rng.uniform(-0.5, 0.5, atoms), rng.uniform(-1.0, 1.0, atoms)\n"
                "    for t0, dt, n in ((0.0, 1.0, 8192), (16384.0, 1.0, 8192), (-3.0, 0.01, 999)):\n"
                "        got = measures._progression_sum(s, np.stack([w, w * 1j]), t0, dt, n)\n"
                "        print(hashlib.sha256(got.tobytes()).hexdigest())\n"
                "x, w = rng.uniform(-1.0, 1.0, (1304, 2)), rng.uniform(-1.0, 1.0, 1304)\n"
                "for mu in (measures.AtomicMeasure(np.vstack([x, -x]), np.concatenate([w, w])),\n"
                "           measures.AtomicMeasure(x, w)):\n"
                "    print(measures.wiener_atom_mass(mu, np.array([0.6, 0.8]), 200.0).hex())")
        src = str(Path(gl.__file__).parents[1])
        runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               timeout=120, env=dict(os.environ, PYTHONPATH=src,
                                                     OPENBLAS_NUM_THREADS=threads,
                                                     OMP_NUM_THREADS=threads))
                for threads in ("1", "2")]
        assert all(proc.returncode == 0 for proc in runs), [proc.stderr for proc in runs]
        assert runs[0].stdout == runs[1].stdout and len(runs[0].stdout.split()) == 14

    @given(calls=st.lists(st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
                                    st.integers(1, 1500), st.floats(0.0, 500.0),
                                    st.sampled_from(SAMPLE_COUNTS + (4001,)), st.booleans()),
                          min_size=2, max_size=4),
           keep=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_gridded_ray_keeps_the_bincount_bits(self, calls, keep):
        # the ray on the thread's scratch slots, call after call with other term and sample
        # counts (a call may reuse a larger buffer), or on fresh arrays (_SCRATCH_KEEP = 0),
        # against the two-bincount gridding on fresh arrays, bit for bit; the Wiener average
        # through each ray, likewise
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_SCRATCH_KEEP", measures._SCRATCH_KEEP * keep)
            for seed, dim, atoms, T, n, paired in calls:
                mu, eta, rng = signed_cloud(seed, dim, atoms, 1.0)
                if paired:
                    mu = oracles.symmetrized(mu)
                s, w = mu.positions @ eta, mu.weights
                t0 = float(rng.uniform(-T, T))
                dt = (T - t0) / max(n - 1, 1)
                got = measures._gridded_sum(s, w, t0, dt, n)
                assert got.tobytes() == oracles.bincount_gridded_sum(s, w, t0, dt, n).tobytes()
                got = gl.wiener_atom_mass(mu, eta, max(T, 0.1), n)
                with pytest.MonkeyPatch.context() as oracle:
                    oracle.setattr(measures, "_gridded_sum", oracles.bincount_gridded_sum)
                    assert got == gl.wiener_atom_mass(mu, eta, max(T, 0.1), n)

    def test_warm_wiener_ray_allocates_little(self):
        # a warm audit ray (4096-node random hexagon, T = 200, 4001 samples over 1504 merged
        # terms) keeps its stencil, bins, grid and spectrum on scratch slots: tracemalloc
        # peaks at 432 KB, where the fresh arrays of the two-bincount gridding took 2038 KB
        body = gl.random_symmetric_polytope(2, 6, seed=1)
        mu = gl.from_mesh(gl.triangulate_boundary(body, 4096), normalize=True)
        eta = body.facet_pairs()[0][0]
        gl.wiener_atom_mass(mu, eta, 200.0)
        tracemalloc.start()
        try:
            gl.wiener_atom_mass(mu, eta, 200.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600_000

    def test_single_sample_ray_is_its_start(self):
        mu = random_measure(3)
        eta = np.array([0.6, 0.8])
        got = _ray_transform(mu, eta, 2.5, 0.1, 1)
        assert got.shape == (1,)
        assert abs(got[0] - gl.ft_measure(mu, 2.5 * eta)) <= kernel_bound(mu, 2.5)


@contextmanager
def kernel_terms(name):
    """The term count of every call of the progression kernel measures.<name>: _gridded_sum
    for the Wiener ray, _progression_sum for the angular moments."""
    seen, kernel = [], getattr(measures, name)

    def spy(s, weights, *args):
        seen.append(len(s))
        return kernel(s, weights, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, name, spy)
        yield seen


class TestFoldedWiener:
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3), atoms=st.integers(1, 300),
           T=st.floats(0.1, 500.0), origin=st.booleans(),
           samples=st.sampled_from(SAMPLE_COUNTS + (1001, 1000)))
    # |F|^2 = 0.24 over 521 weights of mass 120: against a long-double sum the library is
    # off by 1.1e-12 relative and the oracle by 3.7e-12, inside wiener_bound (1.3e-9)
    @example(seed=70470, dim=1, atoms=260, T=499.0, origin=True, samples=2)
    @settings(max_examples=40, deadline=None)
    def test_symmetric_clouds_fold_their_pairs(self, seed, dim, atoms, T, origin, samples):
        mu, eta, rng = signed_cloud(seed, dim, atoms, 1.0)
        even = oracles.symmetrized(mu)
        if origin:   # an atom that is its own mirror
            even = gl.AtomicMeasure(np.vstack([even.positions, np.zeros(dim)]),
                                    np.append(even.weights, rng.uniform(-1.0, 1.0)))
        with kernel_terms("_gridded_sum") as seen:
            folded = gl.wiener_atom_mass(even, eta, T, samples)
            plain = gl.wiener_atom_mass(mu, eta, T, samples)
        assert mu._pairs_up() is None
        assert seen == [atoms + origin, atoms]   # one term per pair, every atom of mu
        for m, got in ((even, folded), (mu, plain)):
            assert abs(got - oracle_wiener(m, eta, T, samples)) <= wiener_bound(m, eta, T, samples)


class TestMergedProjections:
    @pytest.mark.parametrize("body, terms", [(gl.cube_body(2, 0.5), 513),
                                             (gl.regular_polygon_body(6), 1087)])
    def test_polytope_meshes_sum_each_distinct_projection_once(self, body, terms):
        # whole facets project to +/-h along a facet normal: 2048 and 2049 pairs
        mu = gl.from_mesh(gl.triangulate_boundary(body, 4096), normalize=True)
        eta, T, n = body.facet_pairs()[0][0], 200.0, 401
        with kernel_terms("_gridded_sum") as seen:
            got = _ray_transform(mu, eta, 0.0, T / (n - 1), n)
        assert seen == [terms]
        ts = np.linspace(0.0, T, n)
        ref = oracles.dense_expsum(mu.positions, mu.weights, ts[:, None] * eta[None, :])
        assert np.max(np.abs(got - ref)) <= kernel_bound(mu, T)

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3), atoms=st.integers(1, 150),
           T=st.floats(0.1, 500.0), samples=st.sampled_from(SAMPLE_COUNTS + (1001,)))
    @settings(max_examples=40, deadline=None)
    def test_planted_coincident_projections_merge(self, seed, dim, atoms, T, samples):
        # each atom mirrored across eta^perp, eta a coordinate axis: <x', eta> = -<x, eta>
        # exactly, so the two pairs x, -x and x', -x' share |s| and go in as one term
        mu, _, rng = signed_cloud(seed, dim, atoms, 1.0)
        axis = int(rng.integers(dim))
        eta = np.eye(dim)[axis]
        flip = np.array(mu.positions)
        flip[:, axis] *= -1
        both = gl.AtomicMeasure(np.vstack([mu.positions, flip]),
                                np.concatenate([mu.weights, mu.weights[::-1]]))
        even = oracles.symmetrized(both)
        with kernel_terms("_gridded_sum") as seen:
            got = gl.wiener_atom_mass(even, eta, T, samples)
        assert len(even._pairs_up()[0]) == 2 * atoms
        assert seen == [len(np.unique(np.abs(mu.positions[:, axis])))]
        assert abs(got - oracle_wiener(even, eta, T, samples)) <= wiener_bound(even, eta, T,
                                                                              samples)


class TestBlockPool:
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3), atoms=st.integers(1, 300),
           T=st.floats(0.0, 500.0), chunk=st.sampled_from([1 << 10, 1 << 14, measures._FT_CHUNK]),
           blocks=st.sampled_from([1, 2, 7]), rem=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_block_size_changes_no_bit(self, seed, dim, atoms, T, chunk, blocks, rem):
        mu, eta, rng = signed_cloud(seed, dim, atoms, 2.0)
        # row count with the given number of blocks, last one partial
        step = max(1, chunk // atoms)
        rows = (blocks - 1) * step + 1 + int(rem * (step - 1))
        Xi = rng.normal(size=(rows, dim))
        Xi *= (rng.uniform(0.0, T, size=rows) / np.linalg.norm(Xi, axis=1))[:, None]
        ts = rng.uniform(-T, T, size=rows)
        got = {}
        for c in (chunk, rows * atoms):   # the given blocks, then every row in one block
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measures, "_FT_CHUNK", c)
                got[c] = gl.ft_many(mu, Xi), gl.ft_profile(mu, eta, ts)
        for blocked, whole in zip(got[chunk], got[rows * atoms]):
            np.testing.assert_array_equal(blocked, whole)
        bound = kernel_bound(mu, T)
        for val, freqs in zip(got[chunk], (Xi, ts[:, None] * eta[None, :])):
            ref = oracles.dense_expsum(mu.positions, mu.weights, freqs)
            assert np.max(np.abs(val - ref)) <= bound

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3), atoms=st.integers(1, 300),
           T=st.floats(0.0, 500.0), rows=st.integers(1, 600))
    @settings(max_examples=40, deadline=None)
    def test_negated_second_half_is_conjugated_exactly(self, seed, dim, atoms, T, rows):
        mu, _, rng = signed_cloud(seed, dim, atoms, 2.0)
        Xi = rng.normal(size=(rows, dim))
        Xi *= (rng.uniform(0.0, T, size=rows) / np.linalg.norm(Xi, axis=1))[:, None]
        got = gl.ft_many(mu, np.vstack([Xi, -Xi]))
        np.testing.assert_array_equal(got[:rows], gl.ft_many(mu, Xi))
        np.testing.assert_array_equal(got[rows:], gl.ft_many(mu, -Xi))

    def test_public_functions_stay_on_the_calling_thread(self, five_cap_measure, unit_disk,
                                                         unit_square, square_measure):
        # Span tracers wrap the public functions and keep one span stack per process.
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapped

        mesh = gl.triangulate_boundary(unit_disk, 8192)
        ang = np.arctan2(mesh.normals[:, 1], mesh.normals[:, 0])
        piece = gl.from_mesh(mesh.restrict((ang > 0) & (ang < math.pi / 2)))
        polytope = gl.random_symmetric_polytope(3, 8, seed=1)
        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            for mod in (gl, bodies, measures, goodness, correlation, distances, spectra):
                for name, obj in list(vars(mod).items()):
                    if name.startswith("_"):
                        continue
                    if inspect.isfunction(obj) and obj.__module__.startswith("gaugelab"):
                        mp.setattr(mod, name, spy(name, obj))
                    elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                        for meth, fn in list(vars(obj).items()):
                            if not meth.startswith("_") and inspect.isfunction(fn):
                                mp.setattr(obj, meth, spy(meth, fn))
            gl.goodness_profile(five_cap_measure, 200.0, [200.0, 250.0], 16384)
            gl.decay_scan(piece, [[1.0, 0.0]], 0.3, [10.0, 40.0])
            gl.polytope_bound_audit(unit_square, square_measure, 50.0)
            gl.chi_hat_many(polytope, np.ones((400, 3)))
        names = {name for name, _ in calls}
        assert {"goodness_profile", "decay_scan", "ft_many", "polytope_bound_audit",
                "wiener_atom_mass", "chi_hat_many"} <= names
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert threading.active_count() == threads


def circle_cloud(seed, atoms, radius):
    """Signed atoms at uniform random angles on the circle of the given radius."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-np.pi, np.pi, size=atoms)
    return gl.AtomicMeasure(radius * np.stack([np.cos(phi), np.sin(phi)], axis=1),
                            rng.uniform(-1.0, 1.0, size=atoms))


def ring_orders(z):
    """2N + 1 for the N = |z| + 12 |z|^(1/3) + 30 of _circle_ring's docstring."""
    return 2 * int(abs(z) + 12 * abs(z) ** (1 / 3) + 30) + 1


def radius_for_orders(orders, r):
    """A ring radius rho at which a circle of radius r needs about `orders` Bessel orders."""
    z = max(0.0, (orders - 61) / 2)
    for _ in range(20):
        z = max(0.0, (orders - 61) / 2 - 12 * z ** (1 / 3))
    return z / (2 * np.pi * r)


@contextmanager
def ring_paths():
    """Which path each ring took: _circle_ring's returns (True when it evaluated the ring)
    and the row counts of every _dense_rows call."""
    seen = {"circle": [], "dense": []}
    circle, dense_rows = measures._circle_ring, measures._dense_rows

    def spy_circle(*args):
        out = circle(*args)
        seen["circle"].append(out is not None)
        return out

    def spy_dense(positions, weights, freqs):
        seen["dense"].append(len(freqs))
        return dense_rows(positions, weights, freqs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_circle_ring", spy_circle)
        mp.setattr(measures, "_dense_rows", spy_dense)
        yield seen


class TestCircleRing:
    @given(seed=st.integers(0, 2 ** 32 - 1), atoms=st.integers(16, 300),
           radius=st.floats(0.01, 3.0), rows=st.integers(64, 2500),
           orders_per_row=st.floats(0.05, 2.0), sign=st.sampled_from((1.0, -1.0)))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_sum(self, seed, atoms, radius, rows, orders_per_row, sign):
        mu = circle_cloud(seed, atoms, radius)
        rho = sign * radius_for_orders(orders_per_row * rows, radius)
        Xi = rho * _sphere_directions(2, rows)[0]
        with ring_paths() as seen:
            got = gl.ft_many(mu, Xi)
        assert seen["circle"] == [True]
        ref = oracles.dense_expsum(mu.positions, mu.weights, Xi)
        assert np.max(np.abs(got - ref)) <= kernel_bound(mu, abs(rho))

    @pytest.mark.parametrize("rows", (1000, 999))
    @pytest.mark.parametrize("orders_per_row", (0.3, 1.9))
    def test_rows_below_and_above_the_orders(self, rows, orders_per_row):
        # 2N + 1 > M folds the coefficients mod M; 2N + 1 <= M leaves them apart
        mu = circle_cloud(rows, 200, 0.7)
        rho = radius_for_orders(orders_per_row * rows, 0.7)
        orders = ring_orders(2 * np.pi * rho * mu.support_radius)
        assert (orders > rows) == (orders_per_row > 1)
        Xi = rho * _sphere_directions(2, rows)[0]
        with ring_paths() as seen:
            got = gl.ft_many(mu, Xi)
        assert seen["circle"] == [True]
        ref = oracles.longdouble_expsum(mu.positions, mu.weights, Xi)
        assert np.max(np.abs(got - ref)) <= kernel_bound(mu, rho)

    @pytest.mark.parametrize("fault", ("atom off the circle", "row off the ring"))
    def test_near_misses_take_the_dense_kernel(self, fault):
        mu = circle_cloud(5, 200, 1.3)
        Xi = 300.0 * _sphere_directions(2, 1000)[0]
        if fault == "atom off the circle":
            pos = np.array(mu.positions)
            pos[17] *= 1 + 1e-12
            mu = gl.AtomicMeasure(pos, mu.weights)
        else:
            Xi[300, 1] = np.nextafter(Xi[300, 1], np.inf)
        with ring_paths() as seen:
            got = gl.ft_many(mu, Xi)
        assert seen["circle"] == [False]
        assert seen["dense"] == [1000 if fault == "row off the ring" else 500]
        ref = oracles.dense_expsum(mu.positions, mu.weights, Xi)
        assert np.max(np.abs(got - ref)) <= kernel_bound(mu, 300.0)

    def test_few_atoms_stay_dense(self):
        # the two-atom ring of the tracer test: 101 and 117 orders cost more than 8 dense rows
        mu = gl.AtomicMeasure([[0.5, 0.0], [-0.5, 0.0]], [0.5, 0.5])
        with ring_paths() as seen:
            gl.goodness_profile(mu, 1.0, [1.0, 2.0], 8)
        assert seen["circle"] == [False, False]

    @pytest.mark.parametrize("z", np.concatenate([[0.0, 0.3], np.geomspace(1.0, 1e7, 40)]))
    def test_orders_past_n_carry_under_1e_16(self, z):
        N = (ring_orders(z) - 1) // 2
        n = np.arange(N + 1, N + 1000, dtype=float)
        assert 2 * np.sum(np.abs(special.jv(n, z))) < 1e-16

    @pytest.mark.parametrize("rho", (200.0, 1600.0, 5600.0))
    def test_five_cap_shells(self, five_cap_measure, rho):
        etas = _sphere_directions(2, 16384)[0]
        with ring_paths() as seen:
            rep = gl.goodness_profile(five_cap_measure, rho, [rho], 16384)
        assert seen["circle"] == [True]
        mu = five_cap_measure
        dense = oracles.dense_ring_sup(mu.positions, mu.weights, rho * etas)
        assert abs(rep.shell_sups[0] - dense) <= 1e-9
        if rho == 5600.0:
            some = np.arange(0, 16384, 61)
            got = gl.ft_many(mu, rho * etas)[some]
            ref = oracles.longdouble_expsum(mu.positions, mu.weights, rho * etas[some])
            assert np.max(np.abs(got - ref)) <= 1e-11

    @given(seed=st.integers(0, 2 ** 32 - 1), atoms=st.integers(100, 300),
           radius=st.floats(0.01, 3.0), rows=st.sampled_from((4096, 8192)),
           orders=st.lists(st.integers(100, 6 * measures._MOMENT_BLOCK), min_size=2,
                           max_size=5))
    @example(seed=1, atoms=150, radius=1.0, rows=4096, orders=[100, 40000])  # one, then two
    @settings(max_examples=20, deadline=None)
    def test_shells_do_not_depend_on_earlier_shells(self, seed, atoms, radius, rows, orders):
        # the angular moments are cached on the measure: each shell, in whatever order the
        # shells come, keeps the bits it has on a fresh copy of the measure (2N + 1 orders up
        # to 6 blocks: N + 1 up to three)
        mu = circle_cloud(seed, atoms, radius)
        Xis = [radius_for_orders(k, radius) * _sphere_directions(2, rows)[0] for k in orders]
        with ring_paths() as seen:
            got = [gl.ft_many(mu, Xi) for Xi in Xis]
            fresh = [gl.ft_many(circle_cloud(seed, atoms, radius), Xi) for Xi in Xis]
        assert all(seen["circle"])
        for shell, alone in zip(got, fresh):
            np.testing.assert_array_equal(shell, alone)

    def test_angular_moments_at_the_block_seams(self, five_cap_measure):
        # w(n) against long double at n = 8192 k - 1, 8192 k, 8192 k + 1 and at the last
        # order of the rho = 5600 ring
        mu = gl.AtomicMeasure(five_cap_measure.positions, five_cap_measure.weights)
        block = measures._MOMENT_BLOCK
        n = np.r_[[block * k + d for k in (1, 2, 3, 4) for d in (-1, 0, 1)], 35609]
        got = mu._angular_moments(35610)[n]
        s = np.arctan2(mu.positions[:, 1], mu.positions[:, 0]) / (2 * np.pi)
        ref = oracles.longdouble_expsum(s[:, None], mu.weights, n[:, None])
        assert np.max(np.abs(got - ref)) <= kernel_bound(gl.AtomicMeasure(s[:, None],
                                                                          mu.weights), 35609)

    def test_rings_ladder_sums_each_moment_block_once(self, five_cap_measure):
        # the benchmark's ladder R (1 + k/4), R = 200 ... 3200, reaches N + 1 = 35610 orders
        # at rho = 5600: ceil(35610 / 8192) = 5 blocks over all 1304 atoms, one call each as
        # the shells cross the block seams, then none; a fresh copy's rho = 5600 shell sums
        # the five blocks in one call
        mu, alone = (gl.AtomicMeasure(five_cap_measure.positions, five_cap_measure.weights)
                     for _ in range(2))
        ladder = [(R, R * (1 + k / 4)) for R in (200.0, 400.0, 800.0, 1600.0, 3200.0)
                  for k in range(4)]
        with kernel_terms("_progression_sum") as seen:
            first = [gl.goodness_profile(mu, R, [rho], 16384).shell_sups for R, rho in ladder]
            assert seen == [1304] * 5
            again = [gl.goodness_profile(mu, R, [rho], 16384).shell_sups for R, rho in ladder]
            assert seen == [1304] * 5
            last = gl.goodness_profile(alone, 3200.0, [5600.0], 16384).shell_sups
        assert seen == [1304] * 6 and len(alone._moments) == 5 * measures._MOMENT_BLOCK
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(last, first[-1])


# a zero row, a NaN row (whose norm check `<= 0` is False) and an infinite row
BAD_DIRECTIONS = [[0.0, 0.0], [math.nan, math.nan], [math.inf, 0.0]]


class TestProjection:
    def test_point_projects_to_atom(self):
        mu = gl.AtomicMeasure([[1.0, 2.0]], [1.0])
        line = gl.project_measure(mu, [0.0, 1.0])
        assert line.atom_positions.tolist() == [2.0]
        assert line.atom_masses.tolist() == [1.0]
        assert line.bin_masses.size == 0

    def test_square_face_decomposition(self, square_measure):
        line = gl.project_measure(square_measure, [1.0, 0.0])
        np.testing.assert_allclose(np.sort(line.atom_positions), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(line.atom_masses, [0.25, 0.25], atol=1e-12)
        assert np.sum(line.bin_masses) == pytest.approx(0.5, abs=1e-12)
        assert line.bin_edges[0] >= -1 - 1e-9 and line.bin_edges[-1] <= 1 + 1e-9

    def test_circle_has_no_atoms(self, circle_measure):
        line = gl.project_measure(circle_measure, [1.0, 0.0])
        assert line.atom_positions.size == 0
        assert np.sum(line.bin_masses) == pytest.approx(1.0, abs=1e-12)

    def test_circle_max_bin_mass_vanishes_with_refinement(self, circle_measure):
        peaks = [np.max(gl.project_measure(circle_measure, [1.0, 0.0], bins).bin_masses)
                 for bins in (32, 128, 512)]
        assert peaks[0] > peaks[1] > peaks[2]

    def test_mass_conserved_exactly(self):
        for seed in range(5):
            mu = random_measure(seed, n=40)
            line = gl.project_measure(mu, [0.6, 0.8])
            line_mass = np.sum(line.atom_masses) + np.sum(line.bin_masses)
            assert line_mass == pytest.approx(mu.total_mass, abs=1e-12 * mu.abs_mass)

    def test_rejects_non_unit_direction(self, circle_measure):
        with pytest.raises(BadInputError):
            gl.project_measure(circle_measure, [1.0, 1.0])

    @pytest.mark.parametrize("eta", BAD_DIRECTIONS)
    def test_rejects_zero_or_non_finite_direction(self, circle_measure, eta):
        with pytest.raises(BadInputError, match="unit vector"):
            gl.project_measure(circle_measure, eta)

    @pytest.mark.parametrize("eta", [[1.0, 0.0, 0.0], [[1.0, 0.0]]])
    def test_rejects_direction_of_another_dimension(self, square_measure, eta):
        with pytest.raises(BadInputError, match="measure's dimension"):
            gl.project_measure(square_measure, eta)

    @pytest.mark.parametrize("bins", [0, -2])
    def test_rejects_bins_below_one(self, square_measure, bins):
        with pytest.raises(BadInputError, match="bins >= 1"):
            gl.project_measure(square_measure, [1.0, 0.0], bins)

    @given(seed=st.integers(0, 10 ** 6), t=st.floats(-8, 8, allow_nan=False),
           angle=st.floats(0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_projection_transform_identity(self, seed, t, angle):
        mu = random_measure(seed)
        eta = np.array([math.cos(angle), math.sin(angle)])
        line = gl.project_measure(mu, eta)
        lhs = line.ft(t)
        rhs = gl.ft_measure(mu, t * eta)
        assert abs(lhs - rhs) <= 1e-10 * mu.abs_mass


class TestWiener:
    def test_origin_point_mass_is_one(self):
        mu = gl.AtomicMeasure([[0.0, 0.0]], [1.0])
        for T in (1.0, 10.0, 300.0):
            assert gl.wiener_atom_mass(mu, [1.0, 0.0], T, 2001) == pytest.approx(1.0, abs=1e-9)

    def test_square_atoms(self, square_measure):
        w = gl.wiener_atom_mass(square_measure, [1.0, 0.0], 200.0)
        assert w == pytest.approx(0.125, rel=0.05)

    def test_circle_no_atoms(self, circle_measure):
        assert gl.wiener_atom_mass(circle_measure, [1.0, 0.0], 200.0) <= 0.01

    def test_matches_projected_atom_masses(self, square_measure):
        line = gl.project_measure(square_measure, [0.0, 1.0])
        target = np.sum(line.atom_masses ** 2)
        w = gl.wiener_atom_mass(square_measure, [0.0, 1.0], 300.0)
        assert w == pytest.approx(target, rel=0.05)

    def test_rejects_bad_parameters(self, circle_measure):
        with pytest.raises(BadInputError):
            gl.wiener_atom_mass(circle_measure, [1.0, 0.0], -1.0)
        with pytest.raises(BadInputError):
            gl.wiener_atom_mass(circle_measure, [1.0, 0.0], 1.0, samples=0)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_rejects_T_that_is_not_finite(self, circle_measure, T):
        with pytest.raises(BadInputError, match="positive and finite"):
            gl.wiener_atom_mass(circle_measure, [1.0, 0.0], T)

    @pytest.mark.parametrize("eta", BAD_DIRECTIONS)
    def test_rejects_zero_or_non_finite_direction(self, circle_measure, eta):
        with pytest.raises(BadInputError, match="zero or non-finite"):
            gl.wiener_atom_mass(circle_measure, eta, 10.0)

    @pytest.mark.parametrize("eta", [[1.0, 0.0, 0.0], [1.0], [[1.0, 0.0]]])
    def test_rejects_direction_of_another_dimension(self, circle_measure, eta):
        with pytest.raises(BadInputError, match="measure's dimension"):
            gl.wiener_atom_mass(circle_measure, eta, 10.0)

    @pytest.mark.parametrize("samples", [2.5, 1000.5, math.nan, math.inf, -3])
    def test_rejects_samples_that_are_not_a_positive_integer(self, circle_measure, samples):
        with pytest.raises(BadInputError, match="positive integer"):
            gl.wiener_atom_mass(circle_measure, [1.0, 0.0], 10.0, samples)

    @pytest.mark.parametrize("T, samples", [(1e308, None), (1e308, 3), (1e307, None)])
    def test_rejects_T_whose_reach_overflows(self, circle_measure, T, samples):
        # 2 T or 40 T r past the largest double: at T = 1e308 math.ceil raised OverflowError,
        # and with 3 samples the linspace step overflowed to a NaN average
        with pytest.raises(BadInputError, match="too large"):
            gl.wiener_atom_mass(circle_measure, [1.0, 0.0], T, samples)

    @pytest.mark.parametrize("T, samples", [(1e19, 3), (1e300, 3), (1e15, 3), (1e15, 1)])
    def test_rejects_T_past_the_ray_grid(self, circle_measure, T, samples):
        # grid positions max |s| dt M of 8e15 and more, past 2^52: at 1e19 and up the cell
        # index overflowed its cast, and the average came out finite and meaningless
        with pytest.raises(BadInputError, match="past 2\\^52"):
            gl.wiener_atom_mass(circle_measure, [1.0, 0.0], T, samples)

    def test_samples_under_the_ray_grid_reach_run(self, circle_measure):
        # 8e14 grid steps, under 2^52: a 3-sample average of |ft|^2 <= 1
        assert 0.0 <= gl.wiener_atom_mass(circle_measure, [1.0, 0.0], 1e14, 3) <= 1.0

    @pytest.mark.parametrize("T, samples", [(1e200, None), (1e12, None), (10.0, 10 ** 15)])
    def test_rejects_rays_over_budget_before_allocating(self, circle_measure, T, samples):
        # at T = 1e200 the grid constants overflowed on the way to an unbounded allocation
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="Wiener ray"):
                gl.wiener_atom_mass(circle_measure, [1.0, 0.0], T, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("terms, n", [(1504, 4001), (4000, 300), (50, 100_000)])
    def test_budget_counts_the_ray_arrays(self, terms, n):
        # on fresh arrays (_SCRATCH_KEEP = 0) the ray's tracemalloc peak is _gridded_bytes
        # plus the per-term phases and the per-sample factor: seen 1.10-1.16 times it
        rng = np.random.default_rng(terms)
        s, w = rng.uniform(-1.0, 1.0, terms), rng.uniform(-1.0, 1.0, terms)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_SCRATCH_KEEP", 0)
            tracemalloc.start()
            try:
                measures._gridded_sum(s, w, 0.0, 0.01, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        need = measures._gridded_bytes(terms, n)
        assert need <= peak <= 1.5 * need

    def test_budget_counts_the_merged_terms(self, square_measure):
        # the square's mesh pairs up and grids 513 distinct |s| of its 4096 atoms: a budget
        # that holds those terms runs the ray, one byte less refuses it
        eta, T, n = [1.0, 0.0], 10.0, 1001
        with kernel_terms("_gridded_sum") as seen:
            want = gl.wiener_atom_mass(square_measure, eta, T, n)
        assert seen == [513] and len(square_measure) == 4096
        need = measures._gridded_bytes(513, n - n // 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "SPECTRUM_BUDGET_BYTES", need)
            assert gl.wiener_atom_mass(square_measure, eta, T, n) == want
            mp.setattr(measures, "SPECTRUM_BUDGET_BYTES", need - 1)
            with pytest.raises(BudgetExceededError, match="over 513 terms"):
                gl.wiener_atom_mass(square_measure, eta, T, n)

    def test_integral_float_samples_are_that_count(self, square_measure):
        assert (gl.wiener_atom_mass(square_measure, [1.0, 0.0], 10.0, 1001.0)
                == gl.wiener_atom_mass(square_measure, [1.0, 0.0], 10.0, 1001))


class TestDecay:
    def test_flat_piece_constant_along_own_normal(self):
        seg = gl.segment_measure([0.3, -0.2], [0.0, 1.0], 1.0, 4096, normal=[1.0, 0.0])
        vals = np.abs(gl.ft_profile(seg, [1.0, 0.0], [1.0, 7.0, 23.0]))
        np.testing.assert_allclose(vals, seg.total_mass, atol=1e-12)

    def test_flat_piece_sinc_decay_perpendicular(self):
        L = 1.0
        seg = gl.segment_measure([0.0, 0.0], [0.0, 1.0], L, 1 << 18, normal=[1.0, 0.0])
        ts = np.linspace(0.5, 10.0, 20)
        got = np.abs(gl.ft_profile(seg, [0.0, 1.0], ts))
        closed = seg.total_mass * np.abs(np.sinc(L * ts))
        assert np.max(np.abs(got - closed)) < 1e-8

    def test_quarter_arc_envelope_decreases(self, unit_disk):
        mesh = gl.triangulate_boundary(unit_disk, 8192)
        ang = np.arctan2(mesh.normals[:, 1], mesh.normals[:, 0])
        piece = gl.from_mesh(mesh.restrict((ang > 0) & (ang < math.pi / 2)))
        grid = np.linspace(0.05, math.pi / 2 - 0.05, 30)
        thetas = np.stack([np.cos(grid), np.sin(grid)], axis=1)
        scan = gl.decay_scan(piece, thetas, 0.3, [10.0, 40.0])
        assert scan.envelope[1] < scan.envelope[0] < piece.total_mass

    def test_certificate_is_gradient_bound_times_spacing(self, unit_disk):
        mesh = gl.triangulate_boundary(unit_disk, 2048)
        ang = np.arctan2(mesh.normals[:, 1], mesh.normals[:, 0])
        piece = gl.from_mesh(mesh.restrict((ang > 0) & (ang < math.pi / 2)))
        t = np.array([-25.0, 0.0, 10.0, 40.0])
        scan = gl.decay_scan(piece, [[1.0, 0.0]], 0.3, t)
        np.testing.assert_array_equal(scan.cert_errors,
                                      piece.lipschitz_bound * np.abs(t) * (0.3 / 4))

    @given(seed=st.integers(0, 2 ** 32 - 1), atoms=st.integers(16, 4096),
           radius=st.floats(0.2, 2.0), start=st.floats(-np.pi, np.pi),
           arc=st.floats(0.05, 2 * np.pi), delta=st.floats(0.05, 1.0),
           ts=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=3))
    @example(seed=3, atoms=2048, radius=1.0, start=0.0, arc=np.pi / 2, delta=0.3,
             ts=[10.0, 40.0, -60.0])
    @settings(max_examples=30, deadline=None)
    def test_circle_pieces_match_dense_sum(self, seed, atoms, radius, start, arc, delta, ts):
        # signed atoms on a random arc; each t takes the ring exactly where _ring_pays says so,
        # which the wider deltas' few rows and the small pieces at large |t| refuse
        rng = np.random.default_rng(seed)
        phi = start + arc * rng.uniform(size=atoms)
        mu = gl.AtomicMeasure(radius * np.stack([np.cos(phi), np.sin(phi)], axis=1),
                              rng.uniform(-1.0, 1.0, size=atoms))
        assert mu._circle_radius() is not None
        thetas = [[math.cos(start + arc / 2), math.sin(start + arc / 2)]]
        t_grid = np.array([0.0, *ts])
        rings = []
        coefficients = measures._ring_coefficients

        def spy(mu, rho):
            rings.append(rho)
            return coefficients(mu, rho)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_ring_coefficients", spy)
            scan = gl.decay_scan(mu, thetas, delta, t_grid, return_table=True)
        rows = len(scan.etas)
        assert rings == [t for t in t_grid if measures._ring_pays(mu, t, rows)]
        for t, got in zip(t_grid, scan.table):
            ref = oracles.dense_expsum(mu.positions, mu.weights, t * scan.etas)
            assert np.max(np.abs(got - ref)) <= kernel_bound(mu, abs(t))
        np.testing.assert_array_equal(scan.envelope, np.max(np.abs(scan.table), axis=1))

    @pytest.mark.parametrize("piece", ("ellipse", "hexagon", "ball3", "two circle atoms"))
    def test_dense_pieces_keep_their_bits(self, piece, unit_disk):
        # measures that are not on one circle, and a circle piece too small for the ring even
        # at t = 0, where the zero rows of every grid would match ft_many's ring test
        body = {"ellipse": gl.Ellipsoid([0.9, 0.6]), "hexagon": gl.regular_polygon_body(6),
                "ball3": gl.ball_body(3), "two circle atoms": unit_disk}[piece]
        mesh = gl.triangulate_boundary(body, 16 if piece == "two circle atoms" else 600)
        theta = np.eye(body.dim)[0]
        mu = gl.from_mesh(mesh.restrict(mesh.normals @ theta > math.cos(0.3)))
        t = [-7.0, 0.0, 10.0, 40.0]
        with ring_paths() as seen:
            got = gl.decay_scan(mu, [theta], 0.3, t, return_table=True)
        assert not any(seen["circle"])
        ref = oracles.dense_decay_scan(mu, [theta], 0.3, t)
        for field in ("t_grid", "envelope", "cert_errors", "etas", "table"):
            np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))

    def test_rings_workload_piece_never_takes_dense_rows(self, unit_disk):
        # the benchmark's quarter-circle piece reads both t off the ring
        mesh = gl.triangulate_boundary(unit_disk, 8192)
        ang = np.arctan2(mesh.normals[:, 1], mesh.normals[:, 0])
        piece = gl.from_mesh(mesh.restrict((ang > 0) & (ang < math.pi / 2)))
        grid = np.linspace(0.05, math.pi / 2 - 0.05, 30)
        thetas = np.stack([np.cos(grid), np.sin(grid)], axis=1)
        with ring_paths() as seen:
            scan = gl.decay_scan(piece, thetas, 0.3, [10.0, 40.0], return_table=True)
        assert seen == {"circle": [], "dense": []}
        ref = oracles.longdouble_expsum(piece.positions, piece.weights,
                                        np.vstack([t * scan.etas for t in (10.0, 40.0)]))
        assert np.max(np.abs(scan.table.ravel() - ref)) <= 1e-14

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_radii_that_are_not_finite(self, t, unit_disk):
        mesh = gl.triangulate_boundary(unit_disk, 2048)
        piece = gl.from_mesh(mesh.restrict(mesh.normals[:, 0] > 0.9))
        with pytest.raises(BadInputError, match="finite"):
            gl.decay_scan(piece, [[1.0, 0.0]], 0.3, [10.0, t])

    @pytest.mark.parametrize("t", [1e308, -1e308, 3e307])
    def test_rejects_radii_whose_phase_overflows(self, t, unit_disk):
        # a circle piece at a finite t where 2 pi |t| r0 overflows: the ring's order would
        # raise OverflowError, the dense kernel's phases would turn to NaN
        mesh = gl.triangulate_boundary(unit_disk, 2048)
        piece = gl.from_mesh(mesh.restrict(mesh.normals[:, 0] > 0.9))
        assert piece._circle_radius() is not None
        with pytest.raises(BadInputError, match="overflows"):
            gl.decay_scan(piece, [[1.0, 0.0]], 0.3, [10.0, t])

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_delta_that_is_not_positive_and_finite(self, delta):
        seg = gl.segment_measure([0, 0], [0, 1], 1.0, 64, normal=[1.0, 0.0])
        with pytest.raises(BadInputError, match="delta must be positive"):
            gl.decay_scan(seg, [[1.0, 0.0]], delta, [1.0])

    def test_empty_admissible_set_rejected(self):
        seg = gl.segment_measure([0, 0], [0, 1], 1.0, 64, normal=[1.0, 0.0])
        with pytest.raises(BadInputError):
            gl.decay_scan(seg, [[1.0, 0.0]], 3.0, [1.0])

    @pytest.mark.parametrize("theta", BAD_DIRECTIONS)
    def test_rejects_zero_or_non_finite_direction(self, theta):
        seg = gl.segment_measure([0, 0], [0, 1], 1.0, 64, normal=[1.0, 0.0])
        with pytest.raises(BadInputError, match="zero or non-finite"):
            gl.decay_scan(seg, [[1.0, 0.0], theta], 0.3, [10.0])

    def test_rejects_directions_of_another_dimension(self):
        seg = gl.segment_measure([0, 0], [0, 1], 1.0, 64, normal=[1.0, 0.0])
        with pytest.raises(BadInputError, match="measure's dimension"):
            gl.decay_scan(seg, [[1.0, 0.0, 0.0]], 0.3, [10.0])

    @pytest.mark.parametrize("eta", BAD_DIRECTIONS)
    def test_profile_rejects_zero_or_non_finite_direction(self, eta):
        seg = gl.segment_measure([0, 0], [0, 1], 1.0, 64, normal=[1.0, 0.0])
        with pytest.raises(BadInputError, match="zero or non-finite"):
            gl.ft_profile(seg, eta, [1.0, 7.0])


    @pytest.mark.parametrize("eta", [[1.0, 0.0, 0.0], [1.0], [[1.0, 0.0]]])
    def test_profile_rejects_direction_of_another_dimension(self, eta):
        seg = gl.segment_measure([0, 0], [0, 1], 1.0, 64, normal=[1.0, 0.0])
        with pytest.raises(BadInputError, match="measure's dimension"):
            gl.ft_profile(seg, eta, [1.0, 7.0])


class TestMeasureBasics:
    def test_probability_and_symmetry_flags(self, circle_measure):
        assert circle_measure.is_probability()
        assert circle_measure.total_mass == pytest.approx(1.0, abs=1e-12)
        assert circle_measure.is_symmetric()
        for mass, probability in ((1 + 1e-10, True), (1 + 1e-8, False), (-1.0, False)):
            assert gl.AtomicMeasure([[0.0, 0.0]], [mass]).is_probability() == probability

    def test_symmetrized(self):
        mu = random_measure(17)
        sym = oracles.symmetrized(mu)
        assert sym.is_symmetric()
        assert sym.total_mass == pytest.approx(mu.total_mass, abs=1e-12)

    def test_five_cap_measure_not_symmetric(self, five_cap_measure):
        assert not five_cap_measure.is_symmetric()

    def test_complex_weights_rejected(self):
        with pytest.raises(BadInputError):
            gl.AtomicMeasure([[0.0, 0.0]], np.array([1 + 1j]))

    def test_nan_normals_rejected(self):
        with pytest.raises(BadInputError, match="normals must be finite"):
            gl.AtomicMeasure([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5],
                             [[np.nan, 0.0], [-1.0, 0.0]])

    @pytest.mark.filterwarnings("error")  # refused before any division
    def test_segment_with_zero_normal_rejected(self):
        with pytest.raises(BadInputError, match="segment normal: zero or non-finite vector"):
            gl.segment_measure([0.0, 0.0], [1.0, 0.0], 1.0, 8, normal=[0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", ([0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]))
    def test_segment_with_bad_direction_rejected(self, direction):
        with pytest.raises(BadInputError, match="segment direction: zero or non-finite vector"):
            gl.segment_measure([0.0, 0.0], direction, 1.0, 8, normal=[1.0, 0.0])

    def test_round_trip(self, tmp_path):
        mu = random_measure(23)
        path = tmp_path / "m.json"
        from gaugelab.measures import load_measure, save_measure
        save_measure(mu, path)
        back = load_measure(path)
        np.testing.assert_array_equal(back.positions, mu.positions)
        np.testing.assert_array_equal(back.weights, mu.weights)


@st.composite
def coincident_symmetrized(draw, dim):
    """The even part of 1..4 points, each carrying 1..3 coincident atoms whose weights are
    multiples of 1/8, so coincident atoms weigh the same or differ by far more than the
    tolerance; atoms shuffled."""
    point = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    groups = draw(st.lists(st.tuples(point, st.lists(st.integers(-8, 8), min_size=1,
                                                     max_size=3)), min_size=1, max_size=4))
    atoms = [(p, k / 8) for p, ks in groups for k in ks]
    sym = oracles.symmetrized(gl.AtomicMeasure([p for p, _ in atoms], [w for _, w in atoms]))
    order = np.array(draw(st.permutations(range(len(sym)))))
    return gl.AtomicMeasure(sym.positions[order], sym.weights[order])


def perturbed_cloud(seed, dim):
    """Atoms on the 1e-9 lattice of the unit ball, mirrors moved by up to 0.3e-9 and their
    weights by up to 0.4e-9: symmetric within the tolerance, not exactly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    x = rng.integers(-5 * 10 ** 8, 5 * 10 ** 8, size=(n, dim)) * 1e-9
    w = rng.uniform(0.05, 1.0, size=n)
    pos = np.vstack([x, -x + rng.uniform(-3e-10, 3e-10, size=(n, dim))])
    wts = np.concatenate([w, w + rng.uniform(-4e-10, 4e-10, n)])
    order = rng.permutation(2 * n)
    return gl.AtomicMeasure(pos[order], wts[order])


class TestSortedPairing:
    """AtomicMeasure._pairs_up (two sorts) against the first-fit scan it replaced."""

    @staticmethod
    def check_against_scan(mu):
        new, old = mu._pairs_up(), oracles.scan_pairs_up(mu)
        assert (new is None) == (old is None)
        if new is not None:
            i, j = new
            assert i.dtype == j.dtype == np.intp and np.all(i <= j)
            assert np.array_equal(np.sort(np.concatenate([i, j[i != j]])), np.arange(len(mu)))
            scale = max(mu.support_radius, 1.0)
            assert np.all(np.abs(mu.positions[i] + mu.positions[j])
                          <= measures.SYMMETRY_TOL * scale)
            assert np.all(np.abs(mu.weights[i] - mu.weights[j])
                          <= measures.SYMMETRY_TOL * max(mu.abs_mass, 1.0))
        return new, old

    @given(data=st.data(), dim=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_coincident_atoms_of_unequal_weight(self, data, dim):
        new, _ = self.check_against_scan(data.draw(coincident_symmetrized(dim)))
        assert new is not None

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_clouds_perturbed_within_tolerance(self, seed, dim):
        new, _ = self.check_against_scan(perturbed_cloud(seed, dim))
        assert new is not None

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3),
           fault=st.sampled_from(["random", "moved", "reweighted"]))
    @settings(max_examples=100, deadline=None)
    def test_asymmetric_clouds(self, seed, dim, fault):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        pos, wts = rng.uniform(-1, 1, (n, dim)), rng.uniform(0.1, 1.0, n)
        if fault != "random":
            pos, wts = np.vstack([pos, -pos]), np.concatenate([wts, wts])
            k = int(rng.integers(2 * n))
            if fault == "moved":
                pos[k, int(rng.integers(dim))] += 1e-6
            else:
                wts[k] += 1e-6
        new, _ = self.check_against_scan(gl.AtomicMeasure(pos, wts))
        assert new is None

    @pytest.mark.parametrize("make", [
        lambda: gl.from_mesh(gl.triangulate_boundary(gl.ball_body(2), 512), normalize=True),
        lambda: gl.from_mesh(gl.triangulate_boundary(gl.ball_body(2), 2048), normalize=True),
        lambda: gl.from_mesh(gl.triangulate_boundary(gl.ball_body(2), 16384), normalize=True),
        lambda: gl.triangulate_boundary(gl.regular_polygon_body(6), 4096),
        lambda: gl.triangulate_boundary(gl.cube_body(3), 3000),
        lambda: gl.triangulate_boundary(gl.ball_body(3), 3000),
    ], ids=["disk512", "disk2048", "disk16384", "hexagon", "cube3", "ball3"])
    def test_meshes_pair_exactly_as_the_scan(self, make):
        new, old = self.check_against_scan(make())
        assert new is not None
        assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])
