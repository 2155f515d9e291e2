import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gaugelab as gl
from gaugelab import bodies
from gaugelab.errors import BadInputError, BudgetExceededError

import oracles


def coords(dim):
    return st.lists(st.floats(-5, 5, allow_nan=False), min_size=dim, max_size=dim)


BODIES_2D = [
    gl.cube_body(2, 0.5),
    gl.ball_body(2),
    gl.Ellipsoid([2.0, 1.0]),
    gl.RadialBody(p=3, axes=[1.0, 0.7]),
    gl.regular_polygon_body(6),
    gl.random_symmetric_polytope(2, 5, seed=101),
]


class TestGauge:
    def test_half_cube_point_on_double_boundary(self, half_cube):
        assert half_cube.gauge([1.0, 0.0]) == pytest.approx(2.0, abs=1e-15)

    def test_unit_ball_euclidean(self, unit_disk):
        assert unit_disk.gauge([0.3, 0.4]) == pytest.approx(0.5, abs=1e-15)

    def test_matches_hpolytope_formula(self):
        body = gl.random_symmetric_polytope(2, 4, seed=7)
        rng = np.random.default_rng(0)
        for x in rng.normal(size=(20, 2)):
            expect = max(float(th @ x) / h for th, h in zip(body.normals, body.offsets))
            assert body.gauge(x) == pytest.approx(max(expect, 0.0), abs=1e-14)

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(42)
        for seed in range(4):
            body = gl.random_symmetric_polytope(2, 4 + seed, seed=seed)
            for x in rng.uniform(-3, 3, size=(10, 2)):
                assert body.gauge(x) == pytest.approx(
                    oracles.bisection_gauge(body, x), abs=1e-9)

    def test_zero_iff_origin(self):
        for body in BODIES_2D:
            assert body.gauge([0.0, 0.0]) == 0.0
            assert body.gauge([1e-9, 0.0]) > 0.0

    @given(x=coords(2), lam=st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_homogeneity_and_symmetry(self, x, lam):
        body = BODIES_2D[3]
        x = np.asarray(x)
        g = body.gauge(x)
        assert body.gauge(-x) == pytest.approx(g, rel=1e-12, abs=1e-12)
        assert body.gauge(lam * x) == pytest.approx(abs(lam) * g, rel=1e-12, abs=1e-12)

    @given(x=coords(2), y=coords(2))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, x, y):
        for body in (BODIES_2D[0], BODIES_2D[2], BODIES_2D[4]):
            x_, y_ = np.asarray(x), np.asarray(y)
            lhs = body.gauge(x_ + y_)
            assert lhs <= body.gauge(x_) + body.gauge(y_) + 1e-12


class TestDualGauge:
    def test_ball_self_dual(self, unit_disk):
        assert unit_disk.dual_gauge_many([[3.0, 4.0]])[0] == pytest.approx(5.0, abs=1e-12)

    def test_half_cube_support(self, half_cube):
        assert half_cube.dual_gauge_many([[1.0, 1.0]])[0] == pytest.approx(1.0, abs=1e-12)

    def test_ellipsoid_axis(self):
        assert gl.Ellipsoid([2.0, 1.0]).dual_gauge_many([[1.0, 0.0]])[0] == pytest.approx(2.0)

    def test_support_function_definition(self):
        rng = np.random.default_rng(5)
        for body in BODIES_2D[:4]:
            mesh = gl.triangulate_boundary(body, 4096)
            for xi in rng.normal(size=(8, 2)):
                sampled = float(np.max(mesh.positions @ xi))
                assert body.dual_gauge_many([xi])[0] == pytest.approx(sampled, rel=1e-3, abs=1e-6)

    def test_polytope_support_matches_lp_oracle(self):
        from scipy.optimize import linprog
        rng = np.random.default_rng(5)
        for seed, (d, pairs) in enumerate([(2, 4), (2, 6), (3, 8)]):
            body = gl.random_symmetric_polytope(d, pairs, seed=seed)
            for xi in rng.normal(size=(8, d)):
                lp = linprog(-xi, A_ub=body.normals, b_ub=body.offsets,
                             bounds=[(None, None)] * d)
                assert lp.success
                assert body.dual_gauge_many([xi])[0] == pytest.approx(-lp.fun, abs=1e-10)

    def test_gauge_support_duality(self):
        # gauge(x) = sup over boundary normals n of <x,n>/<node,n>
        rng = np.random.default_rng(9)
        for body in BODIES_2D[:4]:
            mesh = gl.triangulate_boundary(body, 8192)
            support_at_normal = np.einsum("ij,ij->i", mesh.positions, mesh.normals)
            for x in rng.normal(size=(5, 2)):
                dual_form = float(np.max((mesh.normals @ x) / support_at_normal))
                assert body.gauge(x) == pytest.approx(dual_form, rel=1e-4, abs=1e-8)


def facet_body(seed, dim, pairs):
    """A seeded H-polytope: the axis facet pairs (so it is bounded) and, above 1d, up to
    13 - dim random pairs (redundant facets allowed), 2 to 26 facets in all."""
    rng = np.random.default_rng(seed)
    n = np.vstack([np.eye(dim), rng.normal(size=(min(pairs, 13 - dim) if dim > 1 else 0, dim))])
    h = rng.uniform(0.1, 3.0, size=n.shape[0])
    return gl.HPolytope(np.vstack([n, -n]), np.concatenate([h, h]))


def probe_points(body, seed, n):
    """Random, lattice, vertex and scaled-vertex points: ties and boundary hits included."""
    rng = np.random.default_rng(seed)
    verts = body.vertices
    pts = [rng.normal(scale=rng.uniform(0.01, 50.0), size=(n, body.dim)),
           rng.integers(-20, 21, size=(n, body.dim)).astype(float),
           verts, 2.5 * verts, np.zeros((1, body.dim))]
    return np.vstack(pts)


class TestFacetMajorReduction:
    """The facet-major reductions equal the old point-major expressions bit for bit."""

    # BLAS rounds X @ N.T and (N @ X.T).T apart only at some shapes (e.g. 14+ facets
    # and ~1000 points), so point counts are drawn densely
    body_args = dict(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3),
                     pairs=st.integers(0, 12),
                     n=st.one_of(st.integers(0, 2500), st.just(20_000)))

    @given(**body_args)
    @example(seed=2, dim=2, pairs=5, n=511)
    @settings(max_examples=60, deadline=None)
    def test_gauge_and_dual_gauge_bitwise(self, seed, dim, pairs, n):
        body = facet_body(seed, dim, pairs)
        X = probe_points(body, seed, n)
        assert np.array_equal(body.gauge_many(X), oracles.old_hpolytope_gauge(body, X))
        assert np.array_equal(body.dual_gauge_many(X), oracles.old_hpolytope_dual_gauge(body, X))

    def test_single_point_and_empty_shapes(self, half_cube):
        assert half_cube.gauge_many([1.0, 0.0]).shape == (1,)
        assert half_cube.dual_gauge_many(np.empty((0, 2))).shape == (0,)


class TestMeshes:
    def test_square_perimeter(self, square_mesh):
        assert square_mesh.total_mass == pytest.approx(8.0, abs=1e-6)

    def test_disk_circumference(self, unit_disk):
        mesh = gl.triangulate_boundary(unit_disk, 8192)
        assert mesh.total_mass == pytest.approx(2 * math.pi, abs=1e-6)

    def test_sphere_area(self):
        mesh = gl.triangulate_boundary(gl.ball_body(3), 5000)
        assert mesh.total_mass == pytest.approx(4 * math.pi, abs=1e-3)

    def test_nodes_on_boundary(self):
        for body in BODIES_2D:
            mesh = gl.triangulate_boundary(body, 512)
            g = body.gauge_many(mesh.positions)
            assert np.max(np.abs(g - 1.0)) <= 1e-9

    def test_polytope_normals_exact(self):
        body = gl.random_symmetric_polytope(2, 4, seed=3)
        mesh = gl.triangulate_boundary(body, 256)
        # every node normal equals one of the facet normals exactly
        dots = mesh.normals @ body.normals.T
        assert np.all(np.max(dots, axis=1) > 1 - 1e-12)

    def test_mass_convergence(self):
        body = gl.Ellipsoid([1.3, 0.8])
        masses = [gl.triangulate_boundary(body, n).total_mass
                  for n in (128, 512, 2048, 8192)]
        diffs = np.abs(np.diff(masses))
        assert np.all(np.diff(diffs) < 0)

    def test_gauss_map_orthogonal_to_tangent(self):
        for body in (gl.ball_body(2), gl.Ellipsoid([1.5, 0.9]), gl.RadialBody(p=4, axes=[1, 1])):
            mesh = gl.triangulate_boundary(body, 4096)
            tang = mesh.positions[2:] - mesh.positions[:-2]
            tang /= np.linalg.norm(tang, axis=1)[:, None]
            inner = np.abs(np.einsum("ij,ij->i", tang, mesh.normals[1:-1]))
            assert np.max(inner) < 1e-5

    def test_resolution_too_small_fails(self):
        body = gl.regular_polygon_body(8)
        with pytest.raises(BadInputError):
            gl.triangulate_boundary(body, 4)

    def test_cube_3d_surface_mass_exact(self):
        cube3 = gl.cube_body(3, 1.0)
        mesh = gl.triangulate_boundary(cube3, 2000)
        assert mesh.total_mass == pytest.approx(24.0, abs=1e-9)

    def test_four_dimensional_bodies_refused_for_their_dimension(self):
        for body in (gl.cube_body(4), gl.ball_body(4), gl.RadialBody(p=3.0, axes=[1.0] * 4)):
            with pytest.raises(BadInputError, match=r"supports dimensions 1\.\.3"):
                gl.triangulate_boundary(body, 512)

    def test_one_dimensional_meshes_are_the_endpoints(self):
        # +/- the inner radius: the facet offset, the semi-axis, the semi-axis at any p
        for body in (gl.cube_body(1, 0.3), gl.Ellipsoid([0.3]), gl.RadialBody(p=3.0, axes=[0.3])):
            mesh = gl.triangulate_boundary(body, 64)
            np.testing.assert_array_equal(mesh.positions, [[-0.3], [0.3]])
            np.testing.assert_array_equal(mesh.normals, [[-1.0], [1.0]])
            np.testing.assert_array_equal(mesh.weights, [1.0, 1.0])


class TestAreaMeasure:
    """Mesh mass by the angle of its normals: the area measure the caps are drawn on."""

    @staticmethod
    def cap_mass(mesh, angle, r_cap):
        ang = np.arctan2(mesh.normals[:, 1], mesh.normals[:, 0])
        return float(np.sum(mesh.weights[np.abs(ang - angle) < r_cap]))

    def test_square_facet_cap(self, square_mesh):
        assert self.cap_mass(square_mesh, 0.0, 0.1) == pytest.approx(2.0, abs=1e-9)

    def test_square_diagonal_empty(self, square_mesh):
        assert self.cap_mass(square_mesh, math.pi / 4, 0.1) == 0.0

    def test_disk_cap_arc_length(self, circle_mesh):
        for w in (0.1, 0.2, 0.4):
            got = self.cap_mass(circle_mesh, 0.0, w)
            assert got == pytest.approx(2 * w, abs=4 * math.pi / 4096 + 1e-9)

    def test_zero_cap_direction_rejected(self):
        with pytest.raises(BadInputError, match="cap direction"):
            gl.CapFamily([[0.0, 0.0]], 0.3)

    def test_nan_direction_has_no_geodesic_distance(self):
        with pytest.raises(BadInputError, match="unit vectors"):
            bodies.geodesic_distance([np.nan, 0.0], [1.0, 0.0])


class TestCapFamily:
    def test_disjointness_enforced(self):
        dirs = np.array([[1.0, 0.0], [math.cos(0.15), math.sin(0.15)]])
        with pytest.raises(BadInputError):
            gl.CapFamily(dirs, 0.1)

    def test_delta0(self, five_caps):
        assert five_caps.delta0 == pytest.approx(math.pi / 5, abs=1e-12)
        assert five_caps.delta0 > 2 * five_caps.r_cap

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), dim=st.integers(2, 3),
           r_cap=st.floats(1e-3, 0.4))
    @settings(max_examples=150, deadline=None)
    def test_delta0_is_the_pairwise_minimum(self, seed, n, dim, r_cap):
        dirs = np.random.default_rng(seed).normal(size=(n, dim))
        unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        d0 = oracles.pairwise_cap_delta0(unit)
        if n > 1 and d0 <= 2 * r_cap:
            with pytest.raises(BadInputError, match="caps overlap"):
                gl.CapFamily(dirs, r_cap)
        else:
            assert gl.CapFamily(dirs, r_cap).delta0 == d0
            assert n > 1 or d0 == math.inf


class TestSerialization:
    def test_round_trip(self, tmp_path):
        for body in BODIES_2D:
            path = tmp_path / "b.json"
            gl.save_body(body, path)
            loaded = gl.load_body(path)   # shrunk by loaded.scale into the unit ball
            rng = np.random.default_rng(1)
            X = rng.normal(size=(16, 2))
            np.testing.assert_allclose(loaded.gauge_many(X) * loaded.scale, body.gauge_many(X),
                                       rtol=1e-12, atol=1e-12)

    def test_pairing_validated_at_load(self, tmp_path):
        spec = {"dim": 2, "type": "hpolytope",
                "normals": [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                "offsets": [1.0, 1.0, 1.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(BadInputError):
            gl.load_body(path)

    def test_normalization_shrinks_into_unit_ball(self, tmp_path):
        big = gl.cube_body(2, 3.0)
        path = tmp_path / "big.json"
        gl.save_body(big, path)
        loaded = gl.load_body(path)
        assert loaded.outer_radius() <= 1.0 + 1e-12
        assert loaded.scale == pytest.approx(1.0 / big.outer_radius())
        saved = bodies.body_from_dict(json.loads(path.read_text()))
        assert saved.outer_radius() == pytest.approx(big.outer_radius())

    @pytest.mark.parametrize("spec, field", [
        ({"type": "ellipsoid", "axes": [math.nan, 1.0]}, "ellipsoid semi-axes"),
        ({"type": "ellipsoid", "axes": [math.inf, 1.0]}, "ellipsoid semi-axes"),
        ({"type": "radial", "p": math.nan, "axes": [1.0, 1.0]}, "superellipsoid p"),
        ({"type": "radial", "p": math.inf, "axes": [1.0, 1.0]}, "superellipsoid p"),
        ({"type": "radial", "p": 3.0, "axes": [1.0, -math.inf]}, "semi-axes"),
        ({"type": "radial", "radial_samples": [math.nan] * 8}, "radial samples"),
        ({"type": "hpolytope", "normals": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
          "offsets": [1.0, 1.0, math.nan, math.nan]}, "facet offsets")])
    def test_non_finite_body_data_rejected(self, tmp_path, spec, field):
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(spec))   # json writes NaN and Infinity, and reads them back
        with pytest.raises(BadInputError, match=f"{field} must be .*finite"):
            gl.load_body(path)

    def test_asymmetric_radial_rejected(self):
        samples = np.ones(16)
        samples[3] = 2.0
        with pytest.raises(BadInputError):
            gl.RadialBody(radial_samples=samples)

    def test_solidity_certificates(self):
        for body in BODIES_2D:
            r0, r1 = body.inner_radius(), body.outer_radius()
            assert 0 < r0 <= r1 < math.inf
            mesh = gl.triangulate_boundary(body, 512)
            norms = np.linalg.norm(mesh.positions, axis=1)
            assert np.all(norms >= r0 - 1e-9)
            assert np.all(norms <= r1 + 1e-9)


class TestRandomPolygon:
    def test_up_to_eight_pairs_unchanged(self):
        for pairs in range(2, 9):
            for seed in range(20):
                old = oracles.unscaled_random_polygon(pairs, seed)
                new = gl.random_symmetric_polytope(2, pairs, seed)
                assert old is not None
                np.testing.assert_array_equal(new.normals, old.normals)
                np.testing.assert_array_equal(new.offsets, old.offsets)

    def test_spatial_draws_match_the_written_out_spiral(self):
        for pairs in range(3, 21):
            for seed in range(20):
                old = oracles.spiral_random_polytope(pairs, seed)
                new = gl.random_symmetric_polytope(3, pairs, seed)
                assert old is not None
                np.testing.assert_array_equal(new.normals, old.normals)
                np.testing.assert_array_equal(new.offsets, old.offsets)

    @pytest.mark.parametrize("pairs", (9, 10))
    def test_most_draws_kept_from_nine_pairs(self, pairs, monkeypatch):
        # At the full +/-8% offset jitter 86% and 84% of the draws were retried.
        draws, rejected = [], []
        facet_vertices = gl.HPolytope._facet_vertices

        def counted(body, i):
            if i == 0:
                draws.append(body)
            try:
                return facet_vertices(body, i)
            except BadInputError:
                rejected.append(body)
                raise

        monkeypatch.setattr(gl.HPolytope, "_facet_vertices", counted)
        for seed in range(400):
            gl.random_symmetric_polytope(2, pairs, seed)
        assert len(rejected) < 0.5 * len(draws)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_only_planar_and_spatial_draws(self, dim):
        with pytest.raises(BadInputError, match="dimensions 2 and 3"):
            gl.random_symmetric_polytope(dim, 4, seed=0)

    def test_every_seed_draws_up_to_24_pairs(self):
        # With +/-8% offsets at every spacing, a facet came out redundant from 10 pairs
        # on, and every seed failed from 13.
        for pairs in range(10, 25):
            for seed in range(20):
                body = gl.random_symmetric_polytope(2, pairs, seed)
                assert body.n_facets == 2 * pairs
                assert np.all(np.abs(body.offsets - 1.0) <= 0.08)


class TestFacetPairing:
    """HPolytope's antipode index against the check and seen-flag loops it replaced."""

    def test_facet_pairs_match_the_scan(self):
        for dim, pair_counts in ((2, range(2, 25)), (3, range(3, 16))):
            for pairs in pair_counts:
                for seed in range(10):
                    body = gl.random_symmetric_polytope(dim, pairs, seed)
                    old = oracles.scan_facet_pairs(body.normals, body.offsets)
                    new = body.facet_pairs()
                    assert len(new) == len(old) == pairs
                    for (n_new, h_new), (n_old, h_old) in zip(new, old):
                        assert np.array_equal(n_new, n_old) and h_new == h_old

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fault", ["dropped", "turned", "offset", "repeated"])
    def test_bad_pairings_raise_as_the_scan(self, dim, fault):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pairs = int(rng.integers(2, 10))
            v = rng.normal(size=(pairs, dim))
            v /= np.linalg.norm(v, axis=1)[:, None]
            h = rng.uniform(0.5, 2.0, size=pairs)
            order = rng.permutation(2 * pairs)
            normals, offsets = np.vstack([v, -v])[order], np.concatenate([h, h])[order]
            k = int(rng.integers(2 * pairs))
            if fault == "dropped":
                normals, offsets = np.delete(normals, k, axis=0), np.delete(offsets, k)
            elif fault == "turned":
                normals[k] += rng.normal(scale=1e-3, size=dim)
            elif fault == "offset":
                offsets[k] *= 1 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-7, -2)
            else:
                at = int(rng.integers(2 * pairs + 1))
                normals = np.insert(normals, at, normals[k] * rng.uniform(0.5, 2), axis=0)
                offsets = np.insert(offsets, at, rng.uniform(0.5, 2.0))
            norms = np.linalg.norm(normals, axis=1)    # the constructor's unit rows
            with pytest.raises(BadInputError) as old:
                oracles.scan_facet_pairs(normals / norms[:, None], offsets / norms)
            with pytest.raises(BadInputError) as new:
                gl.HPolytope(normals, offsets)
            assert str(new.value) == str(old.value)

    def test_one_row_blocks_pair_and_raise_as_the_scan(self, monkeypatch):
        monkeypatch.setattr(bodies, "_PAIR_BLOCK", 1)    # each facet in a block of its own
        self.test_facet_pairs_match_the_scan()
        for dim in (2, 3):
            for fault in ("dropped", "turned", "offset", "repeated"):
                self.test_bad_pairings_raise_as_the_scan(dim, fault)

    def test_pairing_runs_in_row_blocks(self):
        # a 4000-gon: one n x n float matrix would be 122 MiB; blocks of 16 rows stay ~2 MiB
        n = 4000
        tracemalloc.start()
        try:
            body = gl.regular_polygon_body(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 32
        assert np.array_equal(body._antipode, (np.arange(n) + n // 2) % n)


def clipped_body(seed, dim, pairs, clip):
    """A seeded H-polytope, redundant facets allowed, with offsets in [0.5, 1.5]: in the
    plane 2 + min(pairs, 37) facet pairs at jittered even angles (no two normals within
    0.1 pi / pairs), in 3d the axis pairs and min(pairs, 9) random ones.  Unless clip is
    None, one pair more cuts a vertex v (and -v) back by clip, along the mean normal u of
    the facets through v (an example is rejected where u repeats a normal): clip 0 puts
    d + 1 facets through v, clip 1.5e-9 leaves near-coincident corners."""
    rng = np.random.default_rng(seed)
    if dim == 2:
        k = 2 + min(pairs, 37)
        ang = (np.arange(k) + rng.uniform(0.05, 0.95, size=k)) * np.pi / k
        n = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        n = np.vstack([np.eye(3), rng.normal(size=(min(pairs, 9), 3))])
        n /= np.linalg.norm(n, axis=1)[:, None]
    h = rng.uniform(0.5, 1.5, size=n.shape[0])
    body = gl.HPolytope(np.vstack([n, -n]), np.concatenate([h, h]))
    if clip is None:
        return body
    verts = oracles.qhull_vertices(body)
    v = verts[rng.integers(len(verts))]
    u = np.sum(body.normals[np.abs(body.normals @ v - body.offsets) <= 1e-9], axis=0)
    u /= np.linalg.norm(u)
    assume(np.max(np.abs(n @ u)) < 1 - 1e-8)   # a facet left out at v may be normal to u
    n, h = np.vstack([n, u]), np.append(h, u @ v - clip)
    return gl.HPolytope(np.vstack([n, -n]), np.concatenate([h, h]))


def assert_qhull_vertices(body):
    """body.vertices, lexsorted, are qhull's within 1e-12, each matched to the nearest:
    degenerate vertices round apart by 1e-16, which can swap lexicographic neighbours."""
    got, want = body.vertices, oracles.qhull_vertices(body)
    assert got.shape == want.shape
    assert np.array_equal(got, got[np.lexsort(got.T[::-1])])
    gap = np.max(np.abs(got[:, None, :] - want[None, :, :]), axis=2)
    assert np.max(np.min(gap, axis=1)) <= 1e-12


class TestVertexEnumeration:
    """The stacked-solve vertex enumeration against qhull's halfspace intersection."""

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           pairs=st.integers(0, 37), clip=st.sampled_from([None, 0.0, 1.5e-9, 1e-6, 0.1]))
    @settings(max_examples=80, deadline=None)
    def test_vertices_match_qhull(self, seed, dim, pairs, clip):
        assert_qhull_vertices(clipped_body(seed, dim, pairs, clip))

    def test_the_largest_bodies_match_qhull(self):
        for body in (gl.regular_polygon_body(80), gl.random_symmetric_polytope(2, 40, 0),
                     gl.random_symmetric_polytope(3, 13, 0), gl.cube_body(3),
                     gl.HPolytope([[a, b, c] for a in (1, -1) for b in (1, -1)
                                   for c in (1, -1)], [1.0] * 8)):   # 4 facets per vertex
            assert_qhull_vertices(body)

    def test_icosahedron_faces_are_the_hull_simplices(self):
        from scipy.spatial import ConvexHull
        t = (1 + 5 ** 0.5) / 2
        verts = np.array([v for a, b in [(1, t), (-1, t), (1, -t), (-1, -t)]
                          for v in [(0, a, b), (a, b, 0), (b, 0, a)]], dtype=float)
        verts /= np.linalg.norm(verts, axis=1)[:, None]
        assert np.array_equal(bodies._ICOSAHEDRON_FACES, ConvexHull(verts).simplices)

    @pytest.mark.parametrize("dim, facets", [(2, 814), (3, 202), (4, 94)])
    def test_work_over_the_cap_refused_before_any_block(self, dim, facets):
        # the smallest facet counts whose C(n, d) * n facet checks pass VERTEX_WORK
        assert math.comb(facets - 2, dim) * (facets - 2) <= bodies.VERTEX_WORK
        assert math.comb(facets, dim) * facets > bodies.VERTEX_WORK
        if dim == 2:
            body = gl.regular_polygon_body(facets)
        else:
            v = np.random.default_rng(3).normal(size=(facets // 2, dim))
            body = gl.HPolytope(np.vstack([v, -v]), np.ones(facets))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="facet checks"):
                body.vertices
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_normals_that_do_not_span_are_unbounded(self):
        body = gl.HPolytope([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                             [0.0, -1.0, 0.0]], [1.0] * 4)
        with pytest.raises(BadInputError, match="unbounded"):
            body.vertices


class TestMeshIsMeasure:
    def test_mesh_is_its_surface_measure(self, circle_mesh):
        assert isinstance(circle_mesh, gl.AtomicMeasure)
        assert circle_mesh.is_symmetric()
        xi = np.random.default_rng(0).normal(scale=20.0, size=(257, 2))
        assert np.array_equal(gl.ft_many(circle_mesh, xi),
                              gl.ft_many(gl.from_mesh(circle_mesh), xi))

    def test_restrict_keeps_class_and_normals(self):
        mesh = gl.triangulate_boundary(gl.cube_body(3), 1500)
        top = mesh.normals[:, 2] > 0.5
        piece = mesh.restrict(top)
        assert type(piece) is gl.AtomicMeasure
        assert np.array_equal(piece.normals, mesh.normals[top])
        assert len(piece) == len(mesh) // 6
        assert piece.total_mass == pytest.approx(4.0, rel=1e-12)    # the top face

    @pytest.mark.parametrize("body, res", [(gl.ball_body(2), 512), (gl.cube_body(2, 0.5), 400),
                                           (gl.cube_body(3), 1500), (gl.ball_body(3), 500)],
                             ids=["disk", "square", "cube3", "ball3"])
    def test_from_mesh_is_the_mesh_or_its_normalized_copy(self, body, res):
        mesh = gl.triangulate_boundary(body, res)
        assert gl.from_mesh(mesh) is mesh
        mu = gl.from_mesh(mesh, normalize=True)
        copied = gl.AtomicMeasure(mesh.positions, mesh.weights, mesh.normals).normalized()
        for field in ("positions", "weights", "normals"):
            assert np.array_equal(getattr(mu, field), getattr(copied, field))

    def test_bad_nodes_rejected(self, monkeypatch):
        # every mesh passes triangulate_boundary's checks; the measure refuses non-finite data
        pos = nrm = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w = np.array([0.5, 0.5])
        body = gl.ball_body(2)

        def mesh_of(*args):
            monkeypatch.setattr(body, "_mesh", lambda resolution: gl.AtomicMeasure(*args))
            return gl.triangulate_boundary(body, 2)

        assert mesh_of(pos, w, nrm).total_mass == 1.0
        bad = {"mesh weights must be nonnegative": (pos, np.array([0.5, -0.5]), nrm),
               "mesh normals must be unit vectors": (pos, w, nrm * 1.01),
               "measure data must be finite": (np.array([[np.nan, 0.0], [-1.0, 0.0]]), w, nrm)}
        for message, args in bad.items():
            with pytest.raises(BadInputError, match=message):
                mesh_of(*args)

    def test_nan_normal_rejected(self):
        pos = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(BadInputError, match="normals must be finite"):
            gl.AtomicMeasure(pos, [0.5, 0.5], [[np.nan, 0.0], [-1.0, 0.0]])


# every body kind in every dimension triangulate_boundary meshes
MESHED_BODIES = {
    "hpolytope1": gl.cube_body(1, 0.3), "hpolytope2": gl.random_symmetric_polytope(2, 5, 0),
    "hpolytope3": gl.random_symmetric_polytope(3, 6, 0),
    "ellipsoid1": gl.Ellipsoid([0.4]), "ellipsoid2": gl.Ellipsoid([1.3, 0.8]),
    "ellipsoid3": gl.Ellipsoid([0.9, 0.7, 0.5]),
    "super1": gl.RadialBody(p=3.0, axes=[0.3]), "super2": gl.RadialBody(p=4.0, axes=[1.0, 0.7]),
    "super3": gl.RadialBody(p=3.5, axes=[0.9, 0.8, 0.7]),
    "tabulated2": gl.RadialBody(radial_samples=1 + 0.2 * np.cos(4 * np.pi * np.arange(64) / 64)),
}


@pytest.mark.parametrize("res", [40, 500, 4096])
@pytest.mark.parametrize("name", MESHED_BODIES)
def test_meshes_are_unit_normal_measures_on_the_boundary(name, res):
    body = MESHED_BODIES[name]
    mesh = gl.triangulate_boundary(body, res)
    assert type(mesh) is gl.AtomicMeasure and mesh.dim == body.dim and len(mesh) > 0
    assert np.all(np.abs(np.linalg.norm(mesh.normals, axis=1) - 1.0) <= 1e-9)
    assert np.all(mesh.weights >= 0)
    assert np.max(np.abs(body.gauge_many(mesh.positions) - 1.0)) <= 1e-9


def polytope_draws(dim, pairs):
    """random_symmetric_polytope(dim, pairs, seed) for seeds 0 and 1, where a draw exists."""
    out = []
    for seed in (0, 1):
        try:
            out.append(gl.random_symmetric_polytope(dim, pairs, seed))
        except BadInputError:
            pass
    return out


def same_mesh(a, b):
    return (np.array_equal(a.positions, b.positions) and np.array_equal(a.normals, b.normals)
            and np.array_equal(a.weights, b.weights))


class TestMeshesAgainstLoops:
    """The array meshes and icosphere against the loops they replaced, bit for bit."""

    @pytest.mark.parametrize("level", range(8))
    def test_icosphere_patches_equal_dict_icosphere(self, level):
        u, area = bodies._icosphere_patches(20 * 4 ** level)
        ref_u, ref_area = oracles.dict_icosphere_patches(20 * 4 ** level)
        assert len(u) == 20 * 4 ** level
        assert np.array_equal(u, ref_u) and np.array_equal(area, ref_area)

    @pytest.mark.parametrize("dim, pairs", [(2, p) for p in range(2, 41)]
                             + [(3, p) for p in range(3, 16)])
    def test_polytope_mesh_equals_loops(self, dim, pairs):
        draws = polytope_draws(dim, pairs)
        assert draws
        for body in draws:
            n = body.n_facets
            for res in (1, n - 1, n, 4 * n - 1, 4 * n, 16 * n + 3, 1000, 5000):
                try:
                    ref = oracles.loop_polytope_mesh(body, res)
                except BadInputError as exc:
                    with pytest.raises(BadInputError) as got:
                        gl.triangulate_boundary(body, res)
                    assert str(got.value) == str(exc)
                    continue
                assert same_mesh(gl.triangulate_boundary(body, res), ref), res

    @pytest.mark.parametrize("body", [
        gl.ball_body(2), gl.Ellipsoid([1.3, 0.8]), gl.RadialBody(p=4.0, axes=[1.0, 0.7]),
        gl.RadialBody(radial_samples=1 + 0.2 * np.cos(4 * np.pi * np.arange(64) / 64)),
        gl.ball_body(3), gl.Ellipsoid([0.9, 0.7, 0.5]),
        gl.RadialBody(p=3.5, axes=[0.9, 0.8, 0.7])],
        ids=["disk", "ellipse", "superellipse", "tabulated", "ball3", "ellipsoid3", "super3"])
    def test_smooth_mesh_nodes_are_the_polar_nodes(self, body):
        for res in (1, 79, 80, 500, 4096):
            u, r, _ = body.polar_nodes(res)
            mesh = gl.triangulate_boundary(body, res)
            assert np.array_equal(mesh.positions, r[:, None] * u)
