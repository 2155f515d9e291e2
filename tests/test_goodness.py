import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugelab as gl
from gaugelab import goodness, measures
from gaugelab.errors import BadInputError, HypothesisViolationError
from gaugelab.measures import _sphere_directions

import oracles


class TestGoodnessProfile:
    def test_origin_point_mass_never_good(self):
        mu = gl.AtomicMeasure([[0.0, 0.0]], [1.0])
        rep = gl.goodness_profile(mu, 5.0, [5.0, 50.0, 500.0], 256)
        assert rep.eps_hat == pytest.approx(1.0, abs=1e-12)

    def test_square_atoms_keep_sup_high(self, square_measure):
        # the +-1 facet atoms contribute cos(2 pi t) along e1: integer shells peak
        rep = gl.goodness_profile(square_measure, 40.0, [40.0, 40.25, 40.5], 4096)
        assert rep.eps_hat >= 0.49

    def test_circle_profile_small_at_20(self, circle_measure):
        rep = gl.goodness_profile(circle_measure, 20.0, [20.0, 40.0, 80.0], 4096)
        assert rep.eps_hat <= 0.07
        # radial profile oracle agrees with the sampled sup at the lowest shell
        oracle = abs(oracles.circle_transform(20.0))
        assert rep.shell_sups[0] == pytest.approx(oracle, abs=1e-5)

    def test_eps_hat_bounded_by_mass(self, circle_measure):
        rep = gl.goodness_profile(circle_measure, 1.0, [1.0, 2.0], 512)
        assert rep.eps_hat <= circle_measure.abs_mass

    def test_certified_error_formula(self, circle_measure):
        rep = gl.goodness_profile(circle_measure, 10.0, [10.0, 20.0], 1000)
        L = circle_measure.lipschitz_bound
        np.testing.assert_allclose(rep.cert_errors,
                                   L * rep.shell_radii * (2 * np.pi / 1000))

    def test_empty_shells_rejected(self, circle_measure):
        with pytest.raises(BadInputError):
            gl.goodness_profile(circle_measure, 5.0, [])
        with pytest.raises(BadInputError):
            gl.goodness_profile(circle_measure, 5.0, [4.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_radii_that_are_not_finite_rejected(self, circle_measure, value):
        with pytest.raises(BadInputError, match="finite"):
            gl.goodness_profile(circle_measure, 5.0, [5.0, value])
        with pytest.raises(BadInputError, match="finite"):
            gl.goodness_profile(circle_measure, value, [5.0])

    @pytest.mark.parametrize("rho", [1e308, 3e307])
    def test_radii_whose_phase_overflows_rejected(self, circle_measure, rho):
        # 2 pi rho r0 overflows at a finite rho: the ring's order int(z) would raise
        # OverflowError, the dense kernel's phases would turn to NaN
        assert circle_measure._circle_radius is not None
        with pytest.raises(BadInputError, match="overflows"):
            gl.goodness_profile(circle_measure, 5.0, [5.0, rho])
        rng = np.random.default_rng(3)
        off_circle = gl.AtomicMeasure(rng.uniform(-1, 1, (40, 2)), rng.uniform(0.1, 1.0, 40))
        with pytest.raises(BadInputError, match="overflows"):
            gl.goodness_profile(off_circle, 5.0, [rho])

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [0, -5])
    def test_angular_resolution_below_one_rejected(self, dim, n):
        mu = gl.AtomicMeasure([np.full(dim, 0.5)], [1.0])
        with pytest.raises(BadInputError, match="angular resolution"):
            gl.goodness_profile(mu, 5.0, [5.0], n)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [2.5, 1024.5, math.nan, math.inf])
    def test_non_integral_angular_resolution_rejected(self, dim, n):
        # np.arange(2.5) would give 3 directions, reported at the spacing of 2.5
        mu = gl.AtomicMeasure([np.full(dim, 0.5)], [1.0])
        with pytest.raises(BadInputError, match="integral angular resolution"):
            gl.goodness_profile(mu, 5.0, [5.0], n)
        with pytest.raises(BadInputError, match="integral angular resolution"):
            _sphere_directions(dim, n)


class TestHalfRing:
    @pytest.mark.parametrize("dim,n,rows", [(1, 4096, 1), (2, 1000, 500), (2, 999, 999),
                                            (3, 700, 700)])
    def test_sup_over_the_full_ring(self, dim, n, rows, monkeypatch):
        rng = np.random.default_rng(dim * n)
        mu = gl.AtomicMeasure(rng.uniform(-1, 1, size=(300, dim)), rng.uniform(-1, 1, size=300))
        shells = np.array([3.0, 40.0, 250.0])
        evaluated = []
        dense_rows = measures._dense_rows
        monkeypatch.setattr(measures, "_dense_rows", lambda pos, w, freqs:
                            evaluated.append(len(freqs)) or dense_rows(pos, w, freqs))
        rep = gl.goodness_profile(mu, 3.0, shells, n)
        assert evaluated == [rows] * len(shells)
        etas, spacing = _sphere_directions(dim, n)
        np.testing.assert_array_equal(rep.cert_errors, mu.lipschitz_bound * shells * spacing)
        for rho, sup in zip(shells, rep.shell_sups):
            # ft(-xi) = conj ft(xi) holds to the last bit, so the half ring loses nothing
            half = len(etas) // 2 if rows < len(etas) else 0
            direct = np.concatenate([gl.ft_many(mu, rho * etas[:half]),
                                     gl.ft_many(mu, rho * etas[half:])])
            assert sup == np.max(np.abs(direct))
            dense = np.abs(oracles.dense_expsum(mu.positions, mu.weights, rho * etas))
            bound = 16 * np.finfo(float).eps * (1 + 2 * np.pi * rho * mu.support_radius)
            assert abs(sup - np.max(dense)) <= bound * mu.abs_mass

    @pytest.mark.parametrize("n", [8, 1000, 16384])
    def test_even_circle_grid_negates_its_first_half(self, n):
        etas, spacing = _sphere_directions(2, n)
        np.testing.assert_array_equal(etas[n // 2:], -etas[:n // 2])
        ang = np.arange(n) * 2 * np.pi / n
        np.testing.assert_allclose(etas, np.stack([np.cos(ang), np.sin(ang)], axis=1),
                                   rtol=0, atol=1e-15)
        assert spacing == 2 * np.pi / n


class TestConstructGoodMeasure:
    def test_square_two_caps(self, unit_square, square_mesh):
        caps = gl.CapFamily(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.1)
        mu = gl.construct_good_measure(unit_square, square_mesh, caps)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
        pieces = oracles.cap_pieces(mu, caps)
        for piece in pieces:
            assert piece.total_mass == pytest.approx(0.5, abs=1e-12)
            # each piece sits on a single facet: transform bounded by its mass
            rng = np.random.default_rng(0)
            vals = gl.ft_many(piece, rng.normal(scale=30, size=(64, 2)))
            assert np.all(np.abs(vals) <= 0.5 + 1e-12)

    def test_circle_five_caps_bookkeeping(self, five_cap_measure, five_caps):
        assert five_cap_measure.total_mass == pytest.approx(1.0, abs=1e-12)
        for piece in oracles.cap_pieces(five_cap_measure, five_caps):
            assert piece.total_mass == pytest.approx(0.2, abs=1e-12)
            dist = gl.geodesic_distance(piece.normals,
                                        piece.normals[np.zeros(len(piece), dtype=int)])
            assert np.all(dist < 2 * five_caps.r_cap)

    def test_goodness_target_at_stabilized_cutoff(self, five_cap_measure):
        R, report = gl.stabilized_goodness(five_cap_measure, 0.05,
                                           angular_resolution=8192)
        assert report.eps_hat <= 1.0 / 5 + 0.05

    def test_sphere_caps_in_three_dimensions(self):
        ball = gl.ball_body(3)
        mesh = gl.triangulate_boundary(ball, 20480)
        dirs = np.array([[0.0, 0.0, 1.0], [0.9, 0.0, 0.436],
                         [-0.45, 0.78, 0.436], [-0.45, -0.78, 0.436]])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        caps = gl.CapFamily(dirs, 0.15)
        mu = gl.construct_good_measure(ball, mesh, caps)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
        for piece in oracles.cap_pieces(mu, caps):
            assert piece.total_mass == pytest.approx(0.25, abs=1e-12)
        rep = gl.goodness_profile(mu, 40.0, [40.0, 60.0], 4096)
        assert rep.eps_hat <= 0.25 + 0.05

    def test_zero_mass_cap_fails_by_name(self, unit_square, square_mesh):
        diag = np.array([[1.0, 1.0]]) / math.sqrt(2)
        caps = gl.CapFamily(diag, 0.1)
        with pytest.raises(HypothesisViolationError, match="cap 0"):
            gl.construct_good_measure(unit_square, square_mesh, caps)

    def test_cross_term_bound_away_from_caps(self, five_cap_measure, five_caps):
        # per-cap transforms fall below delta/(N-1) for directions at geodesic
        # distance >= delta0/10 from every cap and its antipode, for |xi| >= 800
        delta = 0.05
        target = delta / (len(five_caps) - 1)
        n_ang = 8192
        phis = np.arange(n_ang) * 2 * np.pi / n_ang
        etas = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        centers = np.vstack([five_caps.directions, -five_caps.directions])
        dist = np.min(np.arccos(np.clip(etas @ centers.T, -1, 1)), axis=1) - five_caps.r_cap
        admissible = etas[dist >= five_caps.delta0 / 10]
        assert admissible.shape[0] > 1000
        for rho in (800.0, 1600.0, 2400.0):
            for piece in oracles.cap_pieces(five_cap_measure, five_caps):
                vals = np.abs(gl.ft_many(piece, rho * admissible))
                assert np.max(vals) <= target


class TestPolytopeAudit:
    def test_square_uniform(self, unit_square, square_measure):
        res = gl.polytope_bound_audit(unit_square, square_measure, 200.0)
        assert res.n_directions == 2
        assert res.best_pair_mass == pytest.approx(0.5, abs=1e-12)
        assert res.wiener_value == pytest.approx(0.125, rel=0.05)
        assert res.wiener_sqrt >= 1.0 / (2 * math.sqrt(2)) - 0.02
        assert res.passed

    def test_square_concentrated_left_right(self, unit_square, square_mesh):
        on_lr = np.abs(np.abs(square_mesh.positions[:, 0]) - 1.0) < 1e-12
        mu = gl.from_mesh(square_mesh.restrict(on_lr), normalize=True)
        res = gl.polytope_bound_audit(unit_square, mu, 200.0)
        assert res.best_pair_mass == pytest.approx(1.0, abs=1e-12)
        assert res.wiener_value == pytest.approx(0.5, rel=0.02)
        assert res.wiener_sqrt == pytest.approx(1 / math.sqrt(2), abs=0.01)

    def test_hexagon_uniform(self):
        body = gl.regular_polygon_body(6)
        mu = gl.from_mesh(gl.triangulate_boundary(body, 1200), normalize=True)
        res = gl.polytope_bound_audit(body, mu, 200.0)
        assert res.n_directions == 3
        assert res.best_pair_mass == pytest.approx(1.0 / 3, abs=1e-9)
        assert res.wiener_sqrt >= 1.0 / (3 * math.sqrt(2)) - 0.01
        assert res.passed

    @given(seed=st.integers(0, 2 ** 31 - 1), dim=st.integers(2, 3), pairs=st.integers(3, 7),
           resolution=st.sampled_from([64, 256, 1024]), tilts=st.integers(0, 8),
           normals=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_facet_pair_masses_match_the_geodesic_scan(self, seed, dim, pairs, resolution,
                                                        tilts, normals):
        # random polytopes and their meshes, some node normals turned off a facet normal by
        # 0.99e-6 or 1.01e-6 radians: just inside and just outside the audit's angle
        body = gl.random_symmetric_polytope(dim, pairs, seed=seed)
        mesh = gl.triangulate_boundary(body, resolution)
        rng = np.random.default_rng(seed)
        nrm = np.array(mesh.normals)
        thetas = np.array([theta for theta, _ in body.facet_pairs()])
        for node in rng.choice(len(mesh), size=min(tilts, len(mesh)), replace=False):
            theta = thetas[rng.integers(len(thetas))] * rng.choice([-1.0, 1.0])
            side = rng.normal(size=dim)
            side -= (side @ theta) * theta
            angle = goodness.AUDIT_NORMAL_TOL * rng.choice([0.99, 1.01])
            nrm[node] = math.cos(angle) * theta + math.sin(angle) * side / np.linalg.norm(side)
        mu = gl.AtomicMeasure(mesh.positions, rng.uniform(0.05, 1.0, len(mesh)),
                              nrm if normals else None)
        got = goodness._facet_pair_masses(body, mu)
        np.testing.assert_array_equal(got, oracles.geodesic_pair_masses(body, mu))
        res = gl.polytope_bound_audit(body, mu, 2.0)
        assert res.best_pair_mass == np.max(got) and res.n_directions == len(got)

    def test_tilted_normals_count_inside_the_angle_only(self, unit_square, square_mesh):
        # one node of the right facet turned by 0.99e-6, another by 1.01e-6
        nrm = np.array(square_mesh.normals)
        right = np.flatnonzero(np.abs(square_mesh.positions[:, 0] - 1.0) < 1e-12)[:2]
        for node, angle in zip(right, (0.99e-6, 1.01e-6)):
            nrm[node] = [math.cos(angle), math.sin(angle)]
        mu = gl.AtomicMeasure(square_mesh.positions, square_mesh.weights, nrm)
        got = goodness._facet_pair_masses(unit_square, mu)
        np.testing.assert_array_equal(got, oracles.geodesic_pair_masses(unit_square, mu))
        base = goodness._facet_pair_masses(unit_square, square_mesh)
        assert got[0] == pytest.approx(base[0] - square_mesh.weights[right[1]], abs=1e-15)

    def test_normals_that_are_not_unit_rejected(self, unit_square, square_mesh):
        mu = gl.AtomicMeasure(square_mesh.positions, square_mesh.weights,
                              1.01 * square_mesh.normals)
        with pytest.raises(BadInputError, match="unit vectors"):
            gl.polytope_bound_audit(unit_square, mu, 10.0)

    def test_off_boundary_measure_rejected(self, unit_square):
        mu = gl.AtomicMeasure([[0.2, 0.2]], [1.0])
        with pytest.raises(HypothesisViolationError):
            gl.polytope_bound_audit(unit_square, mu, 10.0)

    def test_random_measures_respect_goodness_floor(self, unit_square):
        # seeded family: sampled shell sups stay above 1/(sqrt(2) N) - 2 err
        mesh = gl.triangulate_boundary(unit_square, 256)
        rng = np.random.default_rng(2024)
        floor = 1.0 / (math.sqrt(2) * 2)
        shells = 5.0 + np.arange(5) / 8.0
        for _ in range(20):
            w = rng.uniform(0.05, 1.0, size=len(mesh))
            mu = gl.AtomicMeasure(mesh.positions, w / w.sum(), mesh.normals)
            rep = gl.goodness_profile(mu, 5.0, shells, 4096)
            assert rep.eps_hat >= floor - 2 * float(np.max(rep.cert_errors))
