import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugelab as gl
from gaugelab import distances
from gaugelab.errors import BadInputError, BudgetExceededError, HypothesisViolationError
from gaugelab.spectra import _chi_hat_polar

import oracles


def bisect_oracle_zero(fn, lo, hi, iters=60):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) < 0:
            hi = mid
        else:
            lo, flo = mid, fn(mid)
    return 0.5 * (lo + hi)


class TestChiHat:
    def test_interval_zeros_at_half_integers(self):
        interval = gl.cube_body(1, 1.0)
        for k in (1, 2, 3, 7):
            assert gl.chi_hat(interval, [k / 2]) == pytest.approx(0.0, abs=1e-14)
        assert gl.chi_hat(interval, [0.0]) == pytest.approx(2.0, abs=1e-14)

    def test_square_product_zero_line(self, unit_square):
        for y in (0.0, 0.37, 2.2):
            assert gl.chi_hat(unit_square, [0.5, y]) == pytest.approx(0.0, abs=1e-14)

    def test_disk_first_zero_matches_quadrature_oracle(self, unit_disk):
        oracle_zero = bisect_oracle_zero(oracles.disk_profile_quadrature, 0.5, 0.7)
        assert oracle_zero == pytest.approx(0.609835, abs=1e-4)
        assert gl.chi_hat(unit_disk, [oracle_zero, 0.0]) == pytest.approx(0.0, abs=1e-6)

    def test_volume_at_zero_closed_forms(self, unit_disk, unit_square):
        assert gl.chi_hat(unit_square, [0.0, 0.0]) == pytest.approx(4.0, abs=1e-12)
        assert gl.chi_hat(unit_disk, [0.0, 0.0]) == pytest.approx(math.pi, abs=1e-12)
        ball3 = gl.ball_body(3)
        assert gl.chi_hat(ball3, np.zeros(3)) == pytest.approx(4 * math.pi / 3, abs=1e-12)
        ell = gl.Ellipsoid([1.5, 0.5])
        assert gl.chi_hat(ell, [0.0, 0.0]) == pytest.approx(0.75 * math.pi, abs=1e-12)

    def test_volume_at_zero_angular_quadrature(self):
        hexagon = gl.regular_polygon_body(6)
        assert gl.chi_hat(hexagon, [0.0, 0.0]) == pytest.approx(
            3 * math.sqrt(3) / 2, abs=1e-6)
        se = gl.RadialBody(p=3, axes=[1.0, 1.0])
        from scipy.special import gamma
        exact = 4 * gamma(4 / 3) ** 2 / gamma(5 / 3)
        assert gl.chi_hat(se, [0.0, 0.0]) == pytest.approx(exact, abs=1e-6)

    def test_even_in_frequency(self, unit_disk):
        hexagon = gl.regular_polygon_body(6)
        rng = np.random.default_rng(8)
        for body in (unit_disk, hexagon):
            for xi in rng.normal(size=(6, 2)):
                assert gl.chi_hat(body, xi) == gl.chi_hat(body, -xi)

    def test_polar_matches_closed_form_on_disk(self, unit_disk):
        # run the generic angular quadrature on a ball-shaped radial body
        roundish = gl.RadialBody(p=2, axes=[1.0, 1.0])
        for r in (0.3, 1.7, 4.4):
            assert gl.chi_hat(roundish, [r, 0.0]) == pytest.approx(
                gl.chi_hat(unit_disk, [r, 0.0]), abs=1e-9)

    def test_polar_matches_closed_forms_in_three_dimensions(self):
        roundish = gl.RadialBody(p=2, axes=[1.0, 1.0, 1.0])
        ball = gl.ball_body(3)
        assert _chi_hat_polar(roundish, np.zeros((1, 3)), 40_000)[0] == pytest.approx(
            gl.chi_hat(ball, np.zeros(3)), abs=1e-12)
        for r, tol in ((0.4, 1e-6), (1.3, 1e-4)):
            assert _chi_hat_polar(roundish, np.array([[r, 0.0, 0.0]]), 40_000)[0] == pytest.approx(
                gl.chi_hat(ball, [r, 0.0, 0.0]), abs=tol)
        cube = gl.cube_body(3, 0.7)
        xi = np.array([0.3, 0.2, -0.1])
        assert _chi_hat_polar(cube, xi[None, :], 81_920)[0] == pytest.approx(
            gl.chi_hat(cube, xi), abs=1e-4)


class TestRadialProfiles:
    """Along e1, chi_hat_many meets the closed radial profiles of the interval and the balls."""

    R = np.linspace(0.01, 12.0, 2400)

    def along_e1(self, body):
        return gl.chi_hat_many(body, np.outer(self.R, np.eye(body.dim)[0]))

    def test_interval_bitwise(self):
        for a in (0.8, 1.0, 0.35):
            got = self.along_e1(gl.cube_body(1, a))
            assert np.array_equal(got, oracles.interval_profile(a, self.R))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unit_balls_bitwise(self, d):
        assert np.array_equal(self.along_e1(gl.ball_body(d)), oracles.ball_profile(1.0, d, self.R))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_balls_of_radius_07_keep_every_sign(self, d):
        got, ref = self.along_e1(gl.Ellipsoid([0.7] * d)), oracles.ball_profile(0.7, d, self.R)
        assert np.array_equal(np.sign(got), np.sign(ref))
        assert np.any(got < 0) and np.any(got > 0)

    @pytest.mark.parametrize("body, Xi", [
        (gl.cube_body(2, 0.5), [[0.3]]), (gl.regular_polygon_body(6), [[0.3, 0.1, 0.2]]),
        (gl.ball_body(3), np.ones((4, 2))), (gl.cube_body(1, 1.0), np.ones((2, 2, 1))),
        (gl.RadialBody(p=3, axes=[1.0, 0.7]), [[0.3, 0.1, 0.2]])])
    def test_rows_of_another_dimension_are_refused(self, body, Xi):
        with pytest.raises(BadInputError, match="body's dimension"):
            gl.chi_hat_many(body, Xi)
        with pytest.raises(BadInputError, match="body's dimension"):
            gl.chi_hat(body, np.ones(body.dim + 1))


class TestPolarNodesOncePerBody:
    BODIES = (gl.regular_polygon_body(6), gl.random_symmetric_polytope(2, 6, seed=3),
              gl.RadialBody(p=3, axes=[1.0, 0.7, 0.5]))

    @pytest.mark.parametrize("body", BODIES)
    def test_many_equals_rows_and_fresh_nodes(self, body):
        rng = np.random.default_rng(body.dim)
        Xi = rng.normal(scale=3.0, size=(150, body.dim))
        many = gl.chi_hat_many(body, Xi)
        rows = np.array([gl.chi_hat(body, xi) for xi in Xi])
        np.testing.assert_allclose(many, rows, rtol=0, atol=1e-14)
        # The polygons take the edge sum, so the quadrature is called by name.  The oracle
        # rebuilds the nodes and sums in long double; the real slices lose at most a bit
        # or two, so every body meets ~5 ulp of its volume on and off axes.
        polar = _chi_hat_polar(body, Xi, 4096)
        fresh = np.array([oracles.fresh_polar_chi_hat(body, xi, 4096) for xi in Xi])
        np.testing.assert_allclose(polar, fresh, rtol=0, atol=2e-15)
        axis = np.zeros((40, body.dim))
        axis[:, 0] = np.linspace(0.5, 6.0, 40)
        fresh = np.array([oracles.fresh_polar_chi_hat(body, xi, 4096) for xi in axis])
        np.testing.assert_allclose(_chi_hat_polar(body, axis, 4096), fresh, rtol=0, atol=1e-14)

    def test_nodes_built_once_per_resolution(self):
        body = gl.RadialBody(p=3, axes=[1.0, 0.7])  # polygons no longer use polar nodes
        calls = []
        gauge = body.gauge_many
        body.gauge_many = lambda X: calls.append(len(X)) or gauge(X)
        gl.chi_hat_many(body, np.ones((300, 2)))
        gl.chi_hat(body, [0.5, 0.5])
        _chi_hat_polar(body, np.array([[0.5, 0.5]]), 1024)
        assert calls == [4096, 1024]
        assert body.polar_nodes(4096)[0] is body.polar_nodes(4096)[0]

    @pytest.mark.parametrize("body", BODIES[:2])
    def test_zero_scan_unchanged(self, body, monkeypatch):
        import gaugelab.spectra as spectra
        monkeypatch.setattr(spectra, "chi_hat_many", _chi_hat_polar)  # not the edge sum
        ledger = gl.radial_zero_scan(body, (0.5, 6.0), 400)
        monkeypatch.setattr(spectra, "chi_hat_many", lambda b, Xi: np.array(
            [oracles.fresh_polar_chi_hat(b, xi) for xi in Xi]))
        before = gl.radial_zero_scan(body, (0.5, 6.0), 400)
        assert len(ledger.zeros) == len(before.zeros) > 0
        np.testing.assert_allclose(ledger.zeros, before.zeros, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(ledger.brackets, before.brackets)

    @pytest.mark.parametrize("body", BODIES[:2] + (gl.ball_body(2), gl.cube_body(1, 1.0)))
    def test_lockstep_bisection_equals_one_bracket_at_a_time(self, body, monkeypatch):
        ledger = gl.radial_zero_scan(body, (0.5, 6.0), 400)
        import gaugelab.spectra as spectra
        many = spectra.chi_hat_many
        # one row per call: every bracket then steps on its own
        monkeypatch.setattr(spectra, "chi_hat_many", lambda b, Xi: np.concatenate(
            [many(b, xi[None, :]) for xi in Xi]))
        alone = gl.radial_zero_scan(body, (0.5, 6.0), 400)
        assert len(ledger.zeros) > 0
        np.testing.assert_array_equal(ledger.zeros, alone.zeros)
        np.testing.assert_array_equal(ledger.brackets, alone.brackets)

    def test_profile_calls_per_scan(self, monkeypatch):
        import gaugelab.spectra as spectra
        many = spectra.chi_hat_many
        bodies = [gl.regular_polygon_body(6), gl.cube_body(2, 0.5)]
        bodies += [gl.random_symmetric_polytope(2, 6, seed) for seed in (1, 2, 3, 4)]
        for body in bodies:
            calls = []
            monkeypatch.setattr(spectra, "chi_hat_many",
                                lambda b, Xi: calls.append(len(Xi)) or many(b, Xi))
            ledger = gl.radial_zero_scan(body, (0.5, 6.0), 400)
            # the grid, then one call per false-position step for all live brackets
            # together; every bracket here ends within 5 steps, and 6 are allowed
            assert calls[0] == 400 and max(calls[1:]) == len(ledger.zeros) > 0
            assert len(calls) <= 1 + 6


class TestRadialSlices:
    """The real radial slices against the long-double oracle, |c| a from 0 to 1e3."""

    X = np.concatenate([[0.0], 10.0 ** np.arange(-8.0, 3.5, 0.5),
                        np.linspace(0.0, 3.0, 3001)[1:]])

    @pytest.mark.parametrize("dim", (2, 3))
    def test_slices_match_long_double(self, dim):
        from gaugelab.spectra import _radial_slice_1, _radial_slice_2
        rng = np.random.default_rng(dim)
        q = np.concatenate([self.X, -self.X, 10.0 ** rng.uniform(-8, 3, 20_000)]) / (2 * np.pi)
        a = rng.uniform(0.2, 1.5, q.size)
        got = (_radial_slice_1 if dim == 2 else _radial_slice_2)(q)
        # the oracle's phase c a equals 2 pi q to long-double precision
        c = np.longdouble(2 * np.pi) * q.astype(np.longdouble) / a
        want = oracles.longdouble_radial_slice(dim, a, c) / a.astype(np.longdouble) ** dim
        assert got[0] == 1 / dim  # c = 0: chi_hat at the origin is the volume
        ulps = np.abs(got - want.astype(float)) / np.spacing(1 / dim)
        assert np.max(ulps) <= (1.5 if dim == 2 else 3.5)

    @pytest.mark.parametrize("body", TestPolarNodesOncePerBody.BODIES)
    def test_origin_is_the_volume(self, body):
        u, r, wts = body.polar_nodes(4096)
        at_zero = _chi_hat_polar(body, np.zeros((1, body.dim)), 4096)[0]
        assert at_zero == pytest.approx(float(np.sum(wts * r ** body.dim)) / body.dim, rel=1e-15)
        assert at_zero == pytest.approx(
            oracles.fresh_polar_chi_hat(body, np.zeros(body.dim), 4096), abs=1e-15)


def rotated_rectangle(angle, widths):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, s], [-s, c]])  # rows: the rectangle's unit axes
    return gl.HPolytope(np.vstack([rot, -rot]), np.r_[widths, widths]), rot


class TestPolygonEdgeSum:
    """chi_hat of a polygon, the divergence-theorem edge sum, against independent values."""

    POLYGONS = (gl.regular_polygon_body(6), gl.random_symmetric_polytope(2, 2, seed=3),
                gl.random_symmetric_polytope(2, 6, seed=3), gl.random_symmetric_polytope(2, 40, seed=5))

    @pytest.mark.parametrize("angle", (0.3, 1.1, 2.0, 2.9))
    def test_rotated_rectangles_equal_the_sinc_product(self, angle):
        widths = np.array([0.7, 0.4])
        body, rot = rotated_rectangle(angle, widths)
        Xi = np.random.default_rng(7).normal(scale=3.0, size=(2000, 2))
        want = np.prod(2 * widths * np.sinc(2 * widths * (Xi @ rot.T)), axis=1)
        got = gl.chi_hat_many(body, Xi)
        assert np.max(np.abs(got - want)) <= 3 * np.spacing(4 * np.prod(widths))

    @pytest.mark.parametrize("offset", (10.0, math.sqrt(2)))
    def test_redundant_facets_add_nothing(self, offset):
        # A diagonal pair clear of the square, or through two of its corners: no boundary.
        d = np.array([[1.0, 1.0]]) / math.sqrt(2)
        body = gl.HPolytope(np.vstack([np.eye(2), d, -np.eye(2), -d]), [1.0, 1.0, offset] * 2)
        Xi = np.random.default_rng(7).normal(scale=3.0, size=(2000, 2))
        want = np.prod(2 * np.sinc(2 * Xi), axis=1)
        assert np.max(np.abs(gl.chi_hat_many(body, Xi) - want)) <= 3 * np.spacing(4.0)
        assert gl.chi_hat(body, [0.0, 0.0]) == 4.0
        np.testing.assert_array_equal(gl.radial_zero_scan(body, (0.2, 3.0), 400).zeros,
                                      gl.radial_zero_scan(gl.cube_body(2, 1.0), (0.2, 3.0), 400).zeros)
        with pytest.raises(BadInputError, match="facet 2 is redundant"):
            gl.triangulate_boundary(body, 64)  # the mesh still refuses it

    def test_edges_end_at_the_extreme_vertices(self):
        # Clipping the corner (2, -1) of [-2, 2] x [-1, 1] by 1.5e-9 leaves three vertices
        # within VERTEX_TOL of the facet x = 2, the first two in lexicographic order 1.5e-9
        # apart.  The edge runs between the outer two, so chi_hat stays the rectangle's
        # up to the clip; the first two would drop the whole edge.
        n = np.array([[1.0, 0.0], [0.0, 1.0], [1 / math.sqrt(2), -1 / math.sqrt(2)]])
        body = gl.HPolytope(np.vstack([n, -n]), [2.0, 1.0, (3 - 1.5e-9) / math.sqrt(2)] * 2)
        assert len(body._facet_vertices(0)) == 3
        Xi = np.random.default_rng(7).normal(scale=3.0, size=(2000, 2))
        want = np.prod([4.0, 2.0] * np.sinc([4.0, 2.0] * Xi), axis=1)
        assert np.max(np.abs(gl.chi_hat_many(body, Xi) - want)) <= 1e-8

    @pytest.mark.parametrize("body", POLYGONS)
    def test_quadrature_converges_to_it(self, body):
        # The quadrature's error falls as the square of the angle step: 1.9-6.3e-7 at
        # 4096 nodes on these polygons, 0.8-4.3e-9 at 65536.
        Xi = np.random.default_rng(9).normal(scale=3.0, size=(200, 2))
        exact = gl.chi_hat_many(body, Xi)
        coarse, fine = (np.max(np.abs(_chi_hat_polar(body, Xi, n) - exact)) for n in (4096, 65536))
        assert fine <= 5e-9 and fine <= coarse / 64

    @pytest.mark.parametrize("body", POLYGONS)
    def test_long_double_from_small_frequencies_up(self, body):
        rng = np.random.default_rng(11)
        r, ang = 10.0 ** rng.uniform(-6, 1.5, 4000), rng.uniform(0, 2 * np.pi, 4000)
        Xi = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        want = oracles.longdouble_polygon_chi_hat(body, Xi).astype(float)
        area = gl.chi_hat(body, [0.0, 0.0])
        assert np.max(np.abs(gl.chi_hat_many(body, Xi) - want)) <= 4 * np.spacing(area)

    @given(pairs=st.integers(2, 40), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_origin_is_the_shoelace_area(self, pairs, seed):
        body = gl.random_symmetric_polytope(2, pairs, seed)
        area = oracles.shoelace_area(body)
        for xi in ([0.0, 0.0], [1e-120, 0.0]):
            assert gl.chi_hat(body, xi) == pytest.approx(area, rel=4e-16)
        assert "_polar_nodes" not in body.__dict__   # the edge sum builds no polar nodes

    def test_hexagon_dual_lattice_is_a_spectrum(self):
        # The hexagon tiles the plane by the lattice of twice its facet offsets along two
        # adjacent normals, so the dual lattice is a spectrum (Fuglede).
        hexagon = gl.regular_polygon_body(6)
        tiles = 2 * hexagon.offsets[:2, None] * hexagon.normals[:2]
        dual = np.linalg.inv(tiles).T
        k = np.stack(np.meshgrid(np.arange(-4, 5), np.arange(-4, 5), indexing="ij"), axis=-1)
        pts = gl.PointSet(k.reshape(-1, 2) @ dual)
        assert gl.orthogonality_residual(pts, hexagon) <= 1e-14

    def test_hexagon_zeros_along_e1(self):
        # along e1 chi_hat is a sum of two sinc-type terms that vanishes at 2k/3, k not 3j
        ledger = gl.radial_zero_scan(gl.regular_polygon_body(6), (0.5, 6.0), 400)
        want = np.array([k for k in range(1, 10) if k % 3]) * 2 / 3
        np.testing.assert_allclose(ledger.zeros, np.r_[want, 6.0], rtol=0, atol=1e-9)
        assert ledger.approximate  # the profile along e1 of a body that is not radial


class TestZeroScan:
    def test_interval_exact_spacing(self):
        led = gl.radial_zero_scan(gl.cube_body(1, 1.0), (0.2, 6.2), 2000)
        expect = np.arange(1, len(led.zeros) + 1) * 0.5
        np.testing.assert_allclose(led.zeros, expect, atol=1e-9)
        np.testing.assert_allclose(led.spacings, 0.5, atol=1e-9)
        assert not led.approximate

    def test_disk_tail_spacing(self, unit_disk):
        led = gl.radial_zero_scan(unit_disk, (0.5, 10.0), 4000)
        assert led.zeros[0] == pytest.approx(0.609835, abs=1e-5) and not led.approximate
        mean, dev = led.tail_spacing()
        assert mean == pytest.approx(0.5, abs=0.01)
        assert dev <= 0.02 * mean

    def test_ball3_tail_spacing(self):
        led = gl.radial_zero_scan(gl.ball_body(3), (0.5, 10.0), 4000)
        mean, dev = led.tail_spacing()
        assert mean == pytest.approx(0.5, abs=0.01)
        assert dev <= 0.02 * mean

    def test_rescaled_phase_offsets_grow_linearly_with_dimension(self):
        # 2 pi z mod pi settles at (d-1) pi/4 for the d-ball profile
        for d, offset in ((1, 0.0), (2, math.pi / 4), (3, math.pi / 2)):
            led = gl.radial_zero_scan(gl.ball_body(d), (0.5, 12.0), 6000)
            ang = np.mod(2 * np.pi * led.zeros[-10:], np.pi) * 2.0
            phase = (math.atan2(np.mean(np.sin(ang)), np.mean(np.cos(ang))) / 2.0) % math.pi
            delta = abs(phase - offset) % math.pi
            assert min(delta, math.pi - delta) < 0.03

    def test_zero_residuals_certified(self, unit_disk):
        led = gl.radial_zero_scan(unit_disk, (0.5, 10.0), 4000)
        vals = [abs(gl.chi_hat(unit_disk, [z, 0.0])) for z in led.zeros]
        assert max(vals) <= 1e-8
        # brackets carry a true sign change
        for (lo, hi) in led.brackets:
            assert gl.chi_hat(unit_disk, [lo, 0.0]) * gl.chi_hat(unit_disk, [hi, 0.0]) < 0

    def test_exact_hit_ends_its_bracket(self, unit_disk, monkeypatch):
        import gaugelab.spectra as spectra
        calls = []
        monkeypatch.setattr(spectra, "chi_hat_many", lambda b, Xi: calls.append(len(Xi)) or (
            np.where(Xi[:, 0] < 1.75, Xi[:, 0] - 1.25, (2.3 - Xi[:, 0]) * (Xi[:, 0] - 0.3))))
        led = gl.radial_zero_scan(unit_disk, (0.5, 2.5), 5)
        # on [1, 1.5] the profile is linear, so the first false-position point is its zero
        # 1.25; the quadratic on [2, 2.5] takes further steps to 2.3
        assert led.zeros[0] == 1.25 and led.zeros[1] == pytest.approx(2.3, abs=1e-10)
        np.testing.assert_array_equal(led.brackets, [[1.0, 1.5], [2.0, 2.5]])
        assert calls == [5, 2, 1, 1, 1, 1, 1, 1]

    # stand-in profiles that are exactly 0 at the grid radius 1.5 of (0.5, 2.5) at 5 steps,
    # with the zeros and brackets a ledger lists
    GRID_ZEROS = {
        "rising": (lambda x: x - 1.5, [1.5], [[1.5, 1.5]]),
        "falling": (lambda x: 1.5 - x, [1.5], [[1.5, 1.5]]),
        "touching": (lambda x: (x - 1.5) ** 2, [], np.empty((0, 2))),
        "after a bracket": (lambda x: (x - 1.5) * (x - 0.8), [0.8, 1.5], [[0.5, 1.0], [1.5, 1.5]]),
    }

    @pytest.mark.parametrize("name", GRID_ZEROS)
    def test_zero_on_a_grid_radius(self, unit_disk, monkeypatch, name):
        # a grid value of exactly 0 between values of opposite signs is a zero with the
        # bracket [r, r], ended without a step; one that touches 0 is not a sign change
        import gaugelab.spectra as spectra
        calls, (f, zeros, brackets) = [], self.GRID_ZEROS[name]
        monkeypatch.setattr(spectra, "chi_hat_many",
                            lambda b, Xi: calls.append(len(Xi)) or f(Xi[:, 0]))
        led = gl.radial_zero_scan(unit_disk, (0.5, 2.5), 5)
        assert calls[0] == 5 and (len(calls) > 1) == (name == "after a bracket")
        oracle_zeros, oracle_brackets = oracles.bisection_zero_scan(unit_disk, (0.5, 2.5), 5)
        for got, got_brackets in ((led.zeros, led.brackets), (oracle_zeros, oracle_brackets)):
            np.testing.assert_array_equal(got_brackets, brackets)
            np.testing.assert_allclose(got, zeros, rtol=0, atol=1e-10)
            assert (1.5 in got) == (name != "touching")

    C = 1.2345678
    STAND_INS = {
        "step": lambda x, c: np.where(x < c, -1.0, 1.0),
        "tanh": lambda x, c: np.tanh(1e8 * (x - c)),
        "cubic": lambda x, c: (x - c) ** 3,
        "ninth": lambda x, c: (x - c) ** 9,
        "flat-left": lambda x, c: np.where(x < c, 1e-12, 1e6) * (x - c),
        "flat-right": lambda x, c: np.where(x < c, 1e6, 1e-12) * (x - c),
    }

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("name", STAND_INS)
    def test_halving_fallback_ends_every_bracket(self, unit_disk, monkeypatch, name, sign):
        # Profiles on which false position alone crawls: flat at the zero, or a slope
        # 1e18 times steeper on one side.  A bracket that has not halved in three steps
        # takes a midpoint step, so each ends within (3 + 1) ceil(log2(0.5 / 1e-10)) steps.
        import gaugelab.spectra as spectra
        calls, f = [], self.STAND_INS[name]
        monkeypatch.setattr(spectra, "chi_hat_many", lambda b, Xi: calls.append(
            len(Xi)) or sign * f(Xi[:, 0], self.C))
        led = gl.radial_zero_scan(unit_disk, (0.5, 2.5), 5)
        np.testing.assert_array_equal(led.brackets, [[1.0, 1.5]])
        assert abs(led.zeros[0] - self.C) <= 1e-10
        assert len(calls) <= 1 + 4 * math.ceil(math.log2(0.5 / 1e-10))

    def test_brackets_that_cannot_narrow_raise_at_the_cap(self, unit_disk, monkeypatch):
        # Above 2**19 adjacent doubles are 1.2e-10 apart, so no bracket narrows to 1e-10:
        # the scan raises after its derived cap instead of returning a wide bracket.
        import gaugelab.spectra as spectra
        calls, c = [], 2.0 ** 19 + self.C
        monkeypatch.setattr(spectra, "chi_hat_many", lambda b, Xi: calls.append(
            len(Xi)) or np.where(Xi[:, 0] < c, -1.0, 1.0))
        with pytest.raises(BudgetExceededError, match="brackets wider than 1e-10 after 133 steps"):
            gl.radial_zero_scan(unit_disk, (2.0 ** 19 + 0.5, 2.0 ** 19 + 2.5), 5)
        assert len(calls) == 1 + 4 * 33 + 1

    @given(pairs=st.integers(2, 12), seed=st.integers(0, 2 ** 16),
           a=st.floats(0.2, 7.0), width=st.floats(0.5, 4.0), steps=st.integers(50, 400))
    @settings(max_examples=40, deadline=None)
    def test_random_polygons_match_the_bisection_oracle(self, pairs, seed, a, width, steps):
        body = gl.random_symmetric_polytope(2, pairs, seed)
        window = (a, min(a + width, 8.0))
        led = gl.radial_zero_scan(body, window, steps)
        zeros, brackets = oracles.bisection_zero_scan(body, window, steps)
        np.testing.assert_array_equal(led.brackets, brackets)
        assert led.zeros.shape == zeros.shape
        np.testing.assert_allclose(led.zeros, zeros, rtol=0, atol=1e-10)
        assert np.all((led.brackets[:, 0] <= led.zeros) & (led.zeros <= led.brackets[:, 1]))

    def test_workload_bodies_match_the_bisection_oracle(self):
        # the polytope benchmark's square, hexagon and eight random hexagons (seed 1)
        rng = np.random.default_rng(1)
        bodies = [gl.cube_body(2, 0.5), gl.regular_polygon_body(6)]
        bodies += [gl.random_symmetric_polytope(2, 6, seed=int(rng.integers(2 ** 31)))
                   for _ in range(8)]
        leds = [gl.radial_zero_scan(body, (0.5, 6.0), 400) for body in bodies]
        for body, led in zip(bodies, leds):
            zeros, brackets = oracles.bisection_zero_scan(body, (0.5, 6.0), 400)
            np.testing.assert_array_equal(led.brackets, brackets)
            np.testing.assert_allclose(led.zeros, zeros, rtol=0, atol=1e-10)
        np.testing.assert_allclose(leds[0].zeros, np.arange(1.0, 6.0), rtol=0, atol=1e-9)

    def test_window_without_zeros(self, unit_disk):
        led = gl.radial_zero_scan(unit_disk, (0.01, 0.5), 500)
        assert led.zeros.size == 0

    def test_near_ball_flagged_approximate(self):
        led = gl.radial_zero_scan(gl.Ellipsoid([1.0, 0.999]), (0.5, 3.0), 600)
        assert led.approximate


def jittered_grid(n):
    """The first n of 34 x 34 integer points each moved by up to 0.2 per axis: off every
    grid, and each alone in its even cube at R = 0.5, so sparsify keeps all of them."""
    k = np.stack(np.meshgrid(np.arange(34), np.arange(34), indexing="ij"), axis=-1).reshape(-1, 2)
    return gl.PointSet(k[:n] + np.random.default_rng(n).uniform(-0.2, 0.2, (n, 2)))


class TestOrthogonality:
    def test_lattice_is_a_cube_spectrum(self, half_cube):
        lat = gl.lattice_points(2, -5, 5)
        assert gl.orthogonality_residual(lat, half_cube) <= 1e-10

    def test_jitter_breaks_orthogonality(self, half_cube):
        rng = np.random.default_rng(3)
        lat = gl.lattice_points(2, -5, 5)
        jit = gl.PointSet(lat.points + rng.normal(0, 0.1, lat.points.shape))
        assert gl.orthogonality_residual(jit, half_cube) > 0.01

    def test_single_point_has_no_pairs(self, half_cube):
        assert gl.orthogonality_residual(gl.PointSet([[0.0, 0.0]]), half_cube) == 0.0

    @pytest.mark.parametrize("case,seed", [("hexagon on Z^2", 0), ("hexagon dual lattice", 0),
                                           ("polygon on Z^2 / 2", 0)]
                             + [("polygon off the grid", seed) for seed in range(4)]
                             + [(case, 0) for case in ("polygon on 1025 points",
                                                       "polygon on 1156 points",
                                                       "box on 1156 points",
                                                       "ellipse on 1156 points")])
    def test_distinct_differences_keep_every_bit(self, case, seed):
        # lag vectors give each difference p_j - p_i, i < j, once, and the pair walk gives
        # every pair block by block; the max over them is the max over every pair, bit for bit
        hexagon, polygon = gl.regular_polygon_body(6), gl.random_symmetric_polytope(2, 7, 5)
        rng = np.random.default_rng(seed)
        tiles = 2 * hexagon.offsets[:2, None] * hexagon.normals[:2]
        k = np.stack(np.meshgrid(np.arange(-4, 5), np.arange(-4, 5), indexing="ij"), axis=-1)
        body, pts, lags = {
            "hexagon on Z^2": (hexagon, gl.lattice_points(2, -12, 12), True),
            "hexagon dual lattice": (hexagon, gl.PointSet(k.reshape(-1, 2)
                                                          @ np.linalg.inv(tiles).T), False),
            "polygon on Z^2 / 2": (polygon, gl.lattice_points(2, -5, 5, 0.5), True),
            "polygon off the grid": (polygon, gl.PointSet(rng.uniform(-6, 6, (200, 2))), False),
            # past 1024 points: 1025 end in a pair block of one point, 1156 in one of 132
            "polygon on 1025 points": (polygon, jittered_grid(1025), False),
            "polygon on 1156 points": (polygon, jittered_grid(1156), False),
            "box on 1156 points": (gl.cube_body(2, 0.5), jittered_grid(1156), False),
            "ellipse on 1156 points": (gl.Ellipsoid([0.9, 0.6]), jittered_grid(1156), False),
        }[case]
        assert (distances._lag_vectors(pts.points) is not None) == lags
        assert (gl.orthogonality_residual(pts, body)
                == oracles.pairwise_orthogonality_residual(pts, body))

    def test_pair_walk_peak_stays_bounded(self):
        import tracemalloc
        hexagon = gl.regular_polygon_body(6)
        pts = gl.PointSet(np.random.default_rng(2).uniform(-30, 30, (1500, 2)))
        tracemalloc.start()
        try:
            gl.orthogonality_residual(pts, hexagon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 << 20   # one 512 x 512 block at a time; all 1.1M at once take ~78 MiB


class TestSpectrumPipeline:
    def test_synthetic_zero_shell_stress_input(self, unit_disk):
        led = gl.radial_zero_scan(unit_disk, (0.5, 6.0), 2400)
        pts = [[0.0, 0.0]]
        for k, z in enumerate(led.zeros):
            ang = 0.7 * k
            pts.append([z * math.cos(ang), z * math.sin(ang)])
        result = gl.spectrum_gap_pipeline(gl.PointSet(pts), unit_disk, 0.05)
        assert len(result.sparsified) > 2
        assert result.report.distances.size > 0
        assert len(result.report.gaps) > 0

    def test_lattice_with_cube_dual_runs(self, half_cube):
        lat = gl.lattice_points(2, -6, 6)
        result = gl.spectrum_gap_pipeline(lat, half_cube, 2.0, ortho_tol=1e-9)
        assert result.residual <= 1e-9
        assert len(result.sparsified) > 0
        # dual distances recomputed directly
        P = result.sparsified.points
        brute = set()
        for i in range(len(P)):
            for j in range(i + 1, len(P)):
                brute.add(round(half_cube.dual_gauge_many([P[i] - P[j]])[0], 9))
        brute.add(0.0)
        assert len(result.report.distances) == len(brute)

    @pytest.mark.parametrize("case", ["hexagon on Z^2", "square on Z^2 / 2", "disk on Z^2",
                                      "polygon off the grid", "cube on Z^3",
                                      "polygon on 1156 points", "box on 1156 points",
                                      "ellipse on 1156 points"])
    def test_report_matches_every_pair(self, case):
        # t_max from the distinct differences equals the max over all n^2 of them
        rng = np.random.default_rng(8)
        body, pts, R = {
            "hexagon on Z^2": (gl.regular_polygon_body(6), gl.lattice_points(2, -20, 20), 0.5),
            "square on Z^2 / 2": (gl.cube_body(2, 0.5), gl.lattice_points(2, -6, 6, 0.5), 1.0),
            "disk on Z^2": (gl.ball_body(2), gl.lattice_points(2, -9, 9), 2.0),
            "polygon off the grid": (gl.random_symmetric_polytope(2, 7, 5),
                                     gl.PointSet(rng.uniform(-9, 9, (400, 2))), 0.7),
            "cube on Z^3": (gl.cube_body(3, 0.5), gl.lattice_points(3, -4, 4), 1.0),
            # all 1156 kept, so the dual gauge walks pair blocks of 512 points
            "polygon on 1156 points": (gl.random_symmetric_polytope(2, 7, 5),
                                       jittered_grid(1156), 0.5),
            "box on 1156 points": (gl.cube_body(2, 0.5), jittered_grid(1156), 0.5),
            "ellipse on 1156 points": (gl.Ellipsoid([0.9, 0.6]), jittered_grid(1156), 0.5),
        }[case]
        got = gl.spectrum_gap_pipeline(pts, body, R).report
        want = oracles.all_pairs_spectrum_report(pts, body, R)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.gaps == want.gaps
        assert (got.t0, got.t_max, got.merge_tol) == (want.t0, want.t_max, want.merge_tol)

    def test_orthogonality_gate(self, half_cube):
        rng = np.random.default_rng(4)
        pts = gl.PointSet(rng.uniform(-5, 5, size=(30, 2)))
        with pytest.raises(HypothesisViolationError):
            gl.spectrum_gap_pipeline(pts, half_cube, 1.0, ortho_tol=1e-9)

    def test_empty_after_sparsify(self, half_cube):
        pts = gl.PointSet([[2.0, 0.0], [0.0, 2.0]])  # both in odd cubes for R=2
        result = gl.spectrum_gap_pipeline(pts, half_cube, 2.0)
        assert len(result.sparsified) == 0
        assert result.report.distances.size == 0
        assert result.report.gaps == []


def test_import_leaves_scipy_spatial_and_special_unloaded():
    # scipy.special loads on the first ball_indicator_profile call, and only then
    code = ("import json, sys, gaugelab\n"
            "loaded = [m for m in sys.modules if m.split('.')[:2] in (['scipy', 'spatial'],"
            " ['scipy', 'special'])]\n"
            "print(json.dumps(loaded))\n"
            "print(json.dumps(gaugelab.ball_indicator_profile(2, [0.0, 0.3, 2.5]).tolist()))\n"
            "print('scipy.special' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(gl.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, profile, special_after = proc.stdout.splitlines()
    assert json.loads(loaded) == []
    assert json.loads(profile) == gl.ball_indicator_profile(2, [0.0, 0.3, 2.5]).tolist()
    assert special_after == "True"
