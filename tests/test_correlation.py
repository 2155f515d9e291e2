import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import gaugelab as gl
from gaugelab import correlation
from gaugelab.correlation import _PAD, SPECTRUM_BUDGET_BYTES, _power_table, _sigma_hat_on_grid
from gaugelab.errors import BadInputError, BudgetExceededError
from gaugelab.measures import _jacobi_anger_order

import oracles

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def circle_sigma(unit_disk):
    return gl.from_mesh(gl.triangulate_boundary(unit_disk, 512), normalize=True)


@pytest.fixture(scope="module")
def tilted_circle_sigma(circle_sigma):
    """The 512-atom disk measure with one mirror pair's weights moved by 1e-6: still
    symmetric, and no longer isotropic."""
    w = circle_sigma.weights.copy()
    i, j = circle_sigma._pairs_up()
    w[[i[0], j[0]]] += 1e-6
    return gl.AtomicMeasure(circle_sigma.positions, w)


def gemm_split(f, sigma, t, delta):
    """split_integrals through _sigma_hat_on_grid at every half-grid point, the path of every
    measure that is not isotropic."""
    power, radii, total_power, tail_power = f._power_spectrum()
    shat, residue = _sigma_hat_on_grid(sigma, t, _PAD * f.m, f.h, f.dim)
    vals = shat.ravel()[correlation._radius_order(f.dim, f.m)[0]] * power
    i1, i2, i3 = (float(np.sum(v)) for v in np.split(vals, correlation._band_cuts(radii, t, delta)))
    return gl.SplitResult(float(t), float(delta), i1, i2, i3, i1 + i2 + i3,
                          residue * total_power + tail_power * sigma.abs_mass)


@pytest.fixture(scope="module")
def blob_set():
    return oracles.indicator_from_balls(2, 256, [[-0.4, 0.0], [0.4, 0.0]], [0.1, 0.1])


class TestConstants:
    def test_dimension_two_values(self):
        c = gl.BourgainConstants(2)
        assert c.omega_d == pytest.approx(math.pi, abs=1e-15)
        assert c.i1_constant == pytest.approx(1.0 / (128 * math.pi), rel=1e-12)
        assert c.i1_constant == pytest.approx(2.4868e-3, rel=1e-4)
        assert c.positivity_constant == pytest.approx(1.0 / (640 * math.pi), rel=1e-12)
        assert c.positivity_constant == pytest.approx(4.97e-4, rel=1e-3)

    def test_eta_proportional_to_theta(self):
        for d in (1, 2, 3):
            c = gl.BourgainConstants(d)
            for eps in (0.1, 0.5, 0.9):
                assert c.eta(eps) / eps == pytest.approx(c.theta, rel=1e-12)
            assert c.theta > 0 and c.i1_constant > 0 and c.positivity_constant > 0

    def test_three_dimensional_ball_volume(self):
        assert gl.BourgainConstants(3).omega_d == pytest.approx(4 * math.pi / 3, rel=1e-12)


class TestLacunaryPlan:
    def test_geometric_plan_validates(self):
        plan = gl.LacunaryPlan.geometric(0.05, 20.0, d=2, eps=0.9)
        assert plan.t[0] < 1 and np.all(plan.t[1:] <= plan.t[:-1] / 2 * (1 + 1e-12))
        assert plan.t[plan.j0_index] <= 4 * math.pi / plan.R
        assert plan.j_bound > plan.j0_index

    def test_exact_halving_allowed(self):
        t = 2.0 ** -np.arange(1, 30)
        plan = gl.LacunaryPlan(t, 0.1, 10.0)
        assert len(plan) == 29

    def test_slow_sequences_rejected(self):
        with pytest.raises(BadInputError):
            gl.LacunaryPlan([0.5, 0.3], 0.1, 10.0)

    def test_delta_vs_R_hypothesis(self):
        with pytest.raises(BadInputError):
            gl.LacunaryPlan([0.5, 0.2], 0.2, 10.0)  # delta > 1/R


class TestPigeonhole:
    def _plan(self, delta=0.1):
        return gl.LacunaryPlan(2.0 ** -np.arange(1, 61), delta, 1.0 / delta)

    def test_counts_within_band_range(self):
        plan = self._plan()
        bound = 2 / math.log(2) * math.log(10)
        rng = np.random.default_rng(70)
        xs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 10_000))
        counts = [gl.pigeonhole_count(x, plan) for x in xs]
        assert max(counts) <= 6
        assert max(counts) <= bound

    def test_ceiling_bound_on_wide_range(self):
        plan = self._plan()
        rng = np.random.default_rng(71)
        xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 5000))
        cap = math.ceil(2 / math.log(2) * math.log(1 / 0.1))
        assert all(gl.pigeonhole_count(x, plan) <= cap for x in xs)
        # the +1 case is real: a power of two in mid-range meets 7 bands
        assert gl.pigeonhole_count(16.0, plan) == cap == 7

    def test_near_one_delta_counts_vanish(self):
        plan = self._plan(delta=0.999)
        assert gl.pigeonhole_count(3.0, plan) == 0

    def test_band_endpoints_excluded(self):
        plan = self._plan()
        x = plan.delta / plan.t[2]  # exact left endpoint of band 3
        lo = plan.delta / plan.t
        hi = 1.0 / (plan.delta * plan.t)
        direct = int(np.count_nonzero((lo < x) & (x < hi)))
        assert gl.pigeonhole_count(x, plan) == direct
        assert not (lo[2] < x)


class TestDirectCorrelation:
    def test_full_ball_small_t_recovers_measure(self, circle_sigma):
        f = oracles.indicator_from_balls(2, 256, [[0.0, 0.0]], [2.0])
        d = gl.direct_correlation(f, circle_sigma, 0.003)
        assert d == pytest.approx(f.measure, rel=0.01)

    def test_disjoint_supports_vanish(self):
        f = oracles.indicator_from_balls(2, 256, [[0.0, 0.0]], [0.1])
        K = gl.Ellipsoid([0.5] * 2)
        sigma = gl.from_mesh(gl.triangulate_boundary(K, 512), normalize=True)
        assert gl.direct_correlation(f, sigma, 1.0) == 0.0

    def test_two_blob_sweep_matches_pair_oracle(self, blob_set, circle_sigma, unit_disk):
        slack = 2 * blob_set.h * 2
        for t in (0.05, 0.15, 0.4, 0.62, 0.8, 1.05):
            positive = gl.direct_correlation(blob_set, circle_sigma, t) > 1e-12
            assert positive == oracles.pair_search_hits(blob_set, unit_disk, t, slack)

    def test_nonnegative(self, blob_set, circle_sigma):
        for t in np.linspace(0.05, 1.1, 12):
            assert gl.direct_correlation(blob_set, circle_sigma, t) >= 0.0


class TestSpectralCorrelation:
    def test_point_mass_gives_parseval(self):
        f = gl.random_indicator(2, 256, 0.9, seed=3)
        sigma = gl.AtomicMeasure([[0.0, 0.0]], [1.0])
        assert gl.split_integrals(f, sigma, 0.7, 0.5).total == pytest.approx(
            f.measure, rel=1e-12)
        assert gl.direct_correlation(f, sigma, 0.7) == pytest.approx(
            f.measure, rel=1e-12)

    def test_matches_direct_on_blobs(self, blob_set, circle_sigma):
        for t in (0.1, 0.7, 0.9):
            s = gl.split_integrals(blob_set, circle_sigma, t, 0.5).total
            d = gl.direct_correlation(blob_set, circle_sigma, t)
            assert s == pytest.approx(d, rel=0.02, abs=1e-5)

    def test_single_cell_degenerate(self, circle_sigma):
        cells = np.zeros((256, 256), dtype=bool)
        cells[100, 100] = True
        f = gl.GridIndicator(2, 256, cells)
        assert gl.direct_correlation(f, circle_sigma, 0.5) == 0.0
        assert abs(gl.split_integrals(f, circle_sigma, 0.5, 0.5).total) <= f.measure

    def test_square_against_analytic_tent_oracle(self):
        # grid-aligned square vs a two-point measure: the continuum value is
        # the tent product prod max(2a - |t y0_k|, 0), exact for both routes
        a, m = 0.5, 256
        ax = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        f = gl.GridIndicator(2, m, (np.abs(X) <= a) & (np.abs(Y) <= a))
        y0 = np.array([0.6, 0.25])
        sigma = gl.AtomicMeasure([y0, -y0], [0.5, 0.5])
        for t in (0.1, 0.35, 0.6, 0.9, 1.2):
            s = t * y0
            analytic = max(2 * a - abs(s[0]), 0.0) * max(2 * a - abs(s[1]), 0.0)
            assert gl.direct_correlation(f, sigma, t) == pytest.approx(
                analytic, abs=1e-14)
            assert gl.split_integrals(f, sigma, t, 0.5).total == pytest.approx(
                analytic, abs=1e-3)

    def test_asymmetric_measure_rejected(self, blob_set):
        lop = gl.AtomicMeasure([[0.3, 0.1], [0.2, -0.6]], [0.5, 0.5])
        with pytest.raises(BadInputError):
            gl.split_integrals(blob_set, lop, 0.5, 0.5).total

    def test_transform_gradient_bounds_near_origin(self, circle_sigma):
        # |ft(f)| >= |A|/2 and Re ft(sigma) >= 1/2 inside radius 1/(4 pi)
        f = gl.random_indicator(2, 256, 0.3 * math.pi, seed=7)
        rng = np.random.default_rng(12)
        xi = rng.normal(size=(40, 2))
        xi = xi / np.linalg.norm(xi, axis=1)[:, None] * rng.uniform(
            0, 1 / (4 * math.pi), size=(40, 1))
        fhat = oracles.cell_transform(f, xi)
        assert np.all(np.abs(fhat) >= f.measure / 2)
        shat = gl.ft_many(circle_sigma, xi)
        assert np.all(shat.real >= 0.5)


class TestSplitIntegrals:
    def test_partition_identity_exact(self, blob_set, circle_sigma):
        for t, delta in ((0.3, 0.05), (0.45, 0.2), (0.7, 0.5)):
            sr = gl.split_integrals(blob_set, circle_sigma, t, delta)
            assert sr.i1 + sr.i2 + sr.i3 == sr.total
            assert abs(sr.i1 + sr.i2 + sr.i3 - sr.total) <= 1e-12 * max(abs(sr.total), 1)

    def test_low_band_lower_bound(self, circle_sigma):
        c = gl.BourgainConstants(2)
        for seed in range(3):
            f = gl.random_indicator(2, 256, 0.3 * math.pi, seed=seed)
            delta = 0.05
            for t in (0.2, 0.4, 0.6):
                assert t <= 4 * math.pi * delta
                sr = gl.split_integrals(f, circle_sigma, t, delta)
                assert sr.i1 >= c.i1_constant * f.measure ** 2

    def test_high_band_bounded_by_goodness(self, unit_disk, five_cap_measure):
        sym = oracles.symmetrized(five_cap_measure)
        R = 30.0
        rep = gl.goodness_profile(sym, R, [30.0, 40.0, 55.0, 70.0], 8192)
        f = gl.random_indicator(2, 256, 0.3 * math.pi, seed=7)
        delta = 1.0 / R
        t = 0.41
        sr = gl.split_integrals(f, sym, t, delta)
        # the band is nonempty on this grid and the bound is meaningful
        assert 1.0 / (delta * t) < 0.5 / f.h * math.sqrt(2)
        assert abs(sr.i3) <= rep.eps_hat * f.measure

    def test_middle_band_lacunary_average(self, circle_sigma):
        # sum over the plan of |I2| stays below (2/log 2) log(1/delta) |A|
        f = gl.random_indicator(2, 256, 0.3 * math.pi, seed=11)
        delta = 0.05
        plan = gl.LacunaryPlan.geometric(delta, 20.0)
        total = sum(abs(gl.split_integrals(f, circle_sigma, t, delta).i2)
                    for t in plan.t[:12])
        bound = 2 / math.log(2) * math.log(1 / delta) * f.measure
        assert total <= bound

    def test_quad_error_from_uncached_power_sums(self, blob_set, circle_sigma,
                                                 tilted_circle_sigma):
        # the sums run over the weighted half grid of the shared radius order, here from a
        # fresh rfftn of the cells; the tilted disk takes the matrix-product path and the disk
        # the radial one, whose sigma-hat bound is read off the moments w(n)
        f = blob_set
        mp = _PAD * f.m
        abs2 = np.abs(np.fft.rfftn(f.cells, s=(mp,) * f.dim, axes=range(f.dim))) ** 2
        power = abs2 * f.h ** (2 * f.dim) * (1.0 / (mp * f.h)) ** f.dim
        order, radii, weight = correlation._radius_order(f.dim, f.m)
        power = power[np.ix_(*correlation._half_grid_axes(f.dim, f.m))].ravel()[order] * weight
        tail = float(np.sum(power[radii > 0.9 * (0.5 / f.h)]))
        r0 = np.max(np.hypot(*circle_sigma.positions.T))
        for t in (0.3, 0.45, 0.3):  # the repeat reads the cached sums
            _, residue = _sigma_hat_on_grid(tilted_circle_sigma, t, mp, f.h, f.dim)
            want = residue * float(np.sum(power)) + tail * tilted_circle_sigma.abs_mass
            assert gl.split_integrals(f, tilted_circle_sigma, t, 0.05).quad_error == want
            z_max = 2 * math.pi * t * r0 * radii[-1]
            w = circle_sigma._angular_moments(_jacobi_anger_order(z_max) + 1)
            residue = float(2 * np.sum(np.abs(w[1:])) + 1e-15 * abs(w[0].real)
                            + (8 * EPS * z_max + 1e-16) * circle_sigma.abs_mass)
            want = residue * float(np.sum(power)) + tail * circle_sigma.abs_mass
            assert gl.split_integrals(f, circle_sigma, t, 0.05).quad_error == want

    def test_radius_order_shared_by_sets_of_one_grid(self, circle_sigma):
        f = gl.random_indicator(2, 96, 0.5, seed=1)
        g = gl.GridIndicator(2, 96, f.cells)
        for s in (f, g):
            gl.split_integrals(s, circle_sigma, 0.3, 0.05)
        order, radii, weight = correlation._radius_order(2, 96)
        assert f._power_spectrum()[1] is g._power_spectrum()[1] is radii
        assert not (order.flags.writeable or radii.flags.writeable or weight.flags.writeable)
        assert np.array_equal(f._power_spectrum()[0], g._power_spectrum()[0])
        # the weights count the full grid's (2m)^2 points
        assert int(np.sum(weight)) == (2 * 96) ** 2


class TestLacunarySearch:
    def test_disk_end_to_end(self, circle_sigma):
        f = gl.random_indicator(2, 256, 0.3 * math.pi, seed=7)
        plan = gl.LacunaryPlan.geometric(0.05, 20.0, d=2, eps=f.measure)
        res = gl.lacunary_search(f, circle_sigma, plan)
        assert res.found
        assert res.direct > 0
        assert res.split.lower_bound > 0
        assert res.rows[-1][0] >= plan.j0_index + 1 and res.rows[-1][-1] == "positive"
        target = gl.BourgainConstants(2).positivity_constant * f.measure ** 2
        assert f"explicit target {target:.6g} (meets the target)" in res.verdict
        assert res.split.lower_bound - res.split.quad_error >= target

    def test_target_met_only_net_of_quad_error(self, blob_set, circle_sigma, monkeypatch):
        # a lower bound within quad_error above the target does not meet it
        f = blob_set
        target = gl.BourgainConstants(2).positivity_constant * f.measure ** 2
        q = 0.5 * target

        def split(f, sigma, t, delta):
            return gl.SplitResult(t, delta, target + 0.5 * q, 0.0, 0.0, target + 0.5 * q, q)

        monkeypatch.setattr(correlation, "split_integrals", split)
        monkeypatch.setattr(correlation, "direct_correlation", lambda f, sigma, t: 1.0)
        res = gl.lacunary_search(f, circle_sigma, gl.LacunaryPlan([0.3], 0.05, 20.0))
        assert res.found and res.split.lower_bound > target
        assert res.verdict.endswith("(below the target)")

    def test_goodness_shortfall_reported_not_fatal(self, circle_sigma):
        f = gl.random_indicator(2, 128, 0.3 * math.pi, seed=9)
        plan = gl.LacunaryPlan.geometric(0.05, 20.0, d=2, eps=f.measure)
        rep = gl.goodness_profile(circle_sigma, 20.0, [20.0, 40.0], 1024)
        res = gl.lacunary_search(f, circle_sigma, plan, goodness=rep)
        assert res.found
        assert any("goodness hypothesis" in msg for msg in res.diagnostics)

    def test_exhausted_scan_reports_violation(self):
        # the 0.8-wide disk has no two points 0.9 apart: the one-term plan finds no scale
        f = oracles.indicator_from_balls(2, 128, [[0.0, 0.0]], [0.4])
        sigma = oracles.symmetrized(gl.AtomicMeasure([[1.0, 0.0]], [1.0]))
        res = gl.lacunary_search(f, sigma, gl.LacunaryPlan([0.9], 0.05, 13.0))
        assert not res.found and res.split is None and res.direct is None
        assert [row[5] for row in res.rows] == [0.0]
        assert "HYPOTHESIS-VIOLATION" in res.verdict
        assert res.diagnostics[-1] == "sequence exhausted"

    def test_rows_record_each_scanned_index(self, circle_sigma):
        f = gl.random_indicator(2, 128, 0.3 * math.pi, seed=7)
        plan = gl.LacunaryPlan.geometric(0.05, 20.0, d=2, eps=f.measure)
        res = gl.lacunary_search(f, circle_sigma, plan)
        assert [row[0] for row in res.rows] == list(
            range(plan.j0_index + 1, plan.j0_index + 1 + len(res.rows)))
        assert res.rows[-1][-1] == "positive"


class TestGridIndicator:
    def test_measure_and_bounds(self):
        f = gl.random_indicator(2, 128, 1.0, seed=1)
        assert f.measure == pytest.approx(f.count * f.h ** 2)
        centers = f.marked_centers()
        assert np.max(np.linalg.norm(centers, axis=1)) <= 1.0

    def test_json_round_trip(self, tmp_path):
        from gaugelab.correlation import load_indicator, save_indicator
        f = gl.random_indicator(2, 64, 0.5, seed=5)
        path = tmp_path / "a.json"
        save_indicator(f, path)
        back = load_indicator(path)
        assert back.m == f.m and back.dim == f.dim
        assert np.array_equal(back.cells, f.cells)

    def test_dimension_guard(self):
        with pytest.raises(BadInputError):
            gl.GridIndicator(4, 8, np.zeros((8,) * 4, dtype=bool))

    @pytest.mark.parametrize("sizes", [(7,), (0,), (3, 5), (4, 0), (2, 3, 4), (1, 6, 1)])
    def test_grid_rows_are_the_meshgrid_rows(self, sizes):
        rng = np.random.default_rng(len(sizes))
        axes = [rng.normal(size=k) for k in sizes]
        want = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        got = correlation._grid_rows(axes)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_grid_rows_in_more_dimensions_than_an_array_has_axes(self):
        axes = [np.array([0.5]), np.array([1.0, 2.0])] + [np.zeros(1)] * 70
        want = np.c_[[[0.5], [0.5]], [[1.0], [2.0]], np.zeros((2, 70))]
        np.testing.assert_array_equal(correlation._grid_rows(axes), want)

    @pytest.mark.parametrize("dim, m, target", [(1, 64, 0.8), (2, 128, 0.3 * math.pi),
                                                (2, 256, 1.0), (3, 32, 0.3)])
    def test_running_mask_matches_rebuilt_union(self, dim, m, target):
        for seed in range(6):
            f = gl.random_indicator(dim, m, target, seed=seed)
            ref = oracles.rebuilt_random_indicator(dim, m, target, seed)
            assert np.array_equal(f.cells, ref.cells)

    def test_unreachable_measure_refused_like_rebuilt_union(self):
        assert oracles.rebuilt_random_indicator(2, 32, 10.0, 4) is None
        with pytest.raises(BudgetExceededError, match="with 64 balls"):
            gl.random_indicator(2, 32, 10.0, seed=4)

    def test_three_dimensional_smoke(self):
        f = gl.random_indicator(3, 32, 0.3, seed=5)
        sigma = gl.from_mesh(gl.triangulate_boundary(gl.ball_body(3), 500),
                             normalize=True)
        s = gl.split_integrals(f, sigma, 0.4, 0.5).total
        d = gl.direct_correlation(f, sigma, 0.4)
        assert s == pytest.approx(d, rel=0.05, abs=1e-4)


@st.composite
def grid_sets(draw, dims=st.integers(1, 3), sizes=st.integers(2, 48)):
    """A random indicator (possibly empty) on a grid of a drawn dimension and size m, by
    default 1..3 and 2..48."""
    dim = draw(dims)
    m = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ax = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
    r2 = sum(g ** 2 for g in np.meshgrid(*([ax] * dim), indexing="ij"))
    cells = (rng.random((m,) * dim) < draw(st.floats(0.0, 1.0))) & (r2 <= 1.0)
    return gl.GridIndicator(dim, m, cells)


def atom_clouds(dim, weights, symmetric):
    """n <= 6 atoms in [-1,1]^dim, mirrored into a symmetric measure when asked."""
    def build(atoms):
        sigma = gl.AtomicMeasure([p for p, _ in atoms], [w for _, w in atoms])
        return oracles.symmetrized(sigma) if symmetric else sigma
    # tenths put offsets t y / h within rounding of grid lines (0.3 / 0.1 < 3)
    coord = st.one_of(st.floats(-1.0, 1.0), st.integers(-10, 10).map(lambda k: k / 10))
    point = st.lists(coord, min_size=dim, max_size=dim)
    return st.lists(st.tuples(point, weights), min_size=1, max_size=6).map(build)


# t up to 8 moves atoms up to 4 grid widths, so many lags fall outside the grid
scales = st.floats(1e-3, 8.0)


class TestFastPathsAgainstOracles:
    @given(data=st.data(), t=scales, symmetric=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_direct_matches_dense_interpolation(self, data, t, symmetric):
        f = data.draw(grid_sets())
        sigma = data.draw(atom_clouds(f.dim, st.floats(0.01, 1.0), symmetric))
        fast = gl.direct_correlation(f, sigma, t)
        ref = oracles.dense_direct_correlation(f, sigma, t)
        if ref == 0.0:
            assert fast == 0.0
        # the oracle rounds every query on its own; where its value is that
        # rounding noise, compare against the correlation's scale |sigma| |A|
        assert abs(fast - ref) <= 1e-12 * max(abs(ref), sigma.abs_mass * f.measure)

    @given(data=st.data(), t=scales)
    @settings(max_examples=100, deadline=None)
    def test_sigma_hat_matches_separable_einsum(self, data, t):
        # the kernel reads the real part of a symmetric measure's transform
        f = data.draw(grid_sets())
        sigma = data.draw(atom_clouds(f.dim, st.floats(-1.0, 1.0), True))
        mp = _PAD * f.m
        fast, _ = _sigma_hat_on_grid(sigma, t, mp, f.h, f.dim)
        ref = oracles.separable_sigma_hat(sigma, t, mp, f.h, f.dim, half=True)
        assert fast.shape == ref.shape and fast.dtype == float
        # below the normal range a rounding errs by up to half the smallest subnormal,
        # absolutely, which no relative tolerance covers: a pair rounds 2w cos where the
        # oracle rounds w cos twice.  The roundings of both paths, carried through the
        # products of 3-d, stay under 8 smallest subnormals per atom
        tiny = 8 * len(sigma) * np.finfo(float).smallest_subnormal
        assert np.max(np.abs(fast - ref.real)) <= 1e-13 * sigma.abs_mass + tiny

    @given(data=st.data(), t=scales, delta=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_split_partition_exact(self, data, t, delta):
        f = data.draw(grid_sets())
        sigma = data.draw(atom_clouds(f.dim, st.floats(0.01, 1.0), True))
        sr = gl.split_integrals(f, sigma, t, delta)
        assert sr.i1 + sr.i2 + sr.i3 == sr.total

    @given(data=st.data(), t=scales, delta=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_half_grid_split_matches_full_grid_oracle(self, data, t, delta):
        f = data.draw(grid_sets())
        sigma = data.draw(atom_clouds(f.dim, st.floats(0.01, 1.0), True))
        got = gl.split_integrals(f, sigma, t, delta)
        ref = oracles.full_grid_split(f, sigma, t, delta)
        # each band holds the half-grid points whose full-grid point is in the oracle's mask
        order, radii, _ = correlation._radius_order(f.dim, f.m)
        rows = np.ix_(*[k % (2 * f.m) for k in correlation._half_grid_axes(f.dim, f.m)])
        low, mid = correlation._band_cuts(radii, t, delta)
        band = np.repeat([0, 1, 2], [low, mid - low, len(order) - mid])
        for k, mask in enumerate(ref.bands):
            assert np.array_equal(mask[rows].ravel()[order], band == k)
        assert np.array_equal(f._autocorrelation(), ref.autocorr)
        # a few ulp of |sigma| per grid point in either sigma-hat, over a total power of |A|,
        # as in test_phases_stay_exact_at_large_t; seen up to 1.4 EPS |sigma| |A|
        bound = 16 * (1 + f.dim) * EPS * sigma.abs_mass * f.measure
        for name in ("i1", "i2", "i3", "total", "quad_error"):
            assert abs(getattr(got, name) - getattr(ref, name)) <= bound, name

    @given(sets=st.lists(grid_sets(), min_size=2, max_size=3), keep=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_transforms_are_numpys_bit_for_bit(self, sets, keep):
        # the power spectrum and autocorrelation that _transforms makes on this thread's
        # scratch buffers, set after set across grids (or on fresh arrays, past
        # _SCRATCH_KEEP), against np.fft.rfftn and irfftn and the formulas they replaced
        with mock.patch.object(correlation, "_SCRATCH_KEEP", correlation._SCRATCH_KEEP * keep):
            for f in sets:
                mp, dim = _PAD * f.m, f.dim
                abs2 = np.abs(np.fft.rfftn(f.cells, s=(mp,) * dim, axes=range(dim))) ** 2
                order, radii, weight = correlation._radius_order(dim, f.m)
                rows = np.ix_(*correlation._half_grid_axes(dim, f.m))
                power = (abs2[rows].ravel()[order] * f.h ** (2 * dim)
                         * (1.0 / (mp * f.h)) ** dim * weight)
                got = f._power_spectrum()
                assert got[0].tobytes() == power.tobytes() and got[2] == float(np.sum(power))
                acf = f._autocorrelation()
                assert acf.dtype == np.min_scalar_type(f.count)
                assert np.array_equal(acf, np.rint(np.fft.irfftn(abs2, s=(mp,) * dim,
                                                                 axes=range(dim))))

    def test_offset_within_rounding_of_a_grid_line_adds_nothing(self):
        # h = 0.1 and 0.3 / h rounds to 3 - 4e-16: lag 2 is marked, lag 3 is not
        cells = np.zeros(20, dtype=bool)
        cells[[5, 7]] = True
        f = gl.GridIndicator(1, 20, cells)
        sigma = gl.AtomicMeasure([[0.3], [-0.3]], [0.5, 0.5])
        assert 0.3 / f.h < 3.0
        assert oracles.dense_direct_correlation(f, sigma, 1.0) == 0.0
        assert gl.direct_correlation(f, sigma, 1.0) == 0.0
        assert gl.direct_correlation(f, sigma, 2.0 / 3.0) == pytest.approx(0.1, rel=1e-12)

    def test_lags_beyond_the_grid_vanish(self, blob_set):
        sigma = gl.AtomicMeasure([[0.9, 0.0], [-0.9, 0.0]], [0.5, 0.5])
        assert gl.direct_correlation(blob_set, sigma, 2.3) == 0.0
        assert gl.direct_correlation(blob_set, sigma, 1e300) == 0.0
        assert oracles.dense_direct_correlation(blob_set, sigma, 2.3) == 0.0


def phase_bound(sigma, t, h, dim):
    """Rounding budget of a transform on the grid of spacing h: the phases carry
    2 pi t |x| |xi| with |xi| <= sqrt(dim) / (2 h)."""
    xi_max = math.sqrt(dim) / (2 * h)
    return 16 * EPS * (1 + 2 * math.pi * t * sigma.support_radius * xi_max) * sigma.abs_mass


@st.composite
def paired_measures(draw, dim):
    """A symmetric measure as shuffled atoms x, -x of equal weight plus 0..2 atoms at the
    origin, so odd and even atom counts and self-paired atoms all occur."""
    weight = st.floats(-1.0, 1.0, allow_subnormal=False)
    point = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    pairs = draw(st.lists(st.tuples(point, weight), min_size=0, max_size=5))
    origin = draw(st.lists(weight, min_size=0, max_size=2))
    atoms = ([(p, w) for p, w in pairs] + [([-c for c in p], w) for p, w in pairs]
             + [([0.0] * dim, w) for w in origin])
    if not atoms:
        atoms = [([0.0] * dim, 1.0)]
    order = draw(st.permutations(range(len(atoms))))
    return gl.AtomicMeasure([atoms[k][0] for k in order], [atoms[k][1] for k in order])


class TestPairedSigmaHat:
    @given(data=st.data(), dim=st.integers(1, 3), m=st.integers(2, 32), t=scales,
           block=st.sampled_from([None, 1, 300]))
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle_real_part(self, data, dim, m, t, block):
        sigma = data.draw(paired_measures(dim))
        assert sigma.is_symmetric()
        mp, h = _PAD * m, 2.0 / m
        with pytest.MonkeyPatch.context() as mpatch:
            if block is not None:   # blocks of one or a few pairs, summed
                mpatch.setattr(correlation, "_GEMM_BLOCK", block)
            fast, residue = _sigma_hat_on_grid(sigma, t, mp, h, dim)
        ref = oracles.separable_sigma_hat(sigma, t, mp, h, dim, half=True).real
        assert fast.shape == ref.shape
        assert np.max(np.abs(fast - ref)) <= residue + phase_bound(sigma, t, h, dim)

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3), m=st.integers(2, 24),
           t=scales)
    @settings(max_examples=60, deadline=None)
    def test_pairing_residue_bounds_perturbed_measures(self, seed, dim, m, t):
        # atoms in the unit ball on the 1e-9 lattice of the symmetry check, mirrors moved by
        # up to 0.3e-9 and weights by up to 0.4e-9: still symmetric, no longer exactly
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        x = rng.integers(-5 * 10 ** 8, 5 * 10 ** 8, size=(n, dim)) * 1e-9
        w = rng.uniform(0.05, 1.0, size=n)
        pos = np.vstack([x, -x + rng.uniform(-3e-10, 3e-10, size=(n, dim))])
        sigma = gl.AtomicMeasure(pos, np.concatenate([w, w + rng.uniform(-4e-10, 4e-10, n)]))
        assert sigma.is_symmetric()
        mp, h = _PAD * m, 2.0 / m
        fast, residue = _sigma_hat_on_grid(sigma, t, mp, h, dim)
        i, j = sigma._pairs_up()
        xi_max = math.sqrt(dim) / (2 * h)
        assert residue == pytest.approx(2 * math.pi * t * xi_max * np.sum(
            np.abs(sigma.weights[j]) * np.linalg.norm(pos[i] + pos[j], axis=1)), rel=1e-12)
        assert residue > 0
        ref = oracles.separable_sigma_hat(sigma, t, mp, h, dim, half=True).real
        assert np.max(np.abs(fast - ref)) <= residue + phase_bound(sigma, t, h, dim)

    @pytest.mark.parametrize("dim, m", [(1, 48), (2, 48), (3, 24)])
    def test_phases_stay_exact_at_large_t(self, dim, m):
        # t = 8 puts phases of ~600 radians on the grid, where one double rounding of the
        # phase is ~1e-13; long-double phases reduced mod 1 keep every term to a few ulp
        for seed in range(8):
            rng = np.random.default_rng(seed)
            sigma = gl.AtomicMeasure(rng.uniform(-1, 1, (4, dim)), rng.uniform(-1, 1, 4))
            sigma = oracles.symmetrized(sigma)
            fast, _ = _sigma_hat_on_grid(sigma, 8.0, _PAD * m, 2.0 / m, dim)
            ref = oracles.separable_sigma_hat(sigma, 8.0, _PAD * m, 2.0 / m, dim, half=True).real
            assert np.max(np.abs(fast - ref)) <= 16 * EPS * (1 + dim) * sigma.abs_mass

    @pytest.mark.parametrize("mp", [4, 6, 10, 96, 512, 4096])
    def test_power_table_matches_direct_exponentials(self, mp):
        rng = np.random.default_rng(mp)
        s = rng.uniform(-2.0, 2.0, size=37)
        k = (np.arange(mp) + mp // 2) % mp - mp // 2
        assert np.array_equal(k, np.fft.fftfreq(mp, d=1.0 / mp))
        out = np.empty((mp, s.size), dtype=complex)
        # double s: against np.exp of the double phase, within its rounding budget
        _power_table(s, out)
        direct = np.exp(-2j * np.pi * np.outer(k, s))
        assert np.max(np.abs(out - direct)) <= 16 * EPS * (1 + 2 * np.pi * np.max(np.abs(k)) * 2)
        # long-double s, as the kernel passes it: against long-double phases, to ~1e-16
        sl = s.astype(np.longdouble) / 3
        _power_table(sl, out)
        cycles = np.outer(k.astype(np.longdouble), sl)
        direct = np.exp(-2j * np.pi * (cycles - np.rint(cycles)).astype(float))
        assert np.max(np.abs(out - direct)) <= 16 * EPS

    @pytest.mark.parametrize("mp", [2, 4, 6, 10, 96, 512, 4096])
    def test_power_table_keeps_the_hand_built_bits(self, mp):
        rng = np.random.default_rng(mp)
        for s in (rng.uniform(-2.0, 2.0, size=37), rng.uniform(-2.0, 2.0, size=37) / 3,
                  rng.uniform(-2.0, 2.0, size=37).astype(np.longdouble) / 3):
            got, ref = (np.full((mp, s.size), np.nan, dtype=complex) for _ in range(2))
            np.testing.assert_array_equal(_power_table(s, got),
                                          oracles.hand_built_power_table(s, ref))

    def test_symmetry_check_and_kernel_share_one_pairing(self, blob_set, circle_sigma):
        sigma = gl.AtomicMeasure(circle_sigma.positions, circle_sigma.weights)
        gl.split_integrals(blob_set, sigma, 0.4, 0.05)
        i, j = pairs = sigma._pairs    # the one cached pairing, made by split_integrals
        assert sigma._pairs_up() is pairs and sigma.is_symmetric()
        assert np.array_equal(np.sort(np.concatenate([i, j])), np.arange(len(sigma)))
        assert np.max(np.abs(sigma.positions[i] + sigma.positions[j])) <= 1e-15
        lop = gl.AtomicMeasure([[0.3, 0.1], [-0.3, -0.1]], [0.5, 0.25])
        assert lop._pairs_up() is None and not lop.is_symmetric()


class TestSpectrumBudget:
    def test_oversized_grids_refused_before_allocation(self):
        huge = 1 << 20
        with pytest.raises(BudgetExceededError):
            gl.GridIndicator(3, huge, np.zeros((2,) * 3, dtype=bool))
        with pytest.raises(BudgetExceededError):
            gl.indicator_from_cells(3, huge, [[0, 0, 0]])
        with pytest.raises(BudgetExceededError):
            gl.random_indicator(2, huge, 0.5, seed=0)
        with pytest.raises(BadInputError):    # a bad shape is bad input, whatever its size
            gl.indicator_from_cells(4, huge, [])

    def test_largest_grid_within_budget(self):
        m = round((SPECTRUM_BUDGET_BYTES / 16) ** (1 / 3)) // _PAD
        assert 16 * (_PAD * m) ** 3 <= SPECTRUM_BUDGET_BYTES
        assert gl.indicator_from_cells(3, m, []).m == m    # builds no spectrum yet
        with pytest.raises(BudgetExceededError):
            gl.indicator_from_cells(3, m + 1, [])


@st.composite
def uniform_circles(draw):
    """2k equal atoms of total mass 0.1..3 at phase + 2 pi j / 2k on a circle of radius
    0.2..1, 64 <= 2k <= 4096; the second half is the exact negation of the first, so the
    measure pairs up."""
    half = draw(st.integers(32, 2048))
    radius, mass = draw(st.floats(0.2, 1.0)), draw(st.floats(0.1, 3.0))
    angle = draw(st.floats(0.0, 2 * math.pi)) + math.pi * np.arange(half) / half
    xy = radius * np.c_[np.cos(angle), np.sin(angle)]
    return gl.AtomicMeasure(np.r_[xy, -xy], np.full(2 * half, 0.5 * mass / half))


def isotropic_limit(atoms):
    """The largest z whose Jacobi-Anger order stays under the first alias order of a uniform
    circle measure with this many atoms (w(atoms) = w(0))."""
    lo, hi = 0.0, float(atoms)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _jacobi_anger_order(mid) < atoms else (lo, mid)
    return lo


class TestRadialPath:
    def test_j0_matches_scipy(self):
        from scipy import special
        z = np.concatenate([np.linspace(0.0, 3000.0, 600_001), np.linspace(19.0, 21.0, 20_001),
                            [0.0, np.nextafter(20.0, 0.0), 20.0, np.nextafter(20.0, 21.0)]])
        got = correlation._j0(z)
        assert got[-4] == pytest.approx(1.0, abs=1e-16)
        # scipy's j0 takes cos and sin of z - pi/4 rounded to double, a phase error of up to
        # half an ulp of z times the amplitude sqrt(2 / (pi z)): 2.1e-15 at z ~ 1000, where
        # _j0 rounds no phase; past z = 5 that is added to the 1e-15
        phase = np.where(z > 5, 0.5 * np.spacing(z) * np.sqrt(2 / (np.pi * np.maximum(z, 5))), 0)
        assert np.all(np.abs(got - special.j0(z)) <= correlation._J0_ERROR + phase)
        small = z < 60
        assert np.max(np.abs(got[small] - special.j0(z[small]))) <= correlation._J0_ERROR

    @pytest.mark.parametrize("atoms, m, moment_max", [(512, 256, 1.8e-14), (2048, 128, 3.2e-14)])
    def test_disk_meshes_are_isotropic_at_the_largest_scale(self, unit_disk, atoms, m,
                                                            moment_max):
        sigma = gl.from_mesh(gl.triangulate_boundary(unit_disk, atoms), normalize=True)
        radii = correlation._radius_order(2, m)[1]
        r0, w = correlation._isotropic_moments(sigma, 0.49, radii[-1])
        assert r0 == sigma._circle_radius() and len(w) == _jacobi_anger_order(
            2 * math.pi * 0.49 * r0 * radii[-1]) + 1 < atoms
        assert np.max(np.abs(w[1:])) <= 1.05 * moment_max * abs(w[0])

    def test_radial_power_sums_each_radius(self):
        f = gl.random_indicator(2, 32, 0.5, seed=3)
        power, radii, total, _ = f._power_spectrum()
        rho, summed = f._radial_power()
        assert np.array_equal(rho, np.unique(radii))
        for u in (0, 1, len(rho) // 2, len(rho) - 1):
            assert summed[u] == pytest.approx(np.sum(power[radii == rho[u]]), rel=1e-15)
        assert float(np.sum(summed)) == pytest.approx(total, rel=1e-14)

    @given(data=st.data(), sigma=uniform_circles(), u=st.floats(1e-3, 1.0),
           delta=st.floats(0.01, 0.99))
    @settings(max_examples=25, deadline=None)
    def test_uniform_circles_match_full_grid_oracle(self, data, sigma, u, delta):
        f = data.draw(grid_sets(st.just(2), st.integers(2, 64)))
        r0, rho_max = sigma._circle_radius(), correlation._radius_order(2, f.m)[1][-1]
        t = u * min(8.0, isotropic_limit(len(sigma)) / (2 * math.pi * r0 * rho_max))
        assert correlation._isotropic_moments(sigma, t, rho_max) is not None
        got = gl.split_integrals(f, sigma, t, delta)
        ref = oracles.full_grid_split(f, sigma, t, delta)
        # the radial path's bound without the grid tail, plus the rounding allowance of
        # test_half_grid_split_matches_full_grid_oracle for the oracle's own sums
        bound = (got.quad_error - f._power_spectrum()[3] * sigma.abs_mass
                 + 16 * (1 + f.dim) * EPS * sigma.abs_mass * f.measure)
        note(f"t={t}, bound={bound}")
        for name in ("i1", "i2", "i3", "total"):
            assert abs(getattr(got, name) - getattr(ref, name)) <= bound, name

    @pytest.mark.parametrize("which", ["five-cap", "tilted disk", "square", "ellipse"])
    def test_other_measures_keep_the_matrix_product_bits(self, which, blob_set, unit_disk,
                                                         five_cap_measure, tilted_circle_sigma):
        sigma = {"five-cap": lambda: oracles.symmetrized(five_cap_measure),
                 "tilted disk": lambda: tilted_circle_sigma,
                 "square": lambda: gl.AtomicMeasure([[1, 0], [0, 1], [-1, 0], [0, -1]],
                                                    [0.25] * 4),
                 "ellipse": lambda: gl.from_mesh(gl.triangulate_boundary(
                     gl.Ellipsoid([1.0, 0.6]), 512), normalize=True)}[which]()
        radii = correlation._radius_order(2, blob_set.m)[1]
        for t in (0.45, 0.1, 0.01):
            assert correlation._isotropic_moments(sigma, t, radii[-1]) is None
            assert gl.split_integrals(blob_set, sigma, t, 0.05) == gemm_split(
                blob_set, sigma, t, 0.05)


def test_positivity_ops_leave_scipy_unloaded():
    # the radial path's J0 is numpy's; split_integrals and direct_correlation on the disk
    # load no scipy module (scipy.special would add ~22 MiB)
    code = ("import json, sys, gaugelab as gl\n"
            "sigma = gl.from_mesh(gl.triangulate_boundary(gl.ball_body(2), 512), True)\n"
            "f = gl.random_indicator(2, 64, 0.9, seed=1)\n"
            "for t in (0.4, 0.05):\n"
            "    s = gl.split_integrals(f, sigma, t, 0.05)\n"
            "    d = gl.direct_correlation(f, sigma, t)\n"
            "print(json.dumps([s.total, d]))\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(gl.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    values, loaded = proc.stdout.splitlines()
    assert json.loads(loaded) == []
    sigma = gl.from_mesh(gl.triangulate_boundary(gl.ball_body(2), 512), True)
    f = gl.random_indicator(2, 64, 0.9, seed=1)
    assert json.loads(values) == [gl.split_integrals(f, sigma, 0.05, 0.05).total,
                                  gl.direct_correlation(f, sigma, 0.05)]
