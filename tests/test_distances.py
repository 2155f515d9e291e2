import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugelab as gl
from gaugelab import distances
from gaugelab.errors import BadInputError

import oracles


class TestDistanceSet:
    def test_cube_lattice_even_integers(self, half_cube):
        lat = gl.lattice_points(2, -5, 5)
        rep = gl.distance_set(lat, half_cube, 20.0)
        np.testing.assert_allclose(rep.distances, np.arange(0, 21, 2), atol=1e-12)
        assert rep.separated
        assert rep.separation_witness == pytest.approx(2.0, abs=1e-12)

    def test_single_point(self, unit_disk):
        rep = gl.distance_set(gl.PointSet([[3.0, -1.0]]), unit_disk, 5.0)
        np.testing.assert_array_equal(rep.distances, [0.0])

    def test_matches_euclidean_oracle(self, unit_disk):
        rng = np.random.default_rng(77)
        pts = gl.PointSet(rng.uniform(0, 10, size=(200, 2)))
        rep = gl.distance_set(pts, unit_disk, 20.0)
        # independent recomputation with plain norms
        P = pts.points
        brute = [0.0]
        for i in range(len(P)):
            for j in range(i + 1, len(P)):
                brute.append(float(np.hypot(*(P[i] - P[j]))))
        brute = np.sort(brute)
        merged = [brute[0]]
        for v in brute[1:]:
            if v - merged[-1] > 1e-9:
                merged.append(v)
        np.testing.assert_allclose(rep.distances, merged, atol=1e-12)

    def test_zero_always_present(self, unit_disk):
        rep = gl.distance_set(gl.PointSet([[0.5, 0.5], [2.0, 0.0]]), unit_disk, 9.0)
        assert rep.distances[0] == 0.0

    def test_translation_and_reflection_invariance(self, half_cube):
        rng = np.random.default_rng(13)
        pts = gl.PointSet(rng.uniform(-3, 3, size=(40, 2)))
        base = gl.distance_set(pts, half_cube, 50.0).distances
        shifted = gl.distance_set(gl.PointSet(pts.points + [2.5, -1.0]), half_cube, 50.0).distances
        mirrored = gl.distance_set(gl.PointSet(-pts.points), half_cube, 50.0).distances
        np.testing.assert_allclose(shifted, base, atol=1e-9)
        np.testing.assert_allclose(mirrored, base, atol=1e-9)

    @given(c=st.floats(0.1, 4.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_scaling(self, c):
        pts = gl.PointSet([[0.0, 0.0], [1.0, 2.0], [-1.5, 0.5]])
        body = gl.cube_body(2, 0.5)
        base = gl.distance_set(pts, body, 100.0).distances
        scaled = gl.distance_set(gl.PointSet(pts.points * c), body, 100.0 * c + 1).distances
        np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-9)


def gap_report(pts, body, t_max, dual):
    """distance_set, or with dual the dual-gauge report that spectrum_gap_pipeline builds."""
    if not dual:
        return gl.distance_set(pts, body, t_max)
    return gl.GapReport.from_values(distances._distance_values(pts, body, dual=True), t_max)


def assert_same_report(got, want):
    np.testing.assert_array_equal(got.distances, want.distances)
    assert got.gaps == want.gaps
    assert (got.t0, got.t_max, got.merge_tol) == (want.t0, want.t_max, want.merge_tol)


class TestMergeAgainstSequentialOracle:
    @pytest.mark.parametrize("body", [gl.cube_body(2, 0.5), gl.regular_polygon_body(6),
                                      gl.random_symmetric_polytope(2, 6, seed=11),
                                      gl.ball_body(2)])
    def test_lattices(self, body):
        lat = gl.lattice_points(2, -8, 8)
        for t_max in (5.0, 12.5, 40.0):
            assert_same_report(gl.distance_set(lat, body, t_max),
                               oracles.sequential_merge_distance_set(lat, body, t_max))

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def test_planted_near_duplicates(self, seed, n):
        rng = np.random.default_rng(seed)
        base = rng.uniform(-5, 5, size=(n, 2))
        # copies shifted by up to twice MERGE_TOL give chains of near-equal distances
        shift = rng.uniform(-2 * distances.MERGE_TOL, 2 * distances.MERGE_TOL, size=(n, 2))
        pts = np.vstack([base, base + np.where(np.abs(shift) < 1e-11, 1e-11, shift)])
        pts = gl.PointSet(pts[np.unique(pts, axis=0, return_index=True)[1]])
        body = gl.random_symmetric_polytope(2, 6, seed=seed % 97)
        assert_same_report(gl.distance_set(pts, body, 6.0),
                           oracles.sequential_merge_distance_set(pts, body, 6.0))


@st.composite
def sorted_grid_subsets(draw):
    """A nonempty subset of a box of the scaled lattice s Z^d, shifted by a whole or half
    step, with its points in lexicographic order as lattice_points writes them."""
    dim = draw(st.integers(1, 3))
    spacing = draw(st.sampled_from((1.0, 0.5, 0.25, 2.0)))
    side = draw(st.integers(1, (40, 9, 5)[dim - 1]))
    keep = draw(st.floats(0.2, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    shift = draw(st.lists(st.integers(-60, 60), min_size=dim, max_size=dim))
    half = draw(st.booleans())
    idx = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    idx = idx[np.random.default_rng(seed).uniform(size=len(idx)) < keep]
    pts = (idx + np.asarray(shift)) * spacing + (spacing / 2 if half else 0.0)
    return gl.PointSet(pts if len(pts) else np.zeros((1, dim)))


LAG_BODIES = {1: [gl.cube_body(1, 0.7)],
              2: [gl.cube_body(2, 0.5), gl.regular_polygon_body(6), gl.ball_body(2),
                  gl.random_symmetric_polytope(2, 9, seed=3), gl.RadialBody(p=3, axes=[1.0, 0.6])],
              3: [gl.cube_body(3, 0.5), gl.random_symmetric_polytope(3, 6, seed=2),
                  gl.Ellipsoid([0.9, 0.7, 0.5])]}


class TestLagVectors:
    """distance_set through the lag vectors against every pair gauged, bit for bit."""

    @given(pts=sorted_grid_subsets(), dual=st.booleans(), pick=st.integers(0, 4),
           t_max=st.sampled_from((3.0, 12.5, 60.0)))
    @settings(max_examples=200, deadline=None)
    def test_sorted_grid_subsets(self, pts, dual, pick, t_max):
        bodies = LAG_BODIES[pts.dim]
        body = bodies[pick % len(bodies)]
        assert_same_report(gap_report(pts, body, t_max, dual),
                           oracles.sequential_merge_distance_set(pts, body, t_max, dual=dual))

    @pytest.mark.parametrize("dim,lo,hi,spacing", [(1, -30, 30, 1.0), (2, -8, 8, 1.0),
                                                  (2, -6, 6, 0.5), (2, -3, 3, 0.25),
                                                  (2, -12, 12, 2.0), (3, -3, 3, 0.5),
                                                  (3, -2, 2, 1.0)])
    def test_lattice_boxes_take_the_lag_path(self, dim, lo, hi, spacing, monkeypatch):
        lat = gl.lattice_points(dim, lo, hi, spacing)
        shifted = gl.PointSet(lat.points + spacing / 2)
        for pts in (lat, shifted):
            want = {(id(b), dual): oracles.sequential_merge_distance_set(pts, b, 9.0, dual=dual)
                    for b in LAG_BODIES[dim] for dual in (False, True)}
            with monkeypatch.context() as m:
                m.setattr(distances, "_PAIR_BLOCK", None)  # the pair walk would raise
                for b in LAG_BODIES[dim]:
                    for dual in (False, True):
                        assert_same_report(gap_report(pts, b, 9.0, dual),
                                           want[id(b), dual])

    def test_lags_are_the_distinct_differences(self):
        lat = gl.lattice_points(2, -4, 4, 0.5)
        i, j = np.triu_indices(len(lat), 1)
        diffs = np.unique(lat.points[i] - lat.points[j], axis=0)
        lags = distances._lag_vectors(lat.points)
        np.testing.assert_array_equal(lags, diffs)  # lexicographic order, each once

    @pytest.mark.parametrize("case", ["unsorted", "spacing 0.1", "sparse", "pairs / 8",
                                      "spacing 1.5", "off grid", "inexact"])
    def test_other_sets_fall_back_to_every_pair(self, case):
        lat = gl.lattice_points(2, -5, 5)
        pts = {"unsorted": gl.PointSet(lat.points[::-1]),
               "spacing 0.1": gl.lattice_points(2, -0.6, 0.6, 0.1),
               # 3 points on a 41 x 41 grid: 6561 lag cells for 3 pairs
               "sparse": gl.PointSet([[0.0, 0.0], [1.0, 40.0], [40.0, 1.0]]),
               # 20 points at spacing 2: 39 lag cells for 190 pairs, more than 190 / 8
               "pairs / 8": gl.PointSet(np.arange(0.0, 40.0, 2.0)[:, None]),
               "spacing 1.5": gl.lattice_points(2, -6, 6, 1.5),
               "off grid": gl.PointSet(np.vstack([lat.points, [[5.0, 5.3]]])),
               # x - x0 rounds: 1 - 2^-60 is 1.0 in floating point
               "inexact": gl.PointSet(np.r_[2.0 ** -60, np.arange(1.0, 41.0)][:, None])}[case]
        assert distances._lag_vectors(pts.points) is None
        body = gl.regular_polygon_body(6) if pts.dim == 2 else gl.cube_body(1, 0.7)
        for dual in (False, True):
            assert_same_report(gap_report(pts, body, 12.0, dual),
                               oracles.sequential_merge_distance_set(pts, body, 12.0, dual=dual))

    def test_lag_grid_over_the_memory_budget_takes_every_pair(self, monkeypatch):
        lat = gl.lattice_points(2, -8, 8)  # 33 x 33 lag cells
        assert distances._lag_vectors(lat.points) is not None
        monkeypatch.setattr(distances, "SPECTRUM_BUDGET_BYTES", 33 * 33 * distances._LAG_CELL_BYTES - 1)
        assert distances._lag_vectors(lat.points) is None

    @pytest.mark.parametrize("dim, lo, hi, spacing", [
        (30, -10, 10, 1.0), (2, -10, 10, 1e-300), (1, -10, 10, 1e-310), (2, 1e300, 1e300, 1e-300)])
    def test_lattice_box_over_budget_refused_before_allocation(self, dim, lo, hi, spacing):
        import tracemalloc
        tracemalloc.start()
        try:
            with pytest.raises(gl.BudgetExceededError):
                gl.lattice_points(dim, lo, hi, spacing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan])
    def test_lattice_spacing_must_be_positive(self, spacing):
        with pytest.raises(BadInputError, match="spacing must be positive"):
            gl.lattice_points(2, -10, 10, spacing)


class TestGapScan:
    def test_lattice_unit_gaps(self, half_cube):
        rep = gl.distance_set(gl.lattice_points(2, -5, 5), half_cube, 20.0)
        count, gaps = gl.gap_scan(rep, 1.0, 0.0)
        assert count == 10
        assert gaps[0] == (0.0, 2.0)

    def test_no_gaps_of_length_three(self, half_cube):
        rep = gl.distance_set(gl.lattice_points(2, -5, 5), half_cube, 20.0)
        count, _ = gl.gap_scan(rep, 3.0, 0.0)
        assert count == 0

    def test_monotone_in_eps(self, unit_disk):
        rng = np.random.default_rng(5)
        pts = gl.PointSet(rng.uniform(0, 4, size=(30, 2)))
        rep = gl.distance_set(pts, unit_disk, 6.0)
        prev = None
        for eps in (0.001, 0.01, 0.1):
            count, gaps = gl.gap_scan(rep, eps, 0.0)
            if prev is not None:
                assert set(gaps) <= set(prev)
            prev = gaps

    def test_against_interval_sweep_oracle(self, unit_disk):
        rng = np.random.default_rng(31)
        pts = gl.PointSet(rng.uniform(0, 3, size=(25, 2)))
        rep = gl.distance_set(pts, unit_disk, 4.0)
        count, _ = gl.gap_scan(rep, 0.25, 0.0)
        sweep = oracles.interval_gap_sweep(rep.distances, 0.25, 0.0, 4.0, 0.002)
        assert abs(count - sweep) <= 1  # sweep granularity at window edges


class TestThicken:
    def test_samples_stay_within_scaled_body(self, half_cube):
        lat = gl.lattice_points(2, 0, 3)
        th = gl.thicken(lat, half_cube, 0.05, 6, seed=4)
        offs = th.points.reshape(len(lat), 6, 2) - lat.points[:, None, :]
        assert np.max(half_cube.gauge_many(offs.reshape(-1, 2))) <= 0.05

    def test_identity_case(self, half_cube):
        lat = gl.lattice_points(2, 0, 3)
        th = gl.thicken(lat, half_cube, 0.1, 1, seed=0)
        np.testing.assert_array_equal(th.points, lat.points)

    def test_gap_transfer_inequality(self, half_cube):
        # thickened lattice distances stay within 2s of the center distances
        eps = 2.0
        s = eps / 10
        lat = gl.lattice_points(2, 0, 4)
        th = gl.thicken(lat, half_cube, s, 3, seed=8)
        P = th.points
        centers = np.repeat(lat.points, 3, axis=0)
        for i in range(len(P)):
            d_pts = half_cube.gauge_many(P - P[i][None, :])
            d_ctr = half_cube.gauge_many(centers - centers[i][None, :])
            assert np.max(np.abs(d_pts - d_ctr)) <= 2 * s + 1e-12

    def test_gap_transfer_leaves_middle_empty(self, half_cube):
        # every distance gap (x, x+2) of the lattice yields an empty middle
        # interval (x + 2/5, x + 8/5) for the thickened set
        eps = 2.0
        s = eps / 10
        lat = gl.lattice_points(2, 0, 4)
        th = gl.thicken(lat, half_cube, s, 4, seed=15)
        rep = gl.distance_set(th, half_cube, 8.0)
        for x in (0.0, 2.0, 4.0, 6.0):
            inside = (rep.distances > x + eps / 5) & (rep.distances < x + 4 * eps / 5)
            assert not np.any(inside)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 25), dim=st.integers(1, 3),
           per_point=st.integers(1, 5), s=st.floats(0.01, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_equals_center_by_center_loop(self, seed, n, dim, per_point, s):
        pts = gl.PointSet(np.random.default_rng(seed).uniform(-5, 5, size=(n, dim)))
        body = gl.cube_body(dim, 0.5)
        got = gl.thicken(pts, body, s, per_point, seed=seed)
        assert np.array_equal(got.points, oracles.loop_thicken(pts, body, s, per_point, seed).points)

    def test_empty_set_thickens_to_empty_set(self, half_cube):
        th = gl.thicken(gl.PointSet(np.empty((0, 2))), half_cube, 0.1, 3)
        assert th.points.shape == (0, 2)


def cube_cloud(seed, n, dim, decimals, flip):
    """n points on a 10^-decimals grid in [-6, 6]^dim, negated when flip (so a zero
    coordinate is -0.0 and its cube key rounds from -0.0)."""
    pts = np.unique(np.round(np.random.default_rng(seed).uniform(-6, 6, size=(n, dim)),
                             decimals), axis=0)
    return gl.PointSet(-pts if flip else pts)


class TestSparsify:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 80), dim=st.integers(1, 3),
           decimals=st.integers(0, 2), flip=st.booleans(),
           R=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=150, deadline=None)
    def test_equals_first_in_cube_scan(self, seed, n, dim, decimals, flip, R):
        pts = cube_cloud(seed, n, dim, decimals, flip)
        got, ref = gl.sparsify(pts, R).points, oracles.scan_sparsify(pts, R).points
        assert got.shape == ref.shape
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))

    def test_negative_zero_keys_share_a_cube(self):
        # rint(-0.15) is -0.0 and rint(0.15) is 0.0: one cube, one survivor
        pts = gl.PointSet([[0.3, 0.2], [-0.3, -0.2]])
        np.testing.assert_array_equal(gl.sparsify(pts, 2.0).points, [[-0.3, -0.2]])

    def test_empty_set(self):
        for pts in (np.empty((0, 3)), [[2.0, 0.0], [0.0, 2.0]]):
            sp = gl.sparsify(gl.PointSet(pts), 2.0)
            assert len(sp) == 0 and sp.dim == np.shape(pts)[1]

    def test_lattice_spacing_three(self):
        lat = gl.lattice_points(2, -12, 12)
        sp = gl.sparsify(lat, 3.0)
        assert len(sp) > 0
        d = sp.points[:, None, :] - sp.points[None, :, :]
        sup = np.max(np.abs(d), axis=2)
        sup[np.diag_indices(len(sp))] = np.inf
        assert np.min(sup) >= 3.0

    def test_single_point_kept_when_in_cube(self):
        sp = gl.sparsify(gl.PointSet([[0.1, -0.2]]), 2.0)
        assert len(sp) == 1

    def test_single_point_dropped_when_outside(self):
        # nearest cube index (1,0) is odd in the first coordinate
        sp = gl.sparsify(gl.PointSet([[2.0, 0.0]]), 2.0)
        assert len(sp) == 0

    def test_dense_cloud_pairwise_separation(self):
        rng = np.random.default_rng(55)
        pts = gl.PointSet(rng.uniform(-20, 20, size=(400, 2)))
        sp = gl.sparsify(pts, 2.0)
        P = sp.points
        for i in range(len(P)):
            sup = np.max(np.abs(P - P[i][None, :]), axis=1)
            sup[i] = np.inf
            assert np.min(sup) > 2.0

    def test_output_subset_of_input(self):
        rng = np.random.default_rng(56)
        pts = gl.PointSet(rng.uniform(-9, 9, size=(200, 2)))
        sp = gl.sparsify(pts, 1.5)
        rows = {tuple(p) for p in pts.points}
        assert all(tuple(p) in rows for p in sp.points)

    def test_keeps_lexicographic_smallest(self):
        pts = gl.PointSet([[0.3, 0.3], [-0.3, 0.4], [-0.3, -0.4]])
        sp = gl.sparsify(pts, 2.0)
        np.testing.assert_array_equal(sp.points, [[-0.3, -0.4]])


class TestPointSet:
    def test_duplicates_rejected(self):
        with pytest.raises(BadInputError):
            gl.PointSet([[1.0, 2.0], [1.0, 2.0]])

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(60)
        pts = gl.PointSet(rng.normal(size=(17, 3)))
        path = tmp_path / "pts.csv"
        pts.save_csv(path)
        back = gl.PointSet.load_csv(path)
        np.testing.assert_array_equal(back.points, pts.points)
