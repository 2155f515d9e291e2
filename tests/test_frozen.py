"""Inputs and results are read-only after construction.

Every exported class that is not an exception refuses to bind or delete an attribute,
public or cached, so no cache can outlive the data it was built from.  The four cases of
TestNoRebindingUnderACache each rebound an input under a cache that had already read it,
and the cache then disagreed with the input.
"""

import inspect
from functools import cached_property

import numpy as np
import pytest

import gaugelab as gl

# one or more instances of each exported class, built the way a run builds them
INSTANCES = {
    "AtomicMeasure": lambda: [gl.triangulate_boundary(gl.ball_body(2), 64),
                              gl.AtomicMeasure([[0.5, 0.0]], [1.0])],
    "BourgainConstants": lambda: [gl.BourgainConstants(2)],
    "CapFamily": lambda: [gl.CapFamily([[1.0, 0.0], [0.0, 1.0]], 0.1)],
    "ConvexBody": lambda: [gl.cube_body(3, 0.5)],
    "Ellipsoid": lambda: [gl.Ellipsoid([1.0, 0.5]), gl.ball_body(3)],
    "GapReport": lambda: [gl.distance_set(gl.lattice_points(2, -2, 2), gl.cube_body(2), 4.0)],
    "GoodnessReport": lambda: [gl.goodness_profile(
        gl.triangulate_boundary(gl.ball_body(2), 64), 2.0, [2.0, 4.0], 16)],
    "GridIndicator": lambda: [gl.random_indicator(2, 16, 0.3, seed=1)],
    "HPolytope": lambda: [gl.regular_polygon_body(6), gl.random_symmetric_polytope(3, 5, 1)],
    "LacunaryPlan": lambda: [gl.LacunaryPlan.geometric(0.05, 20.0, d=2, eps=0.3)],
    "LineMeasure": lambda: [gl.project_measure(gl.triangulate_boundary(gl.cube_body(2), 64),
                                               [1.0, 0.0])],
    "PointSet": lambda: [gl.lattice_points(2, -2, 2)],
    "RadialBody": lambda: [gl.RadialBody(p=3.0, axes=[1.0, 0.5]),
                           gl.RadialBody(radial_samples=np.ones(16))],
    "SplitResult": lambda: [gl.split_integrals(gl.random_indicator(2, 16, 0.3, seed=1),
                                               gl.from_mesh(gl.triangulate_boundary(
                                                   gl.ball_body(2), 64), normalize=True),
                                               0.2, 0.05)],
    "ZeroLedger": lambda: [gl.radial_zero_scan(gl.cube_body(2, 0.5), (0.5, 3.0), 50)],
}


def exported_classes():
    return sorted(name for name, obj in vars(gl).items()
                  if inspect.isclass(obj) and not issubclass(obj, BaseException))


def test_every_exported_class_has_instances():
    assert sorted(INSTANCES) == exported_classes()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_attribute_is_read_only(name):
    cls = getattr(gl, name)
    for obj in INSTANCES[name]():
        assert isinstance(obj, cls)
        cached = {attr for klass in type(obj).__mro__ for attr, value in vars(klass).items()
                  if isinstance(value, cached_property)}
        public = {attr for attr in dir(obj) if not attr.startswith("_")}
        for attr in sorted(public | cached | {"fresh_attribute"}):
            with pytest.raises(AttributeError):
                setattr(obj, attr, None)
            with pytest.raises(AttributeError):
                delattr(obj, attr)


class TestNoRebindingUnderACache:
    def test_measure_weights(self):
        mu = gl.triangulate_boundary(gl.ball_body(2), 64)
        assert mu.abs_mass == pytest.approx(6.28, abs=0.01)   # cached on first read
        with pytest.raises(AttributeError):
            mu.weights = 2 * mu.weights
        with pytest.raises(AttributeError):
            mu.abs_mass = 0.0
        assert mu.abs_mass == mu.total_mass == gl.AtomicMeasure(mu.positions, mu.weights).abs_mass

    def test_indicator_cells(self):
        f = gl.random_indicator(2, 32, 0.5, seed=3)
        total = f._transforms[0][2]
        with pytest.raises(AttributeError):
            f.cells = np.zeros_like(f.cells)
        fresh = gl.GridIndicator(f.dim, f.m, f.cells)
        assert f.measure == fresh.measure > 0
        assert total == fresh._transforms[0][2] > 0

    def test_polytope_offsets(self):
        body, xi = gl.cube_body(2, 0.5), [0.3, 0.1]
        value = gl.chi_hat(body, xi)
        with pytest.raises(AttributeError):
            body.offsets = np.ones(4)
        with pytest.raises(AttributeError):
            body.vertices = gl.cube_body(2, 1.0).vertices
        assert value == gl.chi_hat(body, xi) == gl.chi_hat(gl.cube_body(2, 0.5), xi)
        assert np.array_equal(body.vertices[0], [-0.5, -0.5])

    def test_ball_axes(self):
        body = gl.ball_body(2)
        radii = body.polar_nodes(64)[1]
        with pytest.raises(AttributeError):
            body.axes = np.array([2.0, 2.0])
        assert body.polar_nodes(64)[1] is radii and body.gauge([1.0, 0.0]) == 1.0
        assert np.array_equal(radii, gl.ball_body(2).polar_nodes(64)[1])
        assert np.max(np.abs(radii - 1.0)) <= 1e-15
