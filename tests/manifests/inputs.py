"""Write the input files that the manifests in this directory read.

    python tests/manifests/inputs.py DIR

Bodies, a boundary measure, a grid indicator, point sets and a list of distances,
each written by gaugelab's own writers, plus two body files for bad-input runs: one
that is not 0-symmetric and one with a NaN semi-axis.
"""

import json
import sys
from pathlib import Path

import numpy as np

import gaugelab as gl
from gaugelab.correlation import save_indicator
from gaugelab.measures import save_measure

BODIES = {
    "interval": gl.cube_body(1, 0.8),
    "square": gl.cube_body(2, 0.5),
    "hexagon": gl.regular_polygon_body(6),
    "polygon6": gl.random_symmetric_polytope(2, 6, 1),
    "polygon9": gl.random_symmetric_polytope(2, 9, 3),
    "polygon40": gl.random_symmetric_polytope(2, 40, 2),
    "circle": gl.ball_body(2),
    "ellipse": gl.Ellipsoid([0.9, 0.6]),
    "superellipse": gl.RadialBody(p=4.0, axes=[0.9, 0.7]),
    "tabulated": gl.RadialBody(radial_samples=np.tile(0.8 + 0.15 * np.cos(
        np.linspace(0.0, np.pi, 24, endpoint=False)) ** 2, 2)),
    "cube3": gl.cube_body(3, 0.5),
    "ball3": gl.ball_body(3),
    "polytope3": gl.random_symmetric_polytope(3, 6, 2),
    "polytope3-13": gl.random_symmetric_polytope(3, 13, 4),
    "ellipsoid3": gl.Ellipsoid([0.9, 0.7, 0.5]),
    "super3": gl.RadialBody(p=4.0, axes=[0.9, 0.8, 0.7]),
}


def main(out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, body in BODIES.items():
        gl.save_body(body, out / f"{name}.json")
    # three facets: no facet is opposite the second one
    (out / "asymmetric.json").write_text(json.dumps(
        {"dim": 2, "type": "hpolytope", "normals": [[1, 0], [0, 1], [-1, 0]],
         "offsets": [1, 1, 1]}))
    # json writes, and reads back, the NaN token that is not JSON proper
    (out / "nonfinite.json").write_text(json.dumps(
        {"dim": 2, "type": "ellipsoid", "axes": [float("nan"), 1.0]}))
    square = gl.triangulate_boundary(BODIES["square"], 512)
    save_measure(gl.from_mesh(square, normalize=True), out / "square-measure.json")
    save_indicator(gl.random_indicator(2, 64, 0.3 * np.pi, seed=5), out / "indicator.json")
    rng = np.random.default_rng(3)
    gl.PointSet(rng.uniform(-3, 3, size=(120, 2))).save_csv(out / "points2.csv")
    gl.PointSet(rng.uniform(-2, 2, size=(40, 3))).save_csv(out / "points3.csv")
    # the hexagon tiles the plane, so the lattice dual to its tiling lattice is a spectrum
    hexagon = BODIES["hexagon"]
    dual = np.linalg.inv(2 * hexagon.offsets[:2, None] * hexagon.normals[:2]).T
    k = np.stack(np.meshgrid(np.arange(-4, 5), np.arange(-4, 5), indexing="ij"), axis=-1)
    gl.PointSet(k.reshape(-1, 2) @ dual).save_csv(out / "hexagon-dual.csv")
    values = np.round(rng.uniform(0, 6, size=60), 2)
    (out / "values.csv").write_text("value\n" + "".join(f"{v:.17g}\n" for v in values))
    # off every grid and over 1024 points, so the pair walk crosses its 512-point blocks
    big = np.random.default_rng(11).uniform(-30, 30, size=(1100, 2))
    gl.PointSet(big).save_csv(out / "points2-1100.csv")


if __name__ == "__main__":
    main(sys.argv[1])
