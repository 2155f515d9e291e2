import hashlib
import json
import math

import numpy as np
import pytest

import gaugelab as gl
from gaugelab.cli import ExperimentManifest, main, run


@pytest.fixture()
def workdir(tmp_path):
    gl.save_body(gl.ball_body(2), tmp_path / "circle.json")
    gl.save_body(gl.cube_body(2, 0.5), tmp_path / "cube.json")
    gl.save_body(gl.regular_polygon_body(6), tmp_path / "hexagon.json")
    return tmp_path


def _args(*parts):
    return [str(p) for p in parts]


def _digest(directory):
    chunks = []
    for path in sorted(directory.iterdir()):
        chunks.append(path.name.encode())
        chunks.append(path.read_bytes())
    return hashlib.sha256(b"".join(chunks)).hexdigest()


class TestCommands:
    def test_body(self, workdir):
        out = workdir / "body"
        assert main(_args("body", "--body", workdir / "circle.json",
                          "--resolution", 512, "--out", out)) == 0
        assert (out / "mesh.csv").exists()
        log = (out / "run.log").read_text()
        assert "surface mass" in log

    def test_gauge(self, workdir):
        out = workdir / "gauge"
        assert main(_args("gauge", "--body", workdir / "cube.json",
                          "--point", "1,0", "--out", out)) == 0
        row = (out / "gauge.csv").read_text().splitlines()[1].split(",")
        assert float(row[-2]) == pytest.approx(2.0)

    def test_gauge_from_points_file(self, workdir):
        pts = gl.PointSet([[1.0, 0.0], [0.25, 0.25]])
        pts.save_csv(workdir / "pts.csv")
        out = workdir / "gaugepts"
        assert main(_args("gauge", "--body", workdir / "cube.json",
                          "--points", workdir / "pts.csv", "--out", out)) == 0
        rows = (out / "gauge.csv").read_text().splitlines()[1:]
        assert float(rows[0].split(",")[2]) == pytest.approx(2.0)
        assert float(rows[1].split(",")[2]) == pytest.approx(0.5)

    def test_distset_lattice(self, workdir):
        out = workdir / "distset"
        assert main(_args("distset", "--body", workdir / "cube.json",
                          "--lattice", "Z2", "--tmax", 20, "--out", out)) == 0
        vals = np.loadtxt(out / "distances.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(vals, np.arange(0, 21, 2), atol=1e-9)
        assert "separated: True" in (out / "run.log").read_text()

    def test_gaps(self, workdir):
        src = workdir / "distset2"
        main(_args("distset", "--body", workdir / "cube.json", "--lattice", "Z2",
                   "--tmax", 20, "--out", src))
        out = workdir / "gaps"
        assert main(_args("gaps", "--distances", src / "distances.csv",
                          "--eps", 1, "--tmax", 20, "--out", out)) == 0
        assert "gap count: 10" in (out / "run.log").read_text()

    def test_gaps_reports_the_tail_gap_up_to_tmax(self, workdir):
        src = workdir / "distset3"
        main(_args("distset", "--body", workdir / "cube.json", "--lattice", "Z2",
                   "--tmax", 20, "--out", src))
        out = workdir / "gapstail"
        assert main(_args("gaps", "--distances", src / "distances.csv",
                          "--eps", 3, "--tmax", 25, "--out", out)) == 0
        rows = (out / "gapscan.csv").read_text().splitlines()[1:]
        assert [[float(v) for v in r.split(",")] for r in rows] == [[20.0, 5.0]]
        assert "gap count: 1" in (out / "run.log").read_text()
        # the one GapReport builder, on the library's distances up to 20, then to 25
        report = gl.distance_set(gl.lattice_points(2, -10, 10), gl.cube_body(2, 0.5), 20.0)
        assert gl.gap_scan(report, 3.0)[0] == 0
        wider = gl.GapReport.from_values(report.distances, 25.0)
        assert gl.gap_scan(wider, 3.0)[1] == [(20.0, 5.0)]

    def test_ftscan_and_project(self, workdir):
        out = workdir / "ft"
        assert main(_args("ftscan", "--body", workdir / "circle.json",
                          "--eta", "1,0;0,1", "--tgrid", "0,5,11",
                          "--resolution", 1024, "--out", out)) == 0
        header = (out / "ftscan.csv").read_text().splitlines()[0]
        assert header == "t,eta_index,re,im,abs"
        out2 = workdir / "proj"
        assert main(_args("project", "--body", workdir / "cube.json",
                          "--eta", "1,0", "--resolution", 1024, "--out", out2)) == 0
        atoms = np.loadtxt(out2 / "atoms.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(np.sort(atoms[:, 0]), [-0.5, 0.5], atol=1e-12)

    def test_wiener(self, workdir):
        out = workdir / "wiener"
        assert main(_args("wiener", "--body", workdir / "cube.json", "--eta", "1,0",
                          "--T", 60, "--resolution", 1024, "--out", out)) == 0
        value = float((out / "wiener.csv").read_text().splitlines()[1].split(",")[1])
        assert value == pytest.approx(0.125, rel=0.08)

    def test_decay(self, workdir):
        out = workdir / "decay"
        assert main(_args("decay", "--body", workdir / "circle.json",
                          "--thetas", "1,0", "--rcap", "0.4", "--delta", "0.3",
                          "--tgrid", "10,40,2", "--resolution", 2048,
                          "--out", out)) == 0
        env = np.loadtxt(out / "envelope.csv", delimiter=",", skiprows=1)
        assert env[1, 1] < env[0, 1]

    @pytest.mark.parametrize("command, flag, value, args", [
        ("wiener", "--eta", "-1,0", ("--T", 60)),
        ("decay", "--tgrid", "-5,20,3", ("--thetas", "1,0", "--rcap", "0.4", "--delta", "0.3")),
    ])
    def test_negative_list_is_a_value(self, workdir, command, flag, value, args):
        outs = []
        for form in ((flag, value), (f"{flag}={value}",)):
            outs.append(workdir / f"{command}{len(form)}")
            assert main(_args(command, "--body", workdir / "circle.json", *form, *args,
                              "--resolution", 512, "--out", outs[-1])) == 0
        csv = f"{command}.csv"
        assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes()
        assert json.loads((outs[0] / "manifest.json").read_text())["params"][flag[2:]] == value

    def test_decay_columns_are_complex_parts(self, workdir):
        out = workdir / "decay"
        assert main(_args("decay", "--body", workdir / "circle.json",
                          "--thetas", "1,0", "--rcap", "0.4", "--delta", "0.3",
                          "--tgrid", "10,40,2", "--resolution", 2048,
                          "--out", out)) == 0
        rows = np.loadtxt(out / "decay.csv", delimiter=",", skiprows=1)
        re, im, ab = rows[:, 2], rows[:, 3], rows[:, 4]
        np.testing.assert_allclose(re ** 2 + im ** 2, ab ** 2, rtol=1e-12, atol=1e-300)
        assert np.any(np.abs(im) > 1e-6 * np.max(ab))
        env = np.loadtxt(out / "envelope.csv", delimiter=",", skiprows=1)
        assert np.max(ab[rows[:, 0] == env[0, 0]]) == env[0, 1]

    def test_goodness(self, workdir):
        out = workdir / "good"
        assert main(_args("goodness", "--body", workdir / "circle.json", "--N", 5,
                          "--rcap", 0.05, "--delta", 0.05, "--resolution", 8192,
                          "--angular", 4096, "--out", out)) == 0
        summary = (out / "summary.txt").read_text()
        fields = dict(item.split("=") for item in summary.split())
        assert list(fields) == ["N", "R", "eps_hat", "target", "ok"]
        assert fields["ok"] == "True"
        assert float(fields["eps_hat"]) <= 0.25

    def test_audit(self, workdir):
        out = workdir / "audit"
        assert main(_args("audit", "--body", workdir / "hexagon.json", "--T", 120,
                          "--resolution", 600, "--out", out)) == 0
        row = (out / "audit.csv").read_text().splitlines()[1].split(",")
        assert int(row[0]) == 3
        assert row[-1] == "True"

    def test_bourgain(self, workdir):
        out = workdir / "bourgain"
        assert main(_args("bourgain", "--body", workdir / "circle.json",
                          "--eps", 0.3, "--delta", 0.05, "--seed", 7,
                          "--grid", 128, "--resolution", 256, "--out", out)) == 0
        rows = (out / "bourgain.csv").read_text().splitlines()
        assert rows[0] == "j,t_j,I1,I2,I3,direct,verdict"
        assert rows[-1].endswith("positive")
        log = (out / "run.log").read_text()
        assert "POSITIVE" in log

    def test_zeros(self, workdir):
        out = workdir / "zeros"
        assert main(_args("zeros", "--body", workdir / "circle.json",
                          "--window", "0.5,10", "--steps", 2000, "--out", out)) == 0
        first = float((out / "zeros.csv").read_text().splitlines()[1].split(",")[0])
        assert first == pytest.approx(0.609835, abs=1e-4)

    def test_spectrum(self, workdir):
        out = workdir / "spectrum"
        assert main(_args("spectrum", "--body", workdir / "cube.json",
                          "--lattice", "Z2", "--R", 2, "--ortho_tol", "1e-9",
                          "--out", out)) == 0
        assert (out / "sparsified.csv").exists()
        assert "orthogonality residual" in (out / "run.log").read_text()

    def test_spectrum_lattice_range_and_spacing(self, workdir):
        out = workdir / "spectrum_range"
        assert main(_args("spectrum", "--body", workdir / "cube.json", "--lattice", "Z2",
                          "--range", -4, 4, "--spacing", 0.5, "--R", 2, "--out", out)) == 0
        by_flags = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "input points: 289" in by_flags["run.log"].decode()    # 17 x 17 at spacing 1/2
        assert main(_args("--manifest", out / "manifest.json")) == 0
        by_file = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(by_file) == sorted(by_flags)
        for name in by_flags:
            assert by_file[name] == by_flags[name], name
        assert "param range: [-4.0, 4.0]" in by_flags["run.log"].decode().splitlines()


class TestDeterminismAndLog:
    def test_identical_manifest_identical_bytes(self, workdir):
        out = workdir / "det"
        args = _args("bourgain", "--body", workdir / "circle.json", "--eps", 0.3,
                     "--delta", 0.05, "--seed", 7, "--grid", 128,
                     "--resolution", 256, "--out", out)
        assert main(args) == 0
        first = _digest(out)
        assert main(_args("--manifest", out / "manifest.json")) == 0
        assert _digest(out) == first

    def test_logged_constants_match_recomputation(self, workdir):
        out = workdir / "consts"
        main(_args("bourgain", "--body", workdir / "circle.json", "--eps", 0.3,
                   "--delta", 0.05, "--seed", 3, "--grid", 128,
                   "--resolution", 256, "--out", out))
        log = {}
        for line in (out / "run.log").read_text().splitlines():
            if ": " in line:
                key, _, val = line.partition(": ")
                log[key] = val
        d = 2
        omega = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
        base = omega / (4 ** d * math.pi ** d)
        eps = float(log["set measure"])
        assert float(log["omega_d"]) == pytest.approx(omega, rel=1e-15)
        assert float(log["theta"]) == pytest.approx(base / 80, rel=1e-15)
        assert float(log["eta(|A|)"]) == pytest.approx(base / 80 * eps, rel=1e-12)
        assert float(log["I1 constant"]) == pytest.approx(base / 8, rel=1e-15)
        assert float(log["positivity constant"]) == pytest.approx(base / 40, rel=1e-15)
        theta = base / 80
        j0 = int(log["j0 index"])
        expect_bound = j0 + math.ceil(10 / theta / eps * math.log(1 / 0.05))
        assert int(log["J bound"]) == expect_bound

    def test_manifest_round_trip(self, workdir, tmp_path):
        manifest = ExperimentManifest(command="gauge", out=str(tmp_path / "m"),
                                      body=str(workdir / "cube.json"),
                                      params={"point": "0.5,0.5"})
        path = tmp_path / "man.json"
        path.write_text(json.dumps(manifest.to_dict()))
        loaded = ExperimentManifest.from_file(path)
        assert loaded.command == "gauge"
        assert run(loaded) == 0


# Runs that the CLI refuses while reading their parameters: as flags after the command and
# its body, or as a saved manifest.
MALFORMED = {
    "zeros-window-one-value": ("zeros", "circle.json", "--window", "3", "--steps", 100),
    "zeros-steps-fraction": ("zeros", "circle.json", "--window", "0.5,6", "--steps", 2.5),
    "ftscan-tgrid-count": ("ftscan", "circle.json", "--eta", "1,0", "--tgrid", "1,2,x"),
    "distset-lattice": ("distset", "cube.json", "--lattice", "Zx", "--tmax", 4),
    "distset-tmax": ("distset", "cube.json", "--lattice", "Z2", "--tmax", "abc"),
    "project-bins-fraction": ("project", "circle.json", "--eta", "1,0", "--bins", 2.5),
    "goodness-angular-fraction": ("goodness", "circle.json", "--N", 3, "--rcap", 0.1,
                                  "--delta", 0.05, "--angular", 2.5),
    "wiener-T": ("wiener", "circle.json", "--eta", "1,0", "--T", "abc"),
    "audit-T-overflow": ("audit", "hexagon.json", "--T", "1e400"),
    "bourgain-delta": ("bourgain", "circle.json", "--delta", "x"),
    "spectrum-ortho-tol": ("spectrum", "cube.json", "--lattice", "Z2", "--R", 2,
                           "--ortho_tol", "x"),
    "manifest-seed": {"command": "body", "body": "circle.json", "seed": "x"},
    "manifest-bins-fraction": {"command": "project", "body": "circle.json",
                               "params": {"eta": "1,0", "bins": 2.5}},
    "manifest-undeclared-key": {"command": "body", "body": "circle.json",
                                "params": {"normalise": "false"}},
    "manifest-resolution-fraction": {"command": "body", "body": "circle.json",
                                     "params": {"resolution": 2048.5}},
}


class TestExitCodes:
    def test_bad_body_file(self, workdir):
        assert main(_args("gauge", "--body", workdir / "missing.json",
                          "--point", "1,0", "--out", workdir / "x1")) == 2

    def test_invalid_body_contents(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "type": "hpolytope",
                                   "normals": [[1, 0]], "offsets": [1.0]}))
        assert main(_args("gauge", "--body", bad, "--point", "1,0",
                          "--out", workdir / "x2")) == 2

    def test_zero_mass_cap_is_hypothesis_violation(self, workdir):
        # a cube supports no caps away from the axes: decay over a diagonal cap
        assert main(_args("decay", "--body", workdir / "cube.json",
                          "--thetas", "1,1", "--rcap", "0.1", "--delta", "0.1",
                          "--tgrid", "1,10,3", "--resolution", 512,
                          "--out", workdir / "x3")) == 3

    def test_budget_exceeded(self, workdir, monkeypatch):
        import gaugelab.correlation as corr
        monkeypatch.setattr(corr, "random_indicator",
                            lambda *a, **k: (_ for _ in ()).throw(
                                gl.BudgetExceededError("ball budget")))
        assert main(_args("bourgain", "--body", workdir / "circle.json",
                          "--eps", 0.3, "--delta", 0.05, "--grid", 64,
                          "--out", workdir / "x4")) == 4

    def test_oversized_grid_refused_before_allocation(self, workdir):
        import tracemalloc
        gl.save_body(gl.ball_body(3), workdir / "ball3.json")
        tracemalloc.start()
        try:
            code = main(_args("bourgain", "--body", workdir / "ball3.json",
                              "--eps", 0.3, "--delta", 0.05, "--grid", 100_000,
                              "--out", workdir / "x5"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 1 << 20

    def test_polytope_over_the_vertex_cap_refused_before_allocation(self, workdir):
        # C(94, 4) * 94 facet checks pass VERTEX_WORK.  A 3d body over the cap has 202
        # facets, whose n x n pairing check alone takes ~1.2 MiB before the vertices.
        import tracemalloc
        v = np.random.default_rng(1).normal(size=(47, 4))
        gl.save_body(gl.HPolytope(np.vstack([v, -v]), np.full(94, 2.0)), workdir / "p4.json")
        tracemalloc.start()
        try:
            code = main(_args("gauge", "--body", workdir / "p4.json", "--point", "1,1,1,1",
                              "--out", workdir / "x6"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 1 << 20

    @pytest.mark.parametrize("command, key, extra", [
        ("ftscan", "--eta", ("--tgrid", "0,1,3")),
        ("project", "--eta", ()),
        ("wiener", "--eta", ("--T", 10)),
        ("decay", "--thetas", ("--rcap", 0.4, "--delta", 0.3, "--tgrid", "1,2,2")),
    ])
    @pytest.mark.parametrize("vector", ["0,0", "1,0,0"])
    def test_zero_or_wrong_length_direction_is_bad_input(self, workdir, command, key,
                                                         extra, vector):
        out = workdir / f"{command}-{vector}"
        assert main(_args(command, "--body", workdir / "circle.json", key, vector,
                          "--resolution", 256, *extra, "--out", out)) == 2
        assert not (out / "run.log").exists()

    @pytest.mark.parametrize("command, option, args", [
        ("goodness", "--angular=0", ("--N", 3, "--rcap", 0.1, "--delta", 0.05)),
        ("goodness", "--angular=-5", ("--N", 3, "--rcap", 0.1, "--delta", 0.05)),
        ("project", "--bins=0", ("--eta", "1,0")),
        ("project", "--bins=-2", ("--eta", "1,0")),
    ])
    def test_count_below_one_is_bad_input(self, workdir, command, option, args):
        out = workdir / f"{command}{option}"
        assert main(_args(command, "--body", workdir / "circle.json", option, *args,
                          "--resolution", 512, "--out", out)) == 2
        assert not (out / "run.log").exists()

    @pytest.mark.parametrize("samples", ["2.5", "0", "nan", "many"])
    def test_wiener_samples_not_a_positive_integer_is_bad_input(self, workdir, samples):
        out = workdir / f"wiener-{samples}"
        assert main(_args("wiener", "--body", workdir / "hexagon.json", "--eta", "1,0",
                          "--T", 10, "--samples", samples, "--resolution", 256,
                          "--out", out)) == 2
        assert not (out / "run.log").exists()

    @pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_parameter_is_bad_input(self, workdir, argv):
        out = workdir / "refused"
        if isinstance(argv, dict):   # a saved manifest
            path = workdir / "manifest.json"
            path.write_text(json.dumps({**argv, "body": str(workdir / argv["body"]),
                                        "out": str(out)}))
            argv = ("--manifest", path)
        else:
            argv = (argv[0], "--body", workdir / argv[1], *argv[2:], "--out", out)
        assert main(_args(*argv)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "value\n1.0\nx\n"], ids=["missing", "malformed"])
    def test_missing_or_malformed_distances_file_is_bad_input(self, workdir, text):
        path = workdir / "distances.csv"
        if text is not None:
            path.write_text(text)
        assert main(_args("gaps", "--distances", path, "--eps", 1,
                          "--out", workdir / "gaps")) == 2

    @pytest.mark.parametrize("argv", [
        ("gauge", "cube.json", "--points", "points3.csv"),
        ("gauge", "cube.json", "--point", "1,2,3"),
        ("distset", "cube.json", "--points", "points3.csv", "--tmax", 4),
        ("spectrum", "cube.json", "--points", "points3.csv", "--R", 2),
        ("spectrum", "superellipse.json", "--points", "points3.csv", "--R", 2,
         "--ortho_tol", 1),
    ], ids=["gauge-points", "gauge-point", "distset", "spectrum", "spectrum-ortho-tol"])
    def test_points_of_another_dimension_are_bad_input(self, workdir, argv):
        gl.PointSet(np.random.default_rng(3).uniform(-2, 2, size=(40, 3))).save_csv(
            workdir / "points3.csv")
        gl.save_body(gl.RadialBody(p=4.0, axes=[0.9, 0.7]), workdir / "superellipse.json")
        command, body, *rest = argv
        assert main(_args(command, "--body", workdir / body, *[
            workdir / a if str(a).endswith(".csv") else a for a in rest],
            "--out", workdir / "refused")) == 2

    @pytest.mark.parametrize("lattice, spacing, code", [
        ("Z2", "0", 2), ("Z2", "-1", 2), ("Z30", "1", 4), ("Z2", "1e-300", 4)])
    def test_lattice_box_refused(self, workdir, lattice, spacing, code):
        assert main(_args("distset", "--body", workdir / "cube.json", "--lattice", lattice,
                          f"--spacing={spacing}", "--tmax", 1, "--out", workdir / "x")) == code

    def test_lattice_of_more_than_64_dimensions_meets_the_dimension_check(self, workdir, capsys):
        # one point per axis: the box passes the size cap, and the 65-d rows are built
        assert main(_args("distset", "--body", workdir / "cube.json", "--lattice", "Z65",
                          "--range", 0, 0.1, "--tmax", 1, "--out", workdir / "x")) == 2
        assert "points of dimension 65 for a body of dimension 2" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("out", 5), ("body", 5), ("points", 5),
                                              ("indicator", 5), ("command", ["gauge"])],
                             ids=["out", "body", "points", "indicator", "command"])
    def test_manifest_field_that_is_not_a_string_is_bad_input(self, workdir, monkeypatch,
                                                              field, value):
        monkeypatch.chdir(workdir)
        path = workdir / "manifest.json"
        path.write_text(json.dumps({"command": "gauge", "out": "refused", "body": "cube.json",
                                    "params": {"point": "1,0"}, field: value}))
        assert main(["--manifest", str(path)]) == 2
        assert not (workdir / "refused").exists() and not (workdir / "5").exists()

    def test_manifest_null_fields_take_their_defaults(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir)
        path = workdir / "manifest.json"
        path.write_text(json.dumps({"command": "gauge", "out": None, "body": "cube.json",
                                    "points": None, "indicator": None,
                                    "params": {"point": "1,0"}}))
        assert main(["--manifest", str(path)]) == 0
        assert (workdir / "gauge.csv").exists()

    def test_unknown_command_usage(self):
        assert main([]) == 2
