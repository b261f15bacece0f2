import copy
import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igeo import cli, immersion, infogeo, models, numerics
from igeo.cli import RunSpec, run_document
from igeo.errors import DegenerateH, OutOfDomain, SchemaError, SingularFrame

DOCS = Path(__file__).resolve().parents[1] / "docs"
SPECS = DOCS.parent / "scripts" / "specs"


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


def _with(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the value at ``path`` (keys and indices) replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def flatness_spec():
    return {
        "label": "nn",
        "subject": {"model": "normal-natural"},
        "grid": {"lo": [-0.5, 0.0], "hi": [-0.4, 0.2], "counts": [2, 2]},
        "checks": ["flatness"],
        "alpha": [1.0],
        "seed": 11,
    }


# the classify flags of the unit sphere, a centro-affine proper hypersphere
SPHERE_FLAGS = {"centro_affine": True, "equiaffine": True, "nondegenerate": True,
                "blaschke": True, "improper_hypersphere": False, "proper_hypersphere": True}


@pytest.fixture(scope="module")
def sphere_spec():
    return {
        "label": "sphere",
        "subject": {"surface": "sphere"},
        "grid": {"lo": [-0.3, -0.3], "hi": [0.3, 0.3], "counts": [3, 3]},
        "checks": ["classify", "structural"],
        "expect": {"classify": {"proper_hypersphere": True}},
    }


class TestRun:
    def test_flatness_spec_passes(self, flatness_spec):
        rep = run_document(flatness_spec)
        result = rep.runs[0].results["flatness"]
        assert result.status == "pass"
        assert result.residuals["alpha=1"]["max_R"] < 1e-4

    def test_sphere_classify(self, sphere_spec):
        rep = run_document(sphere_spec)
        res = rep.runs[0].results["classify"]
        assert res.status == "pass"
        assert res.residuals["proper_hypersphere"] is True
        assert abs(res.residuals["lambda"] - 1.0) < 1e-6
        assert rep.runs[0].results["structural"].status == "pass"

    def test_sphere_grid_outside_unit_disk(self):
        # corners of the sphere's declared box lie outside its chart
        doc = {"label": "sphere-corners", "subject": {"surface": "sphere"},
               "grid": {"lo": [-0.75, -0.75], "hi": [0.75, 0.75], "counts": [2, 2]},
               "checks": ["structural"]}
        res = run_document(doc).runs[0].results["structural"]
        assert res.status == "error"
        assert res.detail == ("sphere chart is defined on the unit disk only, "
                              "got u = [-0.75, -0.75]")

    def test_cubic_symmetry_covers_every_grid_point(self, monkeypatch):
        seen = []
        real = cli.infogeo.cubic_tensor

        def counting(model, theta, alpha=1.0):
            seen.extend((tuple(row), alpha) for row in np.reshape(theta, (-1, model.dim)))
            return real(model, theta, alpha)

        monkeypatch.setattr(cli.infogeo, "cubic_tensor", counting)
        rep = run_document({"subject": {"model": "bernoulli-natural"},
                            "grid": {"lo": [-0.5], "hi": [0.5], "counts": [3]},
                            "checks": ["cubic-symmetry"],
                            "alpha": [1.0, -1.0, 0.5]})
        assert rep.runs[0].results["cubic-symmetry"].status == "pass"
        # C(-1) is C(1) bit for bit, so alpha = -1 is skipped; one batch per alpha
        assert seen == [((t,), a) for a in (1.0, 0.5) for t in (-0.5, 0.0, 0.5)]

    def test_unknown_check_rejected_before_execution(self):
        with pytest.raises(SchemaError):
            RunSpec.from_dict({"subject": {"model": "normal-natural"},
                               "checks": ["spectral-gap"]})

    def test_check_kind_mismatch(self):
        with pytest.raises(SchemaError):
            RunSpec.from_dict({"subject": {"model": "normal-natural"},
                               "checks": ["classify"]})

    def test_errors_do_not_abort_siblings(self):
        # statistical-structure on a degenerate plane -> untestable, while
        # classify still runs
        spec = {
            "subject": {"surface": "plane"},
            "grid": {"lo": [-0.3, -0.3], "hi": [0.3, 0.3], "counts": [2, 2]},
            "checks": ["statistical-structure", "classify"],
            "expect": {"classify": {"centro_affine": True,
                                    "nondegenerate": False}},
        }
        rep = run_document(spec)
        results = rep.runs[0].results
        assert results["statistical-structure"].status == "untestable"
        assert results["classify"].status == "pass"
        assert not rep.all_passed

    def test_expectation_flags(self):
        spec = {
            "subject": {"model": "normal-natural"},
            "grid": {"lo": [-0.5, 0.0], "hi": [-0.5, 0.0], "counts": [1, 1]},
            "checks": ["flatness"],
            "alpha": [0.0],
            "expect": {"flatness": {"0": False}},
        }
        rep = run_document(spec)
        assert rep.runs[0].results["flatness"].status == "pass"

    def test_tolerance_override(self, flatness_spec):
        doc = dict(flatness_spec)
        doc["tolerances"] = {"flatness": 1e-12}
        rep = run_document(doc)
        assert rep.runs[0].results["flatness"].status == "fail"

    def test_validate_detail_names_the_exception_it_caught(self, monkeypatch):
        """validate_model records an exception instead of raising it; the
        check's detail gives the first such reason with its point."""
        space = models.SampleSpace.real_line(
            numerics.ExpectationRule.monte_carlo(nodes=512, seed=3, scale=1.5))
        probe = models.quadrature_sample(space)

        def ll(x, th):
            if x.shape == probe.shape and np.array_equal(x, probe):
                raise RuntimeError("probe rejected")
            return -0.5 * (x[..., 0] - th[..., 0, None]) ** 2 - 0.5 * np.log(2 * np.pi)

        monkeypatch.setitem(models.CATALOG, "probe-raises", lambda: models.StatisticalModel(
            space=space, dim=1, domain=models.Box((-1.0,), (1.0,)), log_density=ll,
            label="probe-raises"))
        rep = run_document({"subject": {"model": "probe-raises"}, "checks": ["validate"],
                            "grid": {"lo": [0.0], "hi": [0.0], "counts": [1]}})
        result = rep.runs[0].results["validate"]
        assert result.residuals["all_smooth"] is False
        assert result.detail == "theta [0.0]: RuntimeError: probe rejected"

    def test_validate_fails_where_the_score_jet_was_not_evaluated(self):
        """At (-0.7799, -1.9999) the score jet's stencil leaves the domain:
        the point is not smooth and fails validate, though every
        normalization residual is within the tolerance."""
        rep = run_document({"subject": {"model": "normal-natural"}, "checks": ["validate"],
                            "grid": {"lo": [-0.7799, -1.9999], "hi": [-0.5, 0.0],
                                     "counts": [2, 2]}})
        result = rep.runs[0].results["validate"]
        assert result.residuals["all_smooth"] is False
        assert result.residuals["max_score_gram_condition"] == float("inf")
        assert result.residuals["max_normalization_residual"] < result.tolerance
        assert result.status == "fail"

    def test_monte_carlo_family_is_dually_flat(self):
        """An inline 2-d normal family on a Monte Carlo rule takes K, g and
        every alpha-connection on the rule's nodes, where it is an
        exponential family of its own: normalized, and flat for alpha = +-1,
        to finite-difference error."""
        space = {"kind": "real-line",
                 "quadrature": {"kind": "monte-carlo", "nodes": 4096, "seed": 3,
                                "loc": 0.0, "scale": 2.0}}
        tols = dict.fromkeys(("validate", "flatness", "codazzi"), 1e-6)
        report = cli.run(RunSpec.from_dict({
            "subject": {"family": {"stats": ["x[0]", "x[0]^2"], "space": space,
                                   "domain": {"lo": [-0.5, -1.5], "hi": [0.5, -0.5]}}},
            "checks": ["validate", "flatness", "codazzi"], "alpha": [1.0, -1.0],
            "tolerances": tols}))
        assert report.all_passed, report.to_dict()["results"]

    def test_adaptive_default_tolerance_serves_the_connections(self, adaptive_runs):
        """The adaptive spec's model, without a tol, at one grid point: the
        default tolerance sits above the finite-difference floor of the jet
        integrand, so every connection check passes."""
        run = {**adaptive_runs[0], "grid": {"lo": [-0.5, 0.0], "hi": [-0.5, 0.0],
                                            "counts": [1, 1]},
               "checks": ["flatness", "alpha-duality", "codazzi", "cubic-symmetry"]}
        assert "tol" not in run["subject"]["model"]["space"]["quadrature"]
        report = cli.run(RunSpec.from_dict(run))
        assert report.all_passed, report.to_dict()["results"]

    def test_geodesic_requires_block(self):
        with pytest.raises(SchemaError):
            RunSpec.from_dict({"subject": {"family": "normal-natural"},
                               "checks": ["geodesic"]})


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, flatness_spec):
        a = run_document(flatness_spec).to_json()
        b = run_document(flatness_spec).to_json()
        assert strip_timestamp(a) == strip_timestamp(b)

    def test_report_schema_validates(self, flatness_spec, sphere_spec):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((DOCS / "report_schema.json").read_text())
        for doc in (flatness_spec, {"runs": [flatness_spec, sphere_spec]}):
            report = run_document(doc).to_dict()
            jsonschema.validate(report, schema)



# JSON trees: floats with -0.0, subnormals, +-inf and NaN (also as
# np.float64), strings with non-ASCII and control characters, and lists
# and dicts, empty ones too
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.floats().map(np.float64)
    | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=24)


class TestReportText:
    """``Report.to_json`` writes, in one walk, the text of ``json.dumps(...,
    indent=2, sort_keys=True)``, which runs the standard library's
    pure-Python encoder."""

    @staticmethod
    def dumps(value) -> str:
        return json.dumps(value, indent=2, sort_keys=True)

    @given(_JSON_VALUES)
    @example({"z": [-0.0, 5e-324, float("inf"), -float("inf"), float("nan")], "a": {},
              "b": [[], {}], "\x00\x1f\u00e9\u2603\U0001f600\n\"\\": [np.float64(0.1), None,
                                                                   True, False, -7]})
    @settings(max_examples=100, deadline=None)
    def test_equals_json_dumps(self, value):
        assert cli._json_text(value) == self.dumps(value)

    @given(_JSON_VALUES, st.sampled_from([object(), {1.0}, b"x", 1j, np.int64(1),
                                          np.bool_(True), np.zeros(2)]),
           st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_a_value_json_rejects_raises_type_error(self, value, bad, where):
        value = [[value, bad], {"k": {"j": bad}}, {(1,): value}][where]
        for write in (cli._json_text, self.dumps):
            with pytest.raises(TypeError):
                write(value)

    @pytest.mark.parametrize("spec", ["full_verify.json", "adaptive_verify.json"])
    def test_every_report_of_the_verify_specs(self, spec):
        report = run_document(json.loads((SPECS / spec).read_text()))
        assert report.to_json() == self.dumps(report.to_dict())


class TestMain:
    def _write_spec(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("command", ["compute", "geodesic"])
    def test_shared_labels_exit_two_before_writing(self, tmp_path, command):
        """Two runs that would write the same CSV names (the label defaults
        to the subject kind) stop the command before it writes anything."""
        run = {"subject": {"family": "bernoulli-natural"}, "checks": ["validate"],
               "grid": {"lo": [0.0], "hi": [0.5], "counts": [2]},
               "geodesic": {"theta0": [0.0], "v0": [0.1], "t_final": 1.0, "steps": 4}}
        spec = self._write_spec(tmp_path, {"runs": [run, dict(run, label="b"), run]})
        csv_dir, out = tmp_path / "csv", tmp_path / "r.json"
        code = cli.main([command, "--spec", str(spec), "--csv-dir", str(csv_dir),
                         "--out", str(out)])
        assert code == 2 and not csv_dir.exists() and not out.exists()

    def test_geodesic_csv_reuses_the_checked_path(self, tmp_path, monkeypatch):
        """One integration per geodesic run: the CSV is the checked path."""
        calls = []
        real = cli.dualflat.geodesic
        monkeypatch.setattr(cli.dualflat, "geodesic",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        geo = {"theta0": [-0.5, 0.0], "v0": [0.05, 0.1], "t_final": 1.0, "steps": 10}
        runs = [{"label": label, "subject": {"family": "normal-natural"},
                 "checks": ["geodesic"], "geodesic": dict(geo, alpha=alpha)}
                for label, alpha in (("e", 1.0), ("m", -1.0))]
        csv_dir = tmp_path / "paths"
        code = cli.main(["geodesic", "--spec", str(self._write_spec(tmp_path, {"runs": runs})),
                         "--out", str(tmp_path / "r.json"), "--csv-dir", str(csv_dir)])
        assert code == 0 and len(calls) == 2
        report = json.loads((tmp_path / "r.json").read_text())
        final = report["runs"][1]["results"]["geodesic"]["residuals"]["final_theta"]
        last = (csv_dir / "geodesic_m.csv").read_text().splitlines()[-1].split(",")
        assert [float(v) for v in last[2:4]] == final

    def test_grid_at_the_domain_edge_keeps_its_details(self):
        """Grids on and just inside the domain edge fail each check with the
        message a point-by-point sweep gave: the first point and node.  The
        Fisher metric is read from the jet's moments, so codazzi, which
        takes it at the grid points first, names the jet's node; validate
        names the exception it caught at its first point."""
        checks = ["validate", "flatness", "alpha-duality", "codazzi", "cubic-symmetry",
                  "exponential-form"]
        theta = "theta [-0.78, -2.0] outside domain of normal-natural"
        want = {
            (-0.78, -2.0): dict(zip(checks, [
                theta, "stencil node [-0.7878125, -2.0] leaves the declared domain",
                "stencil node [-0.7878125, -2.0] leaves the declared domain",
                theta, theta, theta])),
            (-0.7799, -1.9999): dict(zip(checks, [
                "theta [-0.7799, -1.9999]: StencilOutOfDomain: stencil node "
                "[-0.780144140625, -1.9999] leaves the declared domain"]
                + ["stencil node [-0.7877125, -1.9999] leaves the declared domain"] * 2
                + ["stencil node [-0.780144140625, -1.9999] leaves the declared domain"] * 3))}
        for lo, details in want.items():
            rep = run_document({"subject": {"model": "normal-natural"}, "checks": checks,
                                "alpha": [1.0, -1.0],
                                "grid": {"lo": list(lo), "hi": [-0.5, 0.0], "counts": [2, 2]}})
            assert {k: r.detail for k, r in rep.runs[0].results.items()} == details

    def test_verify_exit_zero_and_report(self, tmp_path, flatness_spec):
        spec = self._write_spec(tmp_path, flatness_spec)
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--spec", str(spec), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert report["runs"][0]["results"]["flatness"]["status"] == "pass"

    def test_exit_one_on_failure(self, tmp_path, flatness_spec):
        doc = dict(flatness_spec)
        doc["tolerances"] = {"flatness": 1e-12}
        spec = self._write_spec(tmp_path, doc)
        code = cli.main(["verify", "--spec", str(spec),
                         "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_exit_two_on_config_error(self, tmp_path):
        spec = self._write_spec(tmp_path, {"subject": {"model": "nope"},
                                           "checks": ["duff"]})
        code = cli.main(["verify", "--spec", str(spec)])
        assert code == 2

    def test_exit_two_on_missing_file(self, tmp_path):
        code = cli.main(["verify", "--spec", str(tmp_path / "missing.json")])
        assert code == 2

    def test_tol_override_flag(self, tmp_path, flatness_spec):
        spec = self._write_spec(tmp_path, flatness_spec)
        code = cli.main(["verify", "--spec", str(spec),
                         "--out", str(tmp_path / "r.json"),
                         "--tol-override", "flatness=1e-12"])
        assert code == 1
        code = cli.main(["verify", "--spec", str(spec),
                         "--out", str(tmp_path / "r.json"),
                         "--tol-override", "flatness=notanumber"])
        assert code == 2
        # a tolerance no residual can meet, or none can miss, tests nothing
        for value in ("inf", "nan"):
            assert cli.main(["verify", "--spec", str(spec),
                             "--out", str(tmp_path / "r.json"),
                             "--tol-override", f"flatness={value}"]) == 2

    def test_compute_writes_csv(self, tmp_path, flatness_spec):
        spec = self._write_spec(tmp_path, flatness_spec)
        csv_dir = tmp_path / "csv"
        code = cli.main(["compute", "--spec", str(spec),
                         "--out", str(tmp_path / "r.json"),
                         "--csv-dir", str(csv_dir)])
        assert code == 0
        # one set of files per run, named by its label
        assert sorted(f.name for f in csv_dir.iterdir()) == [
            "connection_nn.csv", "fisher_nn.csv", "grid_nn.csv"]
        fisher = (csv_dir / "fisher_nn.csv").read_text().splitlines()
        assert fisher[0] == "point,i,j,value"
        assert len(fisher) == 1 + 4 * 4  # 4 grid points, 2x2 metric
        conn = (csv_dir / "connection_nn.csv").read_text().splitlines()
        assert conn[0] == "point,alpha,i,j,k,value"

    def test_geodesic_writes_path(self, tmp_path):
        doc = {
            "label": "egeo",
            "subject": {"family": "normal-natural"},
            "checks": ["geodesic"],
            "geodesic": {"theta0": [-0.5, 0.0], "v0": [0.05, 0.1],
                          "t_final": 1.0, "steps": 50, "alpha": 1.0},
        }
        spec = self._write_spec(tmp_path, doc)
        csv_dir = tmp_path / "paths"
        code = cli.main(["geodesic", "--spec", str(spec),
                         "--out", str(tmp_path / "r.json"),
                         "--csv-dir", str(csv_dir)])
        assert code == 0
        lines = (csv_dir / "geodesic_egeo.csv").read_text().splitlines()
        assert lines[0] == "step,t,theta_0,theta_1,v_0,v_1"
        assert len(lines) == 52  # header + 51 samples

    @pytest.mark.parametrize("checks", [["geodesic"], ["validate"]])
    def test_geodesic_leaving_the_domain_writes_its_partial_path(self, tmp_path, capsys,
                                                                 checks):
        """The path is integrated once, by the check (or, when the spec lists
        no geodesic check, by the command); the part inside the domain is
        written, the error goes to stderr and the report is the verify one."""
        doc = {"label": "out", "subject": {"model": "normal-natural"}, "checks": checks,
               "grid": {"lo": [-0.6, -0.2], "hi": [-0.4, 0.2], "counts": [2, 2]},
               "geodesic": {"theta0": [-0.5, 0.0], "v0": [3.0, 0.0], "steps": 20}}
        spec = self._write_spec(tmp_path, doc)
        csv_dir, out = tmp_path / "paths", tmp_path / "r.json"
        code = cli.main(["geodesic", "--spec", str(spec), "--out", str(out),
                         "--csv-dir", str(csv_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: out: geodesic left the domain at t=0\.\d+$", err, re.M)
        assert "Traceback" not in err
        assert strip_timestamp(out.read_text()) == strip_timestamp(
            run_document(doc).to_json() + "\n")
        lines = (csv_dir / "geodesic_out.csv").read_text().splitlines()
        assert 2 < len(lines) < 22  # header, theta0 and the steps taken inside
        model = models.load_model({"builtin": "normal-natural"})
        assert all(model.domain.contains([float(v) for v in row.split(",")[2:4]])
                   for row in lines[1:])

    def test_geodesic_speeds_take_one_metric_call(self, monkeypatch):
        calls = []
        real = infogeo.fisher_metric
        monkeypatch.setattr(infogeo, "fisher_metric",
                            lambda model, th: calls.append(np.shape(th)) or real(model, th))
        rep = run_document({"subject": {"family": "normal-natural"}, "checks": ["geodesic"],
                            "geodesic": {"theta0": [-0.5, 0.0], "v0": [0.05, 0.1],
                                         "t_final": 1.0, "steps": 50}})
        assert rep.runs[0].results["geodesic"].status == "pass"
        assert calls == [(26, 2)]  # every second point of the 51

    def test_geodesic_on_a_multi_run_spec(self, tmp_path):
        """One path CSV per run with a geodesic block and a model; runs
        without one are skipped, and a spec where no run has one exits 2."""
        geo = {"theta0": [-0.5, 0.0], "v0": [0.05, 0.1], "t_final": 1.0, "steps": 10}
        runs = [{"label": "flat", "subject": {"model": "normal-natural"},
                 "checks": ["flatness"], "grid": {"lo": [-0.6, -0.2], "hi": [-0.4, 0.2],
                                                  "counts": [2, 2]}},
                {"label": "e", "subject": {"family": "normal-natural"},
                 "checks": ["geodesic"], "geodesic": dict(geo, alpha=1.0)},
                {"label": "sphere", "subject": {"surface": "sphere"}, "checks": ["classify"],
                 "expect": {"classify": SPHERE_FLAGS}},
                {"label": "m", "subject": {"model": "normal-natural"},
                 "checks": ["geodesic"], "geodesic": dict(geo, alpha=-1.0)}]
        csv_dir = tmp_path / "paths"
        code = cli.main(["geodesic", "--spec", str(self._write_spec(tmp_path, {"runs": runs})),
                         "--out", str(tmp_path / "r.json"), "--csv-dir", str(csv_dir)])
        assert code == 0
        assert sorted(f.name for f in csv_dir.iterdir()) == ["geodesic_e.csv", "geodesic_m.csv"]
        assert len((csv_dir / "geodesic_m.csv").read_text().splitlines()) == 12
        empty = tmp_path / "none"
        code = cli.main(["geodesic", "--spec",
                         str(self._write_spec(tmp_path, {"runs": [runs[0], runs[2]]})),
                         "--out", str(tmp_path / "r.json"), "--csv-dir", str(empty)])
        assert code == 2 and not empty.exists()

    def test_compute_reuses_the_run(self, tmp_path, monkeypatch):
        """The CSV dumps read the tensors the checks computed, and equal
        dumps from a freshly loaded subject byte for byte."""
        doc = {"runs": [{"label": "nn", "subject": {"model": "normal-natural"},
                         "checks": ["codazzi"], "alpha": [1.0, -1.0]},
                        {"label": "tilted", "subject": {"surface": "paraboloid-tilted"},
                         "checks": ["structural"]}]}
        computed = []
        real = infogeo.log_density_jet

        def counting(model, rows, xs):
            computed.extend(r.tobytes() for r in np.reshape(rows, (-1, model.dim)))
            return real(model, rows, xs)

        monkeypatch.setattr(infogeo, "log_density_jet", counting)
        csv_dir = tmp_path / "csv"
        code = cli.main(["compute", "--spec", str(self._write_spec(tmp_path, doc)),
                         "--out", str(tmp_path / "r.json"), "--csv-dir", str(csv_dir)])
        assert code == 0
        assert len(computed) == len(set(computed)) == 81
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        model_spec, surface_spec = (RunSpec.from_dict(d) for d in doc["runs"])
        model = cli._load_subject(model_spec)
        cli.dump_model_tensors(model_spec, model,
                               cli._grid_points(model_spec, model), fresh)
        surface = cli._load_subject(surface_spec)
        cli.dump_surface_tensors(surface_spec, surface,
                                 cli._grid_points(surface_spec, surface), fresh)
        for name in ("fisher_nn.csv", "connection_nn.csv", "grid_nn.csv",
                     "immersion_tilted.csv"):
            assert (csv_dir / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("command", ["verify", "geodesic"])
    @pytest.mark.parametrize("field, value", [
        ("steps", "many"), ("theta0", 0.5), ("v0", [0.1, "up"]),
        ("t_final", None), ("alpha", "e"), ("steps", 0)])
    def test_bad_geodesic_block_exits_two(self, tmp_path, capsys, command,
                                          field, value):
        block = {"theta0": [-0.5, 0.0], "v0": [0.05, 0.1], "t_final": 1.0,
                 "steps": 10, "alpha": 1.0, field: value}
        spec = self._write_spec(tmp_path, {
            "subject": {"family": "normal-natural"}, "checks": ["geodesic"],
            "geodesic": block})
        assert cli.main([command, "--spec", str(spec), "--csv-dir", str(tmp_path),
                         "--out", str(tmp_path / "r.json")]) == 2
        assert "geodesic" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_geodesic_needs_a_model_subject(self, tmp_path):
        spec = self._write_spec(tmp_path, {
            "subject": {"surface": "paraboloid"}, "checks": ["classify"],
            "geodesic": {"theta0": [0.1, 0.1], "v0": [0.1, 0.0]}})
        code = cli.main(["geodesic", "--spec", str(spec), "--csv-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("kind", ["model", "surface", "family", "embedding"])
    @pytest.mark.parametrize("bad", ["missing-lo", "lo-above-hi", "not-a-number"])
    def test_bad_domain_exits_two(self, tmp_path, capsys, kind, bad):
        dim = 2 if kind == "surface" else 1
        domain = {"missing-lo": {"hi": [1.0] * dim},
                  "lo-above-hi": {"lo": [1.0] * dim, "hi": [0.0] * dim},
                  "not-a-number": {"lo": ["a"] * dim, "hi": [1.0] * dim}}[bad]
        bernoulli_space = {"kind": "finite-discrete", "points": [[0.0], [1.0]]}
        subject, check = {
            "model": ({"name": "m", "dim": 1, "space": bernoulli_space,
                       "domain": domain, "log_density": "x[0]*theta[0]"}, "validate"),
            "surface": ({"name": "s", "dim": 2, "chart": ["u[0]", "u[1]", "u[0]*u[1]"],
                         "domain": domain}, "classify"),
            "family": ({"stats": ["x[0]"], "space": bernoulli_space,
                        "domain": domain}, "validate"),
            "embedding": ({"ambient": "normal-natural", "map": ["-0.5", "u[0]"],
                           "domain": domain}, "autoparallel"),
        }[kind]
        spec = self._write_spec(tmp_path, {"subject": {kind: subject},
                                           "checks": [check]})
        assert cli.main(["verify", "--spec", str(spec)]) == 2
        assert "domain" in capsys.readouterr().err

    NUMBERS_SPEC = {
        "subject": {"model": {
            "name": "m", "dim": 1, "domain": {"lo": [-1.0], "hi": [1.0]},
            "space": {"kind": "real-k", "k": 1,
                      "quadrature": {"kind": "gauss-hermite", "nodes": 16}},
            "log_density": "-0.5*(x[0]-theta[0])^2 - 0.9189385332046727"}},
        "checks": ["validate"], "grid": {"lo": [-0.5], "hi": [0.5], "counts": [3]}}
    SURFACE_DIM_TWO = {"surface": {"name": "s", "dim": "two",
                                   "chart": ["u[0]", "u[1]", "u[0]*u[1]"],
                                   "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}}
    # case: (the fields it sets in NUMBERS_SPEC, by dotted path; the message)
    BAD_NUMBERS = {
        "grid-count": ({"grid.counts": ["a"]}, "grid counts must be a number, got 'a'"),
        "grid-lo": ({"grid.lo": [None]}, "grid lo must be a number, got None"),
        "alpha": ({"alpha": [1.0, "minus one"]}, "alpha must be a number, got 'minus one'"),
        "seed": ({"seed": "x"}, "seed must be a number, got 'x'"),
        "surface-dim": ({"subject": SURFACE_DIM_TWO, "checks": ["classify"], "grid": None},
                        "surface dim must be a number, got 'two'"),
        "quadrature-nodes": ({"subject.model.space.quadrature.nodes": "many"},
                             "quadrature nodes must be a number, got 'many'"),
        "space-k": ({"subject.model.space.k": "one"}, "space k must be a number, got 'one'"),
        # zip would drop the extra entry and leave every check an error
        "grid-shape": ({"grid.hi": [0.5, 0.5]},
                       "grid lo, hi and counts must have the same length"),
        # values that once ran as another number: alpha 1, the one point 1.0,
        # 2 grid points, a 1-d model, a default grid of NaN
        "alpha-bool": ({"alpha": [True]}, "alpha must be a number, got True"),
        "grid-bool": ({"grid.lo": [True], "grid.counts": [True]},
                      "grid lo must be a number, got True"),
        "grid-count-fraction": ({"grid.counts": [2.5]}, "grid counts must be an integer, got 2.5"),
        "model-dim-bool": ({"subject.model.dim": True}, "model dim must be a number, got True"),
        "domain-inf": ({"subject.model.domain.hi": [float("inf")], "grid": None},
                       "domain hi must be finite, got inf"),
        # a NaN alpha once reached the runners: flatness an error
        "alpha-nan": ({"alpha": [float("nan")]}, "alpha must be finite, got nan"),
        # values that once ended in a traceback
        "grid-count-inf": ({"grid.counts": [float("inf")]}, "grid counts must be finite, got inf"),
        "seed-inf": ({"seed": float("inf")}, "seed must be finite, got inf"),
        "quadrature-nodes-zero": ({"subject.model.space.quadrature.nodes": 0},
                                  "bad sample space: nodes must be >= 1"),
        "quadrature-scale-negative": ({"subject.model.space.quadrature.scale": -1},
                                      "bad sample space: scale must be positive"),
        "monte-carlo-seed-negative": ({"subject.model.space.quadrature":
                                       {"kind": "monte-carlo", "nodes": 64, "seed": -1}},
                                      "monte-carlo rules must carry an explicit seed >= 0"),
        # finite-discrete points are rows of spec numbers: true once read as
        # 1.0, a NaN point ran to a validate fail, a mapping ended in a traceback
        "points-bool": ({"subject.model.space": {"kind": "finite-discrete",
                                                 "points": [[0.0], [True]]}},
                        "space points must be a number, got True"),
        "points-nan": ({"subject.model.space": {"kind": "finite-discrete",
                                                "points": [[0.0], [float("nan")]]}},
                       "space points must be finite, got nan"),
        "points-mapping": ({"subject.model.space": {"kind": "finite-discrete",
                                                    "points": [[0.0], [{}]]}},
                           "space points must be a number, got {}"),
        "points-not-rows": ({"subject.model.space": {"kind": "finite-discrete",
                                                     "points": [0.0, 1.0]}},
                            "space points must be a list of numbers, got 0.0"),
    }

    @pytest.mark.parametrize("field", sorted(BAD_NUMBERS))
    def test_bad_number_exits_two(self, tmp_path, capsys, field):
        """Each spec number is read by one rule: no bool, finite, whole where
        it counts; a range it must meet is checked where it is used."""
        changes, message = self.BAD_NUMBERS[field]
        doc = self.NUMBERS_SPEC
        for path, value in changes.items():
            doc = _with(doc, tuple(path.split(".")), value)
        spec = self._write_spec(tmp_path, {k: v for k, v in doc.items() if v is not None})
        assert cli.main(["verify", "--spec", str(spec)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("count", [1e300, 10**6 + 1])
    def test_grid_size_is_bounded(self, count):
        """A grid of more points than MAX_GRID_POINTS is refused as the spec
        is parsed, before any point is made (1e300 once ended in a
        ValueError traceback)."""
        with pytest.raises(SchemaError, match="^grid counts must give at most 1000000 points$"):
            RunSpec.from_dict({"subject": {"model": "bernoulli-natural"}, "checks": ["validate"],
                               "grid": {"lo": [-0.5], "hi": [0.5], "counts": [count]}})

    @pytest.mark.parametrize("dim", [12, 13])
    def test_default_grid_is_bounded(self, monkeypatch, dim):
        """A subject without a grid takes 3 points per coordinate: 3**12 are
        allowed and 3**13 refused before the grid is built (it once made
        1,594,323 points); ``models.grid`` builds nothing here."""
        made = []
        monkeypatch.setattr(cli.models, "grid", lambda lo, hi, counts: made.append(counts))
        spec = RunSpec.from_dict({"subject": {"model": {
            "name": "m", "dim": dim, "log_density": "x[0]*theta[0] - log(1 + exp(theta[0]))",
            "space": {"kind": "finite-discrete", "points": [[0.0], [1.0]]},
            "domain": {"lo": [-1.0] * dim, "hi": [1.0] * dim}}}, "checks": ["validate"]})
        subject = cli._load_subject(spec)
        if dim == 12:
            cli._grid_points(spec, subject)
            assert made == [[3] * 12]
            return
        with pytest.raises(SchemaError, match=r"^a default grid of 3\*\*13 points exceeds"):
            cli._grid_points(spec, subject)
        assert made == []

    BAD_SPEC_MESSAGES = {
        "grid-dimension": "grid has dimension 2, expected 1",
        "expect-check": "expect names unknown key 'exponential-from'",
        "expect-alpha": "expect flatness alpha must be a number, got 'one'",
        # an alpha the run does not sweep was once never compared: flatness passed
        "expect-alpha-untested": "expect flatness alpha '2' names no alpha the check "
                                 "tests, [1.0], or one named before",
        "expect-single-verdict": "expect exponential-form takes one boolean: the check "
                                 "has no verdict per alpha",
        "model-x": "x[1] is out of range: x has 1 component",
        "model-theta": "theta[1] is out of range: theta has 1 component",
        "family-x": "x[2] is out of range: x has 1 component",
        "surface-u": "u[2] is out of range: u has 2 component",
        "transversal-u": "u[2] is out of range: u has 2 component",
        "embedding-u": "u[1] is out of range: u has 1 component",
        "classify-not-a-mapping": "expect classify must be a mapping, got True",
        "classify-flag": "expect classify names unknown key 'blaschk'",
        # a tolerance or alpha list that would crash a check or let it test nothing
        "tolerance-word": "tolerance flatness must be a number, got 'tight'",
        "tolerance-bool": "tolerance flatness must be a number, got True",
        "tolerance-negative": "tolerance flatness must be a finite number >= 0, got -1",
        "tolerance-nan": "tolerance flatness must be finite, got nan",
        "tolerance-inf": "tolerance flatness must be finite, got inf",
        "alpha-empty": "alpha must be a non-empty list of numbers",
        "builtin-not-a-name": "model reference field 'builtin' must be a string, "
                              "got ['bernoulli-natural']",
        # a list in checks once raised TypeError: unhashable
        "checks-not-a-name": "unknown check ['flatness']",
        # a geodesic of another dimension once reported "left the domain at t=0"
        "geodesic-dimension": "geodesic theta0 and v0 must each have the model's dimension, 1",
        # keys no reader reads were once ignored: flatness ran at its default
        # tolerance, the surface as centro-affine, and the seed was reported null
        "unknown-key": "run spec names unknown key 'tolerence'",
        "surface-unknown-key": "surface names unknown key 'transverse'",
        "collection-seed": "spec collection names unknown key 'seed'",
        "builtin-extra-key": "model reference names unknown key 'dim'",
        # a family space that is no mapping once ended in a TypeError traceback
        "family-space-number": "family field 'space' must be a mapping, got 5",
        "family-space-bool": "family field 'space' must be a mapping, got True",
        # the CSV files take the label: a directory in it once ended igeo
        # compute in a FileNotFoundError, and a list was reported as its str
        "label-slash": "label must name no directory, got 'x/y'",
        "label-backslash": "label must name no directory, got 'x\\\\y'",
        "label-not-a-string": "run spec field 'label' must be a string, got ['a']",
        # a NUL once loaded: verify exited 0 and compute ended in a ValueError traceback
        "label-nul": "label must name no directory, got 'a\\x00b'",
        # a default grid of 3**13 points once took 166 MB before any check ran
        "default-grid-13d": "a default grid of 3**13 points exceeds 1000000",
        # quadratures the program cannot run once loaded: 400 Gauss-Hermite nodes
        # gave NaN weights, 1e300 nodes an OverflowError or a numpy ValueError
        "gauss-hermite-nodes-400": "gauss-hermite takes at most 370 nodes",
        "gauss-hermite-nodes-huge": "gauss-hermite takes at most 370 nodes",
        "monte-carlo-nodes-huge": "quadrature nodes must make at most 1000000 rows",
        "real-k-zero": "space k must be >= 1, got 0",
    }
    QUADRATURES = {"gauss-hermite-nodes-400": {"kind": "gauss-hermite", "nodes": 400},
                   "gauss-hermite-nodes-huge": {"kind": "gauss-hermite", "nodes": 1e300},
                   "monte-carlo-nodes-huge": {"kind": "monte-carlo", "nodes": 1e300, "seed": 1}}
    TOLERANCES = {"word": "tight", "bool": True, "negative": -1, "nan": float("nan"),
                  "inf": float("inf")}

    @pytest.mark.parametrize("expect", [
        {"exponential-form": "false"}, {"flatness": 0}, {"flatness": {"1": "yes"}},
        {"classify": {"blaschke": "no"}}, {"autoparallel": None}])
    def test_expect_values_must_be_booleans(self, expect):
        """A plain, per-alpha or per-flag expectation that is not a boolean
        is refused, naming its check, where bool() once read "false" as true."""
        name = next(iter(expect))
        with pytest.raises(SchemaError, match=f"^expect {name} "):
            RunSpec.from_dict({"subject": {"model": "bernoulli-natural"},
                               "checks": ["validate"], "expect": expect})

    @pytest.mark.parametrize("case", sorted(BAD_SPEC_MESSAGES))
    def test_bad_spec_exits_two(self, tmp_path, capsys, case):
        """Specs that used to run and report every check as an error (or
        silently ignore a field) are configuration errors."""
        doc = {"subject": {"model": "bernoulli-natural"}, "checks": ["flatness"],
               "grid": {"lo": [-0.5], "hi": [0.5], "counts": [3]}}
        bernoulli = {"name": "m", "dim": 1,
                     "space": {"kind": "finite-discrete", "points": [[0.0], [1.0]]},
                     "domain": {"lo": [-1.0], "hi": [1.0]},
                     "log_density": "x[0]*theta[0] - log(1 + exp(theta[0]))"}
        surface = {"name": "s", "dim": 2, "chart": ["u[0]", "u[1]", "u[0]*u[1]"],
                   "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}
        if case == "grid-dimension":
            doc["grid"] = {"lo": [-0.5, 0.0], "hi": [0.5, 0.0], "counts": [3, 1]}
        elif case == "expect-check":
            doc["expect"] = {"exponential-from": False}
        elif case == "expect-alpha":
            doc["expect"] = {"flatness": {"one": True}}
        elif case == "expect-alpha-untested":
            doc["expect"] = {"flatness": {"2": False}}
        elif case == "expect-single-verdict":
            doc["checks"] = ["exponential-form"]
            doc["expect"] = {"exponential-form": {"1": False}}
        elif case.startswith("tolerance-"):
            doc["tolerances"] = {"flatness": self.TOLERANCES[case.split("-")[1]]}
        elif case == "alpha-empty":
            doc["alpha"] = []
        elif case == "builtin-not-a-name":
            doc["subject"] = {"model": {"builtin": ["bernoulli-natural"]}}
        elif case == "checks-not-a-name":
            doc["checks"] = [["flatness"]]
        elif case == "geodesic-dimension":
            doc["checks"] = ["geodesic"]
            doc["geodesic"] = {"theta0": [0.0, 0.0], "v0": [0.1], "steps": 5}
        elif case == "unknown-key":
            doc["tolerence"] = {"flatness": 1e-30}
        elif case == "collection-seed":
            doc = {"runs": [doc], "seed": 7}
        elif case == "builtin-extra-key":
            doc["subject"] = {"model": {"builtin": "bernoulli-natural", "dim": 1}}
        elif case.startswith("family-space-"):
            doc["subject"] = {"family": {"stats": ["x[0]"], "domain": bernoulli["domain"],
                                         "space": 5 if case.endswith("number") else True}}
        elif case == "label-nul":
            doc["label"] = "a\0b"
        elif case.startswith("label-"):
            doc["label"] = {"slash": "x/y", "backslash": "x\\y",
                            "not-a-string": ["a"]}[case[len("label-"):]]
        elif case == "default-grid-13d":
            del doc["grid"]
            doc["subject"] = {"model": {**bernoulli, "dim": 13,
                                        "domain": {"lo": [-1.0] * 13, "hi": [1.0] * 13}}}
        elif case in self.QUADRATURES or case == "real-k-zero":
            space = {"kind": "real-k", "k": 0, "quadrature": {"kind": "gauss-hermite"}} \
                if case == "real-k-zero" else \
                {"kind": "real-line", "quadrature": self.QUADRATURES[case]}
            doc["subject"] = {"model": {**bernoulli, "space": space, "log_density":
                                        "-0.5*(x[0]-theta[0])^2 - 0.9189385332046727"}}
        elif case in ("model-x", "model-theta"):
            var = case.split("-")[1]
            bernoulli["log_density"] += f" + 0*{var}[1]"
            doc["subject"] = {"model": bernoulli}
        elif case == "family-x":
            doc["subject"] = {"family": {"stats": ["x[0]"], "base": "0*x[2]",
                                         "space": bernoulli["space"],
                                         "domain": bernoulli["domain"]}}
        elif case.startswith("classify-"):
            flags = True if case == "classify-not-a-mapping" else {"blaschk": True}
            doc = {"subject": {"surface": "sphere"}, "checks": ["classify"],
                   "expect": {"classify": flags}}
        elif case in ("surface-u", "transversal-u", "surface-unknown-key"):
            key = {"surface-u": "chart", "transversal-u": "transversal"}.get(case, "transverse")
            surface[key] = ["u[0]", "u[1]", "u[0]*u[2]"]
            doc = {"subject": {"surface": surface}, "checks": ["classify"]}
        else:
            doc = {"subject": {"embedding": {"ambient": "normal-natural",
                                             "map": ["-0.5", "u[1]"],
                                             "domain": {"lo": [-1.0], "hi": [1.0]}}},
                   "checks": ["autoparallel"]}
        spec = self._write_spec(tmp_path, doc)
        assert cli.main(["verify", "--spec", str(spec)]) == 2
        assert self.BAD_SPEC_MESSAGES[case] in capsys.readouterr().err

    def test_embedding_curvature_enforces_its_tolerance(self, tmp_path):
        bent = {"subject": {"embedding": {
                    "name": "bent-slice", "ambient": "normal-natural",
                    "map": ["-0.5 + 0.2*u[0]^2", "u[0]"],
                    "domain": {"lo": [-0.4], "hi": [0.4]}}},
                "grid": {"lo": [-0.3], "hi": [0.3], "counts": [3]},
                "checks": ["autoparallel", "embedding-curvature"]}
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--spec", str(self._write_spec(tmp_path, bent)),
                         "--out", str(out)])
        results = json.loads(out.read_text())["runs"][0]["results"]
        assert code == 1
        assert results["embedding-curvature"]["status"] == "fail"
        assert results["embedding-curvature"]["residuals"]["max_abs_H"] > 0.1
        assert results["autoparallel"]["status"] == "fail"
        bent["expect"] = {"autoparallel": False, "embedding-curvature": False}
        code = cli.main(["verify", "--spec", str(self._write_spec(tmp_path, bent)),
                         "--out", str(out)])
        assert code == 0

    def test_classify_without_expected_flags_is_untestable(self, tmp_path, sphere_spec):
        """With no flag in expect.classify there is nothing to compare: the
        check is untestable, reports its flags, and the command exits 1."""
        doc = {key: value for key, value in sphere_spec.items() if key != "expect"}
        out = tmp_path / "r.json"
        code = cli.main(["classify", "--spec", str(self._write_spec(tmp_path, doc)),
                         "--out", str(out)])
        result = json.loads(out.read_text())["runs"][0]["results"]["classify"]
        assert code == 1
        assert (result["status"], result["detail"]) == ("untestable",
                                                       "expect.classify names no flag")
        assert {flag: result["residuals"][flag] for flag in SPHERE_FLAGS} == SPHERE_FLAGS

    def test_classify_subcommand(self, tmp_path, sphere_spec):
        doc = dict(sphere_spec)
        doc.pop("checks")
        doc["checks"] = ["classify", "structural"]  # command rewrites anyway
        spec = self._write_spec(tmp_path, doc)
        out = tmp_path / "r.json"
        code = cli.main(["classify", "--spec", str(spec), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert list(report["runs"][0]["results"]) == ["classify"]


class TestStatusRule:
    """Every check's status follows one rule: ``pass`` when the identity's
    outcome matched ``expect``, which defaults to "holds"."""

    RUNS = json.loads((SPECS / "full_verify.json").read_text())["runs"]
    # the checks whose verdict is one bool per alpha of the run
    PER_ALPHA = {"flatness", "alpha-duality", "codazzi", "autoparallel",
                 "embedding-curvature"}

    @staticmethod
    def _result(run, name, **changes):
        return run_document({**run, "checks": [name], **changes}).runs[0].results[name]

    @pytest.mark.parametrize("name", sorted(cli.CHECKS))
    def test_inverted_expectations_flip_every_status(self, name):
        """On each full_verify run of the check, the opposite expectation
        (per alpha of the run, or per named classify flag) turns ``pass``
        into ``fail``; the geodesic's constant verdict takes the rule too."""
        runs = [run for run in self.RUNS if name in run["checks"]]
        assert runs
        for run in runs:
            want = run.get("expect", {}).get(name, {} if name == "classify" else True)
            if name == "classify":
                flipped = {flag: not value for flag, value in want.items()}
            elif name in self.PER_ALPHA:
                by_alpha = {} if isinstance(want, bool) else {
                    float(key): value for key, value in want.items()}
                flipped = {str(a): not by_alpha.get(a, want if isinstance(want, bool)
                                                    else True)
                           for a in run.get("alpha", [1.0])}
            else:
                flipped = not want
            assert self._result(run, name).status == "pass", run["label"]
            expect = {**run.get("expect", {}), name: flipped}
            assert self._result(run, name, expect=expect).status == "fail", run["label"]

    # check -> the residual its verdict holds against its scalar tolerance;
    # classify's is the gap of the one flag the run expects, blaschke, whose
    # other conditions hold by a wide margin on the sphere
    ENFORCED = {
        "validate": lambda r: r["max_normalization_residual"],
        "flatness": lambda r: max(max(a["max_R"], a["max_torsion"]) for a in r.values()),
        "alpha-duality": lambda r: r["max_difference"],
        "codazzi": lambda r: max(r.values()),
        "cubic-symmetry": lambda r: max(r["max_asymmetry"], r["max_alpha_spread"]),
        "exponential-form": lambda r: r["max_variation"],
        "structural": lambda r: max(r.values()),
        "classify": lambda r: r["max_blaschke_gap"],
        "volume-transport": lambda r: r["max_transport_residual"],
        "statistical-structure": lambda r: r["codazzi_residual"],
        "legendre-roundtrip": lambda r: r["max_roundtrip_error"],
        "hessian-vs-fisher": lambda r: r["max_difference"],
        "graph-realization": lambda r: r["max_h_minus_hessK"],
        "centro-affine-lift": lambda r: r["max_rho_error"],
        "autoparallel": lambda r: r["max_abs_H"],
        "embedding-curvature": lambda r: r["max_abs_H"],
    }
    # left out: the geodesic's verdict holds whenever the path stays in the
    # domain, as long as no oracle of the path is held against its tolerance
    UNENFORCED = {"geodesic"}
    SUBJECTS = {
        "model": {"subject": {"model": "normal-natural"}, "alpha": [1.0, -1.0],
                  "grid": {"lo": [-0.6, -0.2], "hi": [-0.4, 0.2], "counts": [2, 1]}},
        "surface": {"subject": {"surface": "sphere"}, "expect": {"classify": {
                        "blaschke": True}},
                    "grid": {"lo": [-0.3, -0.3], "hi": [0.3, 0.3], "counts": [2, 1]}},
        "family": {"subject": {"family": "bernoulli-natural"},
                   "grid": {"lo": [-1.0], "hi": [1.0], "counts": [2]}},
        "embedding": {"subject": next(run["subject"] for run in RUNS
                                      if "embedding" in run["subject"]), "alpha": [1.0],
                      "grid": {"lo": [-0.3], "hi": [0.3], "counts": [2]}},
    }

    @staticmethod
    def _straddle(residual):
        """A tolerance just above ``residual``, then one just below it."""
        return residual * (1 + 1e-6) + 1e-300, residual * (1 - 1e-6)

    def test_reported_tolerance_is_the_one_the_verdict_used(self, monkeypatch):
        """A tolerance just above each check's enforced residual passes it,
        one just below fails it, and the report gives that tolerance; for
        validate too where no override is set and the model's own
        tolerance is used."""
        assert set(self.ENFORCED) == set(cli.CHECKS) - self.UNENFORCED
        for name, enforced in self.ENFORCED.items():
            kind = next(k for k in self.SUBJECTS if k in cli.CHECKS[name].kinds)
            run = self.SUBJECTS[kind]
            residual = enforced(self._result(run, name).residuals)
            for tol, status in zip(self._straddle(residual), ("pass", "fail")):
                result = self._result(run, name, tolerances={name: tol})
                reported = result.tolerance
                if name == "graph-realization":
                    reported = reported["h_vs_hessK"]
                assert (result.status, reported) == (status, tol), name
        run = self.SUBJECTS["model"]
        residual = self._result(run, "validate").residuals["max_normalization_residual"]
        for tol, status in zip(self._straddle(residual), ("pass", "fail")):
            monkeypatch.setattr(models.StatisticalModel, "tolerance", property(lambda m: tol))
            result = self._result(run, "validate")
            assert (result.status, result.tolerance) == (status, tol)


class TestExpectAlphas:
    """A per-alpha ``expect`` key is parsed once, to the alpha of the run
    that its check tests: every alpha of the run, or the first for the
    embedding checks; any other key is a configuration error."""

    EMBEDDING = TestStatusRule.SUBJECTS["embedding"]["subject"]

    @pytest.mark.parametrize("subject, check, alphas, flags, parsed", [
        ({"model": "bernoulli-natural"}, "flatness", [1.0, -1.0], {"-1": False, "1e0": True},
         {-1.0: False, 1.0: True}),
        ({"model": "bernoulli-natural"}, "codazzi", [0.5], {"0.5000000000000001": False},
         {0.5: False}),
        (EMBEDDING, "autoparallel", [1.0, 0.5], {"1": False}, {1.0: False})])
    def test_keys_parse_to_the_tested_alphas(self, subject, check, alphas, flags, parsed):
        doc = {"subject": subject, "checks": [check], "alpha": alphas,
               "expect": {check: flags}}
        spec = RunSpec.from_dict(doc)
        assert spec.expect == {check: parsed}
        assert spec.raw["expect"] == {check: flags}

    @pytest.mark.parametrize("subject, check, alphas, flags", [
        ({"model": "bernoulli-natural"}, "flatness", [1.0], {"2": False}),
        ({"model": "bernoulli-natural"}, "alpha-duality", [1.0, -1.0], {"0": True}),
        ({"model": "bernoulli-natural"}, "codazzi", [1.0], {"1": True, "1.0": False}),
        ({"model": "bernoulli-natural"}, "flatness", [1.0], {"nan": True}),
        (EMBEDDING, "embedding-curvature", [1.0, 0.5], {"0.5": False})])
    def test_a_key_naming_no_tested_alpha_is_refused(self, subject, check, alphas, flags):
        doc = {"subject": subject, "checks": [check], "alpha": alphas,
               "expect": {check: flags}}
        # a NaN key is refused as no finite number
        reason = "must be finite" if "nan" in flags else "'.*' names no alpha the check tests"
        with pytest.raises(SchemaError, match=f"^expect {check} alpha {reason}"):
            RunSpec.from_dict(doc)


def _nodes(doc, path=()):
    """(path, value) of each value within ``doc``, lists and mappings too."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _small_runs() -> list:
    """full_verify's runs on grids of at most 2 points per axis and
    geodesics of at most 50 steps."""
    runs = json.loads((SPECS / "full_verify.json").read_text())["runs"]
    for run in runs:
        if "grid" in run:
            run["grid"]["counts"] = [min(c, 2) for c in run["grid"]["counts"]]
        if "geodesic" in run:
            run["geodesic"]["steps"] = min(run["geodesic"]["steps"], 50)
    return runs


SMALL_RUNS = _small_runs()
# (run index, path, committed value) of every leaf
SPEC_LEAVES = [(i, path, value) for i, run in enumerate(SMALL_RUNS)
               for path, value in _nodes(run) if not isinstance(value, (dict, list))]
BAD_VALUES = [True, None, "x", float("nan"), float("inf"), -1, 0, [], {}, 2.5]
# runs of inline subjects: adaptive_verify's model and family, full_verify's
# embedding, a surface with its own transversal and a finite-discrete model
LOAD_RUNS = [
    *json.loads((SPECS / "adaptive_verify.json").read_text())["runs"],
    next(run for run in SMALL_RUNS if "embedding" in run["subject"]),
    {"label": "graph", "subject": {"surface": {
        "name": "graph", "dim": 2, "chart": ["u[0]", "u[1]", "u[0]^2 + u[1]^2"],
        "transversal": ["0", "0", "1"], "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}},
     "grid": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5], "counts": [2, 2]},
     "checks": ["structural", "classify"], "expect": {"classify": {"blaschke": True}},
     "tolerances": {"structural": 1e-6}},
    {"label": "coin", "subject": {"model": {
        "name": "coin", "dim": 1, "space": {"kind": "finite-discrete", "points": [[0.0], [1.0]]},
        "domain": {"lo": [-4.0], "hi": [4.0]},
        "log_density": "x[0]*theta[0] - log(1 + exp(theta[0]))"}},
     "grid": {"lo": [-1.0], "hi": [1.0], "counts": [3]},
     "checks": ["validate", "flatness", "geodesic"], "alpha": [1.0, -1.0],
     "expect": {"flatness": {"-1": True}}, "seed": 5,
     "geodesic": {"theta0": [0.0], "v0": [0.5], "t_final": 1.0, "steps": 10, "alpha": 1.0}}]


class TestSpecMutations:
    """One leaf of a committed spec's run replaced by a bad value: the spec
    exits 2 or runs, and no check ends in an exception of a kind the
    toolkit does not raise (``_run_check`` reports those as "Name: ...")."""

    @settings(max_examples=1000, deadline=None)
    @given(leaf=st.sampled_from(SPEC_LEAVES), value=st.sampled_from(BAD_VALUES))
    @example(leaf=(0, ("checks", 0), "validate"), value=[])
    @example(leaf=(0, ("grid", "counts", 0), 2), value=float("inf"))
    @example(leaf=(11, ("seed",), 1234), value=float("inf"))
    def test_a_mutated_spec_exits_two_or_runs(self, leaf, value):
        i, path, _ = leaf
        try:
            report = run_document(_with(SMALL_RUNS[i], path, value))
        except SchemaError:
            return
        for name, result in report.runs[0].results.items():
            assert result.status != "error" or not re.match(r"\w+: ", result.detail), \
                (path, value, name, result.detail)

    def test_a_mutated_spec_exits_two_or_loads(self):
        """Each value within a run of an inline subject, lists and mappings
        too, replaced by each bad value, a directory name and numbers beyond
        every grid, and one unknown key added to each mapping: the spec is
        refused with SchemaError, or it parses, loads its subject and makes
        its grid (no check runs); no other exception is raised."""
        values = BAD_VALUES + ["a/b", [1e300], 1e300]
        specs = [_with(run, path, value) for run in LOAD_RUNS
                 for path, _ in _nodes(run) for value in values]
        specs += [_with(run, path + ("unknown",), 0) for run in LOAD_RUNS
                  for path in [()] + [p for p, v in _nodes(run) if isinstance(v, dict)]]
        tracebacks = []
        for doc in specs:
            try:
                spec = RunSpec.from_dict(doc)
                cli._grid_points(spec, cli._load_subject(spec))
            except SchemaError:
                pass
            except Exception as exc:
                tracebacks.append((doc, f"{type(exc).__name__}: {exc}"))
        assert len(specs) > 2000 and not tracebacks, tracebacks

    def test_a_nonfinite_number_exits_two(self):
        """NaN or inf in place of any number of the spec is refused before
        a check runs, where it once reached the runners or ended in an
        OverflowError."""
        numbers = [(i, path) for i, path, old in SPEC_LEAVES
                   if isinstance(old, (int, float)) and not isinstance(old, bool)]
        assert {path[0] for _, path in numbers} == {"grid", "alpha", "seed", "subject",
                                                   "geodesic"}
        for (i, path), value in itertools.product(numbers, [float("nan"), float("inf")]):
            with pytest.raises(SchemaError, match="must be finite"):
                run_document(_with(SMALL_RUNS[i], path, value))


def _grid_residuals(per_point: dict, residuals: dict):
    """(name, per-point array, reported value) of every array a runner gave."""
    for key, value in per_point.items():
        if isinstance(value, np.ndarray):
            yield key, value, residuals[key]
        elif isinstance(value, dict):
            yield from _grid_residuals(value, residuals[key])


def _floats(residuals: dict):
    for key, value in residuals.items():
        if isinstance(value, dict):
            yield from _floats(value)
        elif isinstance(value, float):
            yield key


class TestPerPointResiduals:
    """Runners give their grid residuals per point; ``_run_check`` reports
    each array's ``grid_max``, and a NaN at one point fails its check."""

    RUNS = {run["label"]: run for run in TestStatusRule.RUNS}

    @pytest.mark.parametrize("label", ["sphere", "normal-natural-core"])
    def test_one_entry_per_grid_point_whose_maximum_is_reported(self, label):
        run = cli.run(RunSpec.from_dict(self.RUNS[label]))
        assert len(run.grid) == 9
        for name, result in run.results.items():
            arrays = list(_grid_residuals(result.per_point, result.residuals))
            for key, values, reported in arrays:
                assert values.shape == (len(run.grid),), (name, key)
                assert values.max() == reported == numerics.grid_max(values), (name, key)
                assert type(reported) is float
            # every residual but classify's grid-level values is a grid maximum
            if name != "classify":
                assert sorted(key for key, *_ in arrays) == sorted(_floats(result.residuals))
                assert arrays, name

    def test_grid_max_rule(self):
        assert numerics.grid_max(np.array([])) == 0.0
        assert numerics.grid_max(np.array([0.5, 2.0, 1.0])) == 2.0
        for at in range(3):
            values = np.array([0.5, 2.0, 1.0])
            values[at] = np.nan
            assert np.isnan(numerics.grid_max(values))

    @staticmethod
    def _nan_at_point_one(real, when):
        def planted(*args, **kwargs):
            out = real(*args, **kwargs)
            if not when(*args):
                return out
            if dataclasses.is_dataclass(out):  # the curvature pack: R planted
                R = out.R.copy()
                R[1] = np.nan
                return dataclasses.replace(out, R=R)
            out[1] = np.nan
            return out
        return planted

    NAN_CASES = {
        "structural": (immersion, "riemann", lambda *args: True, {"surface": "sphere"},
                       ("gauss",)),
        "flatness": (infogeo, "curvature", lambda *args: True, {"model": "bernoulli-natural"},
                     ("alpha=1", "max_R")),
        "alpha-duality": (infogeo, "alpha_connection",
                          lambda model, theta, alpha: alpha == -1.0 and np.ndim(theta) == 2,
                          {"model": "bernoulli-natural"}, ("max_difference",)),
    }

    @pytest.mark.parametrize("name", sorted(NAN_CASES))
    def test_a_nan_at_one_grid_point_fails_its_check(self, monkeypatch, name):
        """A NaN planted at the second of three grid points: the check fails
        and reports NaN, where the maximum once skipped it (``pass`` with a
        finite maximum, or ``fail`` beside a reported 0.0)."""
        module, attr, when, subject, path = self.NAN_CASES[name]
        monkeypatch.setattr(module, attr, self._nan_at_point_one(getattr(module, attr), when))
        lo = [-0.3] * (2 if "surface" in subject else 1)
        doc = {"subject": subject, "checks": [name], "alpha": [1.0],
               "grid": {"lo": lo, "hi": [0.3] * len(lo), "counts": [3] + [1] * (len(lo) - 1)}}
        report = run_document(doc)
        result = report.runs[0].results[name]
        assert result.status == "fail"
        reported = (result.residuals, report.to_dict()["runs"][0]["results"][name]["residuals"])
        for key in path:
            reported = tuple(r[key] for r in reported)
        assert np.isnan(reported[0]) and reported[1] == "nan"


class TestReportValues:
    """Every value of a report dict is a plain JSON type: each reduced
    residual a Python float, non-finite ones written as strings."""

    PLAIN = (dict, list, str, float, int, bool, type(None))

    def _walk(self, value):
        assert type(value) in self.PLAIN, type(value)
        for item in value.values() if isinstance(value, dict) else (
                value if isinstance(value, list) else ()):
            self._walk(item)

    @pytest.mark.parametrize("spec", ["full_verify.json", "adaptive_verify.json"])
    def test_the_verify_specs(self, spec):
        self._walk(run_document(json.loads((SPECS / spec).read_text())).to_dict())

    def test_a_degenerate_plane(self):
        doc = {"subject": {"surface": "plane"},
               "checks": ["structural", "classify", "volume-transport",
                          "statistical-structure"]}
        report = run_document(doc).to_dict()
        self._walk(report)
        results = report["runs"][0]["results"]
        assert results["classify"]["residuals"]["max_blaschke_gap"] == "nan"
        volume = results["volume-transport"]
        assert volume["status"] == "untestable"
        assert volume["residuals"] == {"max_transport_residual": 0.0}


class TestImports:
    def test_cli_loads_neither_scipy_stats_nor_integrate(self, run_fresh):
        out = run_fresh("import sys\nimport igeo.cli\n"
                        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
                        "(['scipy', 'stats'], ['scipy', 'integrate'])))")
        assert out.strip() == "[]"


class TestBlasThreads:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("kept", VARS)
    def test_one_thread_where_unset(self, run_fresh, kept):
        """``import igeo.cli`` sets an unset thread variable to 1 before
        numpy loads, and keeps a value the user set."""
        out = run_fresh("import os\n"
                        f"for var in {self.VARS!r}:\n"
                        "    os.environ.pop(var, None)\n"
                        f"os.environ[{kept!r}] = '3'\n"
                        "import igeo.cli\n"
                        f"print([os.environ[var] for var in {self.VARS!r}])")
        assert out.strip() == str(["3" if var == kept else "1" for var in self.VARS])


class TestQuadNodesEnv:
    def test_env_override_reaches_subjects(self, monkeypatch, flatness_spec):
        monkeypatch.setenv("IGEO_QUAD_NODES", "32")
        spec = RunSpec.from_dict(flatness_spec)
        subject = cli._load_subject(spec)
        assert subject.space.rule.nodes == 32


MODEL_CHECKS = ["validate", "flatness", "alpha-duality", "codazzi",
                "cubic-symmetry", "exponential-form"]
SURFACE_CHECKS = ["structural", "classify", "volume-transport",
                  "statistical-structure"]


class TestSubjectMemo:
    @pytest.mark.parametrize("subject, checks", [
        ({"model": "normal-natural"}, MODEL_CHECKS),
        ({"surface": "paraboloid-tilted"}, SURFACE_CHECKS),
    ])
    def test_shared_run_matches_each_check_alone(self, subject, checks):
        spec = {"subject": subject, "checks": checks, "alpha": [1.0, -1.0]}
        together = cli.run(RunSpec.from_dict(spec)).to_dict()["results"]
        for name in checks:
            alone = cli.run(RunSpec.from_dict({**spec, "checks": [name]}))
            assert alone.to_dict()["results"][name] == together[name]

    def test_family_model_built_once_per_run(self, monkeypatch):
        built = []
        real = cli.dualflat.family_model

        def counting(family):
            built.append(family)
            return real(family)

        monkeypatch.setattr(cli.dualflat, "family_model", counting)
        run_document({"subject": {"family": "bernoulli-natural"},
                      "grid": {"lo": [-0.5], "hi": [0.5], "counts": [2]},
                      "checks": ["validate", "codazzi", "hessian-vs-fisher"]})
        assert len(built) == 1

    def test_memo_never_exceeds_its_cap(self, monkeypatch):
        memo = numerics.PointMemo()
        for i in range(numerics.MEMO_SIZE + 10):
            assert memo.put(i, i) == i
            assert len(memo) <= numerics.MEMO_SIZE
        for i in range(numerics.MEMO_SIZE + 10):
            point = np.array([float(i)])
            assert memo.rows(point, lambda b: b, lambda rows: rows[:, 0]) == i
            assert len(memo) <= numerics.MEMO_SIZE
        monkeypatch.setattr(numerics, "MEMO_SIZE", 3)
        model = models.bernoulli_natural()
        thetas = [np.array([t]) for t in np.linspace(-1.0, 1.0, 7)]
        first = [infogeo.fisher_metric(model, th) for th in thetas]
        assert len(model.memo) <= 3
        fresh = models.bernoulli_natural()
        assert all(np.array_equal(g, infogeo.fisher_metric(fresh, th))
                   for g, th in zip(first, thetas))

    def test_model_memo_holds_moments_only(self):
        """A 3x3 grid run of every model check stores the moments at its 9
        points and the 72 nodes of the field stencils, and nothing else."""
        spec = RunSpec.from_dict({"subject": {"model": "normal-natural"},
                                  "checks": MODEL_CHECKS, "alpha": [1.0, -1.0]})
        memo = cli.run(spec).model.memo
        assert len(memo) == 81

    def test_memoized_arrays_are_read_only(self):
        model = models.normal_natural()
        theta = np.array([-0.5, 0.1])
        surf = immersion.paraboloid()
        data = immersion.decompose(surf, (0.3, 0.4))
        deriv = immersion.induced_derivative(surf, (0.3, 0.4))
        arrays = [infogeo.fisher_metric(model, theta)]
        for d in (data, deriv):
            arrays += [d.gamma, d.h, d.shape_operator, d.alpha_form]
        arrays.append(deriv.volume)
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_immersion_fields_are_read_only_views_of_packed(self):
        surf = immersion.paraboloid()
        fields = ("gamma", "h", "shape_operator", "alpha_form", "volume", "f", "xi")
        for u in ((0.3, 0.4), np.array([[0.3, 0.4], [-0.2, 0.1], [0.3, 0.4]])):
            data, deriv = immersion.decompose(surf, u), immersion.induced_derivative(surf, u)
            assert deriv.f is None and deriv.xi is None
            for d, names in ((data, fields), (deriv, fields[:5])):
                assert not d.packed.flags.writeable
                for name in names:
                    a = getattr(d, name)
                    assert np.shares_memory(a, d.packed), name
                    with pytest.raises(ValueError):
                        a[...] = 0.0

    def test_repeated_calls_evaluate_nothing_new(self):
        evaluations = []
        base = models.normal_natural()

        def log_density(x, th):
            evaluations.append("l")
            return base.log_density(x, th)

        model = dataclasses.replace(base, log_density=log_density)
        theta = np.array([-0.5, 0.1])
        g = infogeo.fisher_metric(model, theta)
        low = infogeo.alpha_connection(model, theta, -1.0)
        base_surf = immersion.tilted_paraboloid()

        def chart(u):
            evaluations.append("f")
            return base_surf.chart(u)

        surf = dataclasses.replace(base_surf, chart=chart)
        data = immersion.decompose(surf, (0.3, 0.4))
        count = len(evaluations)
        again = (infogeo.fisher_metric(model, theta.tolist()),
                 infogeo.alpha_connection(model, theta.copy(), -1.0))
        for a, b in zip((g, low), again):
            assert np.array_equal(a, b)
        assert np.shares_memory(g, again[0])
        assert immersion.decompose(surf, np.array([0.3, 0.4])).packed is data.packed
        assert len(evaluations) == count

    def test_alphas_and_metric_share_one_jet(self, mc_location):
        # one log-density call on one batch of theta rows: 2*dim score
        # nodes, the second-derivative nodes other than theta itself, and
        # theta once, for p and for the centre node of every diagonal
        # second derivative; Monte Carlo is a node rule like the others
        for base, theta, rows in (
                (models.normal_natural(), [-0.5, 0.1], 4 + 8 + 1),
                (models.bernoulli_natural(), [0.3], 2 + 2 + 1),
                (mc_location(), [0.2], 2 + 2 + 1)):
            batches = []

            def log_density(x, th, base=base, batches=batches):
                batches.append(np.shape(th))
                return base.log_density(x, th)

            model = dataclasses.replace(base, log_density=log_density)
            for alpha in (1.0, -1.0, 0.5):
                infogeo.alpha_connection(model, np.array(theta), alpha)
            infogeo.fisher_metric(model, np.array(theta))
            assert batches == [(rows, base.dim)], base.label

    def test_errors_are_raised_and_never_stored(self):
        model = models.bernoulli_natural()
        with pytest.raises(OutOfDomain):
            infogeo.fisher_metric(model, [7.0])
        assert len(model.memo) == 0
        memo = numerics.PointMemo()
        attempts = []

        def failing(rows):
            attempts.append(1)
            raise ValueError("boom")

        for _ in range(2):
            with pytest.raises(ValueError):
                memo.rows([0.5], lambda b: b, failing)
        assert len(attempts) == 2 and len(memo) == 0


class TestSurfaceGridBatch:
    """The surface checks take the grid as one batch and report what a
    loop over its points reported."""

    # h degenerates on u0 = 0, where the transport residuals are the largest
    CUBIC = {"name": "cubic", "dim": 2,
             "chart": ["u[0]", "u[1]", "u[0]^3/6*exp(u[1]) + exp(3*u[1])"],
             "transversal": ["0.3*u[1]", "0", "exp(u[0]*u[1])"],
             "domain": {"lo": [-1, -1], "hi": [1, 1]}}

    @pytest.mark.parametrize("lo, hi, node", [
        ([-2.0, -2.0], [0.0, 0.0], "[-2.0, -2.0]"),          # the first point on the edge
        ([0.0, 0.0], [2.0, 2.0], "[0.0, 2.0]"),              # the second point on the edge
        ([-1.99, -1.0], [1.0, 1.0], "[-2.005546875, -1.0]"),  # a field-stencil node past it
    ])
    def test_domain_edge_detail(self, lo, hi, node):
        rep = run_document({"subject": {"surface": "paraboloid"},
                            "grid": {"lo": lo, "hi": hi, "counts": [2, 2]},
                            "checks": SURFACE_CHECKS,
                            "expect": {"classify": {"blaschke": True,
                                                    "improper_hypersphere": True}}})
        detail = f"stencil node {node} leaves the declared domain"
        for name, result in rep.runs[0].results.items():
            if name == "classify" and lo[0] == -1.99:
                assert result.status == "pass"  # the decomposition stencils stay inside
                continue
            assert (result.status, result.detail) == ("error", detail), name

    def test_volume_transport_untestable_keeps_the_nondegenerate_residuals(self):
        grid = {"lo": [0.0, -0.9], "hi": [0.5, 0.9], "counts": [2, 3]}
        spec = {"subject": {"surface": self.CUBIC}, "grid": grid,
                "checks": ["volume-transport", "statistical-structure"]}
        results = run_document(spec).runs[0].results
        surf = immersion.load_surface(self.CUBIC)
        worst, left_out = 0.0, []
        for u in models.grid(grid["lo"], grid["hi"], grid["counts"]):
            try:
                worst = max(worst, immersion.induced_volume_check(surf, u).transport_residual)
            except DegenerateH as exc:
                left_out.append(exc.partial.transport_residual)
        assert left_out and max(left_out) > worst  # as a loop left them out
        volume = results["volume-transport"]
        assert volume.status == "untestable"
        assert volume.residuals == {"max_transport_residual": worst} and worst > 0.0
        assert volume.detail == "h degenerate somewhere on the grid"
        stat = results["statistical-structure"]
        assert stat.status == "untestable" and stat.detail.endswith("at u=[0.0, -0.9]")

    def test_non_transversal_lift_detail(self, monkeypatch):
        """xi falls into the tangent line for theta > 0.1: the check names
        the first such grid point's frame condition, as a loop did."""

        def lift(family):
            def xi(th):
                t = np.asarray(th, float)[..., 0]
                return np.stack([np.where(t > 0.1, 1.0, 0.3),
                                 np.where(t > 0.1, 3e-13 * t, -1.0)], axis=-1)

            return immersion.Hypersurface(
                chart=lambda th: np.concatenate([th, np.ones_like(th)], axis=-1),
                transversal=xi, domain=family.domain, dim=1)

        monkeypatch.setattr(cli.dualflat, "centro_affine_lift", lift)
        grid = {"lo": [-1.0], "hi": [1.0], "counts": [5]}
        rep = run_document({"subject": {"family": "bernoulli-natural"}, "grid": grid,
                            "checks": ["centro-affine-lift"]})
        result = rep.runs[0].results["centro-affine-lift"]
        surf = lift(cli.dualflat.bernoulli_natural_family())
        errors = []
        for theta in models.grid(grid["lo"], grid["hi"], grid["counts"]):
            try:
                immersion.decompose(surf, theta)
            except SingularFrame as exc:
                errors.append(str(exc))
        assert len(errors) == 2
        assert (result.status, result.detail) == ("untestable", errors[0])
        assert result.detail.startswith("frame condition ")
