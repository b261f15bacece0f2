import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from igeo import cli, immersion, infogeo, models, numerics
from igeo.cli import RunSpec, run_document
from igeo.errors import OutOfDomain, SchemaError

DOCS = Path(__file__).resolve().parents[1] / "docs"


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


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
            seen.append((tuple(np.atleast_1d(theta)), alpha))
            return real(model, theta, alpha)

        monkeypatch.setattr(cli.infogeo, "cubic_tensor", counting)
        rep = run_document({"subject": {"model": "bernoulli-natural"},
                            "grid": {"lo": [-0.5], "hi": [0.5], "counts": [3]},
                            "checks": ["cubic-symmetry"],
                            "alpha": [1.0, -1.0, 0.5]})
        assert rep.runs[0].results["cubic-symmetry"].status == "pass"
        # C(-1) is C(1) bit for bit, so alpha = -1 is skipped
        assert seen == [((t,), a) for t in (-0.5, 0.0, 0.5) for a in (1.0, 0.5)]

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


class TestMain:
    def _write_spec(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

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

    def test_compute_writes_csv(self, tmp_path, flatness_spec):
        spec = self._write_spec(tmp_path, flatness_spec)
        csv_dir = tmp_path / "csv"
        code = cli.main(["compute", "--spec", str(spec),
                         "--out", str(tmp_path / "r.json"),
                         "--csv-dir", str(csv_dir)])
        assert code == 0
        fisher = (csv_dir / "fisher.csv").read_text().splitlines()
        assert fisher[0] == "point,i,j,value"
        assert len(fisher) == 1 + 4 * 4  # 4 grid points, 2x2 metric
        conn = (csv_dir / "connection.csv").read_text().splitlines()
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

    def test_compute_reuses_the_run(self, tmp_path, monkeypatch):
        """The CSV dumps read the tensors the checks computed, and equal
        dumps from a freshly loaded subject byte for byte."""
        doc = {"runs": [{"label": "nn", "subject": {"model": "normal-natural"},
                         "checks": ["codazzi"], "alpha": [1.0, -1.0]},
                        {"label": "tilted", "subject": {"surface": "paraboloid-tilted"},
                         "checks": ["structural"]}]}
        computed = []
        real = infogeo._fisher_metric

        def counting(model, th):
            computed.append(th.tobytes())
            return real(model, th)

        monkeypatch.setattr(infogeo, "_fisher_metric", counting)
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
        for name in ("fisher.csv", "connection.csv", "grid.csv", "immersion.csv"):
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

    @pytest.mark.parametrize("field", ["grid-count", "grid-lo", "alpha", "seed",
                                       "surface-dim", "quadrature-nodes", "space-k",
                                       "grid-shape"])
    def test_bad_number_exits_two(self, tmp_path, capsys, field):
        grid = {"lo": [-0.5], "hi": [0.5], "counts": [3]}
        doc = {"subject": {"model": "bernoulli-natural"}, "checks": ["validate"],
               "grid": grid}
        message = "must be a number"
        if field == "grid-shape":
            # zip would drop the extra entry and leave every check an error
            grid["hi"] = [0.5, 0.5]
            message = "grid lo, hi and counts must have the same length"
        elif field == "grid-count":
            grid["counts"] = ["a"]
        elif field == "grid-lo":
            grid["lo"] = [None]
        elif field == "alpha":
            doc["alpha"] = [1.0, "minus one"]
        elif field == "seed":
            doc["seed"] = "x"
        elif field == "surface-dim":
            doc = {"subject": {"surface": {
                       "name": "s", "dim": "two", "chart": ["u[0]", "u[1]", "u[0]*u[1]"],
                       "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}},
                   "checks": ["classify"]}
        else:
            rule = {"kind": "gauss-hermite", "nodes": 16}
            space = {"kind": "real-k", "k": 1, "quadrature": rule}
            if field == "quadrature-nodes":
                rule["nodes"] = "many"
            else:
                space["k"] = "one"
            doc["subject"] = {"model": {
                "name": "m", "dim": 1, "space": space,
                "domain": {"lo": [-1.0], "hi": [1.0]},
                "log_density": "-0.5*(x[0]-theta[0])^2 - 0.9189385332046727"}}
        spec = self._write_spec(tmp_path, doc)
        assert cli.main(["verify", "--spec", str(spec)]) == 2
        assert message in capsys.readouterr().err

    BAD_SPEC_MESSAGES = {
        "grid-dimension": "grid has dimension 2, expected 1",
        "expect-check": "expect names unknown check 'exponential-from'",
        "expect-alpha": "expect flatness alpha must be a number, got 'one'",
        "model-x": "x[1] is out of range: x has 1 component",
        "model-theta": "theta[1] is out of range: theta has 1 component",
        "family-x": "x[2] is out of range: x has 1 component",
        "surface-u": "u[2] is out of range: u has 2 component",
        "transversal-u": "u[2] is out of range: u has 2 component",
        "embedding-u": "u[1] is out of range: u has 1 component",
        "classify-not-a-mapping": "expect classify must map flag names to booleans, "
                                  "got True",
        "classify-flag": "expect classify names unknown flag 'blaschk'",
    }

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
        elif case in ("surface-u", "transversal-u"):
            key = "chart" if case == "surface-u" else "transversal"
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


class TestImports:
    def test_cli_loads_neither_scipy_stats_nor_integrate(self, run_fresh):
        out = run_fresh("import sys\nimport igeo.cli\n"
                        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
                        "(['scipy', 'stats'], ['scipy', 'integrate'])))")
        assert out.strip() == "[]"


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
            assert memo.get(i, lambda: i) == i
            assert len(memo) <= numerics.MEMO_SIZE
        monkeypatch.setattr(numerics, "MEMO_SIZE", 3)
        model = models.bernoulli_natural()
        thetas = [np.array([t]) for t in np.linspace(-1.0, 1.0, 7)]
        first = [infogeo.fisher_metric(model, th) for th in thetas]
        assert len(model.memo) <= 3
        fresh = models.bernoulli_natural()
        assert all(np.array_equal(g, infogeo.fisher_metric(fresh, th))
                   for g, th in zip(first, thetas))

    def test_memoized_arrays_are_read_only(self):
        model = models.normal_natural()
        theta = np.array([-0.5, 0.1])
        surf = immersion.paraboloid()
        data = immersion.decompose(surf, (0.3, 0.4))
        deriv = immersion.induced_derivative(surf, (0.3, 0.4))
        arrays = [infogeo.fisher_metric(model, theta),
                  infogeo.alpha_connection(model, theta, 1.0)]
        for d in (data, deriv):
            arrays += [d.gamma, d.h, d.shape_operator, d.alpha_form]
        arrays.append(deriv.volume)
        for a in arrays:
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
        assert infogeo.fisher_metric(model, theta.tolist()) is g
        assert infogeo.alpha_connection(model, theta.copy(), -1.0) is low
        assert immersion.decompose(surf, np.array([0.3, 0.4])) is data
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

        def failing():
            attempts.append(1)
            raise ValueError("boom")

        for _ in range(2):
            with pytest.raises(ValueError):
                memo.get("k", failing)
        assert len(attempts) == 2 and len(memo) == 0
