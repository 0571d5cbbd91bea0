import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from twistorcheck import kahler
from twistorcheck.cli import main
from twistorcheck.errors import ConfigurationError
from twistorcheck.geometry import Hypotheses
from twistorcheck.report import SuiteConfig, _json_clean, report_to_json, run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env_with_src():
    """The environment for a subprocess that imports the package from this
    checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig.from_dict({})
        assert cfg.metric == "eguchi_hanson"
        assert cfg.suite == "all"
        assert cfg.seed == 2024
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            SuiteConfig.from_dict({"jet_order": 3})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            SuiteConfig.from_dict({"metrc": "flat"})
        with pytest.raises(ConfigurationError):
            SuiteConfig.from_dict({"fiber": {"profil": "sphere"}})

    def test_bad_values_rejected(self):
        for raw in ({"suite": "nope"}, {"metric": "nope"}, {"tol_tier": "medium"},
                    {"sample_count": 0}, {"sample_count": -3}, {"seed": -1},
                    {"sample_count": True}, {"seed": False},
                    {"metric": "burns", "params": {"m": "x"}},
                    {"metric": "eguchi_hanson", "params": {"a": "x"}},
                    {"metric": "burns", "params": {"m": float("nan")}},
                    {"metric": "burns", "params": {"m": True}},
                    {"fiber": {"c": "x"}}, {"fiber": {"a": "x"}}, {"fiber": {"p": "x"}},
                    {"fiber": {"p": float("nan")}}, {"fiber": {"b": float("inf")}},
                    {"tolerances": {"completeness.power_family": "x"}},
                    {"tolerances": {"completeness.power_family": True}},
                    {"fiber": {"profile": "nope"}}, {"fiber": {"branch": "nope"}},
                    {"fiber": {"sign": 5}}, {"fiber": {"sign": True}},
                    {"fiber": {"h_family": "nope"}},
                    {"metric": "flat", "suite": "cone", "fiber": {"a": -1}},
                    {"metric": "flat", "suite": "cone", "fiber": {"b": 0}},
                    {"fiber": 3}, {"tolerances": []}):
            with pytest.raises(ConfigurationError):
                SuiteConfig.from_dict(raw)

    def test_fixture_params_checked(self):
        # each fixture takes only its own parameters: burns m, eguchi_hanson a
        for metric, params in (("burns", {"q": 3}), ("eguchi_hanson", {"m": 1.0}),
                               ("flat", {"a": 1.0})):
            with pytest.raises(ConfigurationError, match="unknown params"):
                SuiteConfig.from_dict({"metric": metric, "params": params})
        for m in (0.0, -2.0):
            with pytest.raises(ConfigurationError, match="must be positive"):
                SuiteConfig.from_dict({"metric": "burns", "params": {"m": m}})
        assert SuiteConfig.from_dict({"metric": "burns", "params": {"m": 2.0}}).params == {"m": 2.0}
        assert SuiteConfig.from_dict({"metric": "eguchi_hanson", "params": {"a": 0.5}})


class TestRunSuite:
    def test_flat_integrability_passes(self):
        rep = run_suite(SuiteConfig.from_dict(
            {"metric": "flat", "suite": "integrability", "sample_count": 6, "seed": 3}))
        assert rep["overall_pass"]
        ids = {c["check_id"]: c for c in rep["checks"]}
        assert ids["integrability.twistor_vanishing"]["max_residual"] < 1e-9

    def test_negative_control_marked_pass(self):
        rep = run_suite(SuiteConfig.from_dict(
            {"metric": "fubini_study", "suite": "integrability", "sample_count": 6, "seed": 3}))
        assert rep["overall_pass"]
        rec = {c["check_id"]: c for c in rep["checks"]}["integrability.twistor_obstruction"]
        assert rec["mode"] == "exceeds"
        assert rec["max_residual"] > 1e-2
        assert rec["pass"]

    def test_balanced_completeness_combination(self):
        rep = run_suite(SuiteConfig.from_dict(
            {"metric": "eguchi_hanson", "suite": "balanced", "sample_count": 6, "seed": 3,
             "fiber": {"a": 1.0, "h_family": "power_pole", "p": 1.0}}))
        assert rep["overall_pass"]

    def test_skips_are_recorded_with_reason(self):
        rep = run_suite(SuiteConfig.from_dict(
            {"metric": "eguchi_hanson", "suite": "integrability", "sample_count": 5, "seed": 3}))
        skipped = [c for c in rep["checks"] if c["mode"] == "skipped"]
        assert skipped and all(c["detail"].get("reason") for c in skipped)

    def test_no_transport_at_run_time(self, monkeypatch):
        # eps is the constant twistor.EPS; the connection-sign control is
        # gated on beta at the check's own points, not on a transport run
        from twistorcheck import twistor

        def boom(*args, **kwargs):
            raise AssertionError("calibrate_epsilon called during a verify run")

        monkeypatch.setattr(twistor, "calibrate_epsilon", boom)
        modes = {}
        for metric in ("burns", "eguchi_hanson"):
            rep = run_suite(SuiteConfig.from_dict(
                {"metric": metric, "suite": "integrability", "sample_count": 5}))
            assert rep["overall_pass"], metric
            rec = {c["check_id"]: c for c in rep["checks"]}["integrability.connection_sign"]
            modes[metric] = rec["mode"]
        assert modes == {"burns": "exceeds", "eguchi_hanson": "skipped"}

    def test_curvature_suite_evaluates_metric_twice(self, jets_at_calls):
        # one metric-jet bundle at the sampled points, one at the rho-duality point
        rep = run_suite(SuiteConfig.from_dict(
            {"metric": "burns", "suite": "curvature", "sample_count": 5}))
        assert rep["overall_pass"]
        assert len(jets_at_calls) == 2

    def test_twistor_suites_evaluate_each_point_set_once(self, chart_evals):
        # one ChartEval per (chart, point set): the identities, the route
        # agreement and the horizontal Nijenhuis check share one; the four
        # balanced checks share one; the cone has one at n points and one for
        # the (a, b) grid at 10; integrability has the plain, modified and
        # perturbed charts, and its sign control flips the plain one
        sizes = {}
        for metric, suite in (("eguchi_hanson", "structure_identities"),
                              ("eguchi_hanson", "balanced"), ("eguchi_hanson", "cone"),
                              ("burns", "integrability")):
            chart_evals.clear()
            rep = run_suite(SuiteConfig.from_dict(
                {"metric": metric, "suite": suite, "sample_count": 6}))
            assert rep["overall_pass"], suite
            sizes[suite] = list(chart_evals)
        assert sizes == {"structure_identities": [6], "balanced": [6], "cone": [6, 10],
                         "integrability": [6, 6, 6]}

    def test_cone_reuses_the_integrability_evaluation(self, chart_evals):
        # in one run, every plain-chart suite at n points reads the sample
        # that integrability has evaluated; the cone's 10-point grid is its own
        rep = run_suite(SuiteConfig.from_dict(
            {"metric": "eguchi_hanson", "suite": "all", "sample_count": 6}))
        assert rep["overall_pass"]
        # integrability: plain (shared with structure_identities, balanced
        # and cone), modified, perturbed; the cone grid
        assert chart_evals == [6, 6, 6, 10]

    def test_shared_evaluation_gives_each_suite_its_solo_rows(self):
        # a suite that changed the shared plain-chart evaluation would make
        # the suites after it record other rows inside suite=all
        for metric in ("burns", "fubini_study", "conformal_hermitian"):
            raw = {"metric": metric, "sample_count": 7, "seed": 11}
            together = run_suite(SuiteConfig.from_dict(dict(raw, suite="all")))["checks"]
            for suite in ("integrability", "structure_identities", "balanced", "cone"):
                alone = run_suite(SuiteConfig.from_dict(dict(raw, suite=suite)))["checks"]
                prefixes = {c["check_id"].split(".")[0] for c in alone}
                assert [c for c in together if c["check_id"].split(".")[0] in prefixes] == alone, \
                    (metric, suite)

    def test_non_finite_metric_is_a_numeric_failure(self, tmp_path):
        # Burns at m = 1e308 overflows the metric jets, Eguchi-Hanson at
        # a = 1e70 overflows inside the potential and leaves a metric that is
        # not positive definite; every suite that evaluates the metric
        # records a GeometryError instead of crashing, and numpy warns of
        # none of the overflows
        for raw, error in [
            ({"metric": "burns", "params": {"m": 1e308}, "sample_count": 2}, "not finite at x="),
            ({"metric": "eguchi_hanson", "params": {"a": 1e70}, "sample_count": 2},
             "not positive definite at x="),
        ]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                checks = run_suite(SuiteConfig.from_dict(raw))["checks"]
            assert not caught, [str(w.message) for w in caught]
            failures = {c["check_id"]: c["detail"] for c in checks if not c["pass"]}
            assert sorted(failures) == sorted(f"{s}.numeric_failure" for s in (
                "curvature", "integrability", "structure_identities", "balanced", "cone"))
            for detail in failures.values():
                assert detail["type"] == "GeometryError"
                assert error in detail["error"]
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(raw))
            assert main(["verify", "--config", str(cfg), "--report", str(tmp_path / "r.json")]) == 1

    def test_fibermap_suite_runs_one_quadrature_per_map(self, quad_calls):
        # the three quadrature maps are evaluated once each, on the
        # conformality grid; nothing reads their degeneracy flags
        rep = run_suite(SuiteConfig.from_dict(
            {"metric": "flat", "suite": "fibermap", "sample_count": 10}))
        assert rep["overall_pass"]
        assert quad_calls == [10, 10, 10]

    def test_configs_do_not_share_defaults(self):
        # a config's default params and tolerances are its own dicts
        first = SuiteConfig.from_dict({"metric": "flat"})
        first.tolerances["curvature.riemann_symmetries"] = 1e-30
        second = SuiteConfig.from_dict({"metric": "burns", "suite": "curvature",
                                        "sample_count": 5})
        assert second.tolerances == {} and second.params is not first.params
        assert run_suite(second)["overall_pass"]

    def test_tolerance_override_and_failure_exit(self, tmp_path):
        raw = {"metric": "flat", "suite": "integrability", "sample_count": 5, "seed": 3,
               "tolerances": {"integrability.twistor_vanishing": 1e-30}}
        rep = run_suite(SuiteConfig.from_dict(raw))
        assert not rep["overall_pass"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        rc = main(["verify", "--config", str(cfg), "--report", str(tmp_path / "r.json")])
        assert rc == 1

    def test_numeric_failure_recorded(self, monkeypatch):
        # a numerical error inside a suite is recorded as a failing check
        # (instead of crashing the run) and flips the overall verdict
        from twistorcheck import report as report_mod
        from twistorcheck.errors import GeometryError

        def boom(rec, metric, config):
            raise GeometryError("metric is not positive definite at x=[test]")

        monkeypatch.setitem(report_mod._SUITE_RUNNERS, "curvature", boom)
        rep = run_suite(SuiteConfig.from_dict({"metric": "flat", "suite": "curvature"}))
        assert not rep["overall_pass"]
        rec = rep["checks"][0]
        assert rec["check_id"] == "curvature.numeric_failure"
        assert not rec["pass"]
        assert "positive definite" in rec["detail"]["error"]
        assert rec["detail"]["type"] == "GeometryError"

    def test_loose_tier_scales_thresholds(self):
        rep = run_suite(SuiteConfig.from_dict(
            {"metric": "flat", "suite": "curvature", "sample_count": 5, "tol_tier": "loose"}))
        rec = rep["checks"][0]
        assert rec["threshold"] == pytest.approx(1e-8)  # 100x the strict 1e-10


class TestDeclarations:
    """The suites gate on the hypotheses a fixture declares, not on its name,
    and the curvature rows certify the declarations."""

    # each hypothesis and the curvature-suite rows that certify it
    CERTIFIED_BY = {"kahler": {"kahler.nabla_omega"},
                    "scalar_flat": {"curvature.scalar_flat", "curvature.flat_vanishing"},
                    "flat": {"curvature.flat_vanishing"},
                    "scal": {"curvature.scal_oracle"}}

    @staticmethod
    def _verdicts(metric):
        rep = run_suite(SuiteConfig.from_dict(
            {"metric": metric, "suite": "all", "sample_count": 5, "seed": 7}))
        return [(c["check_id"], c["mode"], c["pass"]) for c in rep["checks"]]

    def test_a_new_fixture_needs_only_a_registry_entry(self, monkeypatch):
        burns = kahler.get_fixture("burns")

        def twin():
            return kahler.KahlerPotentialMetric(burns.chart, burns.potential, name="burns_twin")

        monkeypatch.setitem(kahler.FIXTURES, "burns_twin",
                            (twin, Hypotheses(kahler=True, scalar_flat=True)))
        assert self._verdicts("burns_twin") == self._verdicts("burns")

    def test_a_false_declaration_fails_its_rows(self, monkeypatch):
        build, _ = kahler.FIXTURES["conformal_hermitian"]
        monkeypatch.setitem(kahler.FIXTURES, "conformal_hermitian",
                            (build, Hypotheses(kahler=True, scalar_flat=True)))
        failed = {cid for cid, _, passed in self._verdicts("conformal_hermitian") if not passed}
        assert {"kahler.nabla_omega", "integrability.twistor_vanishing"} <= failed

    def test_every_declaration_is_certified(self):
        for name in kahler.FIXTURES:
            hyp = kahler.get_fixture(name).hypotheses
            rep = run_suite(SuiteConfig.from_dict(
                {"metric": name, "suite": "curvature", "sample_count": 5}))
            passed = {c["check_id"] for c in rep["checks"] if c["pass"] and c["mode"] != "skipped"}
            for f in fields(Hypotheses):
                if getattr(hyp, f.name) not in (False, None):
                    assert self.CERTIFIED_BY[f.name] & passed, (name, f.name)


class TestDeterminism:
    def test_reports_byte_identical(self):
        raw = {"metric": "burns", "suite": "integrability", "sample_count": 5, "seed": 9}
        r1 = report_to_json(run_suite(SuiteConfig.from_dict(raw)))
        r2 = report_to_json(run_suite(SuiteConfig.from_dict(raw)))
        assert r1 == r2

    def test_cli_reports_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"metric": "flat", "suite": "cone", "sample_count": 5, "seed": 4}))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["verify", "--config", str(cfg), "--report", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_booleans_are_written_as_json_booleans(self):
        detail = {"py": True, "np": np.True_, "int": 1, "np_int": np.int64(1)}
        assert (json.dumps(_json_clean(detail), sort_keys=True)
                == '{"int": 1, "np": true, "np_int": 1, "py": true}')


class TestCliCommands:
    def test_usage_error_exit_code(self, tmp_path, capsys):
        assert main(["verify", "--metric", "nosuch", "--suite", "integrability"]) == 2
        assert main(["verify", "--metric", "flat", "--suite", "nosuch"]) == 2
        out = str(tmp_path / "r.json")
        for flags in (["--points", "0"], ["--points", "-3"], ["--seed", "-1"]):
            assert main(["verify", "--metric", "flat", "--suite", "completeness",
                         "--report", out] + flags) == 2, flags
        for params in ({"q": 3}, {"m": 0}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"metric": "burns", "suite": "completeness",
                                       "params": params}))
            assert main(["verify", "--config", str(cfg), "--report", out]) == 2, params
        for params in ({"a": 0}, {"a": -1}):  # only a^2 and a^4 enter the potential
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"metric": "eguchi_hanson", "suite": "completeness",
                                       "params": params}))
            assert main(["verify", "--config", str(cfg), "--report", out]) == 2, params
        cfg = tmp_path / "cfg.json"
        for text in ('{"metric": "burns", "params": {"m": "x"}}',
                     '{"metric": "eguchi_hanson", "params": {"a": "x"}}',
                     '{"suite": "integrability", "metric": "burns", "fiber": {"c": "x"}}',
                     '{"fiber": {"a": "x"}}', '{"fiber": {"p": "x"}}',
                     '{"fiber": {"p": NaN}}', '{"sample_count": true}',
                     '{"tolerances": {"completeness.power_family": "x"}}',
                     '{"fiber": {"profile": "nope"}}', '{"fiber": {"branch": "nope"}}',
                     '{"fiber": {"sign": 5}}', '{"fiber": {"h_family": "nope"}}',
                     '{"metric": "eguchi_hanson", "params": {"a": 1e200}}',
                     '{"fiber": {"a": 1e308, "b": 1e308}}', '{"fiber": {"a": 1, "b": 1e308}}',
                     '{"metric": "flat", "suite": "completeness"', '[1, 2]'):
            cfg.write_text(text)
            assert main(["verify", "--config", str(cfg), "--suite", "completeness",
                         "--report", out]) == 2, text
        assert main(["verify", "--config", str(tmp_path / "missing.json"),
                     "--report", out]) == 2
        # an output path that cannot be written is a usage error, found
        # before any work starts
        missing = str(tmp_path / "no_such_dir" / "out")
        for argv in (["verify", "--metric", "flat", "--suite", "completeness", "--report", missing],
                     ["verify", "--metric", "flat", "--suite", "completeness",
                      "--report", str(tmp_path)],
                     ["solve-map", "--profile", "cylinder", "--csv", missing],
                     ["classify-completeness", "--p", "1.0", "--report", missing]):
            assert main(argv) == 2, argv
            assert "configuration error: cannot write" in capsys.readouterr().err, argv
        assert not (tmp_path / "no_such_dir").exists()
        if os.path.exists("/dev/full"):  # the directory exists, the write fails
            assert main(["classify-completeness", "--p", "1.0", "--report", "/dev/full"]) == 2

    def test_number_flags_checked(self, tmp_path, capsys):
        # the flags take the checks config numbers get: finite --c/--p, --samples >= 1
        out = str(tmp_path / "map.csv")
        for argv in (["classify-completeness", "--p", "nan"],
                     ["classify-completeness", "--p", "inf"],
                     ["classify-completeness", "--p=-inf"],
                     ["solve-map", "--profile", "cylinder", "--c", "nan", "--csv", out],
                     ["solve-map", "--profile", "cylinder", "--c", "inf", "--csv", out],
                     ["solve-map", "--profile", "cylinder", "--samples", "0", "--csv", out],
                     ["solve-map", "--profile", "cylinder", "--samples", "-5", "--csv", out]):
            assert main(argv) == 2, argv
            assert "configuration error" in capsys.readouterr().err, argv
        assert not os.path.exists(out)
        assert main(["solve-map", "--profile", "cylinder", "--samples", "1", "--csv", out]) == 0

    def test_solve_map_csv(self, tmp_path):
        out = tmp_path / "map.csv"
        rc = main(["solve-map", "--profile", "cylinder", "--branch", "quadrature",
                   "--c", "0.0", "--samples", "25", "--csv", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["z", "phi", "anisotropy"]
        assert len(rows) == 26
        z, phi, aniso = (np.array([float(r[i]) for r in rows[1:]]) for i in range(3))
        assert np.max(np.abs(phi - np.tanh(z))) < 1e-10
        assert np.max(aniso) < 1e-6

    def test_solve_map_evaluates_phi_once(self, tmp_path, quad_calls):
        # the CSV and the conformality verdict come from one evaluation of
        # phi on the z grid; the other quadrature is the degeneracy scan on
        # 64 points, run when the printed line reads the flag
        rc = main(["solve-map", "--profile", "cosh", "--samples", "25",
                   "--csv", str(tmp_path / "map.csv")])
        assert rc == 0
        assert quad_calls == [25, 64]

    def test_cone_constancy_needs_two_points(self, tmp_path, capsys):
        # one point makes every ratio its own mean: constancy is skipped, not
        # passed with residual 0
        modes = {}
        for points in ("1", "2"):
            out = tmp_path / f"cone_{points}.json"
            rc = main(["verify", "--metric", "burns", "--suite", "cone", "--points", points,
                       "--report", str(out)])
            assert rc == 0
            checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
            modes[points] = checks["cone.constancy"]["mode"]
            if points == "1":
                assert checks["cone.constancy"]["detail"]["reason"]
                assert checks["cone.values"]["mode"] == "below"
        assert modes == {"1": "skipped", "2": "below"}
        assert "[SKIP] cone.constancy" in capsys.readouterr().out

    def test_classify_completeness_output(self, capsys):
        rc = main(["classify-completeness", "--family", "power_pole", "--p", "1.1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "complete"
        rc = main(["classify-completeness", "--family", "power_pole", "--p", "0.5"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "incomplete"

    def test_report_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TWISTORCHECK_REPORT_DIR", str(tmp_path))
        rc = main(["verify", "--metric", "flat", "--suite", "completeness",
                   "--points", "4", "--seed", "1"])
        assert rc == 0
        assert (tmp_path / "twistorcheck_report.json").exists()

    def test_console_entrypoint(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"metric": "flat", "suite": "completeness", "sample_count": 4, "seed": 1}))
        proc = subprocess.run(
            [sys.executable, "-m", "twistorcheck.cli", "verify", "--config", str(cfg),
             "--report", str(tmp_path / "out.json")],
            capture_output=True, text=True, env=_env_with_src())
        assert proc.returncode == 0
        assert "overall: PASS" in proc.stdout


class TestDependencies:
    def test_cli_import_leaves_out_scipy(self):
        code = ("import sys, twistorcheck.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_numpy_is_the_only_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            deps = tomllib.load(fh)["project"]["dependencies"]
        assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["numpy"]
