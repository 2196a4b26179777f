import json
import platform
from dataclasses import replace

import numpy as np
import pytest
import scipy

from csdp import sweeps, utility
from csdp.cli import main
from csdp.kernel import joint_kernel
from csdp.model import DEFAULT_ENUMERATION_CAP, ModelError, two_user_model
from csdp.queries import builtin_queries
from csdp.sweeps import (
    PRESETS,
    ExperimentConfig,
    _check_leakage_row,
    load_config,
    render_table,
    run,
    run_sweep,
)
from csdp.utility import TradeoffSolution, aging_error, mse_exact


class TestConfig:
    def test_presets_resolve(self):
        for name in PRESETS:
            assert load_config(name).sweep in (
                "leakage-vs-lambda", "leakage-vs-age", "leakage-vs-noise",
                "utility-sweep", "frontier", "oracle-validate", "reduce-check",
            )

    def test_unknown_sweep_kind_named(self):
        with pytest.raises(ModelError, match="sweep"):
            ExperimentConfig("make-plots")

    def test_unknown_source(self):
        with pytest.raises(ModelError, match="preset"):
            load_config("no-such-thing.yaml")

    def test_yaml_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "sweep: leakage-vs-age\n"
            "grids:\n  lambda: [0.75]\n  t: [0, 1, 2]\n  eps_c: [1.0]\n"
            "seed: 5\n"
        )
        config = load_config(str(path))
        assert config.sweep == "leakage-vs-age"
        assert config.seed == 5

    def test_yaml_config_missing_sweep(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("grids: {}\n")
        with pytest.raises(ModelError, match="sweep"):
            load_config(str(path))


SMALL_AGE = ExperimentConfig(
    "leakage-vs-age", {"lambda": [0.5, 0.75], "t": [0, 1, 2], "eps_c": [1.0]}
)


class TestSweeps:
    def test_leakage_rows_carry_parameters(self):
        fields, rows, violations = run_sweep(SMALL_AGE)
        assert violations == []
        assert len(rows) == 6
        assert fields[:3] == ("lambda", "t", "eps_c")
        for row in rows:
            assert row["seed"] == SMALL_AGE.seed
            assert row["tight"] <= row["loose_linear"] + 1e-9

    def test_oracle_validate_clean(self):
        config = ExperimentConfig(
            "oracle-validate",
            {"lambda": [0.5, 1.0], "t": [0, 2], "eps_c": [2.0, 10.0]},
        )
        _, rows, violations = run_sweep(config)
        assert violations == []
        for row in rows:
            assert row["oracle"] <= row["tight"] + 1e-9

    def test_reduce_check_passes(self):
        _, rows, violations = run_sweep(PRESETS["reduce-check"])
        assert violations == []
        assert {r["case"] for r in rows} >= {"iid-age0-k1"}

    def test_frontier_rows(self):
        config = ExperimentConfig(
            "frontier", {"lambda": [0.5], "caps": [0.4, 0.8], "leakage_kind": "tight"}
        )
        fields, rows, violations = run_sweep(config)
        assert violations == []
        assert {r["mechanism"] for r in rows} == {"csdp", "adp", "ddp", "dp"}

    def test_utility_sweep_agreement(self):
        config = ExperimentConfig(
            "utility-sweep",
            {"lambda": [0.5], "age": [[0, 0], [2, 2]], "eps_c": [1.0],
             "samples": 2000},
        )
        _, rows, violations = run_sweep(config)
        assert violations == []

    def test_thread_determinism(self):
        multi_eps = ExperimentConfig(
            "oracle-validate", {"lambda": [0.25, 0.75], "t": [0, 1, 3], "eps_c": [0.5, 2.0, 10.0]}
        )
        # a leakage cell is one lambda: one lambda, and more threads than lambdas
        one_lambda = ExperimentConfig(
            "leakage-vs-noise", {"lambda": [0.75], "t": [1, 4, 2], "eps_c": [1.0, 3.0]}
        )
        # a utility cell is one (lambda, age): uniform and mixed ages, rows per eps_c
        utility = ExperimentConfig(
            "utility-sweep", {"lambda": [0.25, 0.75], "age": [[0, 0], [3, 3], [4, 1]],
                              "eps_c": [0.5, 2.0, 10.0], "samples": 200}
        )
        for config, threads in ((SMALL_AGE, 3), (multi_eps, 3), (one_lambda, 2),
                                (SMALL_AGE, 5), (utility, 3), (utility, 5)):
            serial = run_sweep(replace(config, threads=1))
            threaded = run_sweep(replace(config, threads=threads))
            assert render_table(serial[0], serial[1], "csv") == render_table(
                threaded[0], threaded[1], "csv"
            )

    def test_utility_sweep_one_aging_term_per_lambda_and_age(self, monkeypatch):
        calls = []

        def counting(kernel, age, query):
            calls.append(age)
            return aging_error(kernel, age, query)

        monkeypatch.setattr(sweeps, "aging_error", counting)
        config = ExperimentConfig(
            "utility-sweep", {"lambda": [0.25, 0.75], "age": [[0, 0], [2, 2], [5, 2]],
                              "eps_c": [0.5, 1.0, 5.0], "samples": 200}
        )
        _, rows, _ = run_sweep(config)
        assert [(r["lambda"], r["age"], r["eps_c"]) for r in rows] == [
            (lam, age, eps) for lam in (0.25, 0.75) for age in ("0|0", "2|2", "5|2")
            for eps in (0.5, 1.0, 5.0)]
        assert calls == [(0, 0), (2, 2), (5, 2)] * 2
        for row in rows:
            kernel = joint_kernel(two_user_model(row["lambda"]))
            age = tuple(int(a) for a in row["age"].split("|"))
            query = builtin_queries(kernel.space)["mean"]
            assert row["mse_exact"] == mse_exact(kernel, age, query, row["eps_c"])


class TestViolationMessages:
    """Each invariant violation names its cell and its margin."""

    ROW = {"lambda": 0.5, "t": 1, "eps_c": 1.0, "loose_linear": 0.8, "loose_log": 0.9,
           "tight": 0.4, "oracle": "", "oracle_hw": ""}

    @pytest.mark.parametrize("change, message", [
        ({"loose_log": 0.7}, "loose_log fell below loose_linear by 1.0e-01"),
        ({"tight": 0.8 + 3.1e-4}, "tight exceeds loose_linear by 3.1e-04"),
        ({"oracle": 0.45, "oracle_hw": 0.0}, "oracle estimate exceeds tight bound by 5.0e-02"),
        ({"oracle": 0.45, "oracle_hw": 0.01},
         "oracle estimate exceeds tight bound by 5.0e-02 (half-width 1.0e-02)"),
    ])
    def test_leakage_row_breach_names_its_size(self, change, message):
        row = {**self.ROW, **change}
        assert _check_leakage_row(row) == [f"lambda=0.5 t=1 eps_c=1.0: {message}"]

    def test_mse_violation_names_z_score(self):
        # a known 5-sigma excursion of the skewed squared-Laplace mean
        config = ExperimentConfig("utility-sweep", {"lambda": [0.5], "age": [[20, 10]],
                                                    "eps_c": [1.0], "samples": 4000}, seed=1013)
        _, _, violations = run_sweep(config)
        assert violations == ["lambda=0.5 age=20|10 eps_c=1.0: simulated MSE outside "
                              "5 standard errors of exact (z = -5.32)"]

    def test_frontier_violation_names_cap_and_rise(self, monkeypatch):
        def point(leakage, feasible=True):
            return TradeoffSolution((1, 1), 1.0, leakage, 0.1, feasible)

        rising = [(0.2, point(0.5)), (0.3, point(0.9, feasible=False)), (0.4, point(0.5)),
                  (0.5, point(0.75)), (0.6, point(0.25))]
        monkeypatch.setattr(sweeps, "tradeoff_frontier", lambda model, spec, caps, cap: {
            mech: rising if mech == "adp" else rising[:1] for mech in ("csdp", "adp", "ddp", "dp")
        })
        _, _, violations = run_sweep(PRESETS["fig4c"])
        assert violations == ["adp: frontier not non-increasing in the cap: "
                              "rises by 2.5e-01 at l_cap=0.5"]


class TestRunArtifacts:
    def test_run_writes_table_and_manifest(self, tmp_path):
        config = replace(SMALL_AGE, out_dir=str(tmp_path))
        code, paths, violations = run(config)
        assert code == 0 and violations == []
        table, manifest = paths
        body = open(table).read()
        assert body.splitlines()[0].startswith("lambda,t,eps_c")
        doc = json.loads(open(manifest).read())
        assert doc["sweep"] == "leakage-vs-age"
        assert doc["seed"] == config.seed
        assert doc["python"] == platform.python_version()
        assert doc["numpy"] == np.__version__
        assert doc["scipy"] == scipy.__version__

    def test_json_format(self, tmp_path):
        config = replace(SMALL_AGE, out_dir=str(tmp_path), fmt="json")
        _, paths, _ = run(config)
        rows = json.loads(open(paths[0]).read())
        assert rows[0]["lambda"] == 0.5

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_numpy_scalars_render_as_python_scalars(self, fmt):
        fields = ("x", "n", "flag", "tag")
        python_row = {"x": 0.1, "n": 3, "flag": True, "tag": "a"}
        numpy_row = {"x": np.float64(0.1), "n": np.int64(3), "flag": np.bool_(True),
                     "tag": "a"}
        text = render_table(fields, [numpy_row], fmt)
        assert text == render_table(fields, [python_row], fmt)
        assert "np." not in text

    def test_rerun_byte_identical(self, tmp_path):
        config = replace(SMALL_AGE, out_dir=str(tmp_path))
        run(config)
        first = open(tmp_path / "leakage-vs-age.csv", "rb").read()
        run(replace(config, threads=2))
        second = open(tmp_path / "leakage-vs-age.csv", "rb").read()
        assert first == second


class TestCli:
    def test_run_preset(self, tmp_path, capsys):
        code = main(["run", "--config", "reduce-check", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "reduce-check.csv").exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "--config", "missing.yaml"]) == 2

    @staticmethod
    def run_yaml(tmp_path, capsys, doc, *flags):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags])
        return code, capsys.readouterr().err

    def test_frontier_checks_cap_and_takes_one_lambda(self, tmp_path, capsys):
        assert main(["run", "--config", "fig5", "--cap", "2", "--out", str(tmp_path)]) == 2
        assert "enumeration cap 2" in capsys.readouterr().err
        for doc, key in (("sweep: frontier\ngrids:\n  lambda: [0.5, 0.75]\n", "lambda"),
                         ("sweep: reduce-check\ngrids:\n  eps_c: [1.0, 2.0]\n", "eps_c")):
            code, err = self.run_yaml(tmp_path, capsys, doc)
            assert code == 2 and f"takes one {key}, got" in err
        assert not (tmp_path / "out").exists() and not list(tmp_path.glob("*.csv"))

    def test_frontier_honours_a_raised_cap(self, monkeypatch):
        seen = []

        def recording(model, cap):
            seen.append(cap)
            return joint_kernel(model, cap)

        monkeypatch.setattr(utility, "joint_kernel", recording)
        run_sweep(replace(PRESETS["fig4c"], cap=DEFAULT_ENUMERATION_CAP + 1))
        assert seen == [DEFAULT_ENUMERATION_CAP + 1]

    def test_unknown_grid_key_is_named(self, tmp_path, capsys):
        code, err = self.run_yaml(tmp_path, capsys,
                                  "sweep: leakage-vs-age\ngrids:\n  lamda: [0.9]\n")
        assert code == 2 and "unknown key(s) ['lamda']" in err
        with pytest.raises(ModelError, match="'caps'"):
            ExperimentConfig("utility-sweep", {"caps": [0.5]})

    @pytest.mark.parametrize("doc, named", [
        ("sweep: leakage-vs-age\nseed: abc\n", "seed: expected int, got 'abc'"),
        ("sweep: leakage-vs-age\nthreads: two\n", "threads: expected int, got 'two'"),
        ("sweep: leakage-vs-age\ngrids: [1, 2]\n", "grids: expected a mapping, got [1, 2]"),
        ("sweep: leakage-vs-age\nout: 5\n", "out: expected str, got 5"),
        ("sweep: leakage-vs-age\nmodel: [a]\n", "model: expected str, got ['a']"),
        ("sweep: [leakage-vs-age\n", "is not valid YAML"),
        ("- sweep: leakage-vs-age\n", "missing field 'sweep'"),
    ])
    def test_config_type_error_names_field(self, tmp_path, capsys, doc, named):
        code, err = self.run_yaml(tmp_path, capsys, doc)
        assert code == 2 and named in err

    @pytest.mark.parametrize("doc, named", [
        ("sweep: utility-sweep\ngrids:\n  age: [3]\n",
         "grids: age: expected [[int, ...], ...], got [3]"),
        ("sweep: frontier\ngrids:\n  lambda: 0.5\n", "grids: lambda: expected [number, ...], got 0.5"),
        ("sweep: leakage-vs-age\ngrids:\n  t: 3\n", "grids: t: expected [int, ...], got 3"),
        ("sweep: utility-sweep\ngrids:\n  samples: abc\n", "grids: samples: expected int, got 'abc'"),
        ("sweep: leakage-vs-noise\ngrids:\n  eps_c: [abc]\n",
         "grids: eps_c: expected [number, ...], got ['abc']"),
        ("sweep: frontier\ngrids:\n  leakage_kind: [tight]\n",
         "grids: leakage_kind: expected str, got ['tight']"),
        ("sweep: reduce-check\ngrids:\n  max_age: -1\n", "max_age must be >= 0, got -1"),
        # ages that are not integers, which used to be truncated
        ("sweep: leakage-vs-age\ngrids:\n  t: [1.5]\n", "grids: t: expected [int, ...], got [1.5]"),
        ("sweep: oracle-validate\ngrids:\n  t: [true]\n", "grids: t: expected [int, ...], got [True]"),
        ("sweep: utility-sweep\ngrids:\n  age: [[1.5, 2]]\n",
         "grids: age: expected [[int, ...], ...], got [[1.5, 2]]"),
        ("sweep: frontier\ngrids:\n  age: [2.7]\n", "grids: age: expected [int, ...], got [2.7]"),
    ])
    def test_bad_grid_value_names_key(self, tmp_path, capsys, doc, named):
        code, err = self.run_yaml(tmp_path, capsys, doc)
        assert code == 2 and named in err
        assert not (tmp_path / "out").exists()

    def test_frontier_takes_age_vectors(self, tmp_path, capsys):
        code, _ = self.run_yaml(tmp_path, capsys, "sweep: frontier\ngrids:\n  "
                                "age: [[2, 1], [0, 0]]\n  caps: [0.8]\n  eps_c: [1.0]\n")
        assert code == 0
        rows = (tmp_path / "out" / "frontier.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in rows[1:]] == ["2|1", "2|1", "0|0", "0|0"]

    def test_empty_fields_take_their_defaults(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("sweep: reduce-check\nmodel:\nout:\nformat:\nseed:\n")
        config = load_config(str(cfg))
        assert (config.model_path, config.out_dir, config.fmt, config.seed) == ("", ".", "csv", 0)

    def test_bad_flag_exit_code(self):
        assert main(["run", "--config", "reduce-check", "--format", "xml"]) == 2

    def test_custom_config_with_overrides(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "sweep: leakage-vs-age\n"
            "grids:\n  lambda: [0.75]\n  t: [0, 1]\n  eps_c: [1.0]\n"
        )
        code = main([
            "run", "--config", str(cfg), "--out", str(tmp_path), "--seed", "9",
            "--format", "json",
        ])
        assert code == 0
        rows = json.loads((tmp_path / "leakage-vs-age.json").read_text())
        assert all(r["seed"] == 9 for r in rows)
