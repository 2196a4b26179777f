import json
import platform
from dataclasses import replace

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from csdp import bounds, sweeps, utility
from csdp import kernel as kernel_module
from csdp.bounds import (LeakageParams, aged_tv_distance, bounded_aged_correlation,
                         oracle_leakage, tight_bound)
from csdp.cli import main
from csdp.kernel import joint_kernel
from csdp.model import (
    DEFAULT_ENUMERATION_CAP,
    CmcModel,
    ModelError,
    StateSpace,
    load_model,
    save_model,
    two_user_model,
)
from csdp.queries import builtin_queries
from csdp.rng import derive_seed
from csdp.sweeps import (
    FIELD_KEYS,
    PRESETS,
    ExperimentConfig,
    _check_leakage_row,
    load_config,
    render_table,
    run,
    run_sweep,
)
from csdp.utility import TradeoffSolution, mse_exact, mse_simulated


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

    @pytest.mark.parametrize("config", [
        SMALL_AGE,
        ExperimentConfig("oracle-validate",
                         {"lambda": [0.25, 0.75], "t": [0, 1, 3], "eps_c": [0.5, 2.0, 10.0]}),
        # uniform and mixed ages, rows per eps_c
        ExperimentConfig("utility-sweep", {"lambda": [0.25, 0.75], "age": [[0, 0], [3, 3], [4, 1]],
                                           "eps_c": [0.5, 2.0, 10.0], "samples": 200}),
    ], ids=["leakage-vs-age", "oracle-validate", "utility-sweep"])
    def test_rerun_in_one_process_never_moves_a_byte(self, config):
        """A cell's seed depends only on its coordinates: a second run of the
        same config, after the first has drawn, renders the same table."""
        tables = [render_table(*run_sweep(config)[:2], "csv") for _ in range(2)]
        assert tables[0] == tables[1]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_batched_sweep_is_its_one_lambda_sweeps_concatenated(self, data):
        """A leakage sweep over several lambdas, batched into one pass,
        renders the header and then the rows of its one-lambda sweeps, in
        lambda order, byte for byte."""
        sweep = data.draw(st.sampled_from(["leakage-vs-lambda", "leakage-vs-noise",
                                           "oracle-validate"]))
        lams = data.draw(st.lists(st.sampled_from([round(0.05 * i, 10) for i in range(21)]),
                                  min_size=1, max_size=4))
        grids = {"t": data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=7,
                                         unique=True)),
                 "eps_c": data.draw(st.lists(st.sampled_from(sweeps.EPS_GRID_DEFAULT),
                                             min_size=1, max_size=4, unique=True))}
        config = ExperimentConfig(sweep, {"lambda": lams, **grids})
        batched = render_table(*run_sweep(config)[:2], "csv").splitlines(keepends=True)
        singles = [render_table(*run_sweep(replace(config, grids={"lambda": [lam], **grids}))[:2],
                                "csv").splitlines(keepends=True) for lam in lams]
        assert batched == singles[0][:1] + [row for table in singles for row in table[1:]]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_utility_sweep_is_its_one_cell_sweeps_concatenated(self, data):
        """A utility sweep over several lambdas and age vectors (uniform and
        mixed, repeats allowed) renders the header and then the rows of its
        one-(lambda, age) sweeps, in grid order, byte for byte."""
        lams = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                  min_size=1, max_size=3))
        ages = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2),
                                  min_size=1, max_size=3))
        eps = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 10.0]), min_size=1, max_size=2))
        config = ExperimentConfig("utility-sweep",
                                  {"lambda": lams, "age": ages, "eps_c": eps, "samples": 100},
                                  seed=data.draw(st.integers(0, 2**32 - 1)))
        batched = render_table(*run_sweep(config)[:2], "csv").splitlines(keepends=True)
        singles = [render_table(*run_sweep(replace(config, grids={
            "lambda": [lam], "age": [age], "eps_c": eps, "samples": 100}))[:2],
                                "csv").splitlines(keepends=True)
                   for lam in lams for age in ages]
        assert batched == singles[0][:1] + [row for table in singles for row in table[1:]]

    def test_utility_sweep_one_aging_term_per_lambda_and_age(self, monkeypatch):
        calls = []

        def counting(kernel, ages):
            calls.append(list(ages))
            return kernel_module.aged_joints(kernel, ages)

        monkeypatch.setattr(sweeps, "aged_joints", counting)
        config = ExperimentConfig(
            "utility-sweep", {"lambda": [0.25, 0.75], "age": [[0, 0], [2, 2], [5, 2]],
                              "eps_c": [0.5, 1.0, 5.0], "samples": 200}
        )
        _, rows, _ = run_sweep(config)
        assert [(r["lambda"], r["age"], r["eps_c"]) for r in rows] == [
            (lam, age, eps) for lam in (0.25, 0.75) for age in ("0|0", "2|2", "5|2")
            for eps in (0.5, 1.0, 5.0)]
        # one call per lambda, over its whole age grid
        assert calls == [[(0, 0), (2, 2), (5, 2)]] * 2
        for row in rows:
            kernel = joint_kernel(two_user_model(row["lambda"]))
            age = tuple(int(a) for a in row["age"].split("|"))
            query = builtin_queries(kernel.space)["mean"]
            assert row["mse_exact"] == mse_exact(kernel, age, query, row["eps_c"])


class TestModelFileSweeps:
    """A model file fixes the coupling: its sweeps take no lambda grid, run
    one lambda and leave lambda empty in their rows."""

    @pytest.fixture
    def model_path(self, tmp_path):
        path = tmp_path / "model.yaml"
        save_model(two_user_model(0.75), path)
        return str(path)

    @pytest.mark.parametrize("sweep", ["leakage-vs-age", "utility-sweep"])
    def test_lambda_grid_is_refused(self, tmp_path, capsys, model_path, sweep):
        code, err = TestCli.run_yaml(tmp_path, capsys, f"sweep: {sweep}\nmodel: {model_path}\n"
                                     "grids:\n  lambda: [0.1, 0.9]\n")
        assert code == 2 and "grids: lambda: a sweep with a model file takes no lambda grid" in err
        assert not (tmp_path / "out").exists()

    def test_three_user_frontier_runs_at_older_ages(self, tmp_path, capsys):
        """The tight frontier over the default ages 0-20 of this three-user
        model meets transport blocks that differ by l1 ~ 1e-11, whose LP was
        unbounded with every potential free; the run exits 0."""
        rng = np.random.default_rng(1)
        transitions = rng.dirichlet(np.ones(2), size=(3, 3, 2)).transpose(0, 1, 3, 2).copy()
        path = tmp_path / "three.yaml"
        save_model(CmcModel(StateSpace(3, 2), transitions,
                            rng.dirichlet(np.ones(3), size=3)), path)
        code, err = TestCli.run_yaml(tmp_path, capsys, f"sweep: frontier\nmodel: {path}\n")
        assert code == 0, err
        assert (tmp_path / "out" / "frontier.csv").exists()

    @pytest.mark.parametrize("sweep", ["leakage-vs-age", "oracle-validate"])
    def test_leakage_rows_leave_lambda_empty(self, model_path, sweep):
        grids = {"t": [0, 2], "eps_c": [1.0, 2.0]}
        _, rows, _ = run_sweep(ExperimentConfig(sweep, grids, model_path=model_path))
        _, builtin, _ = run_sweep(ExperimentConfig(sweep, {**grids, "lambda": [0.75]}))
        assert rows == [{**row, "lambda": ""} for row in builtin]

    def test_utility_rows_leave_lambda_empty_and_keep_their_seeds(self, model_path):
        grids = {"age": [[0, 0], [3, 1]], "eps_c": [1.0, 2.0], "samples": 200}
        _, rows, _ = run_sweep(ExperimentConfig("utility-sweep", grids, model_path=model_path,
                                                seed=4))
        kernel = joint_kernel(two_user_model(0.75))
        query = builtin_queries(kernel.space)["mean"]
        assert [r["lambda"] for r in rows] == [""] * 4
        for row, (age, eps) in zip(rows, [((0, 0), 1.0), ((0, 0), 2.0), ((3, 1), 1.0),
                                          ((3, 1), 2.0)]):
            # the derived seed still names the lambda grid's default, 0.5
            seed = derive_seed(4, "mse", 0.5, age, eps)
            assert (row["mse_simulated"], row["mse_stderr"]) == mse_simulated(
                kernel, age, query, eps, 200, seed)

    def test_one_law_per_t_changes_no_value(self, tmp_path, monkeypatch):
        """An oracle-validate sweep on a random three-user model builds the
        aged law of every t of the joint kernel in one call and reads
        Delta_k, Delta_bar and every eps_c's oracle from them.  Each row
        equals one call per quantity through the (kernel, age) functions:
        Delta_k and the oracle exactly, and `tight` to 1e-12, since a cell
        packs its ages' transport LPs."""
        rng = np.random.default_rng(5)
        model = CmcModel(StateSpace(3, 2),
                         rng.dirichlet(np.ones(2), size=(3, 3, 2)).transpose(0, 1, 3, 2),
                         rng.dirichlet(np.ones(3), size=3))
        path = tmp_path / "model.yaml"
        save_model(model, path)
        built = []  # (space, ages) of every call that builds laws, the single-chain ones too

        def counting(kernel, ages, fn=kernel_module.aged_joints):
            ages = list(ages)
            built.append((kernel.space, [tuple(age) for age in ages]))
            return fn(kernel, ages)

        # every one-law form (`aged_joint`, and through it `aged_tv_distance`,
        # `oracle_leakage` and `bounded_aged_correlation`) calls the kernel
        # module's `aged_joints`, so it is counted too
        for module in (kernel_module, sweeps, bounds):
            monkeypatch.setattr(module, "aged_joints", counting)
        _, rows, _ = run_sweep(ExperimentConfig("oracle-validate", {}, model_path=str(path)))
        ts = PRESETS["oracle-validate"].grid("t")
        assert [ages for space, ages in built if space == model.space] == [[(t,) * 3 for t in ts]]
        kernel = joint_kernel(load_model(path))
        query = builtin_queries(kernel.space)["mean"]
        assert len(rows) == len(ts) * 3
        for row in rows:
            age, eps = (row["t"],) * 3, row["eps_c"]
            oracle = oracle_leakage(kernel, LeakageParams(age, eps, 3, query)).estimate
            tight = tight_bound(bounded_aged_correlation(kernel, age), eps)
            assert row["delta_k"] == aged_tv_distance(kernel, age, 3)
            assert row["oracle"] == oracle
            assert abs(row["tight"] - tight) <= 1e-12


class TestViolationMessages:
    """Each invariant violation names its cell and its margin."""

    ROW = {"lambda": 0.5, "t": 1, "eps_c": 1.0, "loose_linear": 0.8, "loose_log": 0.9,
           "tight": 0.4, "oracle": ""}

    @pytest.mark.parametrize("change, message", [
        ({"loose_log": 0.7}, "loose_log fell below loose_linear by 1.0e-01"),
        ({"tight": 0.8 + 3.1e-4}, "tight exceeds loose_linear by 3.1e-04"),
        ({"oracle": 0.45}, "oracle exceeds tight bound by 5.0e-02"),
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
        run(config)
        second = open(tmp_path / "leakage-vs-age.csv", "rb").read()
        assert first == second


class TestCli:
    def test_run_preset(self, tmp_path, capsys):
        code = main(["run", "--config", "reduce-check", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "reduce-check.csv").exists()

    def test_unusable_out_dir_is_refused_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(sweeps, "run_sweep", lambda config: ran.append(config))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["run", "--config", "fig3a", "--out", str(blocker / "out")])
        assert code == 2 and ran == []
        assert capsys.readouterr().err.startswith("configuration error: ")

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
        ("sweep: leakage-vs-age\ncap: two\n", "cap: expected int, got 'two'"),
        # numbers and bools that int() would have truncated or read as 1
        ("sweep: leakage-vs-age\nseed: 1.7\n", "seed: expected int, got 1.7"),
        ("sweep: leakage-vs-age\ncap: 2.5\n", "cap: expected int, got 2.5"),
        ("sweep: leakage-vs-age\nseed: true\n", "seed: expected int, got True"),
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
        # a cap the utility spec would refuse under its own field name
        ("sweep: frontier\ngrids:\n  caps: [0.5, -1]\n",
         "grids: caps: every cap must be positive, got -1"),
    ])
    def test_bad_grid_value_names_key(self, tmp_path, capsys, doc, named):
        code, err = self.run_yaml(tmp_path, capsys, doc)
        assert code == 2 and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, key, shape", [
        ("leakage-vs-lambda", "lambda", "[number, ...]"),
        ("leakage-vs-age", "t", "[int, ...]"),
        ("leakage-vs-noise", "eps_c", "[number, ...]"),
        ("utility-sweep", "age", "[[int, ...], ...]"),
        ("frontier", "caps", "[number, ...]"),
        ("oracle-validate", "t", "[int, ...]"),
        ("reduce-check", "eps_c", "[number, ...]"),
    ])
    def test_empty_grid_list_is_named(self, tmp_path, capsys, sweep, key, shape):
        code, err = self.run_yaml(tmp_path, capsys, f"sweep: {sweep}\ngrids:\n  {key}: []\n")
        assert code == 2 and f"grids: {key}: expected {shape}, got []" in err
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

    def test_int_fields_take_the_text_of_an_int(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("sweep: reduce-check\nseed: '7'\ncap: '64'\n")
        config = load_config(str(cfg))
        assert (config.seed, config.cap) == (7, 64)

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


# (YAML key, bad value, message): every entry point must refuse the value
# with this message.  The `csdp run` flag takes text, so it meets the cases
# whose value a flag can give as it is: a str, or an int field's int as text.
FIELD_CASES = [
    ("seed", 1.7, "seed: expected int, got 1.7"),
    ("seed", True, "seed: expected int, got True"),
    ("seed", "abc", "seed: expected int, got 'abc'"),
    ("seed", "1.5", "seed: expected int, got '1.5'"),
    ("cap", 0, "cap: must be >= 1, got 0"),
    ("cap", "0", "cap: must be >= 1, got 0"),
    ("cap", [64], "cap: expected int, got [64]"),
    ("cap", 2.5, "cap: expected int, got 2.5"),
    ("cap", "two", "cap: expected int, got 'two'"),
    ("out", 5, "out: expected str, got 5"),
    ("model", ["a"], "model: expected str, got ['a']"),
    ("format", "xml", "format: unknown value 'xml'"),
    ("format", 1, "format: expected str, got 1"),
]


def _entry_points(case):
    key, value, _ = case
    yield "yaml"
    int_field = isinstance(getattr(ExperimentConfig, FIELD_KEYS[key]), int)
    if key != "model" and (isinstance(value, str) or type(value) is int and int_field):
        yield "flag"
    yield "construct"
    yield "replace"


class TestOneRule:
    """A YAML file, a `csdp run` flag, ExperimentConfig(...) and replace(...)
    refuse a bad field with one message, naming its YAML key."""

    @pytest.mark.parametrize("entry, case", [
        (entry, case) for case in FIELD_CASES for entry in _entry_points(case)
    ])
    def test_bad_field(self, tmp_path, capsys, entry, case):
        key, value, message = case
        out = str(tmp_path / "out")
        if entry in ("yaml", "flag"):
            cfg = tmp_path / "c.yaml"
            cfg.write_text("sweep: reduce-check\n"
                           + (yaml.safe_dump({key: value}) if entry == "yaml" else ""))
            flags = [f"--{key}", str(value)] if entry == "flag" else []
            assert main(["run", "--config", str(cfg), "--out", out, *flags]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
            return
        fields = {FIELD_KEYS[key]: value}
        with pytest.raises(ModelError) as raised:
            if entry == "construct":
                ExperimentConfig("reduce-check", **fields)
            else:
                replace(PRESETS["reduce-check"], **fields)
        assert str(raised.value) == message

    @pytest.mark.parametrize("value", ["7", " 7 ", np.int64(7), 7])
    def test_int_fields_store_an_int(self, value):
        for name in ("seed", "cap"):
            got = getattr(replace(PRESETS["reduce-check"], **{name: value}), name)
            assert got == 7 and type(got) is int

    def test_flags_take_the_text_of_an_int(self, tmp_path):
        code = main(["run", "--config", "reduce-check", "--out", str(tmp_path), "--seed", "7",
                     "--cap", "64", "--format", "json"])
        assert code == 0
        manifest = json.loads((tmp_path / "reduce-check.manifest.json").read_text())
        assert (manifest["seed"], manifest["cap"]) == (7, 64)
        assert (tmp_path / "reduce-check.json").exists()

    def test_unknown_top_level_keys_are_named(self, tmp_path, capsys):
        code, err = TestCli.run_yaml(tmp_path, capsys, "sweep: reduce-check\nseeds: 7\nthread: 4\n")
        assert code == 2 and "unknown key(s) ['seeds', 'thread']" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, flags, named", [
        ("sweep: reduce-check\nthreads: 2\n", (), "unknown key(s) ['threads']"),
        ("sweep: reduce-check\n", ("--threads", "2"), "--threads"),
    ], ids=["yaml", "flag"])
    def test_threads_is_refused(self, tmp_path, capsys, doc, flags, named):
        """Every sweep runs serially: `threads` is no key and no flag."""
        code, err = TestCli.run_yaml(tmp_path, capsys, doc, *flags)
        assert code == 2 and named in err
        assert not (tmp_path / "out").exists()

    def test_empty_grids_take_their_default(self, tmp_path, capsys):
        code, _ = TestCli.run_yaml(tmp_path, capsys, "sweep: reduce-check\ngrids:\n")
        assert code == 0
        cfg = load_config(str(tmp_path / "c.yaml"))
        assert cfg.grids == {} and cfg.grid("max_age") == sweeps.GRID_DEFAULTS["reduce-check"]["max_age"]

    def test_empty_sweep_is_missing(self, tmp_path, capsys):
        code, err = TestCli.run_yaml(tmp_path, capsys, "sweep:\n")
        assert code == 2 and "missing field 'sweep'" in err

    @pytest.mark.parametrize("sweep", [["leakage-vs-age"], {"a": 1}, 5])
    def test_sweep_that_is_not_a_str_is_named(self, sweep):
        with pytest.raises(ModelError, match="sweep: unknown kind"):
            ExperimentConfig(sweep)

    @pytest.mark.parametrize("caps", ["[.nan, 0.4]", "[0.4, .nan]", "[0.0]"])
    def test_frontier_refuses_a_nan_or_zero_cap(self, tmp_path, capsys, caps):
        code, err = TestCli.run_yaml(tmp_path, capsys,
                                     f"sweep: frontier\ngrids:\n  caps: {caps}\n")
        assert code == 2 and "grids: caps: every cap must be positive, got" in err
        assert not (tmp_path / "out").exists()


def _model_text(tmp_path, edit):
    path = tmp_path / "m.yaml"
    save_model(two_user_model(0.75), path)
    return edit(path.read_text())


# (name, file contents from the saved two-user model's text, message)
MODEL_FILE_CASES = [
    ("empty", lambda text: "", "missing field 'num_sequences'"),
    ("scalar", lambda text: "5\n", "has a top-level int, not a mapping"),
    ("list", lambda text: "- 2\n", "has a top-level list, not a mapping"),
    ("invalid YAML", lambda text: "num_sequences: [2\n", "is not valid YAML"),
    ("bad bytes", lambda text: text.replace("column", "col\udcffumn"), "is not valid YAML"),
    ("fractional sizes",
     lambda text: text.replace("num_sequences: 2", "num_sequences: 1.9")
     .replace("num_states: 2", "num_states: 2.6"),
     "num_sequences: expected an integer, got 1.9"),
    ("bool size", lambda text: text.replace("num_sequences: 2", "num_sequences: true"),
     "num_sequences: expected an integer, got True"),
    ("text size", lambda text: text.replace("num_states: 2", "num_states: '2'"),
     "num_states: expected an integer, got '2'"),
    ("misspelled key", lambda text: text.replace("orientation:", "orientaton:"),
     "unknown key(s) ['orientaton']"),
    ("empty field", lambda text: text.replace("num_states: 2", "num_states:"),
     "missing field 'num_states'"),
]


class TestModelFileErrors:
    """load_model and a sweep given the file both refuse a bad model file by
    name: ModelError from the one, exit 2 from the other."""

    @pytest.mark.parametrize("name, edit, message", MODEL_FILE_CASES,
                             ids=[case[0] for case in MODEL_FILE_CASES])
    def test_bad_model_file(self, tmp_path, capsys, name, edit, message):
        path = tmp_path / "bad.yaml"
        path.write_bytes(_model_text(tmp_path, edit).encode("utf-8", "surrogateescape"))
        with pytest.raises(ModelError) as raised:
            load_model(path)
        assert message in str(raised.value)
        code, err = TestCli.run_yaml(tmp_path, capsys,
                                     f"sweep: leakage-vs-age\nmodel: {path}\n")
        assert code == 2 and message in err
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("5\n")
        with pytest.raises(ModelError, match=f"model file: '{path}'"):
            load_model(path)
