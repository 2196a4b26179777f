"""Self-tests of the benchmark (kept out of the package's test run).

    python3 -m pytest -q perfbench/bench_selftest.py

They run every workload in smoke mode, check the result line against
BENCHMARK.json and the benchmark's names against the csdp package, show
that an injected wrong result or broken release noise is counted as a
failure, that the benchmark refuses to report without the program, and
that an operation's cost divides out the host's speed.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import run  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES
TIMEOUT = 300


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=TIMEOUT)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def test_contract_matches_code():
    contract = _contract()
    assert contract["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in contract["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(workload, trace):
    result = _result(_run(workload, "--smoke", "--trace", str(trace)))
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _contract()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_is_counted(workload):
    done = _run(workload, "--smoke", "--trace", "0", "--inject-fault")
    result = _result(done)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "fail_frac=0 " not in done.stdout
    assert "problem " in done.stdout


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("release", "--smoke", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_names_match_the_package():
    run._import_program()
    from csdp import acceptance, sweeps

    assert catalog.CRITERIA == tuple(name for name, _ in acceptance.CRITERIA)
    assert set(catalog.PRESETS) <= set(sweeps.PRESETS)
    for layer in catalog.LAYERS:
        __import__(f"csdp.{layer}")


def _release_problems(monkeypatch, laplace_sample, passes=1):
    """Problems the release checks find when mechanism.laplace_sample is
    replaced, over `passes` runs of the same batch."""
    run._import_program()
    import workloads
    from csdp import mechanism

    workload = workloads.Release(4, True, "unused")
    monkeypatch.setattr(mechanism, "laplace_sample", laplace_sample(mechanism.laplace_sample))
    problems = []
    for _ in range(passes):
        p = workloads.Pass(0)
        workload.run_pass(p)
        problems += [problem for op in p.ops for problem in op[2]]
    return problems


def test_release_noise_checks_pass_on_the_program(monkeypatch):
    assert _release_problems(monkeypatch, lambda orig: orig, passes=2) == []


def test_reused_noise_is_caught(monkeypatch):
    problems = _release_problems(monkeypatch, lambda orig: lambda scale, dim, seed:
                                 orig(scale, dim, 0))
    assert any("KS p-value" in problem for problem in problems)


def test_shared_generator_is_caught(monkeypatch):
    import numpy as np

    def shared(orig):
        rng = np.random.default_rng(0)
        return lambda scale, dim, seed: rng.laplace(0.0, scale, dim)

    problems = _release_problems(monkeypatch, shared, passes=2)
    assert any("digest" in problem for problem in problems)


def test_inputs_follow_the_seed():
    run._import_program()
    import workloads

    def batches(seed):
        return workloads.Release(seed, True, "unused").batches

    def models(seed):
        ladder = workloads.Ladder(seed, True, "unused")
        return ([m.transitions.tobytes() + m.weights.tobytes() for m, _, _ in ladder.requests],
                ladder.p1_eps)

    assert batches(5) == batches(5)
    assert batches(5) != batches(6)
    assert batches(-5) != batches(5)
    assert models(5) == models(5)
    assert models(5) != models(6)


def test_cost_divides_out_the_host_speed():
    import hostref

    ref = hostref.HostReference()
    # The host runs the reference loop in 1 ms, then from t=1 s in 2 ms; the
    # sample at t=1 s takes 50 ms of wall time inside the third operation.
    ref.starts = [0.0, 0.5, 1.0, 1.5, 2.0]
    ref.cpus = [1e-3, 1e-3, 2e-3, 2e-3, 2e-3]
    ref.walls = [1e-3, 1e-3, 0.05, 2e-3, 2e-3]
    costs = ref.costs([0.2, 1.2, 0.95], [0.1, 0.2, 0.2])
    assert costs == pytest.approx([100.0, 100.0, 75.0])
