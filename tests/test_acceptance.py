"""Release-gate tests.

Every criterion in csdp.acceptance runs once (module scope) with the
default seed and tolerance table; each test asserts one criterion and
prints its [PASS]/[FAIL] line so the gate status is visible in verbose
pytest output.  Criteria 5 to 8 are pinned to their seed-0 lines, and
criterion 8's half-line gap to its `loop_reference` form.
"""

import re

import pytest

import loop_reference as ref
from csdp import acceptance as acceptance_module
from csdp import aged_joint, builtin_queries, joint_kernel
from csdp.acceptance import (
    CRITERIA,
    DEFAULT_TOLERANCES,
    acceptance,
    criterion_bound_ordering,
    criterion_decay,
    criterion_oracle_consistency,
    criterion_u_shape,
    half_line_gap,
    oracle_cases,
)
from csdp.rng import derive_seed


@pytest.fixture(scope="module")
def results():
    return acceptance(seed=0)


def _check(results, number):
    r = results[number - 1]
    print(r.line())
    assert r.passed, r.line()


def test_criterion_1_u_shape_and_symmetry(results):
    _check(results, 1)


def test_criterion_2_temporal_decay(results):
    _check(results, 2)


def test_criterion_3_bound_ordering(results):
    _check(results, 3)


def test_criterion_4_reductions(results):
    _check(results, 4)


def test_criterion_5_baseline_separation(results):
    _check(results, 5)


def test_criterion_6_mechanism_statistics(results):
    _check(results, 6)


def test_criterion_6_line_is_fixed(results):
    """The batch-seeded FRAN draws give seed 0 the same variance and KS
    p-value as 10^5 per-seed release() calls did."""
    assert results[5].line() == (
        "[PASS] criterion 6 (mechanism statistics): measured variance 1.9967 "
        "(target 2), KS p-value 0.2697; expected variance within 5%, p > 0.01")


def test_criteria_1_2_and_4_lines_are_fixed(results):
    """Criteria 1 and 2 read one shared curve helper, and criterion 4 the
    reductions' two-user model; at seed 0 they print the lines their own
    loops and hand-built model gave."""
    assert results[0].line() == (
        "[PASS] criterion 1 (u-shape and symmetry): measured min at lambda=0.5 for t=1..4 "
        "(yes), max |leak(l)-leak(1-l)| = 2.220e-16; expected minimum at 0.5, "
        "asymmetry <= 1e-09")
    assert results[1].line() == (
        "[PASS] criterion 2 (temporal decay): measured lambda=0.5: eps(6)=0.0041, "
        "drop(0->4)=98.7%; lambda=0.75: eps(6)=0.0042, drop(0->4)=98.6%; lambda=1.0: "
        "eps(6)=0.0082, drop(0->4)=97.4%; expected eps(6) < 0.05, drop >= 55%, non-increasing")
    assert results[3].line() == (
        "[PASS] criterion 4 (reductions): measured iid-age0-k1=pass, "
        "spatially-independent-vs-age-dependent=pass, coupled-benchmark=pass (n/a); "
        "expected all applicable cases within 1e-09")


def test_criterion_7_mse_model(results):
    _check(results, 7)


def test_criteria_5_and_7_lines_are_fixed(results):
    """Criteria 5 and 7 read the fig5 and MSE_SWEEP tables; at seed 0 they
    give the lines their own frontier and MSE loops gave."""
    assert results[4].line() == (
        "[PASS] criterion 5 (baseline separation): measured at cap 0.8: csdp=1.209e-08, "
        "adp=2.202e-08 (ratio 0.549), dp=1.764e+00, ddp=1.764e+00 (separation 1.5e+08); "
        "pointwise ordering holds; expected ratio <= 0.6, separation >= 100x, "
        "csdp<=adp<=ddp<=dp")
    assert results[6].line() == (
        "[PASS] criterion 7 (mse model): measured worst |sim-exact| = 2.97 standard errors; "
        "decomposition residual 4.44e-16; expected <= 3.0 standard errors; residual <= 1e-12")


def test_criterion_8_oracle_cross_validation(results):
    _check(results, 8)
    assert results[7].line() == (
        "[PASS] criterion 8 (oracle cross-validation): measured two-user lam=0.5 t=1: gap 0.0034; "
        "two-user lam=0.5 t=2: gap 0.0026; two-user lam=0.75 t=1: gap 0.0030; "
        "two-user lam=0.75 t=3: gap 0.0036; three-user uniform coupling t=1: gap 0.0041; "
        "expected every half-line probability within the DKW bound 0.0094 "
        "(24 laws x 1e+05 releases, alpha 1e-06)")


@pytest.mark.parametrize("seed", [0, 1])
def test_half_line_gap_equals_searchsorted_reference(seed):
    """Criterion 8's gap, its snapshots drawn by the threshold sampler, equals
    the cumsum + searchsorted + clip form it replaced, exactly, on each of
    the criterion's laws with the criterion's seeds and sample count."""
    for model, age, eps, label in oracle_cases():
        law = aged_joint(joint_kernel(model), age)
        query = builtin_queries(model.space)["mean"]
        args = (law, query, eps, 10**5, derive_seed(seed, "oracle", label))
        assert half_line_gap(*args) == ref.half_line_gap(*args), label


@pytest.mark.parametrize("scale", [1.1, 1 / 1.1, 1.05, 1 / 1.05],
                         ids=["wider", "narrower", "5%-wider", "5%-narrower"])
def test_criterion_8_fails_on_a_noise_scale_error(monkeypatch, scale):
    """Half-line probabilities taken at a noise scale 10% or 5% off fail
    criterion 8, though they move the oracle by only 0.005-0.038 nats on its
    cases at 10%.  At 5%, read at the query's values alone, they pass at
    seed 0; the theta grid between and beyond the values catches them."""
    exact = acceptance_module._half_line_cdf
    monkeypatch.setattr(acceptance_module, "_half_line_cdf",
                        lambda law, query, eps_c: exact(law, query, eps_c / scale))
    assert not criterion_oracle_consistency(dict(DEFAULT_TOLERANCES)).passed


def test_criterion_9_determinism(results):
    _check(results, 9)


def test_criteria_table_lists_the_functions_by_name():
    """Each entry is the criterion function itself, so a lookup by its
    __name__ finds it in the module."""
    for _, fn in CRITERIA:
        assert getattr(acceptance_module, fn.__name__) is fn


def test_every_criterion_reported_once(results):
    assert [r.number for r in results] == list(range(1, len(CRITERIA) + 1))
    assert all(r.line().startswith("[PASS]") for r in results)


def test_cli_prints_timing_apart_from_result_lines(results, monkeypatch, capsys, tmp_path):
    """`csdp acceptance` prints the result lines as they are, then one
    timing line per criterion; acceptance.txt holds the same lines."""
    from csdp.cli import main

    monkeypatch.setattr(acceptance_module, "acceptance", lambda seed: results)
    assert main(["acceptance", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    written = (tmp_path / "acceptance.txt").read_text().splitlines()
    assert printed[:-1] == written
    assert written[: len(results)] == [r.line() for r in results]
    timings = written[len(results):]
    assert len(timings) == len(results) == len(CRITERIA)
    for r, line in zip(results, timings):
        assert re.fullmatch(rf"timing criterion {r.number} \({re.escape(r.name)}\): "
                            r"\d+\.\d{3} s", line), line
        assert r.seconds > 0 and r.line().startswith("[PASS]")


@pytest.mark.parametrize("under_file", [False, True])
def test_cli_refuses_unusable_out_before_any_criterion(monkeypatch, capsys, tmp_path,
                                                       under_file):
    """`csdp acceptance --out` naming a regular file, or a path under one,
    exits 2 with a configuration error and runs no criterion."""
    from csdp.cli import main

    calls = []
    monkeypatch.setattr(acceptance_module, "acceptance", lambda seed: calls.append(seed))
    blocker = tmp_path / "report"
    blocker.write_text("")
    out = blocker / "acceptance" if under_file else blocker
    assert main(["acceptance", "--out", str(out)]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ") and str(blocker) in captured.err


def test_fault_injection_isolated():
    # an impossible tolerance must fail its own criterion without disturbing
    # the others, proving the tolerances act independently
    tol = dict(DEFAULT_TOLERANCES, decay_threshold=1e-9)
    assert not criterion_decay(tol).passed
    assert criterion_u_shape(tol).passed
    tol = dict(DEFAULT_TOLERANCES, ordering_slack=-1.0)
    assert not criterion_bound_ordering(tol).passed
    assert criterion_u_shape(tol).passed
    assert criterion_decay(tol).passed
