from dataclasses import replace

import numpy as np
import pytest

from csdp import (
    CmcModel,
    ModelError,
    StateSpace,
    UtilitySpec,
    builtin_queries,
    joint_kernel,
    mse_exact,
    mse_simulated,
    solve_p1,
    tradeoff_frontier,
    two_user_model,
)
from csdp import utility
from csdp.queries import QuerySpec
from csdp.utility import LEAKAGE_KINDS, aging_error, noise_variance

FLIP = np.array([[0.7, 0.3], [0.3, 0.7]])


def single_chain(P=FLIP):
    return CmcModel(StateSpace(1, P.shape[0]), np.asarray(P)[None, None], np.ones((1, 1)))


def mean_query(space=StateSpace(2, 2)):
    return builtin_queries(space)["mean"]


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
def test_non_finite_eps_rejected(eps):
    kern = joint_kernel(two_user_model(0.5))
    q = mean_query()
    with pytest.raises(ModelError, match="eps_c must be"):
        UtilitySpec(q, mse_cap=1.0, age_grid=((1, 1),), eps_grid=(1.0, eps))
    with pytest.raises(ModelError, match="eps_c must be"):
        mse_exact(kern, (1, 1), q, eps)
    with pytest.raises(ModelError, match="eps_c must be"):
        mse_simulated(kern, (1, 1), q, eps, samples=100, seed=0)


class TestMseExact:
    def test_age_zero_noise_only(self):
        kern = joint_kernel(two_user_model(0.75))
        q = mean_query()
        for eps in (0.5, 1.0, 4.0):
            assert mse_exact(kern, (0, 0), q, eps) == pytest.approx(
                2 * (0.5 / eps) ** 2, abs=1e-12
            )

    def test_single_chain_one_step_disagreement(self):
        kern = joint_kernel(single_chain())
        space = StateSpace(1, 2)
        ident = QuerySpec("identity", space, evaluate=lambda x: float(x[0]),
                          sensitivity=lambda i: 1.0)
        # aging error = Pr[x != z] at stationarity = 0.3; noise negligible
        assert mse_exact(kern, (1,), ident, 1e6) == pytest.approx(0.3, abs=1e-9)

    def test_decomposition_additive(self):
        kern = joint_kernel(two_user_model(0.5))
        q = mean_query()
        for age in ((0, 0), (3, 3), (7, 2)):
            for e1, e2 in ((0.5, 2.0), (1.0, 10.0)):
                gap = mse_exact(kern, age, q, e1) - mse_exact(kern, age, q, e2)
                pure_noise = noise_variance(q, e1) - noise_variance(q, e2)
                assert gap == pytest.approx(pure_noise, abs=1e-12)

    def test_aging_error_nondecreasing_in_uniform_age(self):
        kern = joint_kernel(two_user_model(0.5))
        q = mean_query()
        vals = [aging_error(kern, (t, t), q) for t in range(10)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_eps(self):
        kern = joint_kernel(two_user_model(0.5))
        q = mean_query()
        vals = [mse_exact(kern, (2, 2), q, e) for e in (0.5, 1.0, 2.0, 5.0)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestMseSimulated:
    def test_matches_exact_within_three_se(self):
        q = mean_query()
        for lam in (0.5, 0.75):
            kern = joint_kernel(two_user_model(lam))
            for age in ((0, 0), (2, 2), (4, 1)):
                for eps in (1.0, 5.0):
                    exact = mse_exact(kern, age, q, eps)
                    est, se = mse_simulated(kern, age, q, eps, 4000, seed=hash((lam, age, eps)) % 2**32)
                    assert abs(est - exact) <= 4 * se  # sized to keep flake risk tiny

    def test_high_budget_fresh_data(self):
        kern = joint_kernel(two_user_model(0.5))
        q = mean_query()
        est, _ = mse_simulated(kern, (0, 0), q, 1e6, 1000, seed=2)
        assert est < 1e-6

    def test_deterministic(self):
        kern = joint_kernel(two_user_model(0.5))
        q = mean_query()
        a = mse_simulated(kern, (3, 1), q, 1.0, 500, seed=5)
        b = mse_simulated(kern, (3, 1), q, 1.0, 500, seed=5)
        assert a == b

    def test_sample_floor(self):
        kern = joint_kernel(two_user_model(0.5))
        with pytest.raises(ModelError, match="samples"):
            mse_simulated(kern, (1, 1), mean_query(), 1.0, 50, seed=1)


class TestSolveP1:
    def test_loose_cap_prefers_oldest_data_least_noise(self):
        model = two_user_model(0.5)
        spec = UtilitySpec(mean_query(), mse_cap=1e9,
                           age_grid=tuple((t, t) for t in range(6)),
                           eps_grid=(0.1, 1.0, 5.0), leakage_kind="loose_linear")
        sol = solve_p1(model, spec)
        assert sol.feasible
        assert sol.age == (5, 5)
        assert sol.eps_c == pytest.approx(0.1)

    def test_infeasible_cap(self):
        model = two_user_model(0.5)
        spec = UtilitySpec(mean_query(), mse_cap=1e-9,
                           age_grid=((0, 0), (2, 2)), eps_grid=(0.5, 1.0))
        sol = solve_p1(model, spec)
        assert not sol.feasible
        # reported point is the best-MSE one: fresh data, largest budget
        assert sol.age == (0, 0)
        assert sol.eps_c == pytest.approx(1.0)

    def test_exhaustive_recheck(self):
        model = two_user_model(0.75)
        kern = joint_kernel(model)
        q = mean_query()
        spec = UtilitySpec(q, mse_cap=0.5,
                           age_grid=tuple((t, t) for t in range(8)),
                           eps_grid=(0.3, 1.0, 3.0), leakage_kind="tight")
        sol = solve_p1(model, spec)
        assert sol.feasible
        assert sol.mse <= 0.5
        from csdp import bounded_aged_correlation
        for age in spec.age_grid:
            for eps in spec.eps_grid:
                if mse_exact(kern, age, q, eps) <= 0.5:
                    leak = bounded_aged_correlation(kern, age) * eps
                    assert leak >= sol.leakage - 1e-12

    def test_leakage_recomputes(self):
        from csdp import aged_tv_distance, k_sensitivity

        model = two_user_model(0.5)
        kern = joint_kernel(model)
        q = mean_query()
        spec = UtilitySpec(q, mse_cap=0.6,
                           age_grid=tuple((t, t) for t in range(5)),
                           eps_grid=(0.5, 1.0), leakage_kind="loose_linear")
        sol = solve_p1(model, spec)
        expect = k_sensitivity(q, 2) * aged_tv_distance(kern, sol.age, 2) * sol.eps_c
        assert sol.leakage == pytest.approx(expect, abs=1e-12)

    def test_tie_break_larger_eps_then_smaller_age(self):
        # an i.i.d.-over-time model has zero aged TV for every age >= 1, so
        # all those grid points tie at zero leakage
        col = np.array([0.6, 0.4])
        P = np.stack([col, col], axis=1)
        model = CmcModel(StateSpace(2, 2),
                         np.broadcast_to(P, (2, 2, 2, 2)).copy(),
                         np.full((2, 2), 0.5))
        spec = UtilitySpec(mean_query(), mse_cap=1e9,
                           age_grid=((1, 1), (2, 2), (3, 3)),
                           eps_grid=(0.5, 1.0, 2.0), leakage_kind="loose_linear")
        sol = solve_p1(model, spec)
        assert sol.leakage == pytest.approx(0.0, abs=1e-12)
        assert sol.eps_c == pytest.approx(2.0)
        assert sol.age == (1, 1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ModelError):
            UtilitySpec(mean_query(), 1.0, (), (1.0,))


@pytest.mark.parametrize("kind", LEAKAGE_KINDS)
def test_one_coefficient_and_aging_term_per_distinct_age(monkeypatch, kind):
    """A frontier computes each distinct age's coefficients and aging error
    once, for every mechanism and eps; `solve_p1` computes no ADP term."""
    calls = {name: [] for name in ("bounded_aged_correlations", "aged_tv_distance",
                                   "single_chain_tv", "aging_error")}
    for name in calls:
        def counted(*args, name=name, fn=getattr(utility, name)):
            calls[name].append(args[1])
            return fn(*args)
        monkeypatch.setattr(utility, name, counted)
    spec = UtilitySpec(mean_query(), mse_cap=1.0,
                       age_grid=((2, 2), 3, (1, 3), (2, 2), [1, 3]),
                       eps_grid=(0.5, 1.0, 2.0), leakage_kind=kind)
    distinct = [(2, 2), (3, 3), (1, 3)]
    coefficients = {"bounded_aged_correlations": [distinct] if kind == "tight" else [],
                    "aged_tv_distance": [] if kind == "tight" else distinct}
    tradeoff_frontier(two_user_model(0.5), spec, [0.4, 0.8])
    # single_chain_tv takes each age's largest entry; DDP adds age zero's aging
    assert calls == {**coefficients, "single_chain_tv": [2, 3, 3],
                     "aging_error": distinct + [(0, 0)]}
    for got in calls.values():
        got.clear()
    solve_p1(two_user_model(0.5), spec)
    assert calls == {**coefficients, "single_chain_tv": [], "aging_error": distinct}


def test_duplicate_ages_keep_their_rows(monkeypatch):
    """Ties within TIE_RTOL do not chain, so the scan order matters: with
    Delta_k set to 0.5, 0.5(1 + 0.9e-12) and 0.5(1 + 1.8e-12) at ages 3, 2
    and 1, each younger age ties with the one before it and wins on age,
    and the repeated age 3 then beats age 1 outright."""
    delta = {(3, 3): 0.5, (2, 2): 0.5 * (1 + 0.9e-12), (1, 1): 0.5 * (1 + 1.8e-12)}
    monkeypatch.setattr(utility, "aged_tv_distance", lambda kernel, age, degree: delta[age])
    spec = UtilitySpec(mean_query(), mse_cap=1e9, age_grid=((3, 3), (2, 2), (1, 1), (3, 3)),
                       eps_grid=(1.0,), leakage_kind="loose_linear")
    assert solve_p1(two_user_model(0.5), spec).age == (3, 3)
    assert solve_p1(two_user_model(0.5), replace(spec, age_grid=spec.age_grid[:3])).age == (1, 1)


@pytest.fixture(scope="module")
def frontier():
    model = two_user_model(0.5)
    eps_grid = tuple(np.logspace(np.log10(0.05), np.log10(10.0), 25).tolist())
    spec = UtilitySpec(mean_query(), mse_cap=1.0,
                       age_grid=tuple((t, t) for t in range(21)),
                       eps_grid=eps_grid, leakage_kind="tight")
    caps = [round(0.2 + 0.1 * i, 10) for i in range(9)]
    return caps, tradeoff_frontier(model, spec, caps)


class TestFrontier:
    def test_non_increasing_in_cap(self, frontier):
        caps, table = frontier
        for mech, rows in table.items():
            vals = [sol.leakage for _, sol in rows]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), mech

    def test_mechanism_ordering(self, frontier):
        caps, table = frontier
        for i, cap in enumerate(caps):
            c = table["csdp"][i][1].leakage
            a = table["adp"][i][1].leakage
            dd = table["ddp"][i][1].leakage
            d = table["dp"][i][1].leakage
            assert c <= a + 1e-12
            assert a <= dd + 1e-12
            assert dd <= d + 1e-12

    def test_dp_ddp_near_equality(self, frontier):
        caps, table = frontier
        i = caps.index(0.8)
        d = table["dp"][i][1].leakage
        dd = table["ddp"][i][1].leakage
        assert d == pytest.approx(dd, rel=0.01)

    def test_dp_reads_ddp(self, frontier):
        _, table = frontier
        assert list(table) == ["csdp", "adp", "ddp", "dp"]
        assert table["dp"] == table["ddp"]

    def test_baselines_pinned_to_age_zero(self, frontier):
        _, table = frontier
        for mech in ("dp", "ddp"):
            assert all(sol.age == (0, 0) for _, sol in table[mech])

    def test_csdp_uses_max_age_at_loose_caps(self, frontier):
        caps, table = frontier
        i = caps.index(0.8)
        assert table["csdp"][i][1].age == (20, 20)
