import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csdp import (
    CmcModel,
    LeakageParams,
    ModelError,
    StateSpace,
    adp_leakage,
    aged_joint,
    aged_joints,
    aged_tv_distance,
    baseline_bounds,
    bounded_aged_correlation,
    bounded_aged_correlations,
    builtin_queries,
    exact_oracles,
    joint_kernel,
    k_sensitivity,
    loose_bound,
    oracle_leakage,
    single_chain_tvs,
    tight_bound,
    two_user_model,
    verify_reductions,
)
from csdp import bounds
from csdp.acceptance import _half_line_cdf, dkw_bound, half_line_gap
from csdp.sweeps import ExperimentConfig, run_sweep
import loop_reference as ref

FLIP = np.array([[0.7, 0.3], [0.3, 0.7]])

# enumeration results from an independent reference implementation, frozen
DELTA2_LAM_050 = [1.0, 0.24, 0.0832, 0.032256, 0.01282048]
DELTA2_LAM_075 = [1.0, 0.3, 0.1, 0.036, 0.0136]


def random_model(s, m, seed):
    """Dirichlet(1) transition columns and coupling rows."""
    rng = np.random.default_rng(seed)
    transitions = rng.dirichlet(np.ones(m), size=(s, s, m)).transpose(0, 1, 3, 2).copy()
    return CmcModel(StateSpace(s, m), transitions, rng.dirichlet(np.ones(s), size=s))


def transport_blocks(kern, ages) -> list:
    """Per age, the rows d = p - q, p != q, of the backward conditionals of
    every neighbour pair: the blocks `bounded_aged_correlations` bounds."""
    edges = kern.space.neighbour_pairs
    blocks = []
    for age in ages:
        B = aged_joint(kern, age).conditional()
        D = (B[:, edges[:, 0]] - B[:, edges[:, 1]]).T
        blocks.append(D[np.abs(D).sum(axis=1) >= 1e-15])
    return blocks


def open_blocks(kern, ages) -> int:
    """Transport blocks, over all ages, that their bounds leave to an LP."""
    opened = 0
    for D in transport_blocks(kern, ages):
        if len(D):
            lo, hi = bounds._transport_bounds(D, kern.space)
            opened += int((hi > lo.max() * (1 + bounds._SETTLE_SLACK)).sum())
    return opened


def lps_for(kern, ages) -> int:
    """LPs one `bounded_aged_correlations` call on the laws of `ages` makes."""
    per_lp = max(1, bounds._LP_VARIABLES // kern.space.product_size)
    return -(-open_blocks(kern, ages) // per_lp)


def single_chain(P=FLIP):
    return CmcModel(StateSpace(1, P.shape[0]), np.asarray(P)[None, None], np.ones((1, 1)))


def independent_pair():
    return CmcModel(
        StateSpace(2, 2), np.broadcast_to(FLIP, (2, 2, 2, 2)).copy(), np.eye(2)
    )


class TestAgedTV:
    def test_age_zero_is_one(self):
        kern = joint_kernel(two_user_model(0.3))
        assert aged_tv_distance(kern, (0, 0), 2) == pytest.approx(1.0, abs=1e-12)

    def test_single_chain_geometric(self):
        kern = joint_kernel(single_chain())
        for t in range(7):
            assert aged_tv_distance(kern, (t,), 1) == pytest.approx(0.4**t, abs=1e-10)

    @pytest.mark.parametrize("lam,expected", [(0.5, DELTA2_LAM_050), (0.75, DELTA2_LAM_075)])
    def test_frozen_benchmark_values(self, lam, expected):
        kern = joint_kernel(two_user_model(lam))
        for t, val in enumerate(expected):
            assert aged_tv_distance(kern, (t, t), 2) == pytest.approx(val, abs=1e-10)

    def test_u_shape_and_symmetry(self):
        lams = [round(0.1 * i, 10) for i in range(11)]
        for t in (1, 2, 3, 4):
            vals = {}
            for lam in lams:
                kern = joint_kernel(two_user_model(lam))
                vals[lam] = aged_tv_distance(kern, (t, t), 2)
            assert min(vals, key=vals.get) == 0.5
            for lam in lams:
                assert vals[lam] == pytest.approx(vals[round(1 - lam, 10)], abs=1e-9)

    def test_monotone_in_age(self):
        kern = joint_kernel(two_user_model(0.75))
        vals = [aged_tv_distance(kern, (t, t), 2) for t in range(9)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bad_degree(self):
        kern = joint_kernel(two_user_model(0.75))
        with pytest.raises(ModelError):
            aged_tv_distance(kern, (1, 1), 0)


SPACE = StateSpace(2, 2)
QUERIES = builtin_queries(SPACE)
# Every entry that takes a correlation degree k, 1 <= k <= s, here s = 2;
# `aged_tv_distance` then refuses any k but s.
DEGREE_ENTRIES = {
    "LeakageParams": lambda k: LeakageParams((1, 1), 1.0, k, QUERIES["mean"]),
    "aged_tv_distance": lambda k: aged_tv_distance(joint_kernel(two_user_model(0.5)), (1, 1), k),
    "k_sensitivity": lambda k: k_sensitivity(QUERIES["mean"], k),
    "sensitivity-mean": lambda k: QUERIES["mean"].sensitivity(k),
    "sensitivity-max": lambda k: QUERIES["max"].sensitivity(k),
    "sensitivity-sum": lambda k: QUERIES["sum"].sensitivity(k),
}


@pytest.mark.parametrize("entry", DEGREE_ENTRIES.values(), ids=DEGREE_ENTRIES.keys())
@pytest.mark.parametrize("k, message", [
    (1.5, "correlation degree: expected an integer, got 1.5"),
    (2.0, "correlation degree: expected an integer, got 2.0"),
    (True, "correlation degree: expected an integer, got True"),
    ("2", "correlation degree: expected an integer, got '2'"),
    (0, "correlation degree 0 out of range [1, 2]"),
    (3, "correlation degree 3 out of range [1, 2]"),
])
def test_bad_degree_is_refused_by_name(entry, k, message):
    with pytest.raises(ModelError) as raised:
        entry(k)
    assert str(raised.value) == message


@pytest.mark.parametrize("entry", DEGREE_ENTRIES.values(), ids=DEGREE_ENTRIES.keys())
def test_numpy_int_degree_is_read(entry):
    assert entry(np.int64(2)) == entry(2)
    if entry is not DEGREE_ENTRIES["aged_tv_distance"]:
        assert entry(np.int64(1)) == entry(1)


@pytest.mark.parametrize("k", [1, np.int64(1)], ids=["int", "numpy-int"])
def test_aged_tv_distance_refuses_a_degree_below_s_by_name(k):
    with pytest.raises(ModelError) as raised:
        DEGREE_ENTRIES["aged_tv_distance"](k)
    assert str(raised.value) == ("correlation degree 1: Delta_k is computed at the full "
                                 "degree s = 2 only")


def test_leakage_params_keep_the_degree_as_an_int():
    params = LeakageParams((1, 1), 1.0, np.int64(2), QUERIES["mean"])
    assert type(params.degree) is int


@pytest.mark.parametrize("name", ["mean", "sum", "max", "min"])
@pytest.mark.parametrize("s, m", [(1, 3), (2, 2), (3, 2)])
def test_baseline_bounds_read_d_s_from_the_query_space(s, m, name):
    """The spatial-only budget is d(s) * eps_c, with d(s) = s_s(f) / s_1(f)
    taken over every snapshot pair of the query's space."""
    query = builtin_queries(StateSpace(s, m))[name]
    profile = ref.brute_force_profile(query, s)
    dp, ddp = baseline_bounds(0.7, query)
    assert dp == 0.7
    assert ddp == pytest.approx(max(profile) / profile[0] * 0.7, rel=1e-12)


@pytest.mark.parametrize("model", [two_user_model(0.5), independent_pair(),
                                   random_model(3, 2, seed=7)],
                         ids=["two-user", "independent-pair", "random-3x2"])
def test_aged_tvs_is_aged_tv_distance_at_s(model):
    """The list form and the one-age form are one Delta_k, at degree s."""
    kern = joint_kernel(model)
    s = model.space.num_sequences
    ages = [(t,) * s for t in range(4)] + [tuple(range(s))]
    got = bounds.aged_tvs(aged_joints(kern, ages))
    assert got == [aged_tv_distance(kern, age, np.int64(s)) for age in ages]
    assert got == pytest.approx([ref.aged_tv_distance(kern, age, s) for age in ages], abs=1e-14)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [
    lambda eps: LeakageParams((1, 1), eps, 2, builtin_queries(StateSpace(2, 2))["mean"]),
    lambda eps: loose_bound(0.5, 2.0, eps),
    lambda eps: tight_bound(0.5, eps),
    lambda eps: adp_leakage(0.3, eps),
    lambda eps: baseline_bounds(eps, builtin_queries(StateSpace(2, 2))["mean"]),
    lambda eps: exact_oracles([aged_joint(joint_kernel(two_user_model(0.5)), (1, 1))],
                              builtin_queries(StateSpace(2, 2))["mean"], [eps]),
], ids=["LeakageParams", "loose_bound", "tight_bound", "adp_leakage", "baseline_bounds",
        "exact_oracles"])
def test_non_finite_eps_rejected(entry, eps):
    with pytest.raises(ModelError, match="eps_c must be (finite|positive), got -?(nan|inf)$"):
        entry(eps)


class TestLooseBound:
    def test_zero_delta(self):
        assert loose_bound(0.0, 2.0, 1.0) == (0.0, 0.0)

    def test_full_delta_unit_dk(self):
        lin, logf = loose_bound(1.0, 1.0, 3.0)
        assert logf == pytest.approx(3.0, abs=1e-12)
        assert lin == pytest.approx(3.0, abs=1e-12)

    def test_log_can_exceed_linear(self):
        lin, logf = loose_bound(0.4, 2.0, 1.0)
        assert lin == pytest.approx(0.8)
        assert logf == pytest.approx(math.log(1 + 0.4 * (math.e**2 - 1)), abs=1e-12)
        assert logf > lin  # certified budget takes the min of the two

    def test_log_dominates_linear_everywhere(self):
        # e^{xy} - 1 - x(e^y - 1) is convex in x and vanishes at x = 0 and
        # x = 1, hence is nonpositive on [0, 1]: the log form is never below
        # the linear form, so min(linear, log) is the linear form
        for delta in (0.05, 0.3, 0.7, 0.99):
            for dk in (1.0, 2.0):
                for eps in (0.1, 1.0, 5.0):
                    lin, logf = loose_bound(delta, dk, eps)
                    assert logf >= lin - 1e-12

    def test_log_equals_linear_at_extremes(self):
        lin, logf = loose_bound(1.0, 2.0, 0.7)
        assert logf == pytest.approx(lin, abs=1e-12)
        assert loose_bound(0.0, 2.0, 0.7) == (0.0, 0.0)

    def test_finite_where_expm1_overflows(self):
        """At d(s) * eps_c = 800, past the log of the largest float, the log
        form is x + log(Delta + (1 - Delta) e^-x): no OverflowError, 0 at
        Delta = 0, x at Delta = 1, and so is ADP's and a leakage sweep's."""
        assert loose_bound(0.5, 1.0, 800.0) == (400.0, pytest.approx(800.0 + math.log(0.5)))
        assert adp_leakage(0.5, 800.0) == pytest.approx(800.0 + math.log(0.5))
        assert loose_bound(1e-300, 1.0, 800.0)[1] == pytest.approx(800.0 + math.log(1e-300))
        assert loose_bound(0.0, 2.0, 800.0) == (0.0, 0.0)
        assert loose_bound(1.0, 2.0, 400.0)[1] == 800.0
        config = ExperimentConfig("leakage-vs-noise", {"eps_c": [1.0, 800.0]})
        _, rows, _ = run_sweep(config)
        assert all(math.isfinite(row[key]) for row in rows for key in ("loose_log", "adp"))

    def test_forms_meet_at_the_switch_point(self):
        """At EXPM1_MAX the log form is still log1p(Delta * expm1(x)), bit
        for bit; one float above it the other form reads the same value to
        the one-ulp step of x (1.1e-13)."""
        x = bounds.EXPM1_MAX
        above = math.nextafter(x, math.inf)
        for delta in (1e-300, 0.3, 1.0):
            below = loose_bound(delta, 1.0, x)[1]
            assert below == math.log1p(delta * math.expm1(x)), delta
            assert loose_bound(delta, 1.0, above)[1] == pytest.approx(below, rel=0, abs=2e-13)
        with pytest.raises(OverflowError):
            math.expm1(above)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            loose_bound(1.5, 2.0, 1.0)
        with pytest.raises(ModelError):
            loose_bound(0.5, 0.5, 1.0)
        with pytest.raises(ModelError):
            loose_bound(0.5, 2.0, 0.0)


class TestBoundedAgedCorrelation:
    def test_independent_age_zero_is_one(self):
        kern = joint_kernel(independent_pair())
        assert bounded_aged_correlation(kern, (0, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_single_chain_reduces_to_tv(self):
        kern = joint_kernel(single_chain())
        for t in range(5):
            assert bounded_aged_correlation(kern, (t,)) == pytest.approx(
                aged_tv_distance(kern, (t,), 1), abs=1e-9
            )

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_benchmark_coefficient_is_single_chain_decay(self, lam):
        # on the symmetric benchmark the transport coefficient collapses to
        # the per-sequence mixing rate, independent of the coupling strength
        kern = joint_kernel(two_user_model(lam))
        for t in range(1, 5):
            assert bounded_aged_correlation(kern, (t, t)) == pytest.approx(
                0.4**t, abs=1e-8
            )

    def test_below_loose_coefficient(self):
        q = builtin_queries(StateSpace(2, 2))["mean"]
        for lam in (0.0, 0.5, 0.75):
            kern = joint_kernel(two_user_model(lam))
            for t in range(7):
                dbar = bounded_aged_correlation(kern, (t, t))
                d2 = aged_tv_distance(kern, (t, t), 2)
                assert dbar <= 2 * d2 + 1e-9

    def test_monotone_in_age(self):
        kern = joint_kernel(two_user_model(0.75))
        vals = [bounded_aged_correlation(kern, (t, t)) for t in range(9)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_two_user_cycle_closed_form(self, lam):
        # two binary users make the Hamming graph a 4-cycle, on which W1 is
        # sum_k |F_k - median(F)| for the cumulative differences F around it
        kern = joint_kernel(two_user_model(lam))
        cycle = [0, 1, 3, 2]  # (0,0), (0,1), (1,1), (1,0)
        for t in range(21):
            B = aged_joint(kern, (t, t)).conditional()
            w1 = []
            for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
                F = np.cumsum((B[:, a] - B[:, b])[cycle])
                w1.append(np.abs(F - np.median(F)).sum())
            assert bounded_aged_correlation(kern, (t, t)) == pytest.approx(max(w1), rel=0, abs=1e-15)

    @pytest.mark.parametrize("s, m", [(1, 3), (2, 2), (3, 2), (2, 3)])
    def test_age_zero_is_one(self, s, m):
        model = random_model(s, m, seed=s * 10 + m)
        assert bounded_aged_correlation(joint_kernel(model), (0,) * s) == pytest.approx(1.0, abs=1e-12)

    def test_identical_neighbour_columns_give_zero_without_lp(self, monkeypatch):
        # every transition column uniform: the aged snapshot is independent
        # of the current one, so all backward conditionals are equal
        uniform = np.full((2, 2, 2, 2), 0.5)
        kern = joint_kernel(CmcModel(StateSpace(2, 2), uniform, np.full((2, 2), 0.5)))
        calls = []
        monkeypatch.setattr(bounds, "linprog", lambda *a, **k: calls.append(1))
        for age in [(1, 1), (2, 1)]:
            assert bounded_aged_correlation(kern, age) == 0.0
        assert calls == []

    def test_one_lp_per_call(self, monkeypatch):
        cases = [(joint_kernel(random_model(3, 2, seed=48)), (1, 1, 1)),
                 (joint_kernel(two_user_model(0.75)), (3, 3))]
        kern = joint_kernel(CmcModel(StateSpace(3, 2), np.broadcast_to(FLIP, (3, 3, 2, 2)).copy(),
                                     np.full((3, 3), 1 / 3)))
        cases.append((kern, (1, 2, 0)))
        calls = self.count_lps(monkeypatch)
        # one LP for a call with open blocks (only the seed-48 kernel's 4 of
        # 12 stay open), none for a call whose bounds settle every block;
        # slack -1 opens every block, and each call is still one LP
        for slack, lps in ((bounds._SETTLE_SLACK, [1, 0, 0]), (-1.0, [1, 1, 1])):
            monkeypatch.setattr(bounds, "_SETTLE_SLACK", slack)
            calls.clear()
            for k, a in cases:
                bounded_aged_correlation(k, a)
            assert [lps_for(k, [a]) for k, a in cases] == lps
            assert len(calls) == sum(lps)

    @staticmethod
    def count_lps(monkeypatch):
        calls = []
        linprog = bounds.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(bounds, "linprog", counting)
        return calls

    def test_chunk_size_does_not_move_values(self, monkeypatch):
        kern = joint_kernel(random_model(4, 2, seed=3))  # n = 16, 32 Hamming edges
        ages = [(0,) * 4, (1,) * 4, (2, 0, 1, 3), (3,) * 4]
        laws = [aged_joint(kern, age) for age in ages]
        default = bounded_aged_correlations(laws)
        opened = open_blocks(kern, ages)
        assert opened == 3
        calls = self.count_lps(monkeypatch)
        results = []
        # n potentials per LP: one LP per open block, or per each of the
        # 4 * 32 blocks once slack -1 opens them all; 10^9: one LP
        for slack, blocks in ((bounds._SETTLE_SLACK, opened), (-1.0, 4 * 32)):
            monkeypatch.setattr(bounds, "_SETTLE_SLACK", slack)
            for size, lps in ((16, blocks), (10**9, 1)):
                monkeypatch.setattr(bounds, "_LP_VARIABLES", size)
                calls.clear()
                results.append(bounded_aged_correlations(laws))
                assert len(calls) == lps
        for value in results:
            assert np.allclose(value, default, rtol=0, atol=1e-12)

    def test_fig3a_lambdas_share_packed_lps(self, monkeypatch):
        """fig3a is one pass over its 21 lambdas, so with every block open
        their blocks pack together into LPs of at most `_LP_VARIABLES`
        potentials, and each law's Delta_bar matches the packing of its own
        lambda's laws alone."""
        from csdp.sweeps import PRESETS, run_sweep

        grids = PRESETS["fig3a"].grids
        ages = [(t, t) for t in grids["t"]]
        kernels = [joint_kernel(two_user_model(lam)) for lam in grids["lambda"]]
        open_lambdas = sum(open_blocks(kern, ages) > 0 for kern in kernels)
        calls = self.count_lps(monkeypatch)
        run_sweep(PRESETS["fig3a"])
        # the cheapest-target flow bound settles every fig3a block
        assert len(calls) == open_lambdas == 0
        monkeypatch.setattr(bounds, "_SETTLE_SLACK", -1.0)
        per_lambda = [bounded_aged_correlations(aged_joints(kern, ages)) for kern in kernels]
        assert len(calls) == len(kernels) == 21
        calls.clear()
        _, rows, _ = run_sweep(PRESETS["fig3a"])
        per_lp = bounds._LP_VARIABLES // kernels[0].space.product_size
        opened = sum(open_blocks(kern, ages) for kern in kernels)
        assert len(calls) == -(-opened // per_lp) == 3
        assert np.allclose([row["delta_bar"] for row in rows],
                           [v for values in per_lambda for v in values], rtol=0, atol=1e-12)

    def test_large_kernel_is_chunked(self, monkeypatch):
        # n = 64: 192 blocks of 64 potentials, 16 blocks per LP, of which
        # 24 stay open on this kernel
        kern = joint_kernel(random_model(6, 2, seed=5))
        calls = self.count_lps(monkeypatch)
        bounded_aged_correlation(kern, (1,) * 6)
        assert open_blocks(kern, [(1,) * 6]) == 24
        assert len(calls) == lps_for(kern, [(1,) * 6]) == 2
        monkeypatch.setattr(bounds, "_SETTLE_SLACK", -1.0)
        calls.clear()
        bounded_aged_correlation(kern, (1,) * 6)
        assert len(calls) == 12

    def test_older_ages_of_multi_user_models_solve(self):
        """At age 13 some open blocks of this kernel differ by l1 ~ 1e-11.
        Scaled to unit mass they keep a rounding imbalance, which made the
        LP with every potential free unbounded; one fixed potential per
        block keeps it bounded."""
        kern, age = joint_kernel(random_model(3, 2, 1)), (13, 13, 13)
        assert lps_for(kern, [age]) == 1
        value = bounded_aged_correlation(kern, age)
        assert_between_transport_bounds(kern, age, value)
        # the dense coupling LP per pair, whose tolerances are coarse at 1e-10
        assert value == pytest.approx(ref.bounded_aged_correlation(kern, age), rel=1e-5)

    def test_failed_lp_is_named(self, monkeypatch):
        monkeypatch.setattr(bounds, "linprog",
                            lambda *a, **k: SimpleNamespace(success=False, message="boom"))
        # this kernel's maximum exceeds every block's lower bound by 0.33%,
        # so no valid flow bound can settle its blocks
        with pytest.raises(ModelError, match="transport LP failed: boom"):
            bounded_aged_correlation(joint_kernel(random_model(3, 3, seed=32)), (1, 1, 1))


def assert_between_transport_bounds(kern, age, value):
    """value lies between the largest lo and the largest hi of the age's
    blocks, within 1e-9 relative plus n ulps of 1: a block's entries are
    differences of probabilities, each rounded to ~1e-16, so at old ages
    lo and hi can cross by that much; 0.0 when no neighbour pair differs."""
    (D,) = transport_blocks(kern, [age])
    if not len(D):
        assert value == 0.0
        return
    lo, hi = bounds._transport_bounds(D, kern.space)
    ulps = D.shape[1] * np.finfo(float).eps
    assert lo.max() * (1 - 1e-9) - ulps <= value <= hi.max() * (1 + 1e-9) + ulps


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(0, 2**16), st.integers(0, 30))
@example(3, 2, 1, 13)
@example(3, 3, 9, 12)
@example(3, 2, 4, 14)
def test_delta_bar_solves_at_every_age(s, m, seed, t):
    """Delta_bar never raises on small random models up to age 30, and lies
    between its closed-form bounds."""
    kern = joint_kernel(random_model(s, m, seed))
    age = (t,) * s
    assert_between_transport_bounds(kern, age, bounded_aged_correlation(kern, age))


class TestTransportBounds:
    """`bounds._transport_bounds`: lo <= W1 <= hi in closed form."""

    def test_equal_marginals_move_two_coordinates(self):
        # 1/2 (d_0000 + d_1111) - 1/2 (d_0011 + d_1100): every coordinate
        # marginal agrees, so lo is the TV, 1; each unit of mass must change
        # two coordinates, so W1 = 2, and the collapsing flow attains it
        d = np.zeros(16)
        d[[0b0000, 0b1111]] = 0.5
        d[[0b0011, 0b1100]] = -0.5
        lo, hi = bounds._transport_bounds(d[None], StateSpace(4, 2))
        assert (lo[0], hi[0]) == (1.0, 2.0)
        costs = ref.hamming_costs_from_digits(4, 2)
        assert ref.transport_distance(np.maximum(d, 0), np.maximum(-d, 0), costs) == \
            pytest.approx(2.0, abs=1e-12)

    def test_open_block_can_exceed_every_lower_bound(self):
        # the maximum sits in an open block whose W1 is 0.33% above every
        # block's lower bound, so only its LP finds Delta_bar
        kern = joint_kernel(random_model(3, 3, seed=32))
        D = np.concatenate(transport_blocks(kern, [(1, 1, 1)]))
        tau = bounds._transport_bounds(D, kern.space)[0].max()
        value = bounded_aged_correlation(kern, (1, 1, 1))
        assert value > tau * 1.003
        assert value == pytest.approx(ref.bounded_aged_correlation(kern, (1, 1, 1)), abs=1e-12)

    @pytest.mark.parametrize("s, m", [(1, 3), (2, 2), (3, 2), (2, 3)])
    def test_age_zero_is_exactly_one_without_lp(self, monkeypatch, s, m):
        calls = TestBoundedAgedCorrelation.count_lps(monkeypatch)
        kern = joint_kernel(random_model(s, m, seed=s * 10 + m))
        assert bounded_aged_correlation(kern, (0,) * s) == 1.0
        assert calls == []

    def test_benchmark_late_age_needs_no_lp(self, monkeypatch):
        calls = TestBoundedAgedCorrelation.count_lps(monkeypatch)
        assert bounded_aged_correlation(joint_kernel(two_user_model(0.75)), (3, 3)) == \
            pytest.approx(0.4**3, abs=1e-12)
        assert calls == []

    @pytest.mark.parametrize("preset", ["fig3a", "fig5", "oracle-validate"])
    def test_two_user_presets_need_no_lp(self, monkeypatch, preset):
        from csdp.sweeps import PRESETS, run_sweep

        calls = TestBoundedAgedCorrelation.count_lps(monkeypatch)
        assert run_sweep(PRESETS[preset])[2] == []
        assert calls == []

    def test_temporaries_stay_within_three_times_d(self):
        kern = joint_kernel(random_model(8, 2, seed=1))
        D = np.concatenate(transport_blocks(kern, [(1,) * 8]))
        assert D.shape == (1024, 256)
        tracemalloc.start()
        try:
            bounds._transport_bounds(D, kern.space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * D.nbytes


class TestTightBound:
    def test_zero(self):
        assert tight_bound(0.0, 5.0) == 0.0

    def test_product(self):
        assert tight_bound(1.0, 2.0) == pytest.approx(2.0)

    def test_pipeline_ordering_on_benchmark(self):
        for lam in (0.25, 0.5, 1.0):
            kern = joint_kernel(two_user_model(lam))
            for t in range(5):
                for eps in (2.0, 5.0):
                    d2 = aged_tv_distance(kern, (t, t), 2)
                    lin, logf = loose_bound(d2, 2.0, eps)
                    tgt = tight_bound(bounded_aged_correlation(kern, (t, t)), eps)
                    assert tgt <= min(lin, logf) + 1e-9


class TestCmcLeakage:
    """The linear loose budget d(k) * Delta_k * eps_c on the benchmark."""

    @staticmethod
    def leakage(lam, age, eps):
        model = two_user_model(lam)
        dk = k_sensitivity(builtin_queries(model.space)["mean"], 2)
        return loose_bound(aged_tv_distance(joint_kernel(model), age, 2), dk, eps)[0]

    def test_linear_in_eps(self):
        base = self.leakage(0.75, (2, 2), 1.0)
        assert self.leakage(0.75, (2, 2), 1e-6) == pytest.approx(base * 1e-6)

    def test_age_zero_value(self):
        assert self.leakage(0.75, (0, 0), 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_decay_below_threshold_by_six(self):
        for lam in (0.5, 0.75, 1.0):
            vals = [self.leakage(lam, (t, t), 1.0) for t in range(7)]
            assert vals[6] < 0.05
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestAdpAndBaselines:
    def test_adp_endpoints(self):
        assert adp_leakage(0.0, 1.0) == 0.0
        assert adp_leakage(1.0, 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_adp_flip_chain_lag_two(self):
        assert adp_leakage(0.4**2, 1.0) == pytest.approx(
            math.log(1 + 0.16 * (math.e - 1)), abs=1e-12
        )

    @pytest.mark.parametrize("P", [
        [[0.9, 0.2], [0.1, 0.8]],
        [[0.1, 0.8], [0.9, 0.2]],
        [[0.3, 0.3], [0.7, 0.7]],
    ], ids=["lambda=0.7", "lambda=-0.7", "rank-one"])
    def test_two_state_tv_decays_at_second_eigenvalue(self, P):
        # a two-state chain is reversible, so its aged TV is |lambda_2|^t,
        # with lambda_2 = trace(P) - 1
        P = np.array(P)
        model = CmcModel(StateSpace(1, 2), P[None, None], np.ones((1, 1)))
        lam = np.trace(P) - 1
        ts = range(6)
        assert single_chain_tvs(model, ts) == pytest.approx(
            [abs(lam) ** t for t in ts], abs=1e-12)

    def test_one_solo_kernel_per_distinct_self_matrix(self, monkeypatch):
        builds = []  # the stack size of each stationary solve
        stationaries = bounds._joint_stationaries
        monkeypatch.setattr(bounds, "_joint_stationaries",
                            lambda K: builds.append(len(K)) or stationaries(K))
        ts = [0, 1, 2, 5, 1]
        # both users of the benchmark share one self matrix
        assert single_chain_tvs(two_user_model(0.25), ts) == pytest.approx(
            [0.4**t for t in ts], abs=1e-10)
        assert builds == [1]
        builds.clear()
        model = random_model(3, 2, seed=4)  # three different self matrices
        got = single_chain_tvs(model, ts)
        assert builds == [3]
        assert got == [ref.single_chain_tv(model, t) for t in ts]
        assert single_chain_tvs(model, []) == []

    def test_baselines(self):
        q = builtin_queries(StateSpace(2, 2))["mean"]
        dp, ddp = baseline_bounds(1.0, q)
        assert dp == pytest.approx(1.0)
        assert ddp == pytest.approx(2.0)
        # d(s) is read from the query's space: one user's mean has d(1) = 1
        dp, ddp = baseline_bounds(0.7, builtin_queries(StateSpace(1, 2))["mean"])
        assert dp == ddp == pytest.approx(0.7)
        assert baseline_bounds(0.7, builtin_queries(StateSpace(3, 2))["mean"])[1] == \
            pytest.approx(2.1)


class TestOracle:
    def test_age_zero_single_chain_equals_dp_budget(self):
        kern = joint_kernel(single_chain())
        q = builtin_queries(StateSpace(1, 2))["mean"]
        for eps in (0.5, 1.0, 5.0):
            params = LeakageParams((0,), eps, 1, q)
            est = oracle_leakage(kern, params)
            assert est.estimate == pytest.approx(eps, abs=1e-9)

    def test_frozen_benchmark_value(self):
        # reference implementation value for lam=0.75, t=1, eps=1
        kern = joint_kernel(two_user_model(0.75))
        q = builtin_queries(StateSpace(2, 2))["mean"]
        est = oracle_leakage(kern, LeakageParams((1, 1), 1.0, 2, q))
        assert est.estimate == pytest.approx(0.400180, abs=1e-5)

    def test_below_tight_bound_on_grid(self):
        q = builtin_queries(StateSpace(2, 2))["mean"]
        for lam in (0.0, 0.5, 0.75):
            kern = joint_kernel(two_user_model(lam))
            for t in (0, 1, 3):
                dbar = bounded_aged_correlation(kern, (t, t))
                for eps in (2.0, 5.0, 10.0):
                    est = oracle_leakage(kern, LeakageParams((t, t), eps, 2, q))
                    assert est.estimate <= tight_bound(dbar, eps) + 1e-9

    def test_independent_model_matches_adp(self):
        # uncoupled users: the exact oracle stays within the
        # single-sequence age-dependent budget (0.374 <= 0.523 at t=1,
        # 0.148 <= 0.243 at t=2)
        model = independent_pair()
        kern = joint_kernel(model)
        q = builtin_queries(StateSpace(2, 2))["mean"]
        for t in (1, 2):
            exact = exact_oracles([aged_joint(kern, (t, t))], q, [1.0])[0][0]
            assert exact <= adp_leakage(single_chain_tvs(model, [t])[0], 1.0) + 1e-9

    def test_half_line_cdf_is_a_cdf(self):
        # criterion 8's Pr[M <= theta | x] rises with theta within [0, 1],
        # and no half-line ratio exceeds the exact oracle
        law = aged_joint(joint_kernel(two_user_model(0.75)), (2, 2))
        q = builtin_queries(StateSpace(2, 2))["mean"]
        thetas, F = _half_line_cdf(law, q, 2.0)
        assert F.shape == (len(thetas), 4)
        assert np.all(np.diff(thetas) > 0) and np.all(np.diff(F, axis=0) >= 0)
        assert F.min() >= 0.0 and F.max() <= 1.0
        a, c = law.space.neighbour_pairs.T
        worst = max(np.abs(np.log(P[:, a]) - np.log(P[:, c])).max() for P in (F, 1.0 - F))
        assert worst <= exact_oracles([law], q, [2.0])[0][0] + 1e-12

    def test_sampling_matches_exact(self):
        # sampled releases of the true law fall within the DKW bound of the
        # exact half-line probabilities at every theta
        law = aged_joint(joint_kernel(two_user_model(0.5)), (1, 1))
        q = builtin_queries(StateSpace(2, 2))["mean"]
        gap = half_line_gap(law, q, 1.0, 10**5, seed=21)
        assert gap <= dkw_bound(10**5, 4, 1e-6)

    def test_sampling_deterministic(self):
        law = aged_joint(joint_kernel(two_user_model(0.5)), (1, 1))
        q = builtin_queries(StateSpace(2, 2))["mean"]
        a = half_line_gap(law, q, 1.0, 5000, seed=4)
        assert a == half_line_gap(law, q, 1.0, 5000, seed=4)
        assert a != half_line_gap(law, q, 1.0, 5000, seed=5)

    def test_few_samples_widen_the_bound(self):
        # no count floor: a small sample is checked against a wider bound
        law = aged_joint(joint_kernel(two_user_model(0.75)), (2, 2))
        q = builtin_queries(StateSpace(2, 2))["mean"]
        for n in (10, 1000, 10**4):
            assert half_line_gap(law, q, 1.0, n, seed=3) <= dkw_bound(n, 4, 1e-6)
        assert dkw_bound(100, 4, 1e-6) == pytest.approx(10 * dkw_bound(10**4, 4, 1e-6))


class TestReductions:
    def test_all_applicable_pass(self):
        cases = verify_reductions(1.0, 8)
        assert all(c.passed for c in cases if c.applicable)

    @pytest.mark.parametrize("eps_c", [0.5, 1.0, 2.0])
    def test_iid_model_at_age_one_reads_zero(self, eps_c):
        """At age 1 identical transition columns make the aged snapshot
        independent of the current one, so every budget reads 0; at age 0
        every model reads eps_c, so only age 1 tells the i.i.d. model apart."""
        cases = {c.name: c for c in verify_reductions(eps_c, 2)}
        assert list(cases)[:2] == ["iid-age0-k1", "iid-age1-k1"]
        assert cases["iid-age1-k1"].applicable and cases["iid-age1-k1"].passed
        assert cases["iid-age1-k1"].detail.endswith(" target=0")

    def test_coupled_model_fails_the_iid_age_one_case(self):
        age0, age1 = bounds._iid_cases(two_user_model(0.5), 1.0, 1e-9)
        assert age0.passed
        assert not age1.passed
        assert age1.detail == "linear=0.24 log=0.345281633144 tight=0.4 target=0"

    def test_coupled_case_not_applicable(self):
        cases = {c.name: c for c in verify_reductions()}
        assert not cases["coupled-benchmark"].applicable

    def test_other_budgets(self):
        for eps in (0.5, 2.0):
            cases = verify_reductions(eps, 4)
            assert all(c.passed for c in cases if c.applicable)

    @pytest.mark.parametrize("max_age", [2.5, 2.0, True, "2"])
    def test_non_integer_max_age_is_refused(self, max_age):
        with pytest.raises(ModelError) as raised:
            verify_reductions(1.0, max_age)
        assert str(raised.value) == f"max_age: expected an integer, got {max_age!r}"

    @pytest.mark.parametrize("eps_c, max_age", [(1.0, 8), (0.5, 12), (2.0, 0)])
    def test_independent_case_equals_the_hand_built_model(self, eps_c, max_age):
        """Built as two_user_model(1.0) with one single_chain_tvs call, the
        spatially independent case reads as it did from the hand-built model
        with one `loop_reference.single_chain_tv` call per age."""
        cases = {c.name: c for c in verify_reductions(eps_c, max_age)}
        assert cases["spatially-independent-vs-age-dependent"] == ref.spatially_independent_case(
            eps_c, max_age, 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 6), min_size=3, max_size=3), st.booleans())
    def test_independent_delta_k_is_the_degree_one_value(self, s, m, seed, times, uniform):
        """The reductions' premise: with identity coupling the conditional
        law of the aged snapshot is the product of the users' own, so
        Delta_k at the full degree s is the degree-1 loop value, at uniform
        and mixed ages alike."""
        model = random_model(s, m, seed)
        kern = joint_kernel(CmcModel(model.space, model.transitions, np.eye(s)))
        ages = [(t,) * s for t in times] if uniform else [tuple(times[:s]), tuple(times[-s:])]
        got = bounds.aged_tvs(aged_joints(kern, ages))
        want = [ref.aged_tv_distance(kern, age, 1) for age in ages]
        assert np.abs(np.subtract(got, want)).max() <= 1e-14, (got, want)

    def test_coupled_delta_k_is_not_the_degree_one_value(self):
        kern = joint_kernel(two_user_model(0.5))
        (got,) = bounds.aged_tvs([aged_joint(kern, (1, 1))])
        assert got == pytest.approx(0.24, abs=1e-12)
        assert ref.aged_tv_distance(kern, (1, 1), 1) == pytest.approx(0.2174, abs=1e-4)

    def test_two_user_model_without_cross_coupling_is_the_independent_pair(self):
        model, pair = two_user_model(1.0), independent_pair()
        assert model.space == pair.space
        assert np.array_equal(model.transitions, pair.transitions)
        assert np.array_equal(model.weights, pair.weights)

    def test_numpy_int_max_age_is_read(self):
        assert verify_reductions(1.0, np.int64(2)) == verify_reductions(1.0, 2)
